//! Pseudo-code generation: renders a schedule as the paper's Listing 1
//! style nested-loop program. HASCO's real flow hands the best schedule to
//! a code generation tool (TVM \[11\]); this reproduction emits the
//! equivalent readable program for inspection, examples, and docs.

use crate::schedule::{Schedule, ScheduleContext};

/// Renders the outer software program and the tensorized interface.
pub fn render(sched: &Schedule, ctx: &ScheduleContext) -> String {
    let comp = &ctx.workload.comp;
    let mut out = String::new();
    out.push_str(&format!("def {}_program(...):\n", ctx.workload.name));
    let mut indent = 1usize;
    let pad = |n: usize| "    ".repeat(n);
    for (pos, &idx) in sched.outer_order.iter().enumerate() {
        let v = comp.index(idx);
        let trip = sched.trip_count(ctx, idx);
        let tile = sched.inner_extent(idx);
        let fused = pos < sched.fuse_outer && sched.fuse_outer > 1;
        let marker = if fused { "  # fused" } else { "" };
        if tile > 1 {
            out.push_str(&format!(
                "{}for {}1 in range(0, {}, {}):{}\n",
                pad(indent),
                v.name,
                v.extent,
                tile,
                marker
            ));
        } else {
            out.push_str(&format!(
                "{}for {} in range(0, {}):{}\n",
                pad(indent),
                v.name,
                trip,
                marker
            ));
        }
        indent += 1;
    }
    out.push_str(&format!(
        "{}Tensorized_{}(...)\n\n",
        pad(indent),
        sched.choice.intrinsic
    ));

    // The interface body.
    out.push_str(&format!(
        "def Tensorized_{}(...):\n",
        sched.choice.intrinsic
    ));
    for acc in &comp.inputs {
        out.push_str(&format!(
            "    s{0} = load_tile({0})  # DRAM -> scratchpad\n",
            acc.tensor
        ));
    }
    let tensorized = sched.choice.tensorized_indices();
    for idx in &tensorized {
        let v = comp.index(*idx);
        let tile = sched.inner_extent(*idx);
        let step = ctx.intrinsic_extent(&sched.choice, *idx);
        out.push_str(&format!(
            "    for {}2 in range(0, {}, {}):\n",
            v.name, tile, step
        ));
    }
    out.push_str(&format!(
        "    {}{}_intrin(...)  # compute instruction\n",
        "    ".repeat(tensorized.len()),
        sched.choice.intrinsic
    ));
    out.push_str(&format!(
        "    store_tile({})  # scratchpad -> DRAM\n",
        comp.output.tensor
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_model::arch::AcceleratorConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;

    fn setup() -> (ScheduleContext, Schedule) {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let wl = suites::conv2d_workload("conv", 64, 64, 56, 56, 3, 3);
        let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let sched = ctx.random_schedule(&mut rng);
        (ctx, sched)
    }

    #[test]
    fn render_contains_all_outer_loops() {
        let (ctx, sched) = setup();
        let code = render(&sched, &ctx);
        for idx in &sched.outer_order {
            let name = &ctx.workload.comp.index(*idx).name;
            assert!(
                code.contains(&format!("for {name}")),
                "missing loop {name}:\n{code}"
            );
        }
    }

    #[test]
    fn render_contains_interface_and_intrinsic() {
        let (ctx, sched) = setup();
        let code = render(&sched, &ctx);
        assert!(code.contains("Tensorized_gemm"));
        assert!(code.contains("gemm_intrin"));
        assert!(code.contains("load_tile(A)"));
        assert!(code.contains("load_tile(B)"));
        assert!(code.contains("store_tile(C)"));
    }

    #[test]
    fn a_schedule_renders_alike_through_its_own_context() {
        let (ctx, _) = setup();
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..16 {
            let sched = ctx.random_schedule(&mut rng);
            let own = ScheduleContext::of_schedule(&ctx.workload, &ctx.intrinsic, &sched);
            assert_eq!(render(&sched, &own), render(&sched, &ctx));
        }
    }

    #[test]
    fn fused_loops_are_marked() {
        let (ctx, mut sched) = setup();
        sched.fuse_outer = 3;
        let code = render(&sched, &ctx);
        assert!(code.contains("# fused"));
    }
}
