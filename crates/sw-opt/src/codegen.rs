//! Pseudo-code generation: renders a schedule as the paper's Listing 1
//! style nested-loop program. HASCO's real flow hands the best schedule to
//! a code generation tool (TVM \[11\]); this reproduction emits the
//! equivalent readable program for inspection, examples, and docs.

use std::fmt::Write;

use tensor_ir::intrinsics::Intrinsic;
use tensor_ir::workload::Workload;

use crate::schedule::{intrinsic_extent, Schedule};

/// Renders the outer software program and the tensorized interface of
/// `sched`, a schedule of `workload` on `intrinsic`.
pub fn render(sched: &Schedule, workload: &Workload, intrinsic: &Intrinsic) -> String {
    let comp = &workload.comp;
    let name = &sched.choice.intrinsic;
    let mut out = String::new();
    let mut line = |indent: usize, text: std::fmt::Arguments| {
        writeln!(out, "{:pad$}{text}", "", pad = 4 * indent).expect("a String takes every write");
    };
    line(0, format_args!("def {}_program(...):", workload.name));
    let mut indent = 1;
    for (pos, &idx) in sched.outer_order.iter().enumerate() {
        let v = comp.index(idx);
        let tile = sched.inner_extent(idx);
        let fused = pos < sched.fuse_outer && sched.fuse_outer > 1;
        let marker = if fused { "  # fused" } else { "" };
        // An untiled loop runs its whole extent.
        if tile > 1 {
            line(
                indent,
                format_args!("for {}1 in range(0, {}, {tile}):{marker}", v.name, v.extent),
            );
        } else {
            line(
                indent,
                format_args!("for {} in range(0, {}):{marker}", v.name, v.extent),
            );
        }
        indent += 1;
    }
    line(indent, format_args!("Tensorized_{name}(...)\n"));

    // The interface body.
    line(0, format_args!("def Tensorized_{name}(...):"));
    for acc in &comp.inputs {
        let t = &acc.tensor;
        line(
            1,
            format_args!("s{t} = load_tile({t})  # DRAM -> scratchpad"),
        );
    }
    let tensorized = sched.choice.tensorized_indices();
    for &idx in &tensorized {
        let v = comp.index(idx);
        let tile = sched.inner_extent(idx);
        let step = intrinsic_extent(intrinsic, &sched.choice, idx);
        line(
            1,
            format_args!("for {}2 in range(0, {tile}, {step}):", v.name),
        );
    }
    line(
        1 + tensorized.len(),
        format_args!("{name}_intrin(...)  # compute instruction"),
    );
    line(
        1,
        format_args!("store_tile({})  # scratchpad -> DRAM", comp.output.tensor),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleContext;
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
        let code = render(&sched, &ctx.workload, &ctx.intrinsic);
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
        let code = render(&sched, &ctx.workload, &ctx.intrinsic);
        assert!(code.contains("Tensorized_gemm"));
        assert!(code.contains("gemm_intrin"));
        assert!(code.contains("load_tile(A)"));
        assert!(code.contains("load_tile(B)"));
        assert!(code.contains("store_tile(C)"));
    }

    /// A fixed schedule of `setup`'s workload: its first choice, every
    /// tensorized tile twice the intrinsic extent, loops in descending id
    /// order, `fuse_outer` fused.
    fn fixed(ctx: &ScheduleContext, fuse_outer: usize) -> Schedule {
        let choice = ctx.choices[0].clone();
        let mut sched = ctx.random_schedule_for(&choice, &mut SmallRng::seed_from_u64(0));
        for (idx, tile) in sched.tiles.iter_mut() {
            *tile = 2 * ctx.intrinsic_extent(&choice, *idx);
        }
        sched.outer_order.sort();
        sched.outer_order.reverse();
        sched.fuse_outer = fuse_outer;
        sched
    }

    #[test]
    fn an_unfused_schedule_renders_its_golden_program() {
        let (ctx, _) = setup();
        assert_eq!(
            render(&fixed(&ctx, 0), &ctx.workload, &ctx.intrinsic),
            concat!(
                "def conv_program(...):\n",
                "    for s in range(0, 3):\n",
                "        for r in range(0, 3):\n",
                "            for c1 in range(0, 64, 256):\n",
                "                for y in range(0, 56):\n",
                "                    for x1 in range(0, 56, 32):\n",
                "                        for k1 in range(0, 64, 32):\n",
                "                            Tensorized_gemm(...)\n",
                "\n",
                "def Tensorized_gemm(...):\n",
                "    sA = load_tile(A)  # DRAM -> scratchpad\n",
                "    sB = load_tile(B)  # DRAM -> scratchpad\n",
                "    for k2 in range(0, 32, 16):\n",
                "    for x2 in range(0, 32, 16):\n",
                "    for c2 in range(0, 256, 128):\n",
                "                gemm_intrin(...)  # compute instruction\n",
                "    store_tile(C)  # scratchpad -> DRAM\n",
            )
        );
    }

    #[test]
    fn a_fused_schedule_renders_its_golden_program() {
        let (ctx, _) = setup();
        assert_eq!(
            render(&fixed(&ctx, 3), &ctx.workload, &ctx.intrinsic),
            concat!(
                "def conv_program(...):\n",
                "    for s in range(0, 3):  # fused\n",
                "        for r in range(0, 3):  # fused\n",
                "            for c1 in range(0, 64, 256):  # fused\n",
                "                for y in range(0, 56):\n",
                "                    for x1 in range(0, 56, 32):\n",
                "                        for k1 in range(0, 64, 32):\n",
                "                            Tensorized_gemm(...)\n",
                "\n",
                "def Tensorized_gemm(...):\n",
                "    sA = load_tile(A)  # DRAM -> scratchpad\n",
                "    sB = load_tile(B)  # DRAM -> scratchpad\n",
                "    for k2 in range(0, 32, 16):\n",
                "    for x2 in range(0, 32, 16):\n",
                "    for c2 in range(0, 256, 128):\n",
                "                gemm_intrin(...)  # compute instruction\n",
                "    store_tile(C)  # scratchpad -> DRAM\n",
            )
        );
    }

    #[test]
    fn fused_loops_are_marked() {
        let (ctx, mut sched) = setup();
        sched.fuse_outer = 3;
        let code = render(&sched, &ctx.workload, &ctx.intrinsic);
        assert!(code.contains("# fused"));
    }
}
