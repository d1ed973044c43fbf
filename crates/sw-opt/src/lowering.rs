//! Lowering schedules to [`ExecutionPlan`]s — the cost connection between
//! software optimization and the accelerator model.
//!
//! The DRAM traffic follows the classic tile-reuse rule: a tensor's tile is
//! re-fetched on every iteration of the outer loops from the outermost down
//! to the innermost loop that indexes the tensor; loops nested inside that
//! point reuse the buffered tile. This is what makes loop *order* matter
//! (programs p1 vs. p2 of the paper's Fig. 2) and tensorize-choice
//! continuity matter (choices a vs. b of Fig. 7(c)).

use accel_model::arch::AcceleratorConfig;
use accel_model::plan::{ExecutionPlan, TensorTraffic};
use tensor_ir::expr::{Access, AffineDim};
use tensor_ir::IndexId;

use crate::schedule::{Schedule, ScheduleContext};
use crate::SwError;

/// Detailed quantities computed during lowering (exposed for tests,
/// reports, and the interface generator).
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredSchedule {
    /// The priced plan.
    pub plan: ExecutionPlan,
    /// Interface invocations (product of outer trips).
    pub invocations: u64,
    /// Intrinsic calls per invocation.
    pub calls_per_invocation: u64,
    /// Scratchpad bytes needed by one invocation's sub-tensors.
    pub tile_footprint_bytes: u64,
    /// Per-tensor sub-tile bytes, inputs then output.
    pub subtensor_bytes: Vec<(String, u64)>,
}

/// Sub-tensor extent of one access dimension inside a single invocation,
/// applying the halo rule to affine subscripts (`x + r` with tile `Tx` and
/// inner `r` extent `Tr` spans `Tx + Tr − 1`).
fn inner_dim_extent(sched: &Schedule, dim_terms: &[IndexId]) -> u64 {
    let sum: u64 = dim_terms.iter().map(|t| sched.inner_extent(*t)).sum();
    sum + 1 - dim_terms.len() as u64
}

fn subtensor_shape(sched: &Schedule, access: &Access) -> Vec<u64> {
    access
        .dims
        .iter()
        .map(|d| inner_dim_extent(sched, &d.terms))
        .collect()
}

/// Bytes of one invocation's sub-tensor tile of an access.
pub(crate) fn subtensor_bytes(sched: &Schedule, access: &Access, dtype: u64) -> u64 {
    subtensor_shape(sched, access).iter().product::<u64>() * dtype
}

/// Average contiguous DRAM run of a sub-tensor slice.
///
/// Tensors accessed through simple (single-variable) subscripts get a
/// compiler-chosen tile-packed DRAM layout — each tile is stored
/// contiguously, as TVM-style layout transforms do — so the run equals the
/// tile size. Tensors with affine-window subscripts (`x + r`) have
/// overlapping tiles that cannot all be packed; they fall back to the
/// row-major trailing-run analysis.
pub(crate) fn contiguous_run(
    sched: &Schedule,
    ctx: &ScheduleContext,
    access: &Access,
    dtype: u64,
) -> u64 {
    if access.dims.iter().all(AffineDim::is_simple) {
        return subtensor_bytes(sched, access, dtype).max(dtype);
    }
    let full = ctx.workload.comp.tensor_shape(access);
    let inner = subtensor_shape(sched, access);
    let mut run = 1u64;
    for (i, (&f, &t)) in full.iter().zip(inner.iter()).enumerate().rev() {
        run = run.saturating_mul(t);
        let innermost = i == full.len() - 1;
        if t < f || (!innermost && t != f) {
            break;
        }
    }
    run.saturating_mul(dtype).max(dtype)
}

/// Innermost outer-loop position that the access depends on, or `None` when
/// the access uses no loops (scalar).
pub(crate) fn reuse_level(sched: &Schedule, access: &Access) -> Option<usize> {
    sched
        .outer_order
        .iter()
        .enumerate()
        .filter(|(_, &idx)| access.uses(idx))
        .map(|(pos, _)| pos)
        .max()
}

/// DRAM fetch multiplicity of an access: the product of outer trip counts
/// down to (and including) its reuse level.
///
/// Loops that only shift an affine window (e.g. `r` in `A[c, x+r, y+s]`
/// when `x` is tensorized with a large tile) are discounted when they sit
/// at the access's reuse level: consecutive window positions overlap in all
/// but one element per step, and a line-buffered scratchpad fetches only
/// the new fringe. This is what makes direct convolution partitioning
/// competitive with (and for odd filters better than) a dedicated CONV2D
/// intrinsic, as in the paper's Fig. 7(b).
fn fetch_multiplicity(sched: &Schedule, ctx: &ScheduleContext, access: &Access) -> u64 {
    let Some(level) = reuse_level(sched, access) else {
        return 1;
    };
    // Window-partner tile per loop: if `idx` shares an affine dim with
    // tensorized partners, shifting `idx` by one adds only `1/partner` new
    // data along that dim (line buffering).
    let partner_of = |idx: IndexId| -> Option<u64> {
        for dim in &access.dims {
            if dim.terms.len() > 1 && dim.terms.contains(&idx) {
                let partner: u64 = dim
                    .terms
                    .iter()
                    .filter(|&&t| t != idx)
                    .map(|&t| sched.inner_extent(t))
                    .sum();
                if partner > 1 {
                    return Some(partner);
                }
            }
        }
        None
    };
    // Walk relevant loops from the reuse level upward; consecutive trailing
    // window loops are halo-discounted, anything above a non-window loop
    // pays full trips.
    let mut mult = 1.0f64;
    let mut discounting = true;
    for &idx in sched.outer_order[..=level].iter().rev() {
        let trips = sched.trip_count(ctx, idx) as f64;
        if !access.uses(idx) {
            // An irrelevant loop inside the prefix re-sweeps the deeper
            // relevant loops (full refetch per iteration) and breaks the
            // line-buffer continuity of any window loop above it.
            if trips > 1.0 {
                discounting = false;
            }
            mult *= trips;
            continue;
        }
        match partner_of(idx) {
            Some(partner) if discounting => {
                mult *= 1.0 + (trips - 1.0) / partner as f64;
            }
            _ => {
                discounting = false;
                mult *= trips;
            }
        }
    }
    mult.ceil() as u64
}

/// Lowers a schedule to an execution plan.
///
/// # Errors
/// Returns [`SwError::ScratchpadOverflow`] when the sub-tensors do not fit
/// the accelerator's scratchpad, or a validation error for malformed
/// schedules.
pub fn lower(
    sched: &Schedule,
    ctx: &ScheduleContext,
    cfg: &AcceleratorConfig,
) -> Result<LoweredSchedule, SwError> {
    sched.validate(ctx)?;
    let comp = &ctx.workload.comp;
    let dtype = cfg.dtype_bytes;

    // --- scratchpad capacity -------------------------------------------
    let mut sub_bytes: Vec<(String, u64)> = Vec::new();
    let mut tile_footprint = 0u64;
    for acc in comp.inputs.iter().chain(std::iter::once(&comp.output)) {
        let b = subtensor_bytes(sched, acc, dtype);
        tile_footprint += b;
        sub_bytes.push((acc.tensor.clone(), b));
    }
    if tile_footprint > cfg.scratchpad_bytes {
        return Err(SwError::ScratchpadOverflow {
            required: tile_footprint,
            available: cfg.scratchpad_bytes,
        });
    }
    let double_buffered = 2 * tile_footprint <= cfg.scratchpad_bytes;

    // --- intrinsic chunking and padding --------------------------------
    // Iterate per distinct tensorized compute variable (the var map is a
    // var-level bijection, but intrinsic leaves may repeat a variable).
    // Spatially mapped dims (PE lanes, hard-wired filter windows) pad
    // rigidly to the intrinsic extent — the Fig. 7(b) redundant-computation
    // effect for 5x5/7x7 filters on a 3x3 CONV2D intrinsic. Deep reduction
    // streams (GEMM's k, GEMV's j, DOT) can stop early and pad nothing.
    let mut calls_per_invocation = 1u64;
    let mut padded_per_invocation = 1u64;
    for idx in sched.choice.tensorized_indices() {
        let ext_q = ctx.intrinsic_extent(&sched.choice, idx);
        let tile = sched.inner_extent(idx);
        let chunks = tile.div_ceil(ext_q);
        let streamable = ctx.workload.comp.index(idx).is_reduction() && ext_q >= 16;
        let padded = if streamable { tile } else { chunks * ext_q };
        calls_per_invocation = calls_per_invocation.saturating_mul(chunks);
        padded_per_invocation = padded_per_invocation.saturating_mul(padded);
    }

    let invocations = sched.invocations(ctx);
    let macs_useful = comp.iteration_points();
    let macs_padded = invocations
        .saturating_mul(padded_per_invocation)
        .max(macs_useful);
    let intrinsic_calls = invocations.saturating_mul(calls_per_invocation);

    // --- DRAM traffic ----------------------------------------------------
    let mut dram_reads = Vec::new();
    let mut dram_writes = Vec::new();
    let mut rearrange_bytes = 0u64;
    for acc in &comp.inputs {
        let bytes =
            subtensor_bytes(sched, acc, dtype).saturating_mul(fetch_multiplicity(sched, ctx, acc));
        let run = contiguous_run(sched, ctx, acc, dtype);
        if sched.choice.needs_rearrangement && acc.dims.iter().any(|d| !d.is_simple()) {
            rearrange_bytes = rearrange_bytes.saturating_add(bytes);
        }
        dram_reads.push(TensorTraffic::new(acc.tensor.clone(), bytes, run));
    }
    {
        let out = &comp.output;
        let writes =
            subtensor_bytes(sched, out, dtype).saturating_mul(fetch_multiplicity(sched, ctx, out));
        let run = contiguous_run(sched, ctx, out, dtype);
        dram_writes.push(TensorTraffic::new(out.tensor.clone(), writes, run));
        // Read-modify-write when a reduction loop sits at or outside the
        // output's reuse level: partial sums must be reloaded.
        if let Some(level) = reuse_level(sched, out) {
            let rmw = sched.outer_order[..=level]
                .iter()
                .any(|&idx| comp.index(idx).is_reduction());
            if rmw {
                dram_reads.push(TensorTraffic::new(
                    format!("{}(acc)", out.tensor),
                    writes,
                    run,
                ));
            }
        }
    }

    // --- scratchpad traffic ---------------------------------------------
    // Each operand streams to the PEs once per chunk of every intrinsic
    // dimension it does *not* use; the output tile is revisited once per
    // reduction chunk.
    let mut spad_per_invocation = 0u64;
    for acc in &comp.inputs {
        let mut restream = 1u64;
        for idx in sched.choice.tensorized_indices() {
            if !acc.uses(idx) {
                let ext_q = ctx.intrinsic_extent(&sched.choice, idx);
                restream = restream.saturating_mul(sched.inner_extent(idx).div_ceil(ext_q));
            }
        }
        spad_per_invocation = spad_per_invocation
            .saturating_add(subtensor_bytes(sched, acc, dtype).saturating_mul(restream));
    }
    {
        let mut red_chunks = 1u64;
        for idx in sched.choice.tensorized_indices() {
            if comp.index(idx).is_reduction() {
                let ext_q = ctx.intrinsic_extent(&sched.choice, idx);
                red_chunks = red_chunks.saturating_mul(sched.inner_extent(idx).div_ceil(ext_q));
            }
        }
        spad_per_invocation = spad_per_invocation
            .saturating_add(subtensor_bytes(sched, &comp.output, dtype).saturating_mul(red_chunks));
    }
    let spad_traffic_bytes = spad_per_invocation.saturating_mul(invocations);

    // --- host loop control -------------------------------------------
    // Each level of the outer loop nest costs ~2 host cycles of control
    // per iteration of everything above it; fusing the `fuse_outer`
    // outermost loops collapses them into a single launch loop (§VI-A's
    // `fuse` primitive).
    let mut host_control_cycles = 0u64;
    let mut running = 1u64;
    let effective_levels: Vec<u64> = {
        let mut levels: Vec<u64> = Vec::new();
        let mut fused_trip = 1u64;
        for (pos, &idx) in sched.outer_order.iter().enumerate() {
            let t = sched.trip_count(ctx, idx);
            if pos + 1 < sched.fuse_outer.max(1) && pos + 1 < sched.outer_order.len() {
                // Part of the fused outermost loop: accumulate, emit once.
                fused_trip = fused_trip.saturating_mul(t);
            } else {
                levels.push(fused_trip.saturating_mul(t));
                fused_trip = 1;
            }
        }
        levels
    };
    for t in effective_levels {
        running = running.saturating_mul(t);
        host_control_cycles = host_control_cycles.saturating_add(running.saturating_mul(2));
    }

    let plan = ExecutionPlan {
        intrinsic_calls,
        macs_useful,
        macs_padded,
        dram_reads,
        dram_writes,
        spad_traffic_bytes,
        rearrange_bytes,
        stages: invocations.max(1),
        double_buffered,
        host_control_cycles,
    };
    Ok(LoweredSchedule {
        plan,
        invocations,
        calls_per_invocation,
        tile_footprint_bytes: tile_footprint,
        subtensor_bytes: sub_bytes,
    })
}

/// Convenience: lower and price in one step, through any cost backend
/// (analytic, trace-sim, or surrogate — see [`accel_model::backend`]).
///
/// # Errors
/// Propagates lowering errors.
pub fn evaluate(
    sched: &Schedule,
    ctx: &ScheduleContext,
    cfg: &AcceleratorConfig,
    backend: &dyn accel_model::CostBackend,
) -> Result<accel_model::Metrics, SwError> {
    let lowered = lower(sched, ctx, cfg)?;
    Ok(backend.evaluate(cfg, &lowered.plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_model::CostModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;

    fn gemm_ctx(n: u64) -> (ScheduleContext, AcceleratorConfig) {
        let wl = suites::gemm_workload("g", n, n, n);
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let intr = cfg.intrinsic_comp();
        (ScheduleContext::new(&wl, &intr).unwrap(), cfg)
    }

    /// A canonical GEMM schedule: tensorize (i, j, k) with the given tiles,
    /// outer order as given by names.
    fn gemm_schedule(ctx: &ScheduleContext, ti: u64, tk: u64, tj: u64, order: &[&str]) -> Schedule {
        // Find the choice that binds all three loops (i, j spatial, k red).
        let choice = ctx
            .choices
            .iter()
            .find(|c| c.tensorized_indices().len() == 3 && !c.needs_rearrangement)
            .expect("full gemm choice exists")
            .clone();
        let comp = &ctx.workload.comp;
        let mut tiles = BTreeMap::new();
        tiles.insert(comp.index_by_name("i").unwrap(), ti);
        tiles.insert(comp.index_by_name("k").unwrap(), tk);
        tiles.insert(comp.index_by_name("j").unwrap(), tj);
        let outer_order = order
            .iter()
            .map(|n| comp.index_by_name(n).unwrap())
            .collect();
        Schedule {
            choice,
            tiles,
            outer_order,
            fuse_outer: 0,
        }
    }

    #[test]
    fn exact_tiling_has_no_padding() {
        let (ctx, cfg) = gemm_ctx(256);
        let s = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        let l = lower(&s, &ctx, &cfg).unwrap();
        assert_eq!(l.plan.macs_useful, 256u64.pow(3));
        assert_eq!(l.plan.macs_padded, l.plan.macs_useful);
        assert_eq!(l.invocations, 4 * 4 * 4);
        // Tile 64^3 on the 16x64x16 intrinsic (k streamed 64-deep):
        // 4 i-chunks x 1 k-chunk x 4 j-chunks.
        assert_eq!(l.calls_per_invocation, 16);
    }

    #[test]
    fn non_dividing_tile_pads() {
        let (ctx, cfg) = gemm_ctx(100);
        let s = gemm_schedule(&ctx, 48, 48, 48, &["i", "j", "k"]);
        let l = lower(&s, &ctx, &cfg).unwrap();
        assert!(l.plan.macs_padded > l.plan.macs_useful);
        assert!(l.plan.utilization() < 1.0);
    }

    #[test]
    fn loop_order_changes_dram_traffic() {
        // The Fig. 2 p1-vs-p2 effect: same tiles, different order, different
        // memory traffic.
        let (ctx, cfg) = gemm_ctx(512);
        let a = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        let b = gemm_schedule(&ctx, 64, 64, 64, &["k", "j", "i"]);
        let la = lower(&a, &ctx, &cfg).unwrap();
        let lb = lower(&b, &ctx, &cfg).unwrap();
        assert_ne!(la.plan.dram_bytes(), lb.plan.dram_bytes());
    }

    #[test]
    fn innermost_irrelevant_loop_enables_reuse() {
        // Order (k, j, i): M[i,k] doesn't use j... rather: with i innermost,
        // N[k,j] (not using i) is fetched fewer times than with order
        // (i, k, j) where j is innermost for it.
        let (ctx, _cfg) = gemm_ctx(512);
        let comp = &ctx.workload.comp;
        let n_acc = comp.inputs.iter().find(|a| a.tensor == "N").unwrap();
        let s1 = gemm_schedule(&ctx, 64, 64, 64, &["k", "j", "i"]);
        let s2 = gemm_schedule(&ctx, 64, 64, 64, &["i", "k", "j"]);
        let m1 = fetch_multiplicity(&s1, &ctx, n_acc);
        let m2 = fetch_multiplicity(&s2, &ctx, n_acc);
        // s1: N's innermost relevant loop is j at position 1 -> 8*8 = 64.
        // s2: j innermost at position 2 -> 8*8*8 = 512.
        assert_eq!(m1, 64);
        assert_eq!(m2, 512);
    }

    #[test]
    fn bigger_tiles_cut_traffic() {
        let (ctx, cfg) = gemm_ctx(512);
        let small = gemm_schedule(&ctx, 16, 16, 16, &["i", "j", "k"]);
        let big = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        let ls = lower(&small, &ctx, &cfg).unwrap();
        let lb = lower(&big, &ctx, &cfg).unwrap();
        assert!(lb.plan.dram_bytes() < ls.plan.dram_bytes());
    }

    #[test]
    fn scratchpad_overflow_is_detected() {
        let (ctx, mut cfg) = gemm_ctx(512);
        cfg.scratchpad_bytes = 4 * 1024;
        let s = gemm_schedule(&ctx, 256, 256, 256, &["i", "j", "k"]);
        assert!(matches!(
            lower(&s, &ctx, &cfg),
            Err(SwError::ScratchpadOverflow { .. })
        ));
    }

    #[test]
    fn double_buffering_requires_half_spad() {
        let (ctx, mut cfg) = gemm_ctx(256);
        let s = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        // Footprint: (64*64)*3 tensors * 2B = 24576 B.
        let l = lower(&s, &ctx, &cfg).unwrap();
        assert_eq!(l.tile_footprint_bytes, 3 * 64 * 64 * 2);
        assert!(l.plan.double_buffered);
        cfg.scratchpad_bytes = l.tile_footprint_bytes + 100; // < 2x
        let l2 = lower(&s, &ctx, &cfg).unwrap();
        assert!(!l2.plan.double_buffered);
    }

    #[test]
    fn reduction_outside_output_level_forces_rmw() {
        let (ctx, cfg) = gemm_ctx(256);
        // Order (i, j, k): k innermost, deeper than L's reuse level — the
        // output tile accumulates in the scratchpad and is written once.
        let inner_k = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        let l1 = lower(&inner_k, &ctx, &cfg).unwrap();
        assert!(!l1.plan.dram_reads.iter().any(|t| t.tensor == "L(acc)"));
        // Order (k, i, j): k outermost — every output tile is revisited
        // trips(k) times, forcing read-modify-write traffic.
        let outer_k = gemm_schedule(&ctx, 64, 64, 64, &["k", "i", "j"]);
        let l2 = lower(&outer_k, &ctx, &cfg).unwrap();
        assert!(l2.plan.dram_reads.iter().any(|t| t.tensor == "L(acc)"));
        assert!(l2.plan.dram_writes[0].bytes > l1.plan.dram_writes[0].bytes);
    }

    #[test]
    fn full_reduction_tile_single_pass_writes_output_once() {
        let (ctx, cfg) = gemm_ctx(256);
        // Tensorize k fully (tile 256): every invocation computes a final
        // output tile; order (i, j, k) with trip(k) = 1.
        let s = gemm_schedule(&ctx, 64, 256, 64, &["i", "j", "k"]);
        let l = lower(&s, &ctx, &cfg).unwrap();
        // L written exactly once: 256*256 elements * 2 B.
        assert_eq!(l.plan.dram_writes[0].bytes, 256 * 256 * 2);
    }

    #[test]
    fn simple_subscript_tensors_are_tile_packed() {
        let (ctx, _cfg) = gemm_ctx(256);
        // N[k, j] has simple subscripts: the compiler packs tiles, so the
        // run equals the tile size regardless of the tile shape.
        let comp = &ctx.workload.comp;
        let n_acc = comp.inputs.iter().find(|a| a.tensor == "N").unwrap();
        let s_full = gemm_schedule(&ctx, 64, 64, 256, &["i", "j", "k"]);
        assert_eq!(contiguous_run(&s_full, &ctx, n_acc, 2), 64 * 256 * 2);
        let s_part = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        assert_eq!(contiguous_run(&s_part, &ctx, n_acc, 2), 64 * 64 * 2);
    }

    #[test]
    fn affine_tensors_use_trailing_run_analysis() {
        // Conv's A[c, x+r, y+s] cannot be tile-packed: overlapping windows.
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let s = ctx.random_schedule(&mut rng);
        let a_acc = ctx
            .workload
            .comp
            .inputs
            .iter()
            .find(|a| a.tensor == "A")
            .unwrap();
        let run = contiguous_run(&s, &ctx, a_acc, 2);
        let tile_bytes = subtensor_bytes(&s, a_acc, 2);
        assert!(
            run <= tile_bytes,
            "affine run {run} must not exceed tile {tile_bytes}"
        );
    }

    #[test]
    fn halo_discount_rewards_window_inner_orders() {
        // With r, s innermost, A's window loops are line-buffered; with
        // them outermost the tensor is refetched per filter tap.
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
        let comp = &ctx.workload.comp;
        let id = |n: &str| comp.index_by_name(n).unwrap();
        let choice = ctx
            .choices
            .iter()
            .find(|c| {
                let v = c.tensorized_indices();
                v.contains(&id("c")) && v.contains(&id("x")) && !c.needs_rearrangement
            })
            .unwrap()
            .clone();
        let mut tiles = std::collections::BTreeMap::new();
        tiles.insert(id("k"), 64);
        tiles.insert(id("c"), 64);
        tiles.insert(id("x"), 28);
        let a_acc = comp.inputs.iter().find(|a| a.tensor == "A").unwrap();
        let mk = |order: &[&str]| Schedule {
            choice: choice.clone(),
            tiles: tiles.clone(),
            outer_order: order.iter().map(|n| id(n)).collect(),
            fuse_outer: 0,
        };
        // `r` windows against the tensorized `x` (tile 28): putting `r`
        // innermost line-buffers it; putting it outermost refetches A per
        // filter tap.
        let window_inner = mk(&["k", "y", "s", "c", "x", "r"]);
        let window_outer = mk(&["r", "s", "k", "y", "c", "x"]);
        let mi = fetch_multiplicity(&window_inner, &ctx, a_acc);
        let mo = fetch_multiplicity(&window_outer, &ctx, a_acc);
        assert!(mi < mo, "window-inner {mi} should beat window-outer {mo}");
    }

    #[test]
    fn rearranged_choice_charges_rearrange_bytes() {
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
        let rearranged = ctx.choices.iter().find(|c| c.needs_rearrangement);
        if let Some(choice) = rearranged {
            let mut rng = SmallRng::seed_from_u64(3);
            for _ in 0..20 {
                let s = ctx.random_schedule_for(choice, &mut rng);
                if let Ok(l) = lower(&s, &ctx, &cfg) {
                    assert!(l.plan.rearrange_bytes > 0);
                    return;
                }
            }
            panic!("no valid schedule found for rearranged choice");
        }
    }

    #[test]
    fn strict_choice_has_no_rearrange_bytes() {
        let (ctx, cfg) = gemm_ctx(256);
        let s = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        let l = lower(&s, &ctx, &cfg).unwrap();
        assert_eq!(l.plan.rearrange_bytes, 0);
    }

    #[test]
    fn evaluate_returns_metrics() {
        let (ctx, cfg) = gemm_ctx(256);
        let s = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        let m = evaluate(&s, &ctx, &cfg, &accel_model::AnalyticBackend::default()).unwrap();
        assert!(m.latency_cycles > 0.0 && m.power_mw > 0.0);
    }

    #[test]
    fn evaluate_dispatches_to_any_backend() {
        let (ctx, cfg) = gemm_ctx(256);
        let s = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        for kind in accel_model::BackendKind::ALL {
            let backend = kind.build();
            let m = evaluate(&s, &ctx, &cfg, backend.as_ref()).unwrap();
            assert!(m.latency_cycles > 0.0, "{kind}");
        }
    }

    #[test]
    fn spad_traffic_accounts_restreaming() {
        let (ctx, cfg) = gemm_ctx(256);
        // Larger j tile => M (which doesn't use j) restreams more chunks per
        // invocation, but fewer invocations; totals should stay comparable
        // while never being zero.
        let s = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        let l = lower(&s, &ctx, &cfg).unwrap();
        assert!(l.plan.spad_traffic_bytes > 0);
        // M tile is 64x64x2 B, restreamed ceil(64/16)=4 times per invocation
        // for j chunks; N likewise for i; L revisited ceil(64/64)=1 time
        // (the k stream is 64-deep).
        let m_bytes = 64 * 64 * 2 * 4;
        let n_bytes = 64 * 64 * 2 * 4;
        let l_bytes = 64 * 64 * 2;
        assert_eq!(
            l.plan.spad_traffic_bytes,
            (m_bytes + n_bytes + l_bytes) * l.invocations
        );
    }

    #[test]
    fn fusing_outer_loops_cuts_host_control() {
        let (ctx, cfg) = gemm_ctx(512);
        let mut unfused = gemm_schedule(&ctx, 64, 64, 64, &["i", "j", "k"]);
        unfused.fuse_outer = 0;
        let mut fused = unfused.clone();
        fused.fuse_outer = 3;
        let lu = lower(&unfused, &ctx, &cfg).unwrap();
        let lf = lower(&fused, &ctx, &cfg).unwrap();
        assert!(
            lf.plan.host_control_cycles < lu.plan.host_control_cycles,
            "fused {} vs unfused {}",
            lf.plan.host_control_cycles,
            lu.plan.host_control_cycles
        );
        // Fusion does not change the accelerator-side work.
        assert_eq!(lf.plan.macs_padded, lu.plan.macs_padded);
        assert_eq!(lf.plan.dram_bytes(), lu.plan.dram_bytes());
        // And the cost model rewards it.
        let model = CostModel::default();
        assert!(model.latency_cycles(&cfg, &lf.plan) <= model.latency_cycles(&cfg, &lu.plan));
    }

    #[test]
    fn conv_workload_lowers_end_to_end() {
        let wl = suites::conv2d_workload("c", 64, 64, 56, 56, 3, 3);
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut ok = 0;
        for _ in 0..30 {
            let s = ctx.random_schedule(&mut rng);
            if let Ok(l) = lower(&s, &ctx, &cfg) {
                assert!(l.plan.macs_padded >= l.plan.macs_useful);
                assert!(l.plan.dram_bytes() > 0);
                ok += 1;
            }
        }
        assert!(ok > 5, "only {ok}/30 random schedules were valid");
    }
}
