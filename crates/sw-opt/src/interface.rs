//! Interface generation (§VI-C): lowering a schedule to the accelerator's
//! instruction stream.
//!
//! "HASCO inserts the data movement instructions before and after the
//! intrinsic call to prepare the scratchpad. Then it replaces the intrinsic
//! call with the compute instructions." Loads are emitted only when an
//! outer loop that the tensor depends on has advanced — the instruction
//! stream realizes exactly the reuse the lowering analysis prices.

use accel_model::arch::AcceleratorConfig;
use accel_model::isa::{Instr, Program};
use tensor_ir::expr::Access;

use crate::lowering::{self, LoweredSchedule};
use crate::schedule::{Schedule, ScheduleContext};
use crate::SwError;

/// A generated interface: the instruction stream plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Interface {
    /// The instruction stream (possibly truncated, see
    /// [`Interface::truncated`]).
    pub program: Program,
    /// The lowering detail used to emit the stream.
    pub lowered: LoweredSchedule,
    /// True when the stream was capped at `max_invocations` stages; the
    /// simulator result then covers a prefix of the execution.
    pub truncated: bool,
}

/// Per-invocation reload period of a tensor: the number of consecutive
/// invocations that share its tile (product of trip counts *inside* its
/// reuse level).
fn reload_period(sched: &Schedule, ctx: &ScheduleContext, access: &Access) -> u64 {
    match lowering::reuse_level(sched, access) {
        None => u64::MAX,
        Some(level) => sched.outer_order[level + 1..]
            .iter()
            .map(|&idx| sched.trip_count(ctx, idx))
            .product(),
    }
}

/// Generates the instruction stream for a schedule, emitting at most
/// `max_invocations` interface stages.
///
/// # Errors
/// Propagates lowering errors (invalid schedule / scratchpad overflow).
pub fn generate_program(
    sched: &Schedule,
    ctx: &ScheduleContext,
    cfg: &AcceleratorConfig,
    max_invocations: u64,
) -> Result<Interface, SwError> {
    let lowered = lowering::lower(sched, ctx, cfg)?;
    let comp = &ctx.workload.comp;
    let dtype = cfg.dtype_bytes;

    // Per-tensor tile bytes, contiguity, and reload periods — the
    // lowering's own tile analysis, so the stream moves what it prices.
    struct TensorInfo {
        name: String,
        bytes: u64,
        run: u64,
        period: u64,
    }
    let info = |acc: &Access| TensorInfo {
        name: acc.tensor.clone(),
        bytes: lowering::subtensor_bytes(sched, acc, dtype),
        run: lowering::contiguous_run(sched, ctx, acc, dtype),
        period: reload_period(sched, ctx, acc),
    };
    let inputs: Vec<TensorInfo> = comp.inputs.iter().map(info).collect();
    let output = info(&comp.output);

    let spad_per_invocation = lowered.plan.spad_traffic_bytes / lowered.invocations.max(1);
    let macs_per_invocation = lowered.plan.macs_padded / lowered.invocations.max(1);

    let total = lowered.invocations;
    let emit = total.min(max_invocations);
    let mut program = Program::new();
    for inv in 0..emit {
        for t in &inputs {
            if t.period == u64::MAX || inv % t.period.max(1) == 0 {
                program.push(Instr::Load {
                    tensor: t.name.clone(),
                    bytes: t.bytes,
                    contiguous_run: t.run,
                });
            }
        }
        program.push(Instr::Compute {
            calls: lowered.calls_per_invocation,
            macs: macs_per_invocation,
            spad_bytes: spad_per_invocation,
        });
        if output.period == u64::MAX || (inv + 1) % output.period.max(1) == 0 {
            program.push(Instr::Store {
                tensor: output.name.clone(),
                bytes: output.bytes,
                contiguous_run: output.run,
            });
        }
        program.push(Instr::Barrier);
    }
    Ok(Interface {
        program,
        lowered,
        truncated: emit < total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_model::sim::TraceSimulator;
    use std::collections::BTreeMap;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;
    use tensor_ir::IndexId;

    fn setup() -> (ScheduleContext, AcceleratorConfig, Schedule) {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let wl = suites::gemm_workload("g", 128, 128, 128);
        let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
        let choice = ctx
            .choices
            .iter()
            .find(|c| c.tensorized_indices().len() == 3 && !c.needs_rearrangement)
            .unwrap()
            .clone();
        let comp = &ctx.workload.comp;
        let mut tiles = BTreeMap::new();
        for name in ["i", "j", "k"] {
            tiles.insert(comp.index_by_name(name).unwrap(), 64);
        }
        let outer_order: Vec<IndexId> = ["i", "j", "k"]
            .iter()
            .map(|n| comp.index_by_name(n).unwrap())
            .collect();
        let sched = Schedule {
            choice,
            tiles,
            outer_order,
            fuse_outer: 0,
        };
        (ctx, cfg, sched)
    }

    #[test]
    fn program_has_one_stage_per_invocation() {
        let (ctx, cfg, sched) = setup();
        let iface = generate_program(&sched, &ctx, &cfg, 1000).unwrap();
        assert!(!iface.truncated);
        assert_eq!(
            iface.program.stage_count() as u64,
            iface.lowered.invocations
        );
        assert_eq!(iface.lowered.invocations, 8); // (128/64)^3
    }

    #[test]
    fn loads_respect_reuse_periods() {
        let (ctx, cfg, sched) = setup();
        let iface = generate_program(&sched, &ctx, &cfg, 1000).unwrap();
        // Total loaded bytes must equal the lowering's DRAM read traffic
        // (minus the synthetic accumulator reads, which the instruction
        // stream realizes as explicit loads only via the (acc) entry).
        let reads_plain: u64 = iface
            .lowered
            .plan
            .dram_reads
            .iter()
            .filter(|t| !t.tensor.ends_with("(acc)"))
            .map(|t| t.bytes)
            .sum();
        assert_eq!(iface.program.total_load_bytes(), reads_plain);
    }

    #[test]
    fn stores_match_write_traffic() {
        let (ctx, cfg, sched) = setup();
        let iface = generate_program(&sched, &ctx, &cfg, 1000).unwrap();
        let writes: u64 = iface.lowered.plan.dram_writes.iter().map(|t| t.bytes).sum();
        assert_eq!(iface.program.total_store_bytes(), writes);
    }

    #[test]
    fn compute_totals_match_plan() {
        let (ctx, cfg, sched) = setup();
        let iface = generate_program(&sched, &ctx, &cfg, 1000).unwrap();
        assert_eq!(
            iface.program.total_calls(),
            iface.lowered.plan.intrinsic_calls
        );
        assert_eq!(iface.program.total_macs(), iface.lowered.plan.macs_padded);
    }

    #[test]
    fn truncation_caps_stages() {
        let (ctx, cfg, sched) = setup();
        let iface = generate_program(&sched, &ctx, &cfg, 3).unwrap();
        assert!(iface.truncated);
        assert_eq!(iface.program.stage_count(), 3);
    }

    #[test]
    fn simulated_latency_close_to_analytical() {
        let (ctx, cfg, sched) = setup();
        let iface = generate_program(&sched, &ctx, &cfg, 10_000).unwrap();
        let sim = TraceSimulator::default();
        let traced = sim.run(&cfg, &iface.program, iface.lowered.plan.double_buffered);
        let analytical = sim.model.latency_cycles(&cfg, &iface.lowered.plan);
        let ratio = traced / analytical;
        assert!((0.4..2.5).contains(&ratio), "ratio = {ratio}");
    }
}
