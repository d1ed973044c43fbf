//! Instruction-trace simulator — the "Profile / Simulate" path of the
//! paper's Fig. 3.
//!
//! Executes a [`Program`] on an [`AcceleratorConfig`] with a two-engine
//! pipeline model: one DMA engine and one compute engine (PE array +
//! scratchpad ports). With double buffering, the loads of stage *i + 1*
//! overlap the compute of stage *i* but must wait for the buffer freed by
//! stage *i − 1* — the classic two-buffer recurrence.
//!
//! The simulator prices each instruction with the analytic model's own
//! per-engine formulas ([`CostModel`]'s DMA-transfer, compute and
//! scratchpad cycles), so it differs from the analytic tier only in how
//! stages overlap, never in what one engine costs.

use crate::arch::AcceleratorConfig;
use crate::cost::CostModel;
use crate::isa::{Instr, Program};
use crate::plan::{ExecutionPlan, TensorTraffic};

/// Cycle-accounting trace simulator.
#[derive(Debug, Clone, Default)]
pub struct TraceSimulator {
    /// Cost model supplying per-engine cycle formulas and tech constants.
    pub model: CostModel,
}

/// The two-buffer pipeline recurrence over rolling scalars: each
/// [`Pipeline::push`] schedules one stage's load, compute and store
/// behind the stages pushed before it.
#[derive(Debug, Default)]
struct Pipeline {
    double_buffered: bool,
    /// Completion cycles of the last stage's load, compute and store.
    load_done: f64,
    compute_done: f64,
    store_done: f64,
    /// Compute completion of the stage before the last.
    prev_compute_done: f64,
    /// Latest completion of any stage.
    end: f64,
    /// Total DMA work pushed so far.
    total_dma: f64,
}

impl Pipeline {
    fn new(double_buffered: bool) -> Self {
        Pipeline {
            double_buffered,
            ..Pipeline::default()
        }
    }

    fn push(&mut self, load: f64, compute: f64, store: f64) {
        // With double buffering a stage's load waits for the buffer freed
        // by the compute two stages back, and the DMA queue lets it bypass
        // pending stores; without it, the engine drains in order and the
        // one buffer frees when the previous store completes.
        let (dma_free, buffer_free) = if self.double_buffered {
            (self.load_done, self.prev_compute_done)
        } else {
            (self.store_done, self.store_done)
        };
        let load_done = dma_free.max(buffer_free) + load;
        let compute_done = load_done.max(self.compute_done) + compute;
        let store_done = compute_done.max(load_done.max(dma_free)) + store;
        self.prev_compute_done = self.compute_done;
        self.load_done = load_done;
        self.compute_done = compute_done;
        self.store_done = store_done;
        self.end = self.end.max(store_done.max(compute_done));
        self.total_dma += load + store;
    }

    /// End-to-end cycles. A single DMA engine ultimately serves both
    /// directions, so the end time can never beat the total DMA work.
    fn cycles(&self) -> f64 {
        self.end.max(self.total_dma).max(1.0)
    }
}

impl TraceSimulator {
    /// Creates a simulator around a cost model.
    pub fn new(model: CostModel) -> Self {
        TraceSimulator { model }
    }

    /// Runs a program and returns its total cycles, one pipeline stage per
    /// barrier-separated group of instructions. `double_buffered` controls
    /// whether next-stage loads may overlap current-stage compute (the
    /// lowering decides this from scratchpad capacity).
    pub fn run(&self, cfg: &AcceleratorConfig, program: &Program, double_buffered: bool) -> f64 {
        let mut pipeline = Pipeline::new(double_buffered);
        let (mut load, mut compute, mut store) = (0.0, 0.0, 0.0);
        let mut has_work = false;
        for instr in &program.instrs {
            match instr {
                Instr::Load {
                    bytes,
                    contiguous_run,
                    ..
                } => load += self.model.dma_transfer_cycles(cfg, *bytes, *contiguous_run),
                Instr::Store {
                    bytes,
                    contiguous_run,
                    ..
                } => store += self.model.dma_transfer_cycles(cfg, *bytes, *contiguous_run),
                Instr::Compute {
                    calls,
                    macs,
                    spad_bytes,
                } => compute += self.model.onchip_cycles(cfg, *calls, *macs, *spad_bytes),
                Instr::Barrier => {
                    if has_work {
                        pipeline.push(load, compute, store);
                        (load, compute, store) = (0.0, 0.0, 0.0);
                        has_work = false;
                    }
                    continue;
                }
            }
            has_work = true;
        }
        if has_work {
            pipeline.push(load, compute, store);
        }
        pipeline.cycles()
    }

    /// Streams a plan's staged lowering straight through the two-buffer
    /// pipeline recurrence, returning total cycles — **bit-identical** to
    /// `self.run(cfg, &program_from_plan(plan, max_stages), plan.double_buffered)`
    /// but allocation-free: no [`Program`] (with its per-instruction
    /// tensor-name strings) is built. This is the cost-backend hot path —
    /// a staged refinement batch prices hundreds of `(config, plan)`
    /// pairs, and re-lowering each pair dominated the profile.
    ///
    /// Per stage it reproduces the lowering's exact instruction emission
    /// (same integer splits, same "emit iff non-zero" predicate, same
    /// accumulation order), so every floating-point operation happens in
    /// the same order as the materialized path. A stage whose splits are
    /// all zero emits nothing in the lowering, forms no stage, and here
    /// is not pushed.
    pub fn run_plan_cycles(
        &self,
        cfg: &AcceleratorConfig,
        plan: &ExecutionPlan,
        max_stages: usize,
    ) -> f64 {
        let stages = plan.stages.clamp(1, max_stages.max(1) as u64);
        let split = |total: u64, i: u64| split(total, i, stages);
        let mut pipeline = Pipeline::new(plan.double_buffered);
        let transfers = |traffic: &[TensorTraffic], i: u64, has_work: &mut bool| {
            let mut cycles = 0.0;
            for t in traffic {
                let bytes = split(t.bytes, i);
                if bytes > 0 {
                    cycles += self
                        .model
                        .dma_transfer_cycles(cfg, bytes, t.avg_contiguous_run);
                    *has_work = true;
                }
            }
            cycles
        };
        for i in 0..stages {
            let mut has_work = false;
            let load = transfers(&plan.dram_reads, i, &mut has_work);
            let macs = split(plan.macs_padded, i);
            let calls = split(plan.intrinsic_calls, i);
            let spad_bytes = split(plan.spad_traffic_bytes, i);
            let mut compute = 0.0;
            if macs > 0 || calls > 0 || spad_bytes > 0 {
                compute += self.model.onchip_cycles(cfg, calls, macs, spad_bytes);
                has_work = true;
            }
            let store = transfers(&plan.dram_writes, i, &mut has_work);
            if has_work {
                pipeline.push(load, compute, store);
            }
        }
        pipeline.cycles()
    }
}

/// Stage `i`'s share of `total` split evenly over `stages` stages:
/// `total * (i+1) / stages − total * i / stages`, in u128 to avoid
/// overflow on byte counts that were built with saturating math. The
/// shares sum to `total` exactly.
fn split(total: u64, i: u64, stages: u64) -> u64 {
    let t = total as u128;
    let s = stages as u128;
    (t * (i as u128 + 1) / s - t * i as u128 / s) as u64
}

/// Synthesizes a staged instruction stream from a plan — the materialized
/// oracle that [`TraceSimulator::run_plan_cycles`] is pinned against
/// bit-for-bit.
///
/// The plan's traffic and compute totals are spread evenly over
/// `min(plan.stages, max_stages)` barrier-separated stages (integer
/// splitting preserves every total exactly). Capping the stage count
/// bounds simulation time for plans with thousands of tile stages; the
/// pipeline reaches steady state within a few tens of stages, so the
/// latency estimate converges long before the cap matters.
pub fn program_from_plan(plan: &ExecutionPlan, max_stages: usize) -> Program {
    let stages = plan.stages.clamp(1, max_stages.max(1) as u64);
    let split = |total: u64, i: u64| split(total, i, stages);
    let mut program = Program::new();
    for i in 0..stages {
        for t in &plan.dram_reads {
            let bytes = split(t.bytes, i);
            if bytes > 0 {
                program.push(Instr::Load {
                    tensor: t.tensor.clone(),
                    bytes,
                    contiguous_run: t.avg_contiguous_run,
                });
            }
        }
        let macs = split(plan.macs_padded, i);
        let calls = split(plan.intrinsic_calls, i);
        let spad_bytes = split(plan.spad_traffic_bytes, i);
        if macs > 0 || calls > 0 || spad_bytes > 0 {
            program.push(Instr::Compute {
                calls,
                macs,
                spad_bytes,
            });
        }
        for t in &plan.dram_writes {
            let bytes = split(t.bytes, i);
            if bytes > 0 {
                program.push(Instr::Store {
                    tensor: t.tensor.clone(),
                    bytes,
                    contiguous_run: t.avg_contiguous_run,
                });
            }
        }
        program.push(Instr::Barrier);
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tensor_ir::intrinsics::IntrinsicKind;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap()
    }

    fn program(stages: usize, load: u64, calls: u64) -> Program {
        let mut p = Program::new();
        for _ in 0..stages {
            p.push(Instr::Load {
                tensor: "A".into(),
                bytes: load,
                contiguous_run: 64,
            });
            p.push(Instr::Compute {
                calls,
                macs: calls * 4096,
                spad_bytes: load,
            });
            p.push(Instr::Store {
                tensor: "C".into(),
                bytes: load / 8,
                contiguous_run: 64,
            });
            p.push(Instr::Barrier);
        }
        p
    }

    /// The plan whose per-stage totals `program(stages, load, calls)`
    /// spells out instruction by instruction.
    fn plan(stages: u64, load: u64, calls: u64) -> ExecutionPlan {
        let mut plan = ExecutionPlan::compute_only(100, stages * calls * 4096, stages * calls);
        plan.dram_reads
            .push(TensorTraffic::new("A", stages * load, 64));
        plan.dram_writes
            .push(TensorTraffic::new("C", stages * (load / 8), 64));
        plan.spad_traffic_bytes = stages * load;
        plan.stages = stages;
        plan.double_buffered = true;
        plan
    }

    #[test]
    fn double_buffering_is_faster() {
        let sim = TraceSimulator::default();
        let p = program(20, 32 * 1024, 16);
        let serial = sim.run(&cfg(), &p, false);
        let buffered = sim.run(&cfg(), &p, true);
        assert!(buffered < serial);
    }

    #[test]
    fn pipeline_bound_by_slowest_engine() {
        let sim = TraceSimulator::default();
        let c = cfg();
        // DMA-heavy program: total ≈ total DMA time.
        let p = program(50, 256 * 1024, 1);
        let cycles = sim.run(&c, &p, true);
        let per_load = sim.model.dma_transfer_cycles(&c, 256 * 1024, 64)
            + sim.model.dma_transfer_cycles(&c, 32 * 1024, 64);
        assert!(cycles >= 50.0 * per_load * 0.9);
        assert!(cycles <= 50.0 * per_load * 1.5);
    }

    #[test]
    fn stage_timings_are_monotone() {
        let sim = TraceSimulator::default();
        let c = cfg();
        let load = sim.model.dma_transfer_cycles(&c, 8192, 64);
        let compute = sim.model.onchip_cycles(&c, 4, 4 * 4096, 8192);
        let store = sim.model.dma_transfer_cycles(&c, 1024, 64);
        for double_buffered in [false, true] {
            let mut pipeline = Pipeline::new(double_buffered);
            for _ in 0..10 {
                let (compute_before, store_before) = (pipeline.compute_done, pipeline.store_done);
                pipeline.push(load, compute, store);
                assert!(pipeline.compute_done >= compute_before);
                assert!(pipeline.store_done >= store_before);
                assert!(pipeline.compute_done >= pipeline.load_done);
                assert!(pipeline.store_done >= pipeline.compute_done);
            }
        }
    }

    #[test]
    fn simulator_agrees_with_analytical_model_within_2x() {
        let sim = TraceSimulator::default();
        let c = cfg();
        let p = program(30, 64 * 1024, 32);
        let traced = sim.run(&c, &p, true);
        let analytical = sim.model.latency_cycles(&c, &plan(30, 64 * 1024, 32));
        let ratio = traced / analytical;
        assert!((0.5..2.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn empty_program_costs_one_cycle() {
        let sim = TraceSimulator::default();
        assert_eq!(sim.run(&cfg(), &Program::new(), true), 1.0);
    }

    #[test]
    fn program_from_plan_preserves_totals() {
        let plan = plan(7, 10_000, 3);
        let back = program_from_plan(&plan, 64);
        assert_eq!(back.total_macs(), plan.macs_padded);
        assert_eq!(back.total_calls(), plan.intrinsic_calls);
        assert_eq!(back.total_load_bytes(), 7 * 10_000);
        assert_eq!(back.total_store_bytes(), 7 * (10_000 / 8));
        assert_eq!(back.stage_count() as u64, plan.stages);
    }

    #[test]
    fn program_from_plan_caps_stage_count_without_losing_work() {
        let plan = plan(50, 4096, 2);
        let capped = program_from_plan(&plan, 8);
        assert_eq!(capped.stage_count(), 8);
        assert_eq!(capped.total_macs(), plan.macs_padded);
        assert_eq!(capped.total_load_bytes(), 50 * 4096);
    }

    /// Pins the streamed recurrence against the materialized path at the
    /// bit level for one plan, at every buffering mode and stage cap.
    fn assert_streaming_matches_program(plan: &ExecutionPlan) -> Result<(), TestCaseError> {
        let sim = TraceSimulator::default();
        let c = cfg();
        for &double_buffered in &[false, true] {
            for &cap in &[1usize, 3, 8, 64] {
                let mut p = plan.clone();
                p.double_buffered = double_buffered;
                let program = program_from_plan(&p, cap);
                let materialized = sim.run(&c, &program, double_buffered);
                let streamed = sim.run_plan_cycles(&c, &p, cap);
                prop_assert_eq!(
                    streamed.to_bits(),
                    materialized.to_bits(),
                    "db={double_buffered} cap={cap}: {streamed} vs {materialized}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn run_plan_cycles_matches_materialized_program_bit_for_bit() {
        assert_streaming_matches_program(&plan(20, 32 * 1024, 16)).unwrap();
    }

    #[test]
    fn run_plan_cycles_matches_on_sparse_stages() {
        // Totals smaller than the stage count leave some stages with no
        // instructions at all — the lowering forms no stage there, and
        // the streamed recurrence must not advance either.
        let mut plan = ExecutionPlan::compute_only(3, 3, 2);
        plan.dram_reads.push(TensorTraffic::new("A", 5, 4));
        plan.dram_writes.push(TensorTraffic::new("C", 2, 4));
        plan.stages = 8;
        assert_streaming_matches_program(&plan).unwrap();
    }

    #[test]
    fn run_plan_cycles_matches_on_empty_plans() {
        let mut plan = ExecutionPlan::compute_only(0, 0, 0);
        plan.stages = 4;
        assert_streaming_matches_program(&plan).unwrap();
        let sim = TraceSimulator::default();
        assert_eq!(sim.run_plan_cycles(&cfg(), &plan, 64), 1.0);
    }

    #[test]
    fn run_plan_cycles_matches_on_lopsided_traffic() {
        // Store-only and load-only plans exercise the DMA-queue branches.
        let mut stores = ExecutionPlan::compute_only(0, 0, 0);
        stores
            .dram_writes
            .push(TensorTraffic::new("C", 1 << 20, 128));
        stores.stages = 12;
        assert_streaming_matches_program(&stores).unwrap();
        let mut loads = ExecutionPlan::compute_only(0, 0, 0);
        loads.dram_reads.push(TensorTraffic::new("A", 1 << 22, 64));
        loads.dram_reads.push(TensorTraffic::new("B", 977, 8));
        loads.stages = 5;
        assert_streaming_matches_program(&loads).unwrap();
    }

    /// A traffic or work total: often zero, sometimes smaller than the
    /// stage count (sparse stages), sometimes large.
    fn total() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 1u64..16, 1u64..1 << 30]
    }

    fn traffic(max: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
        prop::collection::vec((total(), 1u64..8192), 0..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The streamed recurrence equals the materialized program bit for
        /// bit on random plans: zero and non-zero traffic, zero stages,
        /// stage counts above every cap, both buffering modes.
        #[test]
        fn run_plan_cycles_matches_program_oracle(
            work in (total(), total(), total()),
            reads in traffic(4),
            writes in traffic(3),
            stages in 0u64..200,
        ) {
            let (macs, calls, spad) = work;
            let mut plan = ExecutionPlan::compute_only(macs, macs, calls);
            plan.spad_traffic_bytes = spad;
            for (i, &(bytes, run)) in reads.iter().enumerate() {
                plan.dram_reads.push(TensorTraffic::new(format!("in{i}"), bytes, run));
            }
            for (i, &(bytes, run)) in writes.iter().enumerate() {
                plan.dram_writes.push(TensorTraffic::new(format!("out{i}"), bytes, run));
            }
            plan.stages = stages;
            assert_streaming_matches_program(&plan)?;
        }
    }
}
