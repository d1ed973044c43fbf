//! Instruction-trace simulator — the "Profile / Simulate" path of the
//! paper's Fig. 3.
//!
//! Executes a [`Program`] on an [`AcceleratorConfig`] with a two-engine
//! pipeline model: one DMA engine and one compute engine (PE array +
//! scratchpad ports). With double buffering, the loads of stage *i + 1*
//! overlap the compute of stage *i* but must wait for the buffer freed by
//! stage *i − 1* — the classic two-buffer recurrence.

use crate::arch::AcceleratorConfig;
use crate::cost::CostModel;
use crate::isa::{Instr, Program};
use crate::plan::ExecutionPlan;

/// Cycle-accounting trace simulator.
#[derive(Debug, Clone, Default)]
pub struct TraceSimulator {
    /// Cost model supplying per-engine cycle formulas and tech constants.
    pub model: CostModel,
}

/// Per-stage timing produced by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// Cycle at which the stage's input DMA completed.
    pub load_done: f64,
    /// Cycle at which the stage's compute completed.
    pub compute_done: f64,
    /// Cycle at which the stage's output DMA completed.
    pub store_done: f64,
}

/// Simulation result: end-to-end cycles plus per-stage detail.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Total cycles.
    pub cycles: f64,
    /// Per-stage timings.
    pub stages: Vec<StageTiming>,
}

impl TraceSimulator {
    /// Creates a simulator around a cost model.
    pub fn new(model: CostModel) -> Self {
        TraceSimulator { model }
    }

    fn dma_cycles_for(&self, cfg: &AcceleratorConfig, bytes: u64, run: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let run = run.max(1).max(cfg.dma_burst_bytes.min(8));
        let setups = (bytes as f64 / run as f64).ceil();
        setups * self.model.tech.burst_overhead_cycles + bytes as f64 / cfg.bus_bytes_per_cycle()
    }

    fn compute_cycles_for(&self, cfg: &AcceleratorConfig, calls: u64, macs: u64, spad: u64) -> f64 {
        let stream = macs as f64 / (cfg.pes() as f64 * self.model.stream_efficiency(cfg)).max(1e-9);
        let compute = stream + calls as f64 * self.model.call_overhead_cycles(cfg);
        let local = crate::energy::local_service_fraction(cfg);
        let spad_cy = spad as f64 * (1.0 - local) / cfg.spad_bytes_per_cycle().max(1e-9);
        compute.max(spad_cy)
    }

    /// Runs a program. `double_buffered` controls whether next-stage loads
    /// may overlap current-stage compute (the lowering decides this from
    /// scratchpad capacity).
    pub fn run(
        &self,
        cfg: &AcceleratorConfig,
        program: &Program,
        double_buffered: bool,
    ) -> SimResult {
        // Split into stages.
        #[derive(Default)]
        struct Stage {
            load: f64,
            compute: f64,
            store: f64,
        }
        let mut stages: Vec<Stage> = Vec::new();
        let mut cur = Stage::default();
        let mut has_work = false;
        for instr in &program.instrs {
            match instr {
                Instr::Load {
                    bytes,
                    contiguous_run,
                    ..
                } => {
                    cur.load += self.dma_cycles_for(cfg, *bytes, *contiguous_run);
                    has_work = true;
                }
                Instr::Store {
                    bytes,
                    contiguous_run,
                    ..
                } => {
                    cur.store += self.dma_cycles_for(cfg, *bytes, *contiguous_run);
                    has_work = true;
                }
                Instr::Compute {
                    calls,
                    macs,
                    spad_bytes,
                } => {
                    cur.compute += self.compute_cycles_for(cfg, *calls, *macs, *spad_bytes);
                    has_work = true;
                }
                Instr::Barrier => {
                    if has_work {
                        stages.push(std::mem::take(&mut cur));
                        has_work = false;
                    }
                }
            }
        }
        if has_work {
            stages.push(cur);
        }

        // Two-buffer pipeline recurrence.
        let mut timings: Vec<StageTiming> = Vec::with_capacity(stages.len());
        let mut dma_free = 0.0f64; // DMA engine availability
        for (i, s) in stages.iter().enumerate() {
            let buffer_free = if double_buffered {
                if i >= 2 {
                    timings[i - 2].compute_done
                } else {
                    0.0
                }
            } else if i >= 1 {
                timings[i - 1].store_done
            } else {
                0.0
            };
            let load_start = dma_free.max(buffer_free);
            let load_done = load_start + s.load;
            let prev_compute = if i >= 1 {
                timings[i - 1].compute_done
            } else {
                0.0
            };
            let compute_done = load_done.max(prev_compute) + s.compute;
            let store_start = compute_done.max(load_done.max(dma_free));
            let store_done = store_start + s.store;
            // With double buffering the DMA queue lets next-stage loads
            // bypass pending stores; without it, the engine drains in order.
            dma_free = if double_buffered {
                load_done
            } else {
                store_done
            };
            timings.push(StageTiming {
                load_done,
                compute_done,
                store_done,
            });
        }
        // A single DMA engine ultimately serves both directions, so the end
        // time can never beat the total DMA work.
        let total_dma: f64 = stages.iter().map(|s| s.load + s.store).sum();
        let cycles = timings
            .iter()
            .map(|t| t.store_done.max(t.compute_done))
            .fold(0.0, f64::max)
            .max(total_dma)
            .max(1.0);
        SimResult {
            cycles,
            stages: timings,
        }
    }

    /// Streams a plan's staged lowering straight through the two-buffer
    /// pipeline recurrence, returning total cycles — **bit-identical** to
    /// `self.run(cfg, &program_from_plan(plan, max_stages), plan.double_buffered).cycles`
    /// but allocation-free: no [`Program`] (with its per-instruction
    /// tensor-name strings), no stage vector, no timing vector. This is
    /// the cost-backend hot path — a staged refinement batch prices
    /// hundreds of `(config, plan)` pairs, and re-lowering each pair
    /// dominated the profile.
    ///
    /// The recurrence carries only rolling scalars; per stage it
    /// reproduces the lowering's exact instruction emission (same integer
    /// splits, same "emit iff non-zero" predicate, same accumulation
    /// order), so every floating-point operation happens in the same
    /// order as the materialized path. A stage whose splits are all zero
    /// emits nothing in the lowering, forms no stage, and here advances
    /// neither the recurrence index nor the DMA clock.
    pub fn run_plan_cycles(
        &self,
        cfg: &AcceleratorConfig,
        plan: &ExecutionPlan,
        max_stages: usize,
    ) -> f64 {
        let stages = plan.stages.clamp(1, max_stages.max(1) as u64);
        // Same integer split as `program_from_plan`.
        let split = |total: u64, i: u64| -> u64 {
            let t = total as u128;
            let s = stages as u128;
            (t * (i as u128 + 1) / s - t * i as u128 / s) as u64
        };
        let double_buffered = plan.double_buffered;
        let mut dma_free = 0.0f64;
        let mut prev_compute = 0.0f64;
        let mut prev2_compute = 0.0f64;
        let mut prev_store = 0.0f64;
        let mut emitted = 0usize;
        let mut end_max = 0.0f64;
        let mut total_dma = 0.0f64;
        for i in 0..stages {
            let mut load = 0.0f64;
            let mut compute = 0.0f64;
            let mut store = 0.0f64;
            let mut has_work = false;
            for t in &plan.dram_reads {
                let bytes = split(t.bytes, i);
                if bytes > 0 {
                    load += self.dma_cycles_for(cfg, bytes, t.avg_contiguous_run);
                    has_work = true;
                }
            }
            let macs = split(plan.macs_padded, i);
            let calls = split(plan.intrinsic_calls, i);
            let spad_bytes = split(plan.spad_traffic_bytes, i);
            if macs > 0 || calls > 0 || spad_bytes > 0 {
                compute += self.compute_cycles_for(cfg, calls, macs, spad_bytes);
                has_work = true;
            }
            for t in &plan.dram_writes {
                let bytes = split(t.bytes, i);
                if bytes > 0 {
                    store += self.dma_cycles_for(cfg, bytes, t.avg_contiguous_run);
                    has_work = true;
                }
            }
            if !has_work {
                continue;
            }
            let buffer_free = if double_buffered {
                if emitted >= 2 {
                    prev2_compute
                } else {
                    0.0
                }
            } else if emitted >= 1 {
                prev_store
            } else {
                0.0
            };
            let load_start = dma_free.max(buffer_free);
            let load_done = load_start + load;
            let pc = if emitted >= 1 { prev_compute } else { 0.0 };
            let compute_done = load_done.max(pc) + compute;
            let store_start = compute_done.max(load_done.max(dma_free));
            let store_done = store_start + store;
            dma_free = if double_buffered {
                load_done
            } else {
                store_done
            };
            prev2_compute = prev_compute;
            prev_compute = compute_done;
            prev_store = store_done;
            emitted += 1;
            end_max = end_max.max(store_done.max(compute_done));
            total_dma += load + store;
        }
        end_max.max(total_dma).max(1.0)
    }
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
    // total * (i+1) / stages − total * i / stages, in u128 to avoid
    // overflow on byte counts that were built with saturating math.
    let split = |total: u64, i: u64| -> u64 {
        let t = total as u128;
        let s = stages as u128;
        (t * (i as u128 + 1) / s - t * i as u128 / s) as u64
    };
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
    use crate::plan::TensorTraffic;
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
        assert!(buffered.cycles < serial.cycles);
    }

    #[test]
    fn pipeline_bound_by_slowest_engine() {
        let sim = TraceSimulator::default();
        let c = cfg();
        // DMA-heavy program: total ≈ total DMA time.
        let p = program(50, 256 * 1024, 1);
        let r = sim.run(&c, &p, true);
        let per_load =
            sim.dma_cycles_for(&c, 256 * 1024, 64) + sim.dma_cycles_for(&c, 32 * 1024, 64);
        assert!(r.cycles >= 50.0 * per_load * 0.9);
        assert!(r.cycles <= 50.0 * per_load * 1.5);
    }

    #[test]
    fn stage_timings_are_monotone() {
        let sim = TraceSimulator::default();
        let r = sim.run(&cfg(), &program(10, 8192, 4), true);
        assert_eq!(r.stages.len(), 10);
        for w in r.stages.windows(2) {
            assert!(w[1].compute_done >= w[0].compute_done);
        }
        for t in &r.stages {
            assert!(t.compute_done >= t.load_done);
            assert!(t.store_done >= t.compute_done);
        }
    }

    #[test]
    fn simulator_agrees_with_analytical_model_within_2x() {
        let sim = TraceSimulator::default();
        let c = cfg();
        let p = program(30, 64 * 1024, 32);
        let traced = sim.run(&c, &p, true).cycles;
        let analytical = sim.model.latency_cycles(&c, &plan(30, 64 * 1024, 32));
        let ratio = traced / analytical;
        assert!((0.5..2.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn empty_program_costs_one_cycle() {
        let sim = TraceSimulator::default();
        let r = sim.run(&cfg(), &Program::new(), true);
        assert_eq!(r.cycles, 1.0);
        assert!(r.stages.is_empty());
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
    fn assert_streaming_matches_program(plan: &ExecutionPlan) {
        let sim = TraceSimulator::default();
        let c = cfg();
        for &double_buffered in &[false, true] {
            for &cap in &[1usize, 3, 8, 64] {
                let mut p = plan.clone();
                p.double_buffered = double_buffered;
                let program = program_from_plan(&p, cap);
                let materialized = sim.run(&c, &program, double_buffered).cycles;
                let streamed = sim.run_plan_cycles(&c, &p, cap);
                assert_eq!(
                    streamed.to_bits(),
                    materialized.to_bits(),
                    "db={double_buffered} cap={cap}: {streamed} vs {materialized}"
                );
            }
        }
    }

    #[test]
    fn run_plan_cycles_matches_materialized_program_bit_for_bit() {
        assert_streaming_matches_program(&plan(20, 32 * 1024, 16));
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
        assert_streaming_matches_program(&plan);
    }

    #[test]
    fn run_plan_cycles_matches_on_empty_plans() {
        let mut plan = ExecutionPlan::compute_only(0, 0, 0);
        plan.stages = 4;
        assert_streaming_matches_program(&plan);
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
        assert_streaming_matches_program(&stores);
        let mut loads = ExecutionPlan::compute_only(0, 0, 0);
        loads.dram_reads.push(TensorTraffic::new("A", 1 << 22, 64));
        loads.dram_reads.push(TensorTraffic::new("B", 977, 8));
        loads.stages = 5;
        assert_streaming_matches_program(&loads);
    }
}
