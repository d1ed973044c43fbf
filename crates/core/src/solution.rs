//! Holistic solutions (the right box of Fig. 3): one accelerator, plus a
//! tensorize interface and an optimized program per workload.

use accel_model::arch::AcceleratorConfig;
use accel_model::Metrics;
use dse::problem::OptimizerResult;
use sw_opt::schedule::Schedule;

use crate::report::RunStats;

/// The per-workload software half of a solution.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSolution {
    /// The workload's name.
    pub workload: String,
    /// The optimized schedule (tensorize choice, tiles, order, fusion).
    pub schedule: Schedule,
    /// Metrics of this workload on the shared accelerator.
    pub metrics: Metrics,
    /// Listing-1-style pseudo program for inspection.
    pub program: String,
}

runtime::wire_struct!(WorkloadSolution {
    workload,
    schedule,
    metrics,
    program,
});

/// A holistic HW/SW solution for an application. Every field is a
/// function of the request (and the warm state it starts from), never of
/// thread count or scheduling, so two runs compare whole with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The shared accelerator.
    pub accelerator: AcceleratorConfig,
    /// Per-workload schedules and metrics.
    pub per_workload: Vec<WorkloadSolution>,
    /// Application-level metrics (latencies summed, area shared).
    pub total: Metrics,
    /// Whether the user constraints are met.
    pub meets_constraints: bool,
    /// The hardware DSE history (for hypervolume/convergence reporting).
    pub hw_history: OptimizerResult,
    /// Evaluation statistics (backends, staging, cache behavior).
    pub stats: RunStats,
}

runtime::wire_struct!(Solution {
    accelerator,
    per_workload,
    total,
    meets_constraints,
    hw_history,
    stats,
});

impl std::fmt::Display for Solution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "accelerator: {}", self.accelerator)?;
        writeln!(
            f,
            "total: {} ({} workloads, constraints {})",
            self.total,
            self.per_workload.len(),
            if self.meets_constraints {
                "met"
            } else {
                "violated"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_ir::intrinsics::IntrinsicKind;

    #[test]
    fn display_and_lookup() {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let m = Metrics {
            latency_cycles: 100.0,
            latency_ms: 0.1,
            energy_uj: 1.0,
            power_mw: 10.0,
            area_mm2: 5.0,
            throughput_mops: 2.0,
            utilization: 1.0,
        };
        let s = Solution {
            accelerator: cfg,
            per_workload: vec![],
            total: m,
            meets_constraints: true,
            hw_history: OptimizerResult::new("mobo"),
            stats: RunStats::default(),
        };
        assert!(s.to_string().contains("constraints met"));
    }
}
