//! The remote-evaluation seam: self-contained evaluation requests that a
//! worker process can answer bit-identically to the in-process path.
//!
//! The hardware DSE's inner loop (the `pricing` module's `Tier::price`)
//! prices `(accelerator, workload)` pairs through a [`SoftwareExplorer`]
//! whose `optimize` is a *pure function* of `(seed, backend, workload,
//! config, options)`: every call constructs a fresh seeded RNG and
//! Q-learner, so where the call runs — this thread, another thread, or
//! another process — cannot change its result. [`RemoteEvalRequest`]
//! captures exactly those five inputs, and [`RemoteEvalRequest::evaluate`]
//! replays the in-process closure verbatim. A serving front-end shards
//! batches of these requests across worker processes through the
//! [`BatchEvaluator`] seam (`crates/net`'s `RemoteBatchEvaluator`) and
//! reassembles responses in submission order, which is all determinism
//! needs.
//!
//! Only the *stateless* backend tiers are remote-eligible
//! ([`remote_eligible`]): trace-sim and calibrated backends are rebuilt
//! from `(BackendKind, TechParams)` alone. The surrogate tier carries
//! online GP training state that lives in the front-end, and the analytic
//! tier is cheaper than a network round trip; both stay local.

use std::sync::Arc;

use accel_model::tech::TechParams;
use accel_model::{BackendKind, Metrics};
use runtime::BatchEvaluator;
use sw_opt::explorer::{ExplorerOptions, SoftwareExplorer};
use tensor_ir::workload::Workload;

/// One self-contained `(accelerator, workload)` pricing request — the
/// unit the front-end ships to remote workers. Everything the in-process
/// evaluation closure touches is captured by value.
#[derive(Debug, Clone)]
pub struct RemoteEvalRequest {
    /// The cost-backend tier to rebuild ([`remote_eligible`] tiers only).
    pub backend: BackendKind,
    /// Technology constants the backend is built with.
    pub tech: TechParams,
    /// The run seed (the explorer derives its RNG and Q-learner from it).
    pub seed: u64,
    /// Software-exploration budget options.
    pub sw_opts: ExplorerOptions,
    /// The workload half of the pair.
    pub workload: Workload,
    /// The accelerator half of the pair.
    pub config: accel_model::arch::AcceleratorConfig,
}

runtime::wire_struct!(RemoteEvalRequest {
    backend,
    tech,
    seed,
    sw_opts,
    workload,
    config,
});

impl RemoteEvalRequest {
    /// Prices the pair exactly as the in-process path does: a fresh
    /// explorer seeded with `seed` over a backend rebuilt from
    /// `(backend, tech)`, optimizing `workload` on `config`. Pure — the
    /// same request yields the same bits on any machine.
    pub fn evaluate(&self) -> Option<Metrics> {
        SoftwareExplorer::new(self.seed)
            .with_backend(self.backend.build_with(self.tech.clone()))
            .best_metrics(&self.workload, &self.config, &self.sw_opts)
            .ok()
    }
}

/// The trait object the engine dispatches remote-eligible batches
/// through: any [`BatchEvaluator`] over [`RemoteEvalRequest`]s. The
/// network crate's `RemoteBatchEvaluator` (sharding across worker
/// processes) is the production implementation; tests can plug in any
/// other [`BatchEvaluator`].
pub type PairEvaluator =
    dyn BatchEvaluator<Request = RemoteEvalRequest, Response = Option<Metrics>> + Send + Sync;

/// A shared handle to a [`PairEvaluator`].
pub type SharedPairEvaluator = Arc<PairEvaluator>;

/// Whether a backend tier can be evaluated remotely: the tier must be
/// reconstructible from `(BackendKind, TechParams)` alone (no in-process
/// training state) and expensive enough to beat a round trip.
pub fn remote_eligible(kind: BackendKind) -> bool {
    matches!(kind, BackendKind::TraceSim | BackendKind::Calibrated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eligibility_is_the_stateless_expensive_tiers() {
        assert!(remote_eligible(BackendKind::TraceSim));
        assert!(remote_eligible(BackendKind::Calibrated));
        assert!(!remote_eligible(BackendKind::Analytic));
        assert!(!remote_eligible(BackendKind::Surrogate));
    }

    #[test]
    fn evaluate_matches_the_in_process_closure() {
        let workload = tensor_ir::suites::gemm_workload("g", 32, 32, 32);
        let config = accel_model::arch::AcceleratorConfig::builder(
            tensor_ir::intrinsics::IntrinsicKind::Gemm,
        )
        .build()
        .unwrap();
        let sw_opts = ExplorerOptions {
            pool: 4,
            rounds: 3,
            top_k: 2,
            max_pool: 8,
            use_qlearning: true,
            fixed_choice: None,
        };
        let req = RemoteEvalRequest {
            backend: BackendKind::TraceSim,
            tech: TechParams::default(),
            seed: 42,
            sw_opts: sw_opts.clone(),
            workload: workload.clone(),
            config: config.clone(),
        };
        let local = SoftwareExplorer::new(42)
            .with_backend(BackendKind::TraceSim.build_with(TechParams::default()))
            .best_metrics(&workload, &config, &sw_opts)
            .ok();
        // Purity: the request replays the identical computation, twice.
        assert_eq!(req.evaluate(), local);
        assert_eq!(req.evaluate(), local);
    }
}
