//! Step 2 — solution generation (§III, §V, §VI): joint exploration of the
//! hardware and software design spaces.
//!
//! The hardware DSE (MOBO) treats each design point as an accelerator
//! instance; evaluating a point runs the *software* explorer for every
//! workload on that accelerator and reports the summed optimized latency,
//! the average power, and the area — "the Bayesian-based hardware
//! optimization uses the software latency as the performance metric, while
//! the heuristic and Q-learning-based software optimization tailors the
//! software mappings for the hardware parameters".

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use accel_model::arch::AcceleratorConfig;
use accel_model::tech::TechParams;
use accel_model::{BackendKind, CostBackend, Metrics};
use dse::mobo::Mobo;
use dse::nsga2::Nsga2;
use dse::problem::{Point, Problem, SearchSpace};
use dse::progress::{BatchUpdate, Progress};
use dse::random::RandomSearch;
use dse::staged::AdaptiveTopK;
use dse::Optimizer;
use hw_gen::space::Generator;
use hw_gen::{ChiselGenerator, GemminiGenerator};
use runtime::{
    resolve_threads, Key128, MemoCache, StableFingerprint, Telemetry, Timer, WorkerPool,
};
use sw_opt::explorer::{ExplorerOptions, SoftwareExplorer};
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::workload::Workload;

use crate::engine::{CoDesignRequest, Engine, EngineConfig};
use crate::event::{EventSink, RunEvent};
use crate::input::{GenerationMethod, InputDescription};
use crate::partition::partition_app;
use crate::report::RunStats;
use crate::solution::{Solution, WorkloadSolution};
use crate::tuning;
use crate::HascoError;

/// The hardware-DSE optimizer a run drives (the paper's flow uses MOBO;
/// the baselines exist so convergence studies — Fig. 10 — can run the
/// exact co-design pipeline under every method).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OptimizerKind {
    /// Multi-objective Bayesian optimization (the paper's method).
    #[default]
    Mobo,
    /// The NSGA-II genetic baseline.
    Nsga2,
    /// The random-search baseline.
    Random,
}

impl OptimizerKind {
    /// Builds the optimizer. `prior` is MOBO's prior-sample count
    /// (ignored by the baselines).
    pub fn build(self, seed: u64, prior: usize) -> Box<dyn Optimizer> {
        self.build_with_telemetry(seed, prior, &Telemetry::disabled())
    }

    /// [`OptimizerKind::build`] reporting into `telemetry`: MOBO times its
    /// acquisitions (`job/hw_dse/acquire`) and GP fits (`dse/gp_fit`).
    pub fn build_with_telemetry(
        self,
        seed: u64,
        prior: usize,
        telemetry: &Telemetry,
    ) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Mobo => Box::new(
                Mobo::new(seed)
                    .with_prior_samples(prior)
                    .with_telemetry(telemetry.clone()),
            ),
            OptimizerKind::Nsga2 => Box::new(Nsga2::new(seed)),
            OptimizerKind::Random => Box::new(RandomSearch::new(seed)),
        }
    }

    /// Short stable identifier (also used in request fingerprints).
    pub fn as_str(self) -> &'static str {
        match self {
            OptimizerKind::Mobo => "mobo",
            OptimizerKind::Nsga2 => "nsga2",
            OptimizerKind::Random => "random",
        }
    }
}

impl std::fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

runtime::wire_enum!(OptimizerKind {
    0 => Mobo,
    1 => Nsga2,
    2 => Random,
});

/// Knobs of one co-design run.
#[derive(Debug, Clone)]
pub struct CoDesignOptions {
    /// Hardware DSE trial budget (the paper uses 20–40).
    pub hw_trials: usize,
    /// MOBO prior-sample count.
    pub mobo_prior: usize,
    /// Software exploration used *inside* the hardware loop (cheap).
    pub sw_inner: ExplorerOptions,
    /// Software exploration for the final chosen accelerator (thorough).
    pub sw_final: ExplorerOptions,
    /// Extra constraint-driven DSE rounds when the first solution violates
    /// the constraints (Step 3: "if the metrics violate the user
    /// constraints, they will drive the hardware DSE and generate a new
    /// accelerator"). Each round re-runs the explorer with a fresh seed
    /// and merges the histories.
    pub tuning_rounds: usize,
    /// RNG seed for the whole run.
    pub seed: u64,
    /// Evaluation worker threads: `1` runs fully serial, `0` uses every
    /// available core. Thread count changes wall-clock time only — a
    /// fixed-seed run produces the identical solution at any setting.
    pub threads: usize,
    /// Work-stealing in the evaluation pool (on by default). Like the
    /// thread count, this changes wall-clock time only, never results.
    pub work_stealing: bool,
    /// Capacity (entries) of the memoizing evaluation cache shared by the
    /// hardware DSE trials.
    pub cache_capacity: usize,
    /// Cost backend used to screen every candidate evaluation.
    pub backend: BackendKind,
    /// High-fidelity backend for the staged refinement pass (and the
    /// final software optimization, so reported metrics are high-fidelity
    /// whenever staging is on).
    pub refine_backend: BackendKind,
    /// Survivors per screened batch re-evaluated with `refine_backend`
    /// before entering the Pareto front / GP training set. `0` disables
    /// fidelity staging (every evaluation uses `backend` only). With
    /// `adaptive_refinement` on, this is the *initial* budget of the
    /// adaptive controller.
    pub refine_top_k: usize,
    /// Adaptive fidelity staging: grow/shrink the per-batch refine budget
    /// from the observed screen-vs-refine rank disagreement
    /// ([`dse::staged::AdaptiveTopK`]). Like the fixed policy, the
    /// adaptive trajectory is a pure function of batch content, so thread
    /// count never changes results.
    pub adaptive_refinement: bool,
    /// Technology parameters every backend tier is built with (the
    /// `--tech-sweep` scenario axis; part of every memo fingerprint).
    pub tech: TechParams,
    /// The hardware-DSE optimizer (MOBO by default; the baselines let
    /// convergence studies drive the whole pipeline under every method).
    pub optimizer: OptimizerKind,
}

impl CoDesignOptions {
    /// The paper-sized configuration (20 co-design trials).
    pub fn paper(seed: u64) -> Self {
        CoDesignOptions {
            hw_trials: 20,
            mobo_prior: 5,
            sw_inner: ExplorerOptions {
                pool: 8,
                rounds: 8,
                top_k: 3,
                ..ExplorerOptions::default()
            },
            sw_final: ExplorerOptions::default(),
            tuning_rounds: 2,
            seed,
            threads: 1,
            work_stealing: true,
            cache_capacity: 4096,
            backend: BackendKind::Analytic,
            refine_backend: BackendKind::TraceSim,
            refine_top_k: 0,
            adaptive_refinement: false,
            tech: TechParams::default(),
            optimizer: OptimizerKind::Mobo,
        }
    }

    /// A fast configuration for tests and examples.
    pub fn quick(seed: u64) -> Self {
        CoDesignOptions {
            hw_trials: 8,
            mobo_prior: 4,
            sw_inner: ExplorerOptions {
                pool: 5,
                rounds: 4,
                top_k: 2,
                ..ExplorerOptions::default()
            },
            sw_final: ExplorerOptions {
                pool: 8,
                rounds: 8,
                top_k: 3,
                ..ExplorerOptions::default()
            },
            tuning_rounds: 1,
            seed,
            threads: 1,
            work_stealing: true,
            cache_capacity: 4096,
            backend: BackendKind::Analytic,
            refine_backend: BackendKind::TraceSim,
            refine_top_k: 0,
            adaptive_refinement: false,
            tech: TechParams::default(),
            optimizer: OptimizerKind::Mobo,
        }
    }

    /// Sets the evaluation worker count (`0` = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Toggles work-stealing in the evaluation pool.
    pub fn with_work_stealing(mut self, stealing: bool) -> Self {
        self.work_stealing = stealing;
        self
    }

    /// Sets the screening cost backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Enables fidelity staging: re-evaluate the `top_k` best-screened
    /// candidates of every batch with `refine_backend`.
    pub fn with_refinement(mut self, refine_backend: BackendKind, top_k: usize) -> Self {
        self.refine_backend = refine_backend;
        self.refine_top_k = top_k;
        self.adaptive_refinement = false;
        self
    }

    /// Enables *adaptive* fidelity staging: start refining `initial_top_k`
    /// survivors per batch and let the controller grow/shrink the budget
    /// from the observed screen-vs-refine rank disagreement.
    pub fn with_adaptive_refinement(
        mut self,
        refine_backend: BackendKind,
        initial_top_k: usize,
    ) -> Self {
        self.refine_backend = refine_backend;
        self.refine_top_k = initial_top_k;
        self.adaptive_refinement = initial_top_k > 0;
        self
    }

    /// Builds every backend tier with the given technology parameters.
    pub fn with_tech(mut self, tech: TechParams) -> Self {
        self.tech = tech;
        self
    }

    /// Selects the hardware-DSE optimizer.
    pub fn with_optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Rejects option combinations that would silently degenerate instead
    /// of doing what they look like they do. Called by
    /// [`Engine::submit`](crate::engine::Engine::submit) and
    /// [`CoDesigner::run`], so every entry point fails fast with a clear
    /// [`HascoError::InvalidOptions`] rather than running a misconfigured
    /// study to completion.
    ///
    /// # Errors
    /// Returns [`HascoError::InvalidOptions`] when:
    /// * the trial budget or the software-exploration pools are zero;
    /// * fidelity staging is on but the refine tier equals the screen
    ///   tier (the "refinement" would re-price with the same backend);
    /// * the refine tier is the surrogate (it *trains from* the refine
    ///   tier — wrapping it around itself is self-referential);
    /// * adaptive staging is requested with a zero initial budget (the
    ///   controller could never refine, so it could never observe
    ///   disagreement and grow).
    pub fn validate(&self) -> Result<(), HascoError> {
        let invalid = |msg: &str| Err(HascoError::InvalidOptions(msg.into()));
        if self.hw_trials == 0 {
            return invalid("hw_trials must be at least 1");
        }
        if self.sw_inner.pool == 0 || self.sw_final.pool == 0 {
            return invalid("software exploration pools must be non-empty");
        }
        let staging = self.refine_top_k > 0;
        if staging && self.refine_backend == self.backend {
            return invalid(
                "refine tier equals the screen tier — staging would re-price every survivor \
                 with the backend that already screened it; pick a higher-fidelity \
                 refine_backend or disable staging (refine_top_k = 0)",
            );
        }
        if staging && self.refine_backend == BackendKind::Surrogate {
            return invalid(
                "the surrogate cannot be the refine tier — it trains from refine-tier \
                 observations, so wrapping it around itself is self-referential; use sim \
                 or calibrated as the refine backend",
            );
        }
        if self.adaptive_refinement && self.refine_top_k == 0 {
            return invalid(
                "adaptive staging needs a nonzero initial refine_top_k — with a zero budget \
                 the controller never refines, so it can never observe disagreement and \
                 grow",
            );
        }
        Ok(())
    }
}

runtime::wire_struct!(CoDesignOptions {
    hw_trials,
    mobo_prior,
    sw_inner,
    sw_final,
    tuning_rounds,
    seed,
    threads,
    work_stealing,
    cache_capacity,
    backend,
    refine_backend,
    refine_top_k,
    adaptive_refinement,
    tech,
    optimizer,
});

/// The high-fidelity refinement tier of a fidelity-staged problem.
struct RefineTier {
    /// Explorer wired to the high-fidelity cost backend.
    explorer: SoftwareExplorer,
    /// Survivors per screened batch re-evaluated at high fidelity (the
    /// fixed policy; ignored while `controller` is installed).
    top_k: usize,
    /// The adaptive refine-budget controller, when adaptive staging is
    /// on. Updated serially between batches, so its trajectory is a pure
    /// function of batch content.
    controller: Option<AdaptiveTopK>,
    /// Memo-key bases for this tier (distinct from the screen tier's via
    /// the backend fingerprint).
    bases: Vec<Key128>,
    /// Remote dispatch for this tier's fresh evaluations, when installed
    /// and the tier's backend is remote-eligible.
    remote: Option<RemoteTierHook>,
}

/// One tier's remote-dispatch hook: the evaluator that ships batches out
/// of process, plus the `(backend, tech)` recipe workers rebuild the
/// tier's cost backend from. Results are bit-identical to the in-process
/// path because per-pair evaluations are pure (see [`crate::remote`]).
#[derive(Clone)]
pub struct RemoteTierHook {
    evaluator: crate::remote::SharedPairEvaluator,
    kind: BackendKind,
    tech: TechParams,
}

/// The hardware design space wrapped as a [`dse::problem::Problem`].
///
/// Evaluation is where the whole co-design loop spends its time: one
/// design point means one full software exploration per workload. The
/// problem therefore routes every batch through the parallel evaluation
/// runtime — [`Problem::evaluate_batch`] fans the batch's
/// `(accelerator, workload)` pairs out to a [`WorkerPool`] and answers
/// repeated pairs from a fingerprint-keyed [`MemoCache`] — while keeping
/// results bitwise identical to the serial path (order-preserving
/// reassembly; pure per-pair evaluations).
///
/// Pricing dispatches through a pluggable [`CostBackend`]
/// ([`HwProblem::with_backend`]); with [`HwProblem::with_refinement`] the
/// problem becomes fidelity-staged: the whole batch is screened by the
/// cheap backend, then only the top-k screened survivors are re-priced by
/// the high-fidelity tier before their objectives enter the Pareto front
/// and the GP training set. Survivor selection is a pure function of the
/// batch's screened responses (ties broken by submission order), so
/// staging preserves the thread-count-independence invariant.
pub struct HwProblem<'a> {
    generator: &'a dyn Generator,
    workloads: &'a [Workload],
    space: SearchSpace,
    explorer: SoftwareExplorer,
    sw_opts: ExplorerOptions,
    seed: u64,
    workers: WorkerPool,
    /// Memoized per-(accelerator, workload) explorer outcomes, keyed by
    /// the stable fingerprint of config + workload + options + seed +
    /// cost backend. `None` records a software-exploration failure (also
    /// worth caching). Shared by the screen and refine tiers (their keys
    /// differ through the backend fingerprint) and persistable across
    /// runs ([`HwProblem::save_cache`]).
    memo: MemoCache<(u64, u64), Option<Metrics>>,
    /// Exact per-point replay cache (a point hit skips config generation
    /// and the memo lookups entirely).
    cache: BTreeMap<Point, Option<Vec<f64>>>,
    /// Per-workload fingerprint bases: (workload, options, seed, backend)
    /// are invariant *between retrainings* of the screen backend, so
    /// their hash state is computed once and cloned per pair instead of
    /// re-walking the workload structure on every lookup; a surrogate
    /// screen tier advancing its training generation triggers a rebuild
    /// (see `refresh_screen_bases`). The keys are 128-bit, so a 64-bit
    /// collision degrades to a cache miss instead of returning another
    /// design's metrics.
    pair_bases: Vec<Key128>,
    /// The screen backend fingerprint `pair_bases` was computed from.
    screen_fp: runtime::Fingerprint,
    /// The optional high-fidelity stage.
    refine: Option<RefineTier>,
    /// Remote dispatch for the screen tier's fresh evaluations, when
    /// installed and the screen backend is remote-eligible.
    remote_screen: Option<RemoteTierHook>,
    /// Total (design point, workload) evaluations requested through the
    /// screen tier, memoized or not.
    sw_requests: usize,
    /// (design point, workload) evaluations re-run at high fidelity.
    refine_requests: usize,
    /// Staged batches processed (the `Refined` event sequence number).
    staged_batches: usize,
    /// Progress-event sink (disabled by default; the engine installs a
    /// live one per job).
    events: EventSink,
    /// Wall-clock side channel (disabled by default). Strictly
    /// observation-only: nothing recorded here reaches memo fingerprints,
    /// [`RunStats`], or the event stream.
    telemetry: Telemetry,
}

impl<'a> HwProblem<'a> {
    /// Wraps a generator + workloads as a 3-objective problem
    /// (latency cycles, power mW, area mm²), evaluating serially with the
    /// analytic backend.
    pub fn new(
        generator: &'a dyn Generator,
        workloads: &'a [Workload],
        sw_opts: ExplorerOptions,
        seed: u64,
    ) -> Self {
        let dim_sizes = generator.space().dims.iter().map(|d| d.len()).collect();
        let explorer = SoftwareExplorer::new(seed);
        let pair_bases = Self::make_bases(workloads, &sw_opts, seed, &explorer);
        let screen_fp = explorer.backend_fingerprint();
        HwProblem {
            generator,
            workloads,
            space: SearchSpace::new(dim_sizes),
            explorer,
            sw_opts,
            seed,
            workers: WorkerPool::serial(),
            memo: MemoCache::new(4096),
            cache: BTreeMap::new(),
            pair_bases,
            screen_fp,
            refine: None,
            remote_screen: None,
            sw_requests: 0,
            refine_requests: 0,
            staged_batches: 0,
            events: EventSink::disabled(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Builds the per-workload fingerprint bases for one explorer tier.
    /// The explorer's cost backend is part of the key: different backends
    /// legitimately produce different metrics for the same pair.
    fn make_bases(
        workloads: &[Workload],
        sw_opts: &ExplorerOptions,
        seed: u64,
        explorer: &SoftwareExplorer,
    ) -> Vec<Key128> {
        let backend_fp = explorer.backend_fingerprint();
        workloads
            .iter()
            .map(|w| {
                Key128::of(|fp| {
                    w.fingerprint_into(fp);
                    sw_opts.fingerprint_into(fp);
                    fp.write_u64(seed);
                    fp.write_u64(backend_fp.0);
                })
            })
            .collect()
    }

    /// Runs batch evaluations on the given worker pool.
    pub fn with_workers(mut self, workers: WorkerPool) -> Self {
        self.workers = workers;
        self
    }

    /// Bounds the memoizing evaluation cache (call before
    /// [`HwProblem::load_cache`] — resizing resets the cache).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.memo = MemoCache::new(capacity);
        self
    }

    /// Screens every candidate evaluation through the given cost backend.
    pub fn with_backend(mut self, backend: Arc<dyn CostBackend>) -> Self {
        self.explorer = SoftwareExplorer::new(self.seed).with_backend(backend);
        self.pair_bases =
            Self::make_bases(self.workloads, &self.sw_opts, self.seed, &self.explorer);
        self.screen_fp = self.explorer.backend_fingerprint();
        self
    }

    /// Enables fidelity staging: the `top_k` best-screened points of every
    /// batch are re-evaluated through `backend` before their objectives
    /// are reported. `top_k == 0` disables staging.
    pub fn with_refinement(mut self, backend: Arc<dyn CostBackend>, top_k: usize) -> Self {
        if top_k == 0 {
            self.refine = None;
            return self;
        }
        let explorer = SoftwareExplorer::new(self.seed).with_backend(backend);
        let bases = Self::make_bases(self.workloads, &self.sw_opts, self.seed, &explorer);
        self.refine = Some(RefineTier {
            explorer,
            top_k,
            controller: None,
            bases,
            remote: None,
        });
        self
    }

    /// Installs remote batch dispatch: fresh (non-memoized) evaluations
    /// of a tier whose `(BackendKind, TechParams)` recipe is given flow
    /// through `evaluator` instead of the local worker pool. Call after
    /// [`HwProblem::with_backend`] / [`HwProblem::with_refinement`] so
    /// the hooks attach to the installed tiers. Memo probing, in-batch
    /// deduplication, and submission-order reassembly are unchanged, and
    /// per-pair evaluations are pure, so results are bit-identical to
    /// local execution at any worker count.
    pub fn with_remote_evaluator(
        mut self,
        evaluator: crate::remote::SharedPairEvaluator,
        screen: Option<(BackendKind, TechParams)>,
        refine: Option<(BackendKind, TechParams)>,
    ) -> Self {
        self.remote_screen = screen.map(|(kind, tech)| RemoteTierHook {
            evaluator: Arc::clone(&evaluator),
            kind,
            tech,
        });
        if let (Some(tier), Some((kind, tech))) = (&mut self.refine, refine) {
            tier.remote = Some(RemoteTierHook {
                evaluator,
                kind,
                tech,
            });
        }
        self
    }

    /// Enables *adaptive* fidelity staging: like
    /// [`HwProblem::with_refinement`], but the per-batch refine budget
    /// starts at `initial_top_k` and is grown/shrunk by an
    /// [`AdaptiveTopK`] controller from the observed screen-vs-refine
    /// rank disagreement. When the screen backend is a
    /// [`accel_model::SurrogateBackend`], every refined configuration is
    /// also fed back as GP training data, so the screen tier improves as
    /// the run progresses. `initial_top_k == 0` disables staging.
    pub fn with_adaptive_refinement(
        mut self,
        backend: Arc<dyn CostBackend>,
        initial_top_k: usize,
    ) -> Self {
        self = self.with_refinement(backend, initial_top_k);
        if let Some(tier) = &mut self.refine {
            tier.controller = Some(AdaptiveTopK::new(initial_top_k));
        }
        self
    }

    /// Rebuilds the screen tier's memo-key bases if the screen backend's
    /// fingerprint moved (a surrogate advancing its training
    /// generation) — stale-generation memo entries become unreachable
    /// instead of being served.
    fn refresh_screen_bases(&mut self) {
        let fp = self.explorer.backend_fingerprint();
        if fp != self.screen_fp {
            self.pair_bases =
                Self::make_bases(self.workloads, &self.sw_opts, self.seed, &self.explorer);
            self.screen_fp = fp;
        }
    }

    /// Streams staging progress ([`RunEvent::Refined`]) to the given
    /// sink. Events are emitted from the thread driving
    /// [`Problem::evaluate_batch`] — never from workers — so the stream
    /// is identical at any thread count.
    pub fn with_events(mut self, events: EventSink) -> Self {
        self.events = events;
        self
    }

    /// Attaches the telemetry side channel: per-tier software-exploration
    /// timings (`sw_explore/<tier>`) and their phases (`sw_opt/*`, see
    /// [`SoftwareExplorer::with_telemetry`]), staging spans, and end-of-run
    /// cache counters flow into it. A surrogate screen backend additionally
    /// reports its GP fit/predict timings. Call after
    /// [`HwProblem::with_backend`] / [`HwProblem::with_refinement`] so the
    /// installed explorers and backends are the ones that run.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        if let Some(surrogate) = self.explorer.backend().as_surrogate() {
            surrogate.install_telemetry(telemetry.clone());
        }
        self.explorer = self.explorer.with_telemetry(telemetry.clone(), "sw_opt");
        self.refine = self.refine.map(|tier| RefineTier {
            explorer: tier.explorer.with_telemetry(telemetry.clone(), "sw_opt"),
            ..tier
        });
        self.telemetry = telemetry;
        self
    }

    /// Seeds the memoizing evaluation cache with entries from a shared
    /// store (the engine's cross-request warm state), preserving each
    /// entry's age. Warm entries only skip recomputation — memoized
    /// evaluations are pure, so seeding changes hit/miss statistics,
    /// never results — and seeding itself moves no cache counter.
    pub(crate) fn seed_memo(&self, entries: &[((u64, u64), Option<Metrics>, u64)]) {
        self.memo.seed(entries);
    }

    /// Snapshot of the memo cache with entry ages — what a job publishes
    /// back into the engine's shared store on completion.
    pub(crate) fn memo_snapshot(&self) -> Vec<((u64, u64), Option<Metrics>, u64)> {
        self.memo.snapshot_stamped()
    }

    /// Counters of the memoizing evaluation cache.
    pub fn cache_stats(&self) -> runtime::CacheStats {
        self.memo.stats()
    }

    /// The worker pool driving batch evaluation.
    pub fn workers(&self) -> &WorkerPool {
        &self.workers
    }

    /// Loads the persistent evaluation cache (warm start). Returns the
    /// number of entries loaded; a missing or corrupted file is a clean
    /// cold start (0).
    pub fn load_cache(&self, path: &std::path::Path) -> u64 {
        self.memo.load_from_file(path).unwrap_or(0)
    }

    /// Persists the evaluation cache for future runs, merging
    /// newest-wins into whatever the file already holds (so cache files
    /// shared across runs and bench binaries accumulate instead of
    /// thrash) and writing atomically (a crash mid-save never truncates
    /// the previous image).
    ///
    /// # Errors
    /// Propagates I/O errors from writing the file.
    pub fn save_cache(&self, path: &std::path::Path) -> std::io::Result<u64> {
        self.memo.save_merged_with_max_age(path, None)
    }

    /// Stable 128-bit memoization key for one (accelerator, workload)
    /// evaluation: the precomputed (workload, options, seed, backend)
    /// bases extended by the accelerator config.
    fn pair_key(bases: &[Key128], cfg: &AcceleratorConfig, workload_idx: usize) -> (u64, u64) {
        let mut key = bases[workload_idx].clone();
        key.feed(|fp| cfg.fingerprint_into(fp));
        key.finish()
    }

    /// Total (design point, workload) evaluations requested through the
    /// screen tier so far.
    pub fn sw_requests(&self) -> usize {
        self.sw_requests
    }

    /// Total (design point, workload) evaluations re-run at high fidelity.
    pub fn refine_requests(&self) -> usize {
        self.refine_requests
    }

    /// The refine budget each staged batch used (empty when staging is
    /// off or the budget is fixed).
    pub fn topk_trajectory(&self) -> Vec<usize> {
        self.refine
            .as_ref()
            .and_then(|t| t.controller.as_ref())
            .map(|c| c.trajectory().to_vec())
            .unwrap_or_default()
    }

    /// Surrogate screen-tier state as `(training samples, trusted)`;
    /// `None` when the screen backend is not a surrogate.
    pub fn surrogate_stats(&self) -> Option<(usize, bool)> {
        self.explorer
            .backend()
            .as_surrogate()
            .map(|s| (s.training_len(), s.is_trusted()))
    }

    fn objectives_of(metrics: &Metrics) -> Vec<f64> {
        vec![metrics.latency_cycles, metrics.power_mw, metrics.area_mm2]
    }

    /// Evaluates every (config, workload) pair of one tier: memoized
    /// pairs are answered without occupying a worker, duplicates within
    /// the batch are dispatched once, and the rest fan out to the worker
    /// pool. Each job is a pure function of (seed, backend, config,
    /// workload, options), so completion order is irrelevant — the pool
    /// reassembles in submission order, keeping results identical at any
    /// thread count.
    #[allow(clippy::too_many_arguments)] // static worker threading the batch's whole context
    fn eval_pairs(
        explorer: &SoftwareExplorer,
        bases: &[Key128],
        memo: &MemoCache<(u64, u64), Option<Metrics>>,
        workers: &WorkerPool,
        workloads: &[Workload],
        sw_opts: &ExplorerOptions,
        configs: &[&AcceleratorConfig],
        tier: &Timer,
        remote: Option<&RemoteTierHook>,
        seed: u64,
    ) -> Vec<Vec<Option<Metrics>>> {
        let mut results: Vec<Vec<Option<Option<Metrics>>>> = configs
            .iter()
            .map(|_| vec![None; workloads.len()])
            .collect();
        let mut jobs: Vec<(usize, usize, (u64, u64))> = Vec::new();
        let mut duplicates: Vec<(usize, usize, (u64, u64))> = Vec::new();
        let mut pending: BTreeSet<(u64, u64)> = BTreeSet::new();
        for ((ci, cfg), per_workload) in configs.iter().enumerate().zip(results.iter_mut()) {
            for (wi, slot) in per_workload.iter_mut().enumerate() {
                let key = Self::pair_key(bases, cfg, wi);
                // Duplicates of a key already dispatched in this batch
                // skip the memo probe: they are resolved (and counted as
                // hits) once the first occurrence has been computed.
                if pending.contains(&key) {
                    duplicates.push((ci, wi, key));
                    continue;
                }
                match memo.get(&key) {
                    Some(memoized) => *slot = Some(memoized),
                    None => {
                        pending.insert(key);
                        jobs.push((ci, wi, key));
                    }
                }
            }
        }

        // Only real (non-memoized) software explorations are timed, so the
        // tier's `sw_explore/<tier>` timing measures the backend, not the
        // cache.
        //
        // With a remote hook installed, the deduplicated fresh jobs ship
        // through the remote evaluator instead of the local pool. The
        // evaluator contract (order-preserving, pure per item) makes the
        // two paths bit-identical: everything around the dispatch — memo
        // probes, duplicate resolution, reassembly — is shared code.
        let outcomes = match remote {
            Some(hook) if !jobs.is_empty() => {
                let items: Vec<crate::remote::RemoteEvalRequest> = jobs
                    .iter()
                    .map(|&(ci, wi, _)| crate::remote::RemoteEvalRequest {
                        backend: hook.kind,
                        tech: hook.tech.clone(),
                        seed,
                        sw_opts: sw_opts.clone(),
                        workload: workloads[wi].clone(),
                        config: configs[ci].clone(),
                    })
                    .collect();
                hook.evaluator.evaluate_batch(&items)
            }
            _ => workers.map(&jobs, |_, &(ci, wi, _)| {
                tier.time(|| {
                    explorer
                        .best_metrics(&workloads[wi], configs[ci], sw_opts)
                        .ok()
                })
            }),
        };

        let mut fresh_outcomes: BTreeMap<(u64, u64), Option<Metrics>> = BTreeMap::new();
        for (&(ci, wi, key), outcome) in jobs.iter().zip(outcomes) {
            memo.insert(key, outcome);
            fresh_outcomes.insert(key, outcome);
            results[ci][wi] = Some(outcome);
        }
        for (ci, wi, key) in duplicates {
            // The memo lookup both answers the duplicate and credits the
            // hit; the local map covers the pathological case where a
            // tiny cache already evicted the entry.
            let outcome = memo.get(&key).unwrap_or_else(|| fresh_outcomes[&key]);
            results[ci][wi] = Some(outcome);
        }
        results
            .into_iter()
            .map(|per| {
                per.into_iter()
                    .map(|slot| slot.expect("every pair was resolved"))
                    .collect()
            })
            .collect()
    }
}

impl Problem for HwProblem<'_> {
    fn space(&self) -> &SearchSpace {
        &self.space
    }

    fn num_objectives(&self) -> usize {
        3
    }

    fn evaluate(&mut self, point: &Point) -> Option<Vec<f64>> {
        self.evaluate_batch(std::slice::from_ref(point))
            .pop()
            .expect("batch of one yields one response")
    }

    fn evaluate_batch(&mut self, points: &[Point]) -> Vec<Option<Vec<f64>>> {
        // Stage 1 (serial): answer point-cache hits, decode fresh points
        // into accelerator configs, and deduplicate within the batch.
        let mut fresh: Vec<(usize, AcceleratorConfig)> = Vec::new();
        let mut fresh_points: BTreeSet<Point> = BTreeSet::new();
        for (i, p) in points.iter().enumerate() {
            if self.cache.contains_key(p) || fresh_points.contains(p) {
                continue;
            }
            match self.generator.generate(p) {
                Ok(cfg) => {
                    fresh_points.insert(p.clone());
                    fresh.push((i, cfg));
                }
                Err(_) => {
                    self.cache.insert(p.clone(), None);
                }
            }
        }

        // Stage 2 (screen): price every fresh point on every workload
        // through the screening backend — memo-deduplicated, fanned out
        // to the worker pool.
        self.sw_requests += fresh.len() * self.workloads.len();
        let configs: Vec<&AcceleratorConfig> = fresh.iter().map(|(_, cfg)| cfg).collect();
        let screen_span = self.telemetry.span("job/hw_dse/screen");
        let screened = Self::eval_pairs(
            &self.explorer,
            &self.pair_bases,
            &self.memo,
            &self.workers,
            self.workloads,
            &self.sw_opts,
            &configs,
            &self.telemetry.timer(format_args!(
                "sw_explore/{}",
                self.explorer.backend().name()
            )),
            self.remote_screen.as_ref(),
            self.seed,
        );
        drop(screen_span);
        let mut fresh_metrics: Vec<Option<Metrics>> = screened
            .into_iter()
            .map(|per| {
                per.into_iter()
                    .collect::<Option<Vec<Metrics>>>()
                    .map(|parts| Metrics::sequential(&parts))
            })
            .collect();

        // Stage 3 (refine): re-price only the top-k screened survivors at
        // high fidelity before anything enters the Pareto front / GP
        // training set. Selection ranks by screened latency with
        // submission-index tie-breaks, and the adaptive controller (when
        // installed) resizes the budget from the survivors' screen-vs-
        // refine rank disagreement — both pure functions of the batch, so
        // thread count still never changes results.
        let mut refined_survivors: Vec<usize> = Vec::new();
        if let Some(tier) = &mut self.refine {
            let top_k = match &mut tier.controller {
                Some(c) if !fresh.is_empty() => c.begin_batch(),
                Some(c) => c.current(),
                None => tier.top_k,
            };
            let survivors = dse::staged::rank_top_k(&fresh_metrics, top_k, |m| {
                m.as_ref().map(|metrics| metrics.latency_cycles)
            });
            if !fresh.is_empty() {
                self.staged_batches += 1;
                self.events.emit(RunEvent::Refined {
                    batch: self.staged_batches,
                    survivors: survivors.len(),
                    budget: top_k,
                });
            }
            if !survivors.is_empty() {
                self.refine_requests += survivors.len() * self.workloads.len();
                let screened_latency: Vec<f64> = survivors
                    .iter()
                    .map(|&fi| {
                        fresh_metrics[fi]
                            .as_ref()
                            .expect("survivors are feasible")
                            .latency_cycles
                    })
                    .collect();
                let sub: Vec<&AcceleratorConfig> =
                    survivors.iter().map(|&fi| &fresh[fi].1).collect();
                let refine_span = self.telemetry.span("job/hw_dse/refine");
                let refined = Self::eval_pairs(
                    &tier.explorer,
                    &tier.bases,
                    &self.memo,
                    &self.workers,
                    self.workloads,
                    &self.sw_opts,
                    &sub,
                    &self.telemetry.timer(format_args!(
                        "sw_explore/{}",
                        tier.explorer.backend().name()
                    )),
                    tier.remote.as_ref(),
                    self.seed,
                );
                drop(refine_span);
                for (&fi, per) in survivors.iter().zip(refined) {
                    // A refine-tier failure (impossible mappings are
                    // backend-independent, so this is purely defensive)
                    // keeps the screened estimate.
                    if let Some(parts) = per.into_iter().collect::<Option<Vec<Metrics>>>() {
                        fresh_metrics[fi] = Some(Metrics::sequential(&parts));
                    }
                }
                if let Some(c) = &mut tier.controller {
                    let refined_latency: Vec<f64> = survivors
                        .iter()
                        .map(|&fi| {
                            fresh_metrics[fi]
                                .as_ref()
                                .expect("survivors stay feasible")
                                .latency_cycles
                        })
                        .collect();
                    c.observe(&screened_latency, &refined_latency);
                }
                refined_survivors = survivors;
            }
        }

        // Stage 3b (learn): a surrogate screen tier trains on every
        // configuration the refine tier just priced, then the memo-key
        // bases move to the new training generation. Serial and in batch
        // order, so the learning trajectory is thread-count-independent.
        if !refined_survivors.is_empty() {
            if let Some(surrogate) = self.explorer.backend().as_surrogate() {
                for &fi in &refined_survivors {
                    surrogate.observe(&fresh[fi].1);
                }
            }
            self.refresh_screen_bases();
        }

        // Stage 4 (serial): record final metrics per point, in submission
        // order.
        for ((i, _), metrics) in fresh.iter().zip(fresh_metrics) {
            let response = metrics.map(|metrics| Self::objectives_of(&metrics));
            self.cache.insert(points[*i].clone(), response);
        }

        points
            .iter()
            .map(|p| self.cache.get(p).expect("every point was resolved").clone())
            .collect()
    }
}

/// A [`Progress`] observer wired to one job: forwards hardware-DSE
/// batches as [`RunEvent::BatchEvaluated`] (when `forward` is set) and
/// stops the observed loop once the job's cancel flag rises. Observation
/// happens on the thread driving the loop, so forwarding keeps event
/// streams deterministic; the software explorer gets a non-forwarding
/// observer (its rounds run on worker threads during the final
/// optimization, where emission order would depend on scheduling).
#[derive(Debug)]
struct RunObserver {
    events: EventSink,
    cancel: Arc<AtomicBool>,
    forward: bool,
}

impl Progress for RunObserver {
    fn on_batch(&self, update: &BatchUpdate<'_>) -> bool {
        if self.forward {
            self.events.emit(RunEvent::BatchEvaluated {
                optimizer: update.optimizer.to_string(),
                phase: update.phase.to_string(),
                batch: update.batch,
                evaluated: update.evaluated,
                feasible: update.feasible,
            });
        }
        // detlint-allow(atomics): cooperative cancel latch; a late observation only delays the Cancelled exit, never changes results
        !self.cancel.load(Ordering::Relaxed)
    }
}

/// One memo-cache entry with its age, as exchanged between a job's
/// private cache and the engine's shared store.
pub(crate) type MemoEntry = ((u64, u64), Option<Metrics>, u64);

/// Per-job execution context handed down by the engine.
pub(crate) struct ExecCtx {
    /// The request label (reporting only).
    pub label: String,
    /// Where the job's [`RunEvent`]s go.
    pub events: EventSink,
    /// Raised by [`JobHandle::cancel`](crate::engine::JobHandle::cancel).
    pub cancel: Arc<AtomicBool>,
    /// Warm memo entries captured from the shared store at submit time.
    pub warm: Vec<MemoEntry>,
    /// Engine-provided screen backend (a forked surrogate carrying
    /// accumulated training); `None` builds a fresh one from the options.
    pub screen_backend: Option<Arc<dyn CostBackend>>,
    /// The engine's telemetry side channel (disabled unless the engine
    /// was configured with metrics). Observation-only: nothing recorded
    /// through it feeds back into results, stats, or events.
    pub telemetry: Telemetry,
    /// Engine-provided remote batch evaluator. Remote-eligible tiers
    /// (see [`crate::remote::remote_eligible`]) dispatch their fresh
    /// evaluations through it instead of the local worker pool; results
    /// stay bit-identical either way.
    pub remote: Option<crate::remote::SharedPairEvaluator>,
}

/// What one executed job hands back to the engine.
pub(crate) struct ExecOutcome {
    /// The job's result.
    pub result: Result<Solution, HascoError>,
    /// The job's memo entries — published into the shared store when the
    /// caller observes completion. Empty for cancelled jobs, so published
    /// warmth never depends on *when* a cancellation landed.
    pub memo: Vec<MemoEntry>,
    /// The job's screen backend when it is a (now further-trained)
    /// surrogate, for the engine's per-technology registry.
    pub surrogate: Option<Arc<dyn CostBackend>>,
}

/// Runs one co-design request end to end (validation, partitioning, the
/// hardware DSE with software-in-the-loop evaluation, constraint-driven
/// tuning, final software optimization), emitting [`RunEvent`]s along the
/// way. This is the engine's job body; [`CoDesigner::run`] reaches it
/// through a single-slot engine.
pub(crate) fn execute(
    input: &InputDescription,
    opts: &CoDesignOptions,
    ctx: &ExecCtx,
) -> ExecOutcome {
    let mut memo = Vec::new();
    let mut surrogate = None;
    let result = execute_inner(input, opts, ctx, &mut memo, &mut surrogate);
    match &result {
        Ok(s) => ctx.events.emit(RunEvent::Solved {
            meets_constraints: s.meets_constraints,
            latency_ms: s.total.latency_ms,
        }),
        Err(HascoError::Cancelled) => ctx.events.emit(RunEvent::Cancelled),
        Err(e) => ctx.events.emit(RunEvent::Failed {
            error: e.to_string(),
        }),
    }
    ExecOutcome {
        result,
        memo,
        surrogate,
    }
}

fn execute_inner(
    input: &InputDescription,
    opts: &CoDesignOptions,
    ctx: &ExecCtx,
    memo_out: &mut Vec<MemoEntry>,
    surrogate_out: &mut Option<Arc<dyn CostBackend>>,
) -> Result<Solution, HascoError> {
    opts.validate()?;
    if input.app.is_empty() {
        return Err(HascoError::EmptyApp);
    }
    // detlint-allow(atomics): cooperative cancel latch; see Progress::observe above
    let cancelled = || ctx.cancel.load(Ordering::Relaxed);
    if cancelled() {
        return Err(HascoError::Cancelled);
    }
    // Held to the end of the job (including error returns): records the
    // whole-job span on drop.
    let _job_span = ctx.telemetry.span("job");
    ctx.events.emit(RunEvent::Started {
        label: ctx.label.clone(),
        workloads: input.app.len(),
    });

    // Step 1: enumerate the tensorize-choice space (reported per
    // workload; the explorer re-derives its own choices per accelerator,
    // so this is observability-only and skipped when nobody listens).
    if ctx.events.is_enabled() {
        let partition_span = ctx.telemetry.span("job/partition");
        for part in partition_app(&input.app, &IntrinsicKind::ALL, 64) {
            ctx.events.emit(RunEvent::Partitioned {
                choices: part.total_choices(),
                workload: part.workload,
            });
        }
        drop(partition_span);
    }

    let generator = CoDesigner::make_generator(input.method);
    let workers = WorkerPool::new(resolve_threads(opts.threads))
        .with_stealing(opts.work_stealing)
        .with_telemetry(ctx.telemetry.clone());

    // Step 2: hardware DSE with software-in-the-loop evaluation, batched
    // onto the evaluation runtime and priced through the configured cost
    // backend(s). The screen backend may arrive pre-trained from the
    // engine's surrogate registry.
    let screen = ctx
        .screen_backend
        .clone()
        .unwrap_or_else(|| opts.backend.build_with(opts.tech.clone()));
    let refine_backend = opts.refine_backend.build_with(opts.tech.clone());
    let mut problem = HwProblem::new(
        generator.as_ref(),
        &input.app.workloads,
        opts.sw_inner.clone(),
        opts.seed,
    )
    .with_workers(workers)
    .with_cache_capacity(opts.cache_capacity)
    .with_backend(Arc::clone(&screen))
    .with_events(ctx.events.clone());
    problem = if opts.adaptive_refinement {
        problem.with_adaptive_refinement(refine_backend, opts.refine_top_k)
    } else {
        problem.with_refinement(refine_backend, opts.refine_top_k)
    };
    // Remote dispatch, tier by tier: only backends reconstructible from
    // (kind, tech) alone leave the process. A surrogate screen keeps its
    // training local; the analytic tier is cheaper than a round trip.
    if let Some(remote) = &ctx.remote {
        let screen_hook =
            crate::remote::remote_eligible(opts.backend).then(|| (opts.backend, opts.tech.clone()));
        let refine_hook = (opts.refine_top_k > 0
            && crate::remote::remote_eligible(opts.refine_backend))
        .then(|| (opts.refine_backend, opts.tech.clone()));
        if screen_hook.is_some() || refine_hook.is_some() {
            problem = problem.with_remote_evaluator(Arc::clone(remote), screen_hook, refine_hook);
        }
    }
    problem = problem.with_telemetry(ctx.telemetry.clone());
    problem.seed_memo(&ctx.warm);
    let warm_cache_entries = ctx.warm.len() as u64;

    let observer = RunObserver {
        events: ctx.events.clone(),
        cancel: Arc::clone(&ctx.cancel),
        forward: true,
    };
    let mut optimizer =
        opts.optimizer
            .build_with_telemetry(opts.seed, opts.mobo_prior, &ctx.telemetry);
    let dse_span = ctx.telemetry.span("job/hw_dse");
    let mut history = optimizer.run_with_progress(&mut problem, opts.hw_trials, &observer);
    drop(dse_span);
    if cancelled() {
        return Err(HascoError::Cancelled);
    }
    if history.evaluations.is_empty() {
        *memo_out = problem.memo_snapshot();
        return Err(HascoError::NoFeasibleAccelerator);
    }

    // Step 3: pick the Pareto point satisfying the constraints (or the
    // least-violating one), re-optimizing thoroughly. When the metrics
    // violate the constraints, they "drive the hardware DSE and generate
    // a new accelerator": run extra exploration rounds with fresh seeds
    // and merge the histories before giving up.
    let tuned = (|| -> Result<Solution, HascoError> {
        let mut solution = select_and_finalize(opts, input, generator.as_ref(), &history, ctx)?;
        ctx.events.emit(RunEvent::Tuned {
            round: 0,
            meets_constraints: solution.meets_constraints,
        });
        let mut round = 0;
        while !solution.meets_constraints && round < opts.tuning_rounds {
            if cancelled() {
                return Err(HascoError::Cancelled);
            }
            round += 1;
            let mut retune = opts.optimizer.build_with_telemetry(
                opts.seed.wrapping_add(round as u64 * 0x9e37),
                opts.mobo_prior,
                &ctx.telemetry,
            );
            let tuning_span = ctx.telemetry.span("job/tuning");
            let extra = retune.run_with_progress(&mut problem, opts.hw_trials, &observer);
            drop(tuning_span);
            if cancelled() {
                return Err(HascoError::Cancelled);
            }
            for e in extra.evaluations {
                if !history.evaluations.iter().any(|h| h.point == e.point) {
                    history.evaluations.push(e);
                }
            }
            history.infeasible += extra.infeasible;
            let candidate = select_and_finalize(opts, input, generator.as_ref(), &history, ctx)?;
            if candidate.meets_constraints
                || input.constraints.violation(&candidate.total)
                    < input.constraints.violation(&solution.total)
            {
                solution = candidate;
            }
            ctx.events.emit(RunEvent::Tuned {
                round,
                meets_constraints: solution.meets_constraints,
            });
        }
        if cancelled() {
            return Err(HascoError::Cancelled);
        }
        Ok(solution)
    })();

    // The job's warm state goes back to the engine: memo entries for the
    // shared store, the screen surrogate (with whatever it learned this
    // run) for the registry. Every *completed* outcome publishes — a
    // selection or finalization failure still paid for its evaluations,
    // and a retry should not start cold — while a cancelled job publishes
    // nothing (what it had computed depends on when the cancel landed).
    if !matches!(tuned, Err(HascoError::Cancelled)) {
        *memo_out = problem.memo_snapshot();
        if screen.as_surrogate().is_some() {
            *surrogate_out = Some(Arc::clone(&screen));
        }
        // Per-shard cache traffic of this job's memo, accumulated across
        // jobs (the engine's shared store is snapshotted separately).
        ctx.telemetry
            .add_cache_shards("jobs", &problem.memo.shard_stats());
        if let Some(budget) = problem.topk_trajectory().last() {
            ctx.telemetry
                .gauge_set("staging.topk_budget", *budget as u64);
        }
        if let Some(disagreement) = problem
            .refine
            .as_ref()
            .and_then(|tier| tier.controller.as_ref())
            .and_then(AdaptiveTopK::evidence_disagreement)
        {
            ctx.telemetry.gauge_set(
                "staging.rank_disagreement_milli",
                (disagreement * 1000.0) as u64,
            );
        }
    }
    let mut solution = tuned?;

    // The solution reports the full (merged) exploration history even
    // when a retuning round did not improve on the incumbent.
    solution.hw_history = history;
    let (surrogate_samples, surrogate_trusted) = problem.surrogate_stats().unwrap_or((0, false));
    solution.stats = RunStats {
        hw_evaluations: solution.hw_history.evaluations.len(),
        sw_explorations: problem.sw_requests(),
        refine_explorations: problem.refine_requests(),
        backend: opts.backend,
        refine_backend: (opts.refine_top_k > 0).then_some(opts.refine_backend),
        refine_topk_trajectory: problem.topk_trajectory(),
        surrogate_samples,
        surrogate_trusted,
        warm_cache_entries,
        cache: problem.cache_stats(),
    };
    Ok(solution)
}

fn select_and_finalize(
    opts: &CoDesignOptions,
    input: &InputDescription,
    generator: &dyn Generator,
    history: &dse::problem::OptimizerResult,
    ctx: &ExecCtx,
) -> Result<Solution, HascoError> {
    let chosen = tuning::select_point(history, &input.constraints)
        .ok_or(HascoError::NoFeasibleAccelerator)?;
    let cfg = generator
        .generate(&chosen)
        .map_err(|e| HascoError::Hardware(e.to_string()))?;
    finalize_solution(
        opts,
        input,
        cfg,
        history.clone(),
        &ctx.events,
        &ctx.cancel,
        &ctx.telemetry,
    )
}

/// Optimizes the software thoroughly for a fixed accelerator and
/// assembles the solution (shared by the engine path, the one-shot
/// [`CoDesigner::finalize`], and the "separate design" baseline).
fn finalize_solution(
    opts: &CoDesignOptions,
    input: &InputDescription,
    cfg: AcceleratorConfig,
    hw_history: dse::problem::OptimizerResult,
    events: &EventSink,
    cancel: &Arc<AtomicBool>,
    telemetry: &Telemetry,
) -> Result<Solution, HascoError> {
    let _finalize_span = telemetry.span("job/finalize");
    let workers = WorkerPool::new(resolve_threads(opts.threads))
        .with_stealing(opts.work_stealing)
        .with_telemetry(telemetry.clone());
    // With fidelity staging on, the final thorough optimization runs
    // at the high-fidelity tier so reported metrics match the
    // refinement the Pareto front saw.
    let final_backend = if opts.refine_top_k > 0 {
        opts.refine_backend
    } else {
        opts.backend
    };
    // The explorer watches the cancel flag between revision rounds (its
    // observer forwards no events: these rounds run on worker threads,
    // where emission order would depend on scheduling).
    let backend = final_backend.build_with(opts.tech.clone());
    let tier = telemetry.timer(format_args!("sw_explore/{}", backend.name()));
    let explorer = SoftwareExplorer::new(opts.seed)
        .with_backend(backend)
        .with_telemetry(telemetry.clone(), "sw_opt/final")
        .with_progress(Arc::new(RunObserver {
            events: EventSink::disabled(),
            cancel: Arc::clone(cancel),
            forward: false,
        }));
    // The thorough per-workload explorations are independent pure
    // runs, so they fan out across the pool; errors are reported in
    // workload order (first failure wins), matching the serial path.
    let outcomes = workers.map(&input.app.workloads, |_, w| {
        let optimized = tier
            .time(|| explorer.optimize(w, &cfg, &opts.sw_final))
            .map_err(|e| HascoError::Software(format!("{}: {e}", w.name)))?;
        let intr = cfg.intrinsic_comp();
        let ctx = sw_opt::schedule::ScheduleContext::new(w, &intr)
            .map_err(|e| HascoError::Software(e.to_string()))?;
        let program = sw_opt::codegen::render(&optimized.schedule, &ctx);
        Ok((
            WorkloadSolution {
                workload: w.name.clone(),
                schedule: optimized.schedule,
                metrics: optimized.metrics,
                program,
            },
            optimized.history.len(),
        ))
    });
    // detlint-allow(atomics): cooperative cancel latch; a late observation only delays the exit
    if cancel.load(Ordering::Relaxed) {
        return Err(HascoError::Cancelled);
    }
    let mut per_workload = Vec::with_capacity(input.app.len());
    let mut parts = Vec::with_capacity(input.app.len());
    for outcome in outcomes {
        let (ws, rounds) = outcome?;
        // Emitted here — on the driver thread, in workload order — so the
        // event stream never depends on which worker finished first.
        events.emit(RunEvent::SoftwareOptimized {
            workload: ws.workload.clone(),
            rounds,
            latency_ms: ws.metrics.latency_ms,
        });
        parts.push(ws.metrics);
        per_workload.push(ws);
    }
    let total = Metrics::sequential(&parts);
    Ok(Solution {
        meets_constraints: input.constraints.satisfied_by(&total),
        accelerator: cfg,
        per_workload,
        total,
        hw_history,
        stats: RunStats {
            backend: final_backend,
            ..RunStats::default()
        },
    })
}

/// The co-design driver — the paper's one-shot entry point, now a thin
/// wrapper over the resident [`Engine`]: [`CoDesigner::run`] spins up a
/// single-slot in-memory engine configured from the options, submits one
/// request, and waits for it. Long-lived callers serving many requests,
/// or persisting warm state across runs
/// ([`EngineConfig::with_cache_path`]), should hold an [`Engine`]
/// instead.
#[derive(Debug, Clone)]
pub struct CoDesigner {
    opts: CoDesignOptions,
}

impl CoDesigner {
    /// Creates a driver.
    pub fn new(opts: CoDesignOptions) -> Self {
        CoDesigner { opts }
    }

    pub(crate) fn make_generator(method: GenerationMethod) -> Box<dyn Generator> {
        match method {
            GenerationMethod::Gemmini => Box::new(GemminiGenerator::new()),
            GenerationMethod::Chisel(kind) => Box::new(ChiselGenerator::new(kind)),
        }
    }

    /// Runs the full three-step co-design flow through a one-shot engine.
    ///
    /// # Errors
    /// Returns [`HascoError`] when the options are invalid
    /// ([`CoDesignOptions::validate`]), the app is empty, or no
    /// accelerator in the explored set supports all workloads.
    pub fn run(&self, input: &InputDescription) -> Result<Solution, HascoError> {
        let engine = Engine::new(EngineConfig::one_shot(&self.opts));
        // The quiet submission: no event channel, so the one-shot path
        // buffers nothing it will never read.
        let handle = engine.submit_quiet(
            CoDesignRequest::new(input.clone(), self.opts.clone()).with_label("one-shot"),
        )?;
        handle.wait()
    }

    /// Optimizes the software thoroughly for a fixed accelerator and
    /// assembles the solution (also used by the "separate design"
    /// baseline, which skips the hardware DSE).
    ///
    /// # Errors
    /// Returns [`HascoError::Software`] when a workload cannot be mapped.
    pub fn finalize(
        &self,
        input: &InputDescription,
        cfg: AcceleratorConfig,
        hw_history: dse::problem::OptimizerResult,
    ) -> Result<Solution, HascoError> {
        finalize_solution(
            &self.opts,
            input,
            cfg,
            hw_history,
            &EventSink::disabled(),
            &Arc::new(AtomicBool::new(false)),
            &Telemetry::disabled(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::Constraints;
    use tensor_ir::suites;
    use tensor_ir::workload::TensorApp;

    #[test]
    fn request_and_workload_round_trip() {
        use runtime::wire::{from_bytes, to_bytes};

        let app = TensorApp::new(
            "toy",
            vec![
                suites::gemm_workload("g", 64, 32, 16),
                suites::gemm_workload("h", 8, 8, 8),
            ],
        );
        let input = InputDescription {
            app,
            method: GenerationMethod::Chisel(IntrinsicKind::Gemm),
            constraints: Constraints::latency_power(4.0, 900.0),
        };
        let mut opts = CoDesignOptions::quick(1234)
            .with_threads(3)
            .with_work_stealing(false);
        opts.refine_top_k = 2;
        opts.refine_backend = BackendKind::TraceSim;
        let request = CoDesignRequest::new(input, opts).with_label("wire-test");
        let back: CoDesignRequest = from_bytes(&to_bytes(&request)).expect("round trip decodes");
        // The request fingerprint hashes everything that can change a
        // solution, so fingerprint equality covers all of that at once.
        assert_eq!(request.fingerprint(), back.fingerprint());
        assert_eq!(request.label, back.label);
        // Thread count and stealing are outside the fingerprint; they
        // still travel, and a worker must honor the non-defaults.
        assert_eq!(back.options.threads, 3);
        assert!(!back.options.work_stealing);
        // The optimizer tags are 0..=2; anything past them is rejected.
        for tag in 0..=2u8 {
            assert!(from_bytes::<OptimizerKind>(&[tag]).is_some(), "tag {tag}");
        }
        assert!(from_bytes::<OptimizerKind>(&[3]).is_none());
    }

    fn toy_input() -> InputDescription {
        InputDescription {
            app: TensorApp::new(
                "toy",
                vec![
                    suites::gemm_workload("g1", 128, 128, 128),
                    suites::gemm_workload("g2", 256, 128, 64),
                ],
            ),
            method: GenerationMethod::Gemmini,
            constraints: Constraints::default(),
        }
    }

    #[test]
    fn codesign_produces_complete_solution() {
        let solution = CoDesigner::new(CoDesignOptions::quick(1))
            .run(&toy_input())
            .unwrap();
        assert_eq!(solution.per_workload.len(), 2);
        assert!(solution.total.latency_ms > 0.0);
        assert!(solution.meets_constraints);
        assert!(!solution.hw_history.evaluations.is_empty());
        assert!(solution.per_workload[0].program.contains("Tensorized_gemm"));
    }

    #[test]
    fn empty_app_is_rejected() {
        let mut input = toy_input();
        input.app = TensorApp::new("empty", vec![]);
        assert_eq!(
            CoDesigner::new(CoDesignOptions::quick(0))
                .run(&input)
                .unwrap_err(),
            HascoError::EmptyApp
        );
    }

    #[test]
    fn codesign_beats_or_matches_default_hardware() {
        // The co-design headline: the explored accelerator + tuned software
        // should not lose to the fixed default accelerator with the same
        // software effort.
        let input = toy_input();
        let designer = CoDesigner::new(CoDesignOptions::quick(3));
        let co = designer.run(&input).unwrap();
        let baseline_cfg = hw_gen::GemminiGenerator::baseline(false);
        let base = designer
            .finalize(
                &input,
                baseline_cfg,
                dse::problem::OptimizerResult::new("fixed"),
            )
            .unwrap();
        assert!(
            co.total.latency_cycles <= base.total.latency_cycles * 1.05,
            "co-design {} vs baseline {}",
            co.total.latency_cycles,
            base.total.latency_cycles
        );
    }

    #[test]
    fn retuning_rounds_expand_the_history_under_tight_constraints() {
        let mut input = toy_input();
        // Unreachable latency: retuning must kick in and merge extra
        // evaluations while returning a flagged best-effort solution.
        input.constraints = Constraints::latency_power(1e-9, 1e9);
        let mut opts = CoDesignOptions::quick(4);
        opts.hw_trials = 5;
        opts.tuning_rounds = 2;
        let with_retune = CoDesigner::new(opts.clone()).run(&input).unwrap();
        opts.tuning_rounds = 0;
        let without = CoDesigner::new(opts).run(&input).unwrap();
        assert!(!with_retune.meets_constraints);
        assert!(
            with_retune.hw_history.evaluations.len() > without.hw_history.evaluations.len(),
            "retuning added no evaluations: {} vs {}",
            with_retune.hw_history.evaluations.len(),
            without.hw_history.evaluations.len()
        );
        // Retuning never makes the solution worse.
        assert!(with_retune.total.latency_cycles <= without.total.latency_cycles * 1.0001);
    }

    #[test]
    fn hw_problem_caches_points() {
        let input = toy_input();
        let generator = GemminiGenerator::new();
        let mut p = HwProblem::new(
            &generator,
            &input.app.workloads,
            CoDesignOptions::quick(0).sw_inner,
            0,
        );
        let point = vec![0; p.space().len()];
        let a = p.evaluate(&point);
        let requests_after_first = p.sw_requests();
        assert_eq!(requests_after_first, input.app.len());
        let b = p.evaluate(&point);
        assert_eq!(a, b);
        assert_eq!(p.sw_requests(), requests_after_first);
    }

    #[test]
    fn hw_problem_memoizes_repeated_pairs_across_points() {
        // Two points whose configs coincide on everything the fingerprint
        // sees hit the memo cache instead of re-running the explorer.
        let input = toy_input();
        let generator = GemminiGenerator::new();
        let mut p = HwProblem::new(
            &generator,
            &input.app.workloads,
            CoDesignOptions::quick(0).sw_inner,
            0,
        );
        let point = vec![0; p.space().len()];
        let _ = p.evaluate(&point);
        let misses_after_first = p.cache_stats().misses;
        assert!(misses_after_first >= input.app.len() as u64);
        // Re-evaluating the same point is answered by the point cache; the
        // memo cache is not even consulted.
        let _ = p.evaluate(&point);
        assert_eq!(p.cache_stats().misses, misses_after_first);
        assert_eq!(p.cache_stats().inserts, misses_after_first);
    }

    #[test]
    fn hw_problem_batches_match_serial_at_any_worker_count() {
        let input = toy_input();
        let generator = GemminiGenerator::new();
        let sw = CoDesignOptions::quick(0).sw_inner;
        let points: Vec<Point> = {
            let probe = HwProblem::new(&generator, &input.app.workloads, sw.clone(), 0);
            let dims = probe.space().dim_sizes.clone();
            (0..6)
                .map(|k| dims.iter().map(|&s| k % s).collect())
                .collect()
        };
        let mut serial = HwProblem::new(&generator, &input.app.workloads, sw.clone(), 0);
        let mut parallel = HwProblem::new(&generator, &input.app.workloads, sw, 0)
            .with_workers(WorkerPool::new(4));
        let a = serial.evaluate_batch(&points);
        let b = parallel.evaluate_batch(&points);
        assert_eq!(a, b);
        assert_eq!(serial.sw_requests(), parallel.sw_requests());
        assert_eq!(serial.cache_stats(), parallel.cache_stats());
    }

    fn temp_cache(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hasco-codesign-{name}-{}.bin", std::process::id()));
        p
    }

    #[test]
    fn staged_refinement_refines_top_k_only() {
        let input = toy_input();
        let generator = GemminiGenerator::new();
        let sw = CoDesignOptions::quick(0).sw_inner;
        let mut p = HwProblem::new(&generator, &input.app.workloads, sw, 0)
            .with_backend(BackendKind::Analytic.build())
            .with_refinement(BackendKind::TraceSim.build(), 2);
        let dims = p.space().dim_sizes.clone();
        let points: Vec<Point> = (0..5)
            .map(|k| dims.iter().map(|&s| k % s).collect())
            .collect();
        let responses = p.evaluate_batch(&points);
        assert_eq!(responses.len(), 5);
        // Exactly top-k of the fresh feasible points were re-priced.
        let feasible = responses.iter().filter(|r| r.is_some()).count();
        assert!(feasible > 2, "toy batch should be mostly feasible");
        assert_eq!(p.refine_requests(), 2 * input.app.len());
        assert_eq!(p.sw_requests(), 5 * input.app.len());
    }

    #[test]
    fn staged_batches_are_thread_count_independent() {
        let input = toy_input();
        let generator = GemminiGenerator::new();
        let sw = CoDesignOptions::quick(0).sw_inner;
        let points: Vec<Point> = {
            let probe = HwProblem::new(&generator, &input.app.workloads, sw.clone(), 0);
            let dims = probe.space().dim_sizes.clone();
            (0..6)
                .map(|k| dims.iter().map(|&s| (k * 2) % s).collect())
                .collect()
        };
        let mut serial = HwProblem::new(&generator, &input.app.workloads, sw.clone(), 0)
            .with_refinement(BackendKind::TraceSim.build(), 2);
        let mut parallel = HwProblem::new(&generator, &input.app.workloads, sw, 0)
            .with_refinement(BackendKind::TraceSim.build(), 2)
            .with_workers(WorkerPool::new(4));
        assert_eq!(
            serial.evaluate_batch(&points),
            parallel.evaluate_batch(&points)
        );
        assert_eq!(serial.refine_requests(), parallel.refine_requests());
    }

    #[test]
    fn backend_choice_changes_objectives_not_feasibility() {
        let input = toy_input();
        let generator = GemminiGenerator::new();
        let sw = CoDesignOptions::quick(0).sw_inner;
        let point: Point = {
            let probe = HwProblem::new(&generator, &input.app.workloads, sw.clone(), 0);
            vec![0; probe.space().len()]
        };
        let mut per_backend = Vec::new();
        for kind in BackendKind::ALL {
            let mut p = HwProblem::new(&generator, &input.app.workloads, sw.clone(), 0)
                .with_backend(kind.build());
            let r = p.evaluate(&point).expect("toy point is feasible");
            per_backend.push(r[0]);
        }
        // Latencies differ across tiers but stay within one order of
        // magnitude — same hardware, different pipeline detail.
        let (lo, hi) = per_backend
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &l| {
                (lo.min(l), hi.max(l))
            });
        assert!(hi / lo < 10.0, "{per_backend:?}");
    }

    /// One request on a fresh one-shot engine persisting its store at
    /// `path` — the warm-restart path every persisted run takes.
    fn run_persisted(opts: &CoDesignOptions, path: &std::path::Path) -> Solution {
        let engine = Engine::new(EngineConfig::one_shot(opts).with_cache_path(path));
        let solution = engine
            .submit_quiet(CoDesignRequest::new(toy_input(), opts.clone()))
            .unwrap()
            .wait()
            .unwrap();
        engine.persist().unwrap();
        solution
    }

    #[test]
    fn persistent_cache_warms_repeat_runs() {
        let path = temp_cache("warm");
        std::fs::remove_file(&path).ok();
        let opts = CoDesignOptions::quick(5);
        let cold = run_persisted(&opts, &path);
        assert_eq!(cold.stats.warm_cache_entries, 0);
        assert!(path.exists(), "cache file must be written");
        let warm = run_persisted(&opts, &path);
        assert!(warm.stats.warm_cache_entries > 0);
        // Identical run, warm cache: same solution, strictly fewer
        // explorer executions (= cache misses).
        assert_eq!(cold.accelerator, warm.accelerator);
        assert_eq!(cold.hw_history, warm.hw_history);
        assert!(
            warm.stats.cache.misses < cold.stats.cache.misses,
            "warm run recomputed as much as cold: {} vs {}",
            warm.stats.cache.misses,
            cold.stats.cache.misses
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_persistent_cache_is_a_clean_cold_start() {
        let path = temp_cache("corrupt");
        std::fs::remove_file(&path).ok();
        let opts = CoDesignOptions::quick(6);
        let reference = run_persisted(&opts, &path);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let recovered = run_persisted(&opts, &path);
        assert_eq!(recovered.stats.warm_cache_entries, 0);
        assert_eq!(reference.accelerator, recovered.accelerator);
        assert_eq!(reference.hw_history, recovered.hw_history);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn staged_codesign_reports_both_tiers() {
        let input = toy_input();
        let mut opts = CoDesignOptions::quick(8).with_refinement(BackendKind::TraceSim, 2);
        opts.hw_trials = 6;
        let solution = CoDesigner::new(opts).run(&input).unwrap();
        let stats = &solution.stats;
        assert_eq!(stats.backend, BackendKind::Analytic);
        assert_eq!(stats.refine_backend, Some(BackendKind::TraceSim));
        assert!(stats.refine_explorations > 0);
        assert!(
            stats.refine_explorations < stats.sw_explorations,
            "refinement must touch strictly fewer pairs than screening: {} vs {}",
            stats.refine_explorations,
            stats.sw_explorations
        );
    }

    #[test]
    fn adaptive_staging_reports_a_trajectory_and_refines_no_more_than_fixed() {
        let input = toy_input();
        let mut fixed_opts = CoDesignOptions::quick(8).with_refinement(BackendKind::TraceSim, 3);
        fixed_opts.hw_trials = 6;
        let mut adaptive_opts =
            CoDesignOptions::quick(8).with_adaptive_refinement(BackendKind::TraceSim, 3);
        adaptive_opts.hw_trials = 6;
        let fixed = CoDesigner::new(fixed_opts).run(&input).unwrap();
        let adaptive = CoDesigner::new(adaptive_opts).run(&input).unwrap();

        assert!(fixed.stats.refine_topk_trajectory.is_empty());
        let trajectory = &adaptive.stats.refine_topk_trajectory;
        assert!(!trajectory.is_empty(), "adaptive run must record budgets");
        assert_eq!(trajectory[0], 3, "budget starts at the initial top-k");
        assert!(
            adaptive.stats.refine_explorations <= fixed.stats.refine_explorations,
            "adaptive staging must not refine more than the fixed policy \
             when the tiers agree: {} vs {}",
            adaptive.stats.refine_explorations,
            fixed.stats.refine_explorations
        );
        // No regression from refining less: the solutions stay equivalent
        // (the screen tier hands the refiner the same leaders).
        assert!(
            adaptive.total.latency_cycles <= fixed.total.latency_cycles * 1.05,
            "adaptive {} vs fixed {}",
            adaptive.total.latency_cycles,
            fixed.total.latency_cycles
        );
    }

    #[test]
    fn surrogate_screen_tier_trains_during_codesign() {
        let input = toy_input();
        let mut opts = CoDesignOptions::quick(9)
            .with_backend(BackendKind::Surrogate)
            .with_adaptive_refinement(BackendKind::TraceSim, 2);
        opts.hw_trials = 6;
        let solution = CoDesigner::new(opts).run(&input).unwrap();
        assert_eq!(solution.stats.backend, BackendKind::Surrogate);
        assert!(
            solution.stats.surrogate_samples > 0,
            "refined configs must feed the surrogate's training set"
        );
        assert!(solution.total.latency_cycles > 0.0);
    }

    #[test]
    fn tech_profiles_shift_metrics_not_feasibility() {
        let input = toy_input();
        let profiles = accel_model::tech::TechParams::profiles();
        let mut totals = Vec::new();
        for (name, tech) in profiles {
            let mut opts = CoDesignOptions::quick(5).with_tech(tech);
            opts.hw_trials = 5;
            let solution = CoDesigner::new(opts).run(&input).unwrap();
            assert!(solution.total.latency_ms > 0.0, "{name}");
            totals.push((name, solution.total.energy_uj));
        }
        // A denser node never costs more energy than an older one for the
        // same workloads.
        let by_name = |n: &str| totals.iter().find(|(name, _)| *name == n).unwrap().1;
        assert!(by_name("16nm") < by_name("40nm"), "{totals:?}");
    }

    #[test]
    fn codesign_threads_do_not_change_the_solution() {
        let input = toy_input();
        let serial = CoDesigner::new(CoDesignOptions::quick(6))
            .run(&input)
            .unwrap();
        let parallel = CoDesigner::new(CoDesignOptions::quick(6).with_threads(4))
            .run(&input)
            .unwrap();
        assert_eq!(serial, parallel);
        assert!(parallel.stats.hw_evaluations > 0);
    }

    #[test]
    fn chisel_method_works_too() {
        let mut input = toy_input();
        input.method = GenerationMethod::Chisel(tensor_ir::intrinsics::IntrinsicKind::Gemm);
        let mut opts = CoDesignOptions::quick(2);
        opts.hw_trials = 6;
        let solution = CoDesigner::new(opts).run(&input).unwrap();
        assert_eq!(solution.per_workload.len(), 2);
    }

    #[test]
    fn pair_key_is_pinned() {
        // Memo keys are persisted in `--cache` images: a moved key turns
        // every warm entry into a miss.
        let input = toy_input();
        let generator = GemminiGenerator::new();
        let p = HwProblem::new(
            &generator,
            &input.app.workloads,
            CoDesignOptions::quick(0).sw_inner,
            3,
        );
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(8, 8)
            .build()
            .unwrap();
        assert_eq!(
            HwProblem::pair_key(&p.pair_bases, &cfg, 1),
            (0x50c56bb2cf29fba5, 0x2adeedcba7ed403c)
        );
    }
}
