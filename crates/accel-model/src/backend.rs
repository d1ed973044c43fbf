//! Pluggable cost backends: one evaluation contract, three fidelity tiers.
//!
//! Every layer of the co-design loop ultimately asks the same question —
//! "what do this accelerator and this execution plan cost?" — but the
//! right way to answer it depends on where the caller sits: DSE inner
//! loops need microsecond estimates, final Pareto candidates deserve the
//! trace simulator's pipeline model, and a learned screen can sit in
//! between, corrected toward the simulator as it trains. [`CostBackend`]
//! is that seam; callers hold a `&dyn CostBackend` (or an
//! `Arc<dyn CostBackend>`) and stay agnostic of the tier:
//!
//! * [`AnalyticBackend`] — [`CostModel::evaluate`], the fast path;
//! * [`TraceSimBackend`] — splits the plan into stages and streams them
//!   through the [`TraceSimulator`]'s two-buffer pipeline recurrence
//!   ([`TraceSimulator::run_plan_cycles`]): stage-level fidelity at
//!   roughly 50–100x the analytic cost;
//! * [`SurrogateBackend`] — a self-improving screen tier: the analytic
//!   model corrected by a Gaussian process ([`dse::gp`]) trained online
//!   from the expensive tier it wraps, serving predictions only once its
//!   cross-validated error drops below a trust threshold.
//!
//! Backends are pure *per training generation*: the same `(config, plan)`
//! always yields the same metrics for a fixed internal state, and any
//! state that legitimately changes answers (the surrogate's training
//! generation) is part of the fingerprint
//! ([`CostBackend::fingerprint_into`]), so results can be memoized and
//! cached across processes without ever serving a stale-generation
//! answer.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock, RwLock};

use dse::gp::{GaussianProcess, IncrementalGp, PredictScratch};
use runtime::{Fingerprint, Fingerprinter, Key128, StableFingerprint, Telemetry};

use crate::arch::AcceleratorConfig;
use crate::cost::CostModel;
use crate::metrics::Metrics;
use crate::plan::{ExecutionPlan, TensorTraffic};
use crate::sim::TraceSimulator;
use crate::tech::TechParams;

/// An engine that prices `(accelerator, plan)` pairs.
///
/// Implementations must be pure — memoization layers above assume a
/// backend's answer depends only on its construction parameters, the
/// arguments, and whatever state its fingerprint exposes.
pub trait CostBackend: std::fmt::Debug + Send + Sync {
    /// Short stable identifier (`"analytic"`, `"sim"`, `"surrogate"`).
    fn name(&self) -> &'static str;

    /// Full evaluation: latency, energy, power, area, throughput.
    fn evaluate(&self, cfg: &AcceleratorConfig, plan: &ExecutionPlan) -> Metrics;

    /// Writes the backend's identity into a fingerprint, so memo keys
    /// distinguish results produced by different backends. The default
    /// writes [`CostBackend::name`]; backends with extra knobs or state
    /// that change results (technology constants, the surrogate's
    /// training generation) must extend it.
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_str(self.name());
    }

    /// [`CostBackend::fingerprint_into`] alone: the backend part of memo
    /// keys.
    fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        self.fingerprint_into(&mut fp);
        fp.finish()
    }

    /// Downcast hook for the self-improving tier: staging controllers use
    /// it to feed refine-tier observations back into a
    /// [`SurrogateBackend`] without knowing the concrete screen type.
    fn as_surrogate(&self) -> Option<&SurrogateBackend> {
        None
    }
}

/// The selectable backend tiers, as seen by CLIs and run options.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The fast analytical model ([`AnalyticBackend`]).
    #[default]
    Analytic,
    /// The stage-level trace simulator ([`TraceSimBackend`]).
    TraceSim,
    /// Analytic corrected by a GP trained online from the trace simulator
    /// ([`SurrogateBackend`]).
    Surrogate,
}

impl BackendKind {
    /// Every tier, in ascending fidelity order (the surrogate starts as
    /// the analytic tier and converges toward the simulator as it
    /// trains).
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Analytic,
        BackendKind::Surrogate,
        BackendKind::TraceSim,
    ];

    /// Builds the backend with default technology parameters.
    pub fn build(self) -> Arc<dyn CostBackend> {
        self.build_with(TechParams::default())
    }

    /// Builds the backend around explicit technology parameters.
    pub fn build_with(self, tech: TechParams) -> Arc<dyn CostBackend> {
        let model = CostModel::new(tech);
        match self {
            BackendKind::Analytic => Arc::new(AnalyticBackend::new(model)),
            BackendKind::TraceSim => Arc::new(TraceSimBackend::new(model)),
            BackendKind::Surrogate => {
                let inner = Arc::new(TraceSimBackend::new(model.clone()));
                Arc::new(SurrogateBackend::new(model, inner))
            }
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BackendKind::Analytic => "analytic",
            BackendKind::TraceSim => "sim",
            BackendKind::Surrogate => "surrogate",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "analytic" | "model" => Ok(BackendKind::Analytic),
            "sim" | "tracesim" | "trace-sim" => Ok(BackendKind::TraceSim),
            "surrogate" | "gp" => Ok(BackendKind::Surrogate),
            other => Err(format!(
                "unknown backend `{other}` (expected analytic | sim | surrogate)"
            )),
        }
    }
}

impl runtime::StableFingerprint for BackendKind {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_str(match self {
            BackendKind::Analytic => "analytic",
            BackendKind::TraceSim => "sim",
            BackendKind::Surrogate => "surrogate",
        });
    }
}

// Tag 2, the calibrated tier before `HASCONET8`, is retired: a peer that
// still sends it fails to decode instead of naming another tier.
runtime::wire_enum!(BackendKind {
    0 => Analytic,
    1 => TraceSim,
    3 => Surrogate,
});

/// Tier 1: the analytical cost model, verbatim.
#[derive(Debug, Clone, Default)]
pub struct AnalyticBackend {
    /// The wrapped model.
    pub model: CostModel,
}

impl AnalyticBackend {
    /// Wraps a cost model.
    pub fn new(model: CostModel) -> Self {
        AnalyticBackend { model }
    }
}

impl CostBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn evaluate(&self, cfg: &AcceleratorConfig, plan: &ExecutionPlan) -> Metrics {
        self.model.evaluate(cfg, plan)
    }

    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_str(self.name());
        self.model.tech.fingerprint_into(fp);
    }
}

/// Tier 2: stage-level trace simulation of the plan.
///
/// The plan is split into staged load/compute/store work and streamed
/// through the [`TraceSimulator`]'s two-buffer pipeline recurrence,
/// which models DMA-engine serialization and fill/drain effects the
/// analytic overlap formula approximates. Rearrangement and
/// host-control cycles (not part of the instruction stream) are added
/// serially, exactly as the analytic model charges them.
#[derive(Debug, Clone, Default)]
pub struct TraceSimBackend {
    /// The wrapped simulator (shares the analytic model's tech constants
    /// for energy and area).
    pub sim: TraceSimulator,
    /// Stage-count cap (see [`TraceSimulator::run_plan_cycles`]).
    pub max_stages: usize,
}

/// Default stage cap: enough for the pipeline to reach steady state, small
/// enough to bound simulation cost on plans with thousands of stages.
pub const DEFAULT_SIM_STAGES: usize = 64;

impl TraceSimBackend {
    /// Wraps a simulator around a cost model with the default stage cap.
    pub fn new(model: CostModel) -> Self {
        TraceSimBackend {
            sim: TraceSimulator::new(model),
            max_stages: DEFAULT_SIM_STAGES,
        }
    }
}

impl CostBackend for TraceSimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn evaluate(&self, cfg: &AcceleratorConfig, plan: &ExecutionPlan) -> Metrics {
        // Streamed recurrence: bit-identical to lowering the plan to a
        // `Program` and running it, without materializing either (see
        // `TraceSimulator::run_plan_cycles`).
        let traced = self.sim.run_plan_cycles(cfg, plan, self.max_stages);
        let cycles =
            traced + self.sim.model.rearrange_cycles(cfg, plan) + plan.host_control_cycles as f64;
        let mut metrics = self.sim.model.evaluate(cfg, plan);
        replace_latency(&mut metrics, cfg, cycles, plan.macs_useful);
        metrics
    }

    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_str(self.name());
        fp.write_usize(self.max_stages);
        self.sim.model.tech.fingerprint_into(fp);
    }
}

/// Replaces a metric set's latency and re-derives every time-dependent
/// quantity (ms, power, throughput) from it — the one place the
/// energy == power × time invariant is maintained for non-analytic
/// tiers.
fn replace_latency(metrics: &mut Metrics, cfg: &AcceleratorConfig, cycles: f64, useful_macs: u64) {
    metrics.latency_cycles = cycles.max(1.0);
    metrics.latency_ms = cfg.cycles_to_ms(metrics.latency_cycles);
    metrics.power_mw = if metrics.latency_ms > 0.0 {
        metrics.energy_uj / metrics.latency_ms
    } else {
        0.0
    };
    metrics.throughput_mops = if metrics.latency_ms > 0.0 {
        2.0 * useful_macs as f64 / (metrics.latency_ms * 1e3)
    } else {
        0.0
    };
}

/// Deterministic probe plans for one configuration, sized from its PE
/// count and scratchpad so every regime is actually exercised on that
/// hardware: compute-bound, balanced and memory-bound, each in a double-
/// and a single-buffered variant with different stage counts. The
/// surrogate fits its sim/analytic corrections on these plans.
fn probe_plans(cfg: &AcceleratorConfig) -> [ExecutionPlan; 6] {
    let spad = cfg.scratchpad_bytes;
    // `[macs_per_pe, calls]` of work and `[reads, writes, run]` of
    // traffic: two read tensors and one write tensor in `run`-byte
    // contiguous runs, with the reads' bytes of scratchpad traffic.
    let probe = |[macs_per_pe, calls]: [u64; 2],
                 [reads, writes, run]: [u64; 3],
                 stages: u64,
                 double_buffered: bool| {
        let macs = cfg.pes() * macs_per_pe;
        let mut plan = ExecutionPlan::compute_only(macs, macs, calls);
        plan.dram_reads.push(TensorTraffic::new("A", reads, run));
        plan.dram_reads.push(TensorTraffic::new("B", reads, run));
        plan.dram_writes.push(TensorTraffic::new("C", writes, run));
        plan.spad_traffic_bytes = reads;
        plan.stages = stages;
        plan.double_buffered = double_buffered;
        plan
    };
    [
        // Compute-bound: deep MAC streams, light traffic.
        probe([65_536, 256], [spad / 8, spad / 32, 4096], 32, true),
        probe([32_768, 128], [spad / 8, spad / 32, 2048], 8, false),
        // Balanced: MACs and traffic sized to similar engine cycles.
        probe([8_192, 256], [spad.max(1) * 2, spad / 4, 512], 32, true),
        probe([4_096, 128], [spad.max(1), spad / 8, 512], 16, false),
        // Memory-bound: heavy, poorly-batched DMA vs token compute.
        probe([256, 64], [spad.max(1) * 16, spad * 2, 64], 64, true),
        probe([128, 32], [spad.max(1) * 8, spad, 64], 8, false),
    ]
}

/// Stable 128-bit per-configuration cache key (a [`Key128`], like the
/// co-design memo keys), so a 64-bit fingerprint collision between two
/// configurations degrades to a re-observation instead of silently
/// applying another configuration's data: the surrogate's observation
/// set is keyed by it.
fn config_key(cfg: &AcceleratorConfig) -> (u64, u64) {
    Key128::of(|fp| cfg.fingerprint_into(fp)).finish()
}

/// Number of cross-validation folds scoring surrogate trust.
const CV_FOLDS: usize = 4;

/// The incremental learning machinery behind [`SurrogateBackend`]: one
/// [`IncrementalGp`] holding the full training window plus one per
/// cross-validation fold (fold `f` trains on every sample whose index
/// satisfies `i % CV_FOLDS != f`). Appending a sample extends all five
/// trainers' maintained Cholesky factors in O(n²) — refits stop paying
/// the from-scratch O(n³) — and each trainer is pinned bit-identical to
/// `GaussianProcess::fit` on the same rows, so CV error, trust, and every
/// prediction are unchanged.
///
/// When the training window slides (oldest rows dropped at the
/// `max_train` cap), sample indices — and therefore fold membership —
/// shift, so the trainer is rebuilt from the surviving rows; between
/// slides, growth is incremental.
#[derive(Debug, Clone)]
struct SurrogateTrainer {
    /// The full-window trainer (the serving fit).
    full: IncrementalGp,
    /// Per-fold trainers (each holds the fold's *training* rows).
    folds: [IncrementalGp; CV_FOLDS],
}

impl Default for SurrogateTrainer {
    fn default() -> Self {
        SurrogateTrainer {
            full: IncrementalGp::new(),
            folds: std::array::from_fn(|_| IncrementalGp::new()),
        }
    }
}

impl SurrogateTrainer {
    /// Appends one sample, extending the full trainer and the
    /// `CV_FOLDS - 1` fold trainers it belongs to.
    fn push(&mut self, x: &[f64], y: f64) {
        let i = self.full.len();
        self.full.push(x.to_vec(), y);
        for (f, trainer) in self.folds.iter_mut().enumerate() {
            if i % CV_FOLDS != f {
                trainer.push(x.to_vec(), y);
            }
        }
    }

    /// Rebuilds all trainers from scratch rows (after a window slide or a
    /// snapshot restore, when fold membership is not an extension of the
    /// previous state).
    fn rebuild(&mut self, xs: &[Vec<f64>], ys: &[f64]) {
        *self = SurrogateTrainer::default();
        for (x, y) in xs.iter().zip(ys) {
            self.push(x, *y);
        }
    }
}

/// Mutable learning state of a [`SurrogateBackend`].
#[derive(Debug, Default)]
struct SurrogateState {
    /// Normalized feature vectors of every training sample.
    xs: Vec<Vec<f64>>,
    /// Targets: `ln(inner latency / analytic latency)` per sample.
    ys: Vec<f64>,
    /// Configurations already probed (128-bit keys; re-observing is
    /// free).
    observed: BTreeSet<(u64, u64)>,
    /// The fitted correction model, once training succeeded.
    gp: Option<GaussianProcess>,
    /// Cross-validated mean absolute log-space error of the last fit
    /// (`f64::INFINITY` before the first fit).
    cv_error: f64,
    /// Whether `cv_error` cleared the trust threshold.
    trusted: bool,
    /// Bumped on every state change (reporting / cheap staleness probe).
    generation: u64,
    /// Running digest of the training *content* (every observed config
    /// key and sample, in order). This — not the bare generation counter
    /// — goes into the backend fingerprint: two runs sharing a persisted
    /// cache may reach the same generation number via different training
    /// trajectories, and their GPs must not share memo entries.
    digest: u64,
    /// The maintained incremental fits (unused when the owning backend
    /// runs in full-refit reference mode).
    trainer: SurrogateTrainer,
}

/// The self-improving screen tier: the analytic model corrected by a
/// Gaussian process trained online against the expensive tier it wraps.
///
/// The backend starts as a pure analytic pass-through. A staging
/// controller feeds it refine-tier observations
/// ([`SurrogateBackend::observe`]): each newly seen configuration is
/// priced by both the analytic model and the wrapped expensive tier on a
/// deterministic spread of probe plans covering the compute-, balanced-,
/// and memory-bound regimes, and the log-ratio becomes a GP training
/// sample over normalized `(config, plan)` features. After every
/// observation the GP is refit and scored by deterministic k-fold
/// cross-validation; once the CV error clears the trust threshold,
/// [`CostBackend::evaluate`] serves GP-corrected analytic metrics instead
/// of raw analytic ones — the screen tier converges toward the expensive
/// tier's answers at analytic cost.
///
/// Determinism: `evaluate` never trains (it only reads a frozen model),
/// and `observe` must be called from the serial sections of a staging
/// controller, in batch order. The training generation is part of the
/// fingerprint, so memoization layers treat each generation as a distinct
/// backend and the thread-count invariant is preserved.
#[derive(Debug)]
pub struct SurrogateBackend {
    /// The cheap analytic fallback (also the feature extractor's model).
    pub model: CostModel,
    /// The expensive tier being learned.
    inner: Arc<dyn CostBackend>,
    /// Minimum training samples before the first fit is attempted.
    min_train: usize,
    /// Training-window cap (oldest samples beyond it are dropped).
    max_train: usize,
    /// Maximum cross-validated mean |log-error| to start trusting the GP
    /// (0.15 ≈ 15% latency error).
    trust_threshold: f64,
    /// Reference mode: refit every GP from scratch per observation
    /// (O(n³)) instead of extending maintained factors (O(n²)). The two
    /// modes are pinned bit-identical; this exists so tests can compare
    /// whole runs against the reference trainer.
    full_refit: bool,
    state: RwLock<SurrogateState>,
    /// Out-of-band GP fit/predict timing recorder
    /// ([`SurrogateBackend::install_telemetry`]). Strictly a wall-clock
    /// side channel: never part of the fingerprint, a snapshot, or a
    /// fork's learning state.
    telemetry: OnceLock<Telemetry>,
}

impl SurrogateBackend {
    /// Wraps `inner` (the expensive tier) around an analytic fallback.
    pub fn new(model: CostModel, inner: Arc<dyn CostBackend>) -> Self {
        SurrogateBackend {
            model,
            inner,
            min_train: 24,
            max_train: 96,
            trust_threshold: 0.15,
            full_refit: false,
            state: RwLock::new(SurrogateState {
                cv_error: f64::INFINITY,
                ..SurrogateState::default()
            }),
            telemetry: OnceLock::new(),
        }
    }

    /// Switches to the from-scratch reference refit path (see the
    /// `full_refit` field). Results are bit-identical either way; only
    /// the refit cost differs. Not part of the fingerprint for exactly
    /// that reason.
    pub fn with_full_refit(mut self) -> Self {
        self.full_refit = true;
        self
    }

    /// Installs a telemetry handle so GP fits (in
    /// [`SurrogateBackend::observe`]'s refits) and posterior predictions
    /// (in trusted evaluations) report their wall time. First install
    /// wins; later calls are ignored. Telemetry never enters the
    /// fingerprint, snapshots, or any answer — enabling it cannot change
    /// a result bit.
    pub fn install_telemetry(&self, telemetry: Telemetry) {
        let _ = self.telemetry.set(telemetry);
    }

    fn telemetry(&self) -> Telemetry {
        self.telemetry.get().cloned().unwrap_or_default()
    }

    /// Current training-set size.
    pub fn training_len(&self) -> usize {
        self.state.read().expect("surrogate poisoned").ys.len()
    }

    /// Whether the GP passed cross-validation and is serving predictions.
    pub fn is_trusted(&self) -> bool {
        self.state.read().expect("surrogate poisoned").trusted
    }

    /// Cross-validated mean absolute log-space error of the last fit
    /// (`INFINITY` before the first fit).
    pub fn cv_error(&self) -> f64 {
        self.state.read().expect("surrogate poisoned").cv_error
    }

    /// Training generation (bumps on every accepted observation).
    pub fn generation(&self) -> u64 {
        self.state.read().expect("surrogate poisoned").generation
    }

    /// Clones the full learning state into an independent surrogate that
    /// shares the wrapped expensive tier. A resident engine forks its
    /// registered per-technology surrogate for every job it admits, so
    /// concurrent jobs train in isolation (each job's trajectory stays a
    /// pure function of its own batches) while sequential jobs inherit
    /// everything learned so far. The fork's fingerprint equals the
    /// parent's at fork time — same training-content digest — so memo
    /// entries priced by the parent's current generation remain valid for
    /// the fork until it trains further.
    pub fn fork(&self) -> SurrogateBackend {
        let state = self.state.read().expect("surrogate poisoned");
        SurrogateBackend {
            model: self.model.clone(),
            inner: Arc::clone(&self.inner),
            min_train: self.min_train,
            max_train: self.max_train,
            trust_threshold: self.trust_threshold,
            full_refit: self.full_refit,
            state: RwLock::new(SurrogateState {
                xs: state.xs.clone(),
                ys: state.ys.clone(),
                observed: state.observed.clone(),
                gp: state.gp.clone(),
                cv_error: state.cv_error,
                trusted: state.trusted,
                generation: state.generation,
                digest: state.digest,
                trainer: state.trainer.clone(),
            }),
            // The recorder rides along (same registry handle): a fork
            // made for a job keeps reporting where its parent did.
            telemetry: self.telemetry.clone(),
        }
    }

    /// Captures the full learning state as a serializable
    /// [`SurrogateSnapshot`] — what a resident engine persists per
    /// technology so a restarted process prices with the same surrogate
    /// generation. The snapshot assumes the standard construction (a
    /// trace-sim inner tier, as [`BackendKind::Surrogate`] builds);
    /// [`SurrogateBackend::from_snapshot`] restores exactly that shape.
    pub fn snapshot(&self) -> SurrogateSnapshot {
        let state = self.state.read().expect("surrogate poisoned");
        SurrogateSnapshot {
            tech: self.model.tech.clone(),
            min_train: self.min_train,
            max_train: self.max_train,
            trust_threshold: self.trust_threshold,
            xs: state.xs.clone(),
            ys: state.ys.clone(),
            observed: state.observed.iter().copied().collect(),
            cv_error: state.cv_error,
            trusted: state.trusted,
            generation: state.generation,
            digest: state.digest,
        }
    }

    /// Rebuilds a surrogate from a snapshot: the analytic model and the
    /// wrapped trace-sim tier are reconstructed from the stored technology
    /// constants, the training window and observed set are restored, and
    /// the GP is refit from the stored rows ([`GaussianProcess::fit`] is
    /// deterministic, so the fit — and every prediction — is bit-identical
    /// to the snapshotted instance's). Generation and training-content
    /// digest are restored verbatim, so memo entries priced by the
    /// snapshotted generation stay reachable.
    pub fn from_snapshot(snap: &SurrogateSnapshot) -> SurrogateBackend {
        let model = CostModel::new(snap.tech.clone());
        let inner = Arc::new(TraceSimBackend::new(model.clone()));
        let backend = SurrogateBackend {
            model,
            inner,
            min_train: snap.min_train.max(1),
            max_train: snap.max_train.max(1),
            trust_threshold: snap.trust_threshold.max(0.0),
            full_refit: false,
            state: RwLock::new(SurrogateState {
                cv_error: f64::INFINITY,
                ..SurrogateState::default()
            }),
            telemetry: OnceLock::new(),
        };
        {
            let mut state = backend.state.write().expect("surrogate poisoned");
            // Defensive: a hand-built snapshot with misaligned rows must
            // not panic the GP fit below.
            let n = snap.xs.len().min(snap.ys.len());
            state.xs = snap.xs[..n].to_vec();
            state.ys = snap.ys[..n].to_vec();
            state.observed = snap.observed.iter().copied().collect();
            let st: &mut SurrogateState = &mut state;
            st.trainer.rebuild(&st.xs, &st.ys);
            backend.refit(st);
            state.generation = snap.generation;
            state.digest = snap.digest;
        }
        backend
    }

    /// Normalized feature vector of one `(config, plan)` evaluation: the
    /// hardware scale, the plan's work and traffic volumes (log-scaled),
    /// its pipeline shape, and the analytic compute-vs-DMA regime.
    fn features(&self, cfg: &AcceleratorConfig, plan: &ExecutionPlan) -> Vec<f64> {
        let ln_norm = |v: f64, hi: f64| (v.max(1.0).ln() / hi.ln()).clamp(0.0, 1.0);
        let (onchip, dma) = self.model.engine_cycles(cfg, plan);
        vec![
            ln_norm(cfg.pes() as f64, 16_384.0),
            ln_norm(cfg.scratchpad_bytes as f64, (8u64 << 20) as f64),
            (f64::from(cfg.banks) / 16.0).min(1.0),
            ln_norm(plan.macs_padded as f64, 1e12),
            ln_norm(plan.dram_bytes() as f64, 1e10),
            ln_norm(plan.stages as f64, 4096.0),
            onchip / (onchip + dma).max(1.0),
            if plan.double_buffered { 1.0 } else { 0.0 },
        ]
    }

    /// Feeds one refine-tier observation back into the surrogate: prices
    /// the configuration's probe plans at both tiers, appends the
    /// log-ratio samples, refits the GP, and re-scores it by
    /// deterministic k-fold cross-validation. Returns the number of
    /// fresh samples added (0 when the configuration was already
    /// observed).
    ///
    /// Must be called from a serial section (between parallel batches) in
    /// a deterministic order — it advances the training generation.
    pub fn observe(&self, cfg: &AcceleratorConfig) -> usize {
        let key = config_key(cfg);
        if self
            .state
            .read()
            .expect("surrogate poisoned")
            .observed
            .contains(&key)
        {
            return 0;
        }
        // Probe pricing runs outside the lock: both tiers are pure, and
        // observe() is serial by contract.
        let mut fresh: Vec<(Vec<f64>, f64)> = Vec::new();
        for plan in probe_plans(cfg) {
            let analytic = self.model.evaluate(cfg, &plan).latency_cycles.max(1.0);
            let expensive = self.inner.evaluate(cfg, &plan).latency_cycles.max(1.0);
            let log_ratio = (expensive / analytic)
                .ln()
                .clamp(LOG_FACTOR_MIN, LOG_FACTOR_MAX);
            fresh.push((self.features(cfg, &plan), log_ratio));
        }
        let added = fresh.len();
        let mut state = self.state.write().expect("surrogate poisoned");
        if !state.observed.insert(key) {
            return 0;
        }
        // Fold the new evidence into the content digest: chained over the
        // previous digest, so it identifies the whole training trajectory,
        // not just its length.
        let mut digest = Fingerprinter::new();
        digest.write_u64(state.digest);
        digest.write_u64(key.0);
        digest.write_u64(key.1);
        let before = state.ys.len();
        for (x, y) in fresh {
            for f in &x {
                digest.write_f64(*f);
            }
            digest.write_f64(y);
            state.xs.push(x);
            state.ys.push(y);
        }
        state.digest = digest.finish().0;
        let slid = state.ys.len() > self.max_train;
        if slid {
            let drop = state.ys.len() - self.max_train;
            state.xs.drain(..drop);
            state.ys.drain(..drop);
        }
        if !self.full_refit {
            // Keep the incremental trainers current: extend by the fresh
            // samples (O(n²) each), except when the window slid — dropped
            // rows shift fold membership, so rebuild from the survivors.
            let st: &mut SurrogateState = &mut state;
            if slid {
                st.trainer.rebuild(&st.xs, &st.ys);
            } else {
                for i in before..st.ys.len() {
                    st.trainer.push(&st.xs[i], st.ys[i]);
                }
            }
        }
        self.refit(&mut state);
        state.generation += 1;
        added
    }

    /// Refits the GP on the current window and re-scores trust by
    /// 4-fold cross-validation (folds split by sample index, so the
    /// outcome is a pure function of the training sequence).
    ///
    /// Default path: re-select length scales from the maintained
    /// incremental factors — O(n²) per trainer. Reference path
    /// ([`SurrogateBackend::with_full_refit`]): from-scratch fits —
    /// O(n³) — pinned bit-identical by the determinism suite.
    fn refit(&self, state: &mut SurrogateState) {
        state.gp = None;
        state.trusted = false;
        state.cv_error = f64::INFINITY;
        if state.ys.len() < self.min_train {
            return;
        }
        let telemetry = self.telemetry();
        let mut abs_err_sum = 0.0;
        let mut tested = 0usize;
        let mut scratch = PredictScratch::default();
        let st: &mut SurrogateState = state;
        for fold in 0..CV_FOLDS {
            let gp = if self.full_refit {
                let (mut train_x, mut train_y) = (Vec::new(), Vec::new());
                for i in 0..st.ys.len() {
                    if i % CV_FOLDS != fold {
                        train_x.push(st.xs[i].clone());
                        train_y.push(st.ys[i]);
                    }
                }
                let Ok(gp) = telemetry.time("gp/fit", || GaussianProcess::fit(&train_x, &train_y))
                else {
                    return; // numerically degenerate fold: stay untrusted
                };
                gp
            } else {
                let Ok(gp) = telemetry.time("gp/fit", || st.trainer.folds[fold].model()) else {
                    return; // numerically degenerate fold: stay untrusted
                };
                gp
            };
            for i in (fold..st.ys.len()).step_by(CV_FOLDS) {
                abs_err_sum += (gp.predict_with(&st.xs[i], &mut scratch).mean - st.ys[i]).abs();
                tested += 1;
            }
        }
        if tested == 0 {
            return;
        }
        let fitted = if self.full_refit {
            telemetry.time("gp/fit", || GaussianProcess::fit(&st.xs, &st.ys))
        } else {
            telemetry.time("gp/fit", || st.trainer.full.model())
        };
        let Ok(gp) = fitted else {
            return;
        };
        st.cv_error = abs_err_sum / tested as f64;
        st.trusted = st.cv_error <= self.trust_threshold;
        st.gp = Some(gp);
    }
}

/// A serializable image of a [`SurrogateBackend`]'s learning state — the
/// per-technology unit of the engine's persisted surrogate-registry
/// store. A snapshot captures everything a restarted process needs to
/// price with the same surrogate generation as the process that wrote it:
/// the technology constants (to rebuild the analytic model and the
/// wrapped trace-sim tier), the training window and observed-config set,
/// the CV trust state, and the generation + training-content digest that
/// key memoized results.
///
/// Restoring ([`SurrogateBackend::from_snapshot`]) refits the GP from the
/// stored rows — [`dse::gp::GaussianProcess::fit`] is deterministic, so
/// the restored backend's predictions, fingerprint, and memo keys are
/// bit-identical to the instance that was snapshotted.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateSnapshot {
    /// Technology constants the backend (and its inner tier) was built
    /// with.
    pub tech: TechParams,
    /// Construction knobs, so a customized backend restores faithfully.
    pub min_train: usize,
    /// Training-window cap.
    pub max_train: usize,
    /// CV trust threshold.
    pub trust_threshold: f64,
    /// Normalized feature vectors of the training window.
    pub xs: Vec<Vec<f64>>,
    /// Log-ratio targets of the training window.
    pub ys: Vec<f64>,
    /// Observed configuration keys (re-observing stays free after a
    /// restore).
    pub observed: Vec<(u64, u64)>,
    /// Cross-validated error of the last fit (recomputed on restore; kept
    /// in the image as a consistency cross-check).
    pub cv_error: f64,
    /// Whether the last fit cleared the trust threshold.
    pub trusted: bool,
    /// Training generation.
    pub generation: u64,
    /// Training-content digest — the fingerprint component that keys memo
    /// entries, restored verbatim so persisted caches stay valid.
    pub digest: u64,
}

// Field order is the layout: the fixed-width scalars first (so `trusted`
// sits at byte 13·8 + 6·8), then the sequences.
runtime::wire_struct!(SurrogateSnapshot {
    tech,
    min_train,
    max_train,
    trust_threshold,
    generation,
    digest,
    cv_error,
    trusted,
    observed,
    xs,
    ys,
} if SurrogateSnapshot::is_well_formed);

impl SurrogateSnapshot {
    /// One target per training row, and every row the same width — what
    /// a snapshot taken from a live backend always satisfies. Decoding
    /// rejects anything else, so a corrupt store is a cold start.
    fn is_well_formed(&self) -> bool {
        let dim = self.xs.first().map_or(0, Vec::len);
        self.xs.len() == self.ys.len() && self.xs.iter().all(|x| x.len() == dim)
    }
}

/// Clamp band for learned log-ratios and predicted correction factors: a
/// correction outside `[0.25, 4.0]` means a degenerate fit, and a bounded
/// one beats an absurd one.
const LOG_FACTOR_MIN: f64 = -1.386_294_361_119_890_6; // ln(0.25)
const LOG_FACTOR_MAX: f64 = 1.386_294_361_119_890_6; // ln(4.0)

impl CostBackend for SurrogateBackend {
    fn name(&self) -> &'static str {
        "surrogate"
    }

    fn evaluate(&self, cfg: &AcceleratorConfig, plan: &ExecutionPlan) -> Metrics {
        let mut metrics = self.model.evaluate(cfg, plan);
        let state = self.state.read().expect("surrogate poisoned");
        if !state.trusted {
            return metrics;
        }
        let Some(gp) = &state.gp else {
            return metrics;
        };
        // Per-thread scratch: posterior prediction is allocation-free on
        // the steady-state evaluate path (bit-identical to fresh buffers).
        thread_local! {
            static SCRATCH: RefCell<PredictScratch> = RefCell::new(PredictScratch::default());
        }
        let predict = || {
            SCRATCH.with(|s| {
                gp.predict_with(&self.features(cfg, plan), &mut s.borrow_mut())
                    .mean
                    .clamp(LOG_FACTOR_MIN, LOG_FACTOR_MAX)
                    .exp()
            })
        };
        // Timing is observation-only; the clock is read only when a
        // recorder is installed and enabled.
        let factor = match self.telemetry.get() {
            Some(t) => t.time("gp/predict", predict),
            None => predict(),
        };
        drop(state);
        let corrected = metrics.latency_cycles * factor;
        replace_latency(&mut metrics, cfg, corrected, plan.macs_useful);
        metrics
    }

    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_str(self.name());
        self.inner.fingerprint_into(fp);
        self.model.tech.fingerprint_into(fp);
        // The training-content digest folds in everything that can change
        // answers (training set, fit, trust flag) and — unlike the bare
        // generation counter — distinguishes two runs whose divergent
        // trajectories happen to reach the same generation number, so a
        // persisted cache shared across runs never mixes their GPs.
        fp.write_u64(self.state.read().expect("surrogate poisoned").digest);
    }

    fn as_surrogate(&self) -> Option<&SurrogateBackend> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::wire::{from_bytes, to_bytes};
    use tensor_ir::intrinsics::IntrinsicKind;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(16, 16)
            .build()
            .unwrap()
    }

    fn traffic_plan() -> ExecutionPlan {
        let mut p = ExecutionPlan::compute_only(4_000_000, 4_200_000, 1000);
        p.dram_reads.push(TensorTraffic::new("A", 512_000, 128));
        p.dram_reads.push(TensorTraffic::new("B", 512_000, 128));
        p.dram_writes.push(TensorTraffic::new("C", 128_000, 128));
        p.spad_traffic_bytes = 2_000_000;
        p.stages = 50;
        p.double_buffered = true;
        p
    }

    #[test]
    fn analytic_backend_matches_cost_model() {
        let model = CostModel::default();
        let backend = AnalyticBackend::new(model.clone());
        let (c, p) = (cfg(), traffic_plan());
        assert_eq!(backend.evaluate(&c, &p), model.evaluate(&c, &p));
    }

    #[test]
    fn all_backends_produce_consistent_metrics() {
        let (c, p) = (cfg(), traffic_plan());
        for kind in BackendKind::ALL {
            let m = kind.build().evaluate(&c, &p);
            assert!(m.latency_cycles >= 1.0, "{kind}");
            assert!(m.latency_ms > 0.0 && m.power_mw > 0.0, "{kind}");
            assert!(m.area_mm2 > 0.0 && m.throughput_mops > 0.0, "{kind}");
            // Energy must equal power * time for every tier.
            assert!(
                (m.energy_uj - m.power_mw * m.latency_ms).abs() < 1e-6,
                "{kind}"
            );
        }
    }

    #[test]
    fn backends_are_pure() {
        let (c, p) = (cfg(), traffic_plan());
        for kind in BackendKind::ALL {
            let backend = kind.build();
            assert_eq!(backend.evaluate(&c, &p), backend.evaluate(&c, &p), "{kind}");
        }
    }

    #[test]
    fn sim_backend_stays_within_2x_of_analytic() {
        // The tiers model the same hardware; they must agree on the order
        // of magnitude while differing in pipeline detail.
        let (c, p) = (cfg(), traffic_plan());
        let analytic = BackendKind::Analytic.build().evaluate(&c, &p);
        let sim = BackendKind::TraceSim.build().evaluate(&c, &p);
        let ratio = sim.latency_cycles / analytic.latency_cycles;
        assert!((0.5..2.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn the_retired_calibrated_tier_neither_decodes_nor_parses() {
        // Tag 2 named the calibrated tier up to protocol `HASCONET7`.
        assert_eq!(from_bytes::<BackendKind>(&[2]), None);
        for kind in BackendKind::ALL {
            assert_eq!(from_bytes::<BackendKind>(&to_bytes(&kind)), Some(kind));
        }
        assert!("calibrated".parse::<BackendKind>().is_err());
    }

    #[test]
    fn kind_parses_and_displays() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.to_string().parse::<BackendKind>().unwrap(), kind);
        }
        assert_eq!("tracesim".parse::<BackendKind>(), Ok(BackendKind::TraceSim));
        assert!("vivado".parse::<BackendKind>().is_err());
    }

    #[test]
    fn kinds_fingerprint_distinctly() {
        let fps: Vec<_> = BackendKind::ALL.iter().map(|k| k.fingerprint()).collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(
                    fps[i],
                    fps[j],
                    "{:?} vs {:?}",
                    BackendKind::ALL[i],
                    BackendKind::ALL[j]
                );
            }
        }
    }

    #[test]
    fn tech_params_change_backend_fingerprints() {
        // A shared cache across a tech sweep must key by technology node.
        let profiles = TechParams::profiles();
        for kind in BackendKind::ALL {
            let mut a = Fingerprinter::new();
            kind.build_with(profiles[0].1.clone())
                .fingerprint_into(&mut a);
            let mut b = Fingerprinter::new();
            kind.build_with(profiles[1].1.clone())
                .fingerprint_into(&mut b);
            assert_ne!(a.finish(), b.finish(), "{kind}");
        }
    }

    #[test]
    fn untrained_surrogate_is_the_analytic_tier() {
        let (c, p) = (cfg(), traffic_plan());
        let surrogate = BackendKind::Surrogate.build();
        let analytic = BackendKind::Analytic.build();
        assert_eq!(surrogate.evaluate(&c, &p), analytic.evaluate(&c, &p));
        assert!(!surrogate.as_surrogate().unwrap().is_trusted());
    }

    #[test]
    fn surrogate_trains_from_observations_and_becomes_trusted() {
        let backend = BackendKind::Surrogate.build();
        let surrogate = backend.as_surrogate().expect("surrogate downcast");
        let (c, p) = (cfg(), traffic_plan());
        let before = backend.evaluate(&c, &p);
        let gen0 = surrogate.generation();
        // Observe a deterministic spread of configurations until the GP
        // clears cross-validation.
        let mut observed = 0;
        for (rows, kb) in [(8u32, 128u64), (16, 256), (32, 512), (8, 512), (32, 128)] {
            let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
                .pe_array(rows, rows)
                .scratchpad_kb(kb)
                .build()
                .unwrap();
            observed += surrogate.observe(&cfg);
        }
        assert_eq!(observed, surrogate.training_len());
        assert!(surrogate.training_len() >= 24, "training set too small");
        assert!(surrogate.generation() > gen0);
        assert!(
            surrogate.is_trusted(),
            "cv error {} did not clear the threshold",
            surrogate.cv_error()
        );
        // Trusted predictions stay inside the sanity band around analytic
        // and are pure (two evaluations agree exactly).
        let after = backend.evaluate(&c, &p);
        let ratio = after.latency_cycles / before.latency_cycles;
        assert!((0.25..=4.0).contains(&ratio), "ratio = {ratio}");
        assert_eq!(backend.evaluate(&c, &p), after);
        // Energy == power * time still holds on the corrected tier.
        assert!((after.energy_uj - after.power_mw * after.latency_ms).abs() < 1e-6);
    }

    #[test]
    fn incremental_and_full_refit_surrogates_are_bit_identical() {
        // The same observation trajectory through the default
        // (incremental-Cholesky) surrogate and the from-scratch reference
        // must agree to the bit at every step — cv error, trust,
        // fingerprint, and served metrics — including past the window
        // slide at `max_train`, where the incremental trainer rebuilds.
        let build = |full_refit: bool| {
            let model = CostModel::new(TechParams::default());
            let inner = Arc::new(TraceSimBackend::new(model.clone()));
            let b = SurrogateBackend::new(model, inner);
            if full_refit {
                b.with_full_refit()
            } else {
                b
            }
        };
        let fast = build(false);
        let reference = build(true);
        assert!(!fast.full_refit && reference.full_refit);
        let (c, p) = (cfg(), traffic_plan());
        let mut slid = false;
        for step in 0..18u32 {
            let (rows, kb) = (4 + (step % 6) * 6, 64 << (step % 4));
            let observed = AcceleratorConfig::builder(IntrinsicKind::Gemm)
                .pe_array(rows, rows)
                .scratchpad_kb(kb as u64)
                .build()
                .unwrap();
            let before = fast.training_len();
            assert_eq!(fast.observe(&observed), reference.observe(&observed));
            slid |= fast.training_len() < before + 6;
            assert_eq!(fast.training_len(), reference.training_len());
            assert_eq!(
                fast.cv_error().to_bits(),
                reference.cv_error().to_bits(),
                "cv error diverged at step {step}"
            );
            assert_eq!(fast.is_trusted(), reference.is_trusted());
            let mut ff = Fingerprinter::new();
            fast.fingerprint_into(&mut ff);
            let mut fr = Fingerprinter::new();
            reference.fingerprint_into(&mut fr);
            assert_eq!(ff.finish(), fr.finish(), "fingerprint diverged at {step}");
            assert_eq!(
                fast.evaluate(&c, &p),
                reference.evaluate(&c, &p),
                "metrics diverged at step {step}"
            );
        }
        assert!(slid, "trajectory must cross the training-window cap");
        assert!(fast.is_trusted(), "fixture must train to trust");
    }

    #[test]
    fn surrogate_reobservation_is_free_and_generation_gated() {
        let backend = BackendKind::Surrogate.build();
        let surrogate = backend.as_surrogate().unwrap();
        let c = cfg();
        assert!(surrogate.observe(&c) > 0);
        let generation = surrogate.generation();
        let len = surrogate.training_len();
        assert_eq!(surrogate.observe(&c), 0, "re-observation must be free");
        assert_eq!(surrogate.generation(), generation);
        assert_eq!(surrogate.training_len(), len);
    }

    #[test]
    fn surrogate_fingerprints_distinguish_equal_generation_trajectories() {
        // Two runs sharing a persisted cache can reach the same
        // generation number through different training content; their
        // fingerprints — and therefore their memo keys — must differ.
        let a = BackendKind::Surrogate.build();
        let b = BackendKind::Surrogate.build();
        a.as_surrogate().unwrap().observe(&cfg());
        let other = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(8, 8)
            .scratchpad_kb(128)
            .build()
            .unwrap();
        b.as_surrogate().unwrap().observe(&other);
        assert_eq!(
            a.as_surrogate().unwrap().generation(),
            b.as_surrogate().unwrap().generation()
        );
        let mut fa = Fingerprinter::new();
        a.fingerprint_into(&mut fa);
        let mut fb = Fingerprinter::new();
        b.fingerprint_into(&mut fb);
        assert_ne!(fa.finish(), fb.finish());
    }

    fn trained_surrogate() -> Arc<dyn CostBackend> {
        let backend = BackendKind::Surrogate.build();
        let surrogate = backend.as_surrogate().unwrap();
        for (rows, kb) in [(8u32, 128u64), (16, 256), (32, 512), (8, 512), (32, 128)] {
            let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
                .pe_array(rows, rows)
                .scratchpad_kb(kb)
                .build()
                .unwrap();
            surrogate.observe(&cfg);
        }
        backend
    }

    #[test]
    fn surrogate_snapshot_restores_bit_identically() {
        let backend = trained_surrogate();
        let surrogate = backend.as_surrogate().unwrap();
        assert!(surrogate.is_trusted(), "fixture must train to trust");

        // Snapshot → encode → decode → restore.
        let snap = surrogate.snapshot();
        let bytes = to_bytes(&snap);
        let decoded: SurrogateSnapshot = from_bytes(&bytes).expect("snapshot decodes");
        assert_eq!(decoded, snap, "encode/decode must be lossless");
        let restored = SurrogateBackend::from_snapshot(&decoded);

        // Digest round-trip: the restored backend's fingerprint — and
        // therefore every memo key derived from it — equals the original.
        let mut fa = Fingerprinter::new();
        backend.fingerprint_into(&mut fa);
        let mut fb = Fingerprinter::new();
        restored.fingerprint_into(&mut fb);
        assert_eq!(fa.finish(), fb.finish(), "fingerprint moved across restore");
        assert_eq!(restored.generation(), surrogate.generation());
        assert_eq!(restored.training_len(), surrogate.training_len());
        assert_eq!(restored.is_trusted(), surrogate.is_trusted());
        assert_eq!(
            restored.cv_error().to_bits(),
            surrogate.cv_error().to_bits(),
            "deterministic refit must reproduce the CV score exactly"
        );

        // Predictions are bit-identical, and re-observing a config the
        // original already saw stays free.
        let (c, p) = (cfg(), traffic_plan());
        assert_eq!(restored.evaluate(&c, &p), backend.evaluate(&c, &p));
        assert_eq!(restored.observe(&c), 0, "observed set lost in restore");
    }

    #[test]
    fn untrained_surrogate_snapshot_round_trips() {
        let backend = BackendKind::Surrogate.build();
        let snap = backend.as_surrogate().unwrap().snapshot();
        assert_eq!(snap.generation, 0);
        let restored = SurrogateBackend::from_snapshot(&snap);
        assert!(!restored.is_trusted());
        let (c, p) = (cfg(), traffic_plan());
        assert_eq!(restored.evaluate(&c, &p), backend.evaluate(&c, &p));
    }

    #[test]
    fn snapshot_decode_rejects_corrupt_bytes() {
        let snap = trained_surrogate().as_surrogate().unwrap().snapshot();
        let bytes = to_bytes(&snap);
        // Truncation at any of a few depths, trailing garbage, and a bad
        // trusted flag must all be rejected, never panic.
        for cut in [0, 8, 13 * 8 + 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                from_bytes::<SurrogateSnapshot>(&bytes[..cut]).is_none(),
                "decode accepted a truncation at {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(from_bytes::<SurrogateSnapshot>(&trailing).is_none());
        let mut bad_flag = bytes.clone();
        let flag_at = 13 * 8 + 8 + 8 + 8 + 8 + 8 + 8; // tech + knobs + gen/digest/cv
        bad_flag[flag_at] = 7;
        assert!(from_bytes::<SurrogateSnapshot>(&bad_flag).is_none());
    }

    #[test]
    fn snapshot_decode_rejects_ragged_or_mismatched_rows() {
        let snap = trained_surrogate().as_surrogate().unwrap().snapshot();
        assert!(snap.is_well_formed());
        assert!(from_bytes::<SurrogateSnapshot>(&to_bytes(&snap)).is_some());
        let mut ragged = snap.clone();
        ragged.xs[1].pop();
        let mut short_ys = snap.clone();
        short_ys.ys.pop();
        let mut extra_row = snap;
        extra_row.xs.push(extra_row.xs[0].clone());
        for (label, bad) in [
            ("ragged", ragged),
            ("short ys", short_ys),
            ("extra row", extra_row),
        ] {
            assert!(!bad.is_well_formed(), "{label}");
            assert!(
                from_bytes::<SurrogateSnapshot>(&to_bytes(&bad)).is_none(),
                "decode accepted a {label} snapshot"
            );
        }
    }

    #[test]
    fn surrogate_fingerprint_tracks_training_generation() {
        let backend = BackendKind::Surrogate.build();
        let surrogate = backend.as_surrogate().unwrap();
        let mut before = Fingerprinter::new();
        backend.fingerprint_into(&mut before);
        surrogate.observe(&cfg());
        let mut after = Fingerprinter::new();
        backend.fingerprint_into(&mut after);
        assert_ne!(
            before.finish(),
            after.finish(),
            "memo keys must not survive retraining"
        );
    }

    #[test]
    fn backend_instance_fingerprints_distinguish_tiers() {
        let (a, s) = (BackendKind::Analytic.build(), BackendKind::TraceSim.build());
        let mut fa = Fingerprinter::new();
        a.fingerprint_into(&mut fa);
        let mut fs = Fingerprinter::new();
        s.fingerprint_into(&mut fs);
        assert_ne!(fa.finish(), fs.finish());
    }

    #[test]
    fn config_key_is_pinned() {
        // Persisted in `SurrogateSnapshot::observed`: a moved key would
        // orphan every restored observation.
        assert_eq!(config_key(&cfg()), (0x21aafeb4e0cec47f, 0x0864b2623d14aa0a));
    }

    #[test]
    fn shared_cost_rules_are_pinned_bit_for_bit() {
        // The surrogate fits the sim/analytic ratio on these plans, so a
        // shared engine formula, split or recurrence that moves one bit
        // would be absorbed as a silent "correction"; pin both sides.
        let c = cfg();
        let sim = TraceSimulator::default();
        let priced = probe_plans(&c).map(|plan| {
            (
                sim.model.latency_cycles(&c, &plan).to_bits(),
                sim.run_plan_cycles(&c, &plan, DEFAULT_SIM_STAGES).to_bits(),
            )
        });
        assert_eq!(
            priced,
            [
                (0x40f2287533333333, 0x40f20c6000000000),
                (0x40e4910000000000, 0x40e49a0000000000),
                (0x40fbcae666666666, 0x40fa900000000000),
                (0x40ee900000000000, 0x40ee900000000000),
                (0x4147c3e666666666, 0x4147600000000000),
                (0x4137a00000000000, 0x4137a00000000000),
            ]
        );
    }
}
