//! Shared experiment infrastructure: the run configuration, the engine
//! the co-design harnesses submit to, reference accelerators, software
//! optimization helpers (with graceful degradation for unmatchable
//! workloads), and workload subsampling.

use std::path::PathBuf;
use std::time::Duration;

use accel_model::arch::{AcceleratorConfig, PeArray};
use accel_model::tech::TechParams;
use accel_model::{BackendKind, Metrics};
use hasco::codesign::{CoDesignOptions, OptimizerKind};
use hasco::engine::{CoDesignRequest, Engine, EngineConfig};
use hasco::input::{Constraints, GenerationMethod, InputDescription};
use hasco::solution::Solution;
use runtime::{resolve_threads, Telemetry, WorkerPool};
use sw_opt::explorer::{ExplorerOptions, SoftwareExplorer};
use sw_opt::SwError;
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::workload::{TensorApp, Workload};

use crate::Scale;

/// The hardware-DSE methods the paper compares (Fig. 10, Table II), in
/// column order.
pub const METHODS: [OptimizerKind; 3] = [
    OptimizerKind::Random,
    OptimizerKind::Nsga2,
    OptimizerKind::Mobo,
];

/// One experiment process's configuration: filled once by
/// [`crate::cli::parse`] and read by every harness.
#[derive(Debug, Clone)]
pub struct Config {
    /// Experiment scale.
    pub scale: Scale,
    /// Worker threads per job (`0` = all cores). Thread count changes
    /// wall-clock time only, never results.
    pub threads: usize,
    /// Cost backend of every evaluation.
    pub backend: BackendKind,
    /// Fidelity-staging survivor count (0 = staging off).
    pub refine_top_k: usize,
    /// Adaptive fidelity staging (grow/shrink the refine budget per batch).
    pub adaptive: bool,
    /// Sweep the named `TechParams` profiles as a scenario axis.
    pub tech_sweep: bool,
    /// Persistent evaluation-cache image (`--cache`).
    pub cache: Option<PathBuf>,
    /// Age-based GC bound for the cache image (`--cache-max-age`).
    pub cache_max_age: Option<Duration>,
    /// Persistent surrogate-registry image (`--surrogate-store`).
    pub surrogate_store: Option<PathBuf>,
    /// Where `--metrics-out` writes the telemetry snapshot.
    pub metrics_out: Option<PathBuf>,
    /// `--connect` address: submit jobs to a remote `hasco-serve`
    /// front-end instead of an in-process engine.
    pub connect: Option<String>,
    /// The registry every engine of this process reports into. Always
    /// live: recording is a handful of relaxed atomics per event.
    /// Telemetry is a wall-clock side channel — it never feeds back into
    /// results, stats, or events.
    pub telemetry: Telemetry,
}

impl Config {
    /// The defaults at `scale`: one worker thread, the analytic tier, no
    /// staging, in-memory state only.
    pub fn at(scale: Scale) -> Self {
        Config {
            scale,
            threads: 1,
            backend: BackendKind::Analytic,
            refine_top_k: 0,
            adaptive: false,
            tech_sweep: false,
            cache: None,
            cache_max_age: None,
            surrogate_store: None,
            metrics_out: None,
            connect: None,
            telemetry: Telemetry::enabled(),
        }
    }

    /// The technology profiles a sweeping experiment iterates: the full
    /// named set with `--tech-sweep`, just the default node otherwise.
    pub fn tech_profiles(&self) -> Vec<(&'static str, TechParams)> {
        if self.tech_sweep {
            TechParams::profiles().to_vec()
        } else {
            vec![("28nm", TechParams::default())]
        }
    }

    /// The resident co-design engine for this experiment process: two
    /// concurrent job slots, the `--cache` file as the shared store
    /// image, `--cache-max-age` as its GC bound, and `--surrogate-store`
    /// as the surrogate-registry image, so repeat invocations start with
    /// the previous run's surrogate generation. Results never depend on
    /// slot count or job interleaving — only wall-clock time and cache
    /// statistics do.
    ///
    /// With `--connect ADDR`, no local engine is built at all: the handle
    /// fronts the `hasco-serve` process at `ADDR` (whose own flags
    /// configured persistence), and this process never pays for
    /// evaluation.
    ///
    /// With any persistence flag set, a warm-start report line is printed
    /// so the operator (and the CI smoke) can tell a restored run from a
    /// cold one. A local engine refuses (exit 2) a surrogate screen that
    /// nothing would train: `--backend surrogate` without
    /// `--refine-top-k` or `--adaptive`, unless `--surrogate-store`
    /// restored a trained surrogate.
    pub fn engine(&self) -> EngineHandle {
        if let Some(addr) = &self.connect {
            match hasco_net::Client::connect(addr.as_str()) {
                Ok(client) => {
                    println!("[campaigns served by {addr}]");
                    return EngineHandle::Remote(client);
                }
                Err(e) => {
                    eprintln!("cannot reach hasco-serve at {addr}: {e}");
                    std::process::exit(2);
                }
            }
        }
        let mut config = EngineConfig::default()
            .with_job_slots(2)
            .with_metrics(self.telemetry.clone());
        if let Some(path) = &self.cache {
            config = config.with_cache_path(path);
        }
        if let Some(max_age) = self.cache_max_age {
            config = config.with_cache_max_age(max_age);
        }
        if let Some(path) = &self.surrogate_store {
            config = config.with_surrogate_store(path);
        }
        let engine = Engine::new(config);
        if let Some(msg) = self.untrained_surrogate(engine.restored_surrogate_generation()) {
            // Exiting skips the engine's drop, so no untrained store is
            // written for later runs to restore.
            eprintln!("{msg}");
            std::process::exit(2);
        }
        if self.cache.is_some() || self.surrogate_store.is_some() {
            println!(
                "[engine warm start: {} cache entries, {} surrogate backend(s), \
                 restored surrogate generation {}]",
                engine.warm_entries(),
                engine.restored_surrogate_backends(),
                engine.restored_surrogate_generation(),
            );
        }
        EngineHandle::Local(engine)
    }

    /// Why a local engine would silently run the analytic tier instead of
    /// the requested surrogate screen, if it would: with no staging
    /// nothing refines, so the surrogate never trains, and unless the
    /// store restored a trained one (`restored_generation` above 0) it
    /// starts untrained — an untrained surrogate prices exactly like
    /// `analytic`. A store path with no image yet, or an image of an
    /// untrained surrogate, restores generation 0. A `--connect` server
    /// owns its own store, so only the local engine checks this.
    fn untrained_surrogate(&self, restored_generation: u64) -> Option<&'static str> {
        (self.backend == BackendKind::Surrogate
            && self.refine_top_k == 0
            && restored_generation == 0)
            .then_some(
                "--backend surrogate without --refine-top-k or --adaptive is degenerate \
                 unless --surrogate-store restores a trained surrogate: nothing trains the \
                 surrogate screen, so it prices exactly like --backend analytic; stage it \
                 with --refine-top-k K or --adaptive, or restore a trained one with \
                 --surrogate-store FILE",
            )
    }

    /// The one code path mapping the configuration onto co-design
    /// options: every bench co-design run builds its request here, so
    /// `--threads`, `--backend`, `--refine-top-k`, `--adaptive`, and the
    /// technology axis apply uniformly (and invalid combinations fail
    /// [`CoDesignOptions::validate`] once, at submit, instead of
    /// degenerating differently per binary). The engine owns cache
    /// persistence, so no `cache_path` is set here.
    pub fn codesign_options_at(&self, seed: u64, tech: &TechParams) -> CoDesignOptions {
        let opts = match self.scale {
            Scale::Quick => CoDesignOptions::quick(seed),
            Scale::Paper => {
                let mut o = CoDesignOptions::paper(seed);
                o.hw_trials = 20; // "20 co-design iterations"
                o
            }
        };
        let opts = opts
            .with_threads(self.threads)
            .with_backend(self.backend)
            .with_tech(tech.clone());
        if self.adaptive {
            opts.with_adaptive_refinement(BackendKind::TraceSim, self.refine_top_k)
        } else {
            opts.with_refinement(BackendKind::TraceSim, self.refine_top_k)
        }
    }

    /// One hardware-DSE convergence run as an engine job: `optimizer`
    /// drives the co-design loop over `app` for `trials` evaluations
    /// (MOBO from a `trials / 3` prior, clamped to 3..=10). The history
    /// is the product, so there is no constraint-driven retuning and the
    /// final software pass is as cheap as the inner one.
    pub fn dse_request(
        &self,
        app: TensorApp,
        method: GenerationMethod,
        optimizer: OptimizerKind,
        seed: u64,
        trials: usize,
        tech: &TechParams,
    ) -> CoDesignRequest {
        let mut opts = self.codesign_options_at(seed, tech);
        opts.hw_trials = trials;
        opts.mobo_prior = (trials / 3).clamp(3, 10);
        opts.sw_inner = sw_inner_opts(self.scale);
        opts.sw_final = opts.sw_inner.clone();
        opts.tuning_rounds = 0;
        opts.optimizer = optimizer;
        let input = InputDescription {
            app,
            method,
            constraints: Constraints::default(),
        };
        CoDesignRequest::new(input, opts)
    }

    /// Runs `requests` on [`Config::engine`] through
    /// [`EngineHandle::run_all`], then persists the warm state and
    /// flushes engine-level telemetry (store-scope cache shards, gauges)
    /// into the registry before the engine goes away.
    pub fn run_jobs(&self, requests: Vec<CoDesignRequest>) -> Vec<Solution> {
        let engine = self.engine();
        let solutions = engine.run_all(requests).expect("co-design jobs succeed");
        let _ = engine.persist();
        let _ = engine.metrics();
        solutions
    }

    /// A [`SoftwareExplorer`] on the configured thread count and cost
    /// backend. With the defaults (`--threads 1`, `--backend analytic`)
    /// results are identical to `SoftwareExplorer::new(seed)`.
    pub fn explorer(&self, seed: u64) -> SoftwareExplorer {
        SoftwareExplorer::new(seed)
            .with_workers(WorkerPool::new(resolve_threads(self.threads)))
            .with_backend(self.backend.build())
    }
}

/// The job surface the experiment harnesses use, local or served. With
/// `--connect` the work (and the warm state) lives in the `hasco-serve`
/// process; results are bit-identical either way — that is the serving
/// determinism contract, pinned by the loopback axis of
/// `tests/runtime_determinism.rs` and the CI smoke.
pub enum EngineHandle {
    /// An in-process engine (the default).
    Local(Engine),
    /// A client of a remote `hasco-serve` front-end.
    Remote(hasco_net::Client),
}

impl EngineHandle {
    /// Runs every request as its own job and returns the solutions in
    /// request order. Every request is submitted before any is awaited,
    /// so every job forks the same registry: a surrogate screen starts
    /// each job from the same registry generation, unlike a campaign,
    /// which publishes between its waves. (A served job publishes on the
    /// server when it completes, so there the guarantee holds for jobs
    /// submitted before the first one finishes.)
    ///
    /// # Errors
    /// The first failing job's error (plus transport errors when
    /// serving).
    pub fn run_all(
        &self,
        requests: Vec<CoDesignRequest>,
    ) -> Result<Vec<Solution>, hasco::HascoError> {
        match self {
            EngineHandle::Local(engine) => {
                let jobs = requests
                    .into_iter()
                    .map(|request| engine.submit(request))
                    .collect::<Result<Vec<_>, _>>()?;
                jobs.iter().map(|job| job.wait()).collect()
            }
            EngineHandle::Remote(client) => {
                let jobs = requests
                    .into_iter()
                    .map(|request| client.submit(request))
                    .collect::<Result<Vec<_>, _>>()?;
                jobs.iter().map(|job| job.wait()).collect()
            }
        }
    }

    /// [`Engine::campaign`], local or served. A served campaign returns
    /// the identical outcomes.
    ///
    /// # Errors
    /// The first failing scenario's error (plus transport errors when
    /// serving).
    pub fn campaign(
        &self,
        requests: Vec<CoDesignRequest>,
    ) -> Result<Vec<hasco::CampaignOutcome>, hasco::HascoError> {
        match self {
            EngineHandle::Local(engine) => engine.campaign(requests),
            EngineHandle::Remote(client) => client.campaign(requests),
        }
    }

    /// Persists warm state (locally or server-side); returns memo
    /// entries written. Failures cost future warmth, never correctness.
    pub fn persist(&self) -> Result<u64, String> {
        match self {
            EngineHandle::Local(engine) => engine.persist().map_err(|e| e.to_string()),
            EngineHandle::Remote(client) => client.persist().map_err(|e| e.to_string()),
        }
    }

    /// Flushes engine-level telemetry gauges into the local registry.
    /// Served runs return `None`: their telemetry lives (correctly) in
    /// the serving process, which is where the wall clocks ticked.
    pub fn metrics(&self) -> Option<runtime::TelemetrySnapshot> {
        match self {
            EngineHandle::Local(engine) => engine.metrics(),
            EngineHandle::Remote(_) => None,
        }
    }
}

/// The §VII-D GEMMCore: 16×16 PEs, 256 KB scratchpad, 4 banks.
pub fn gemmcore() -> AcceleratorConfig {
    AcceleratorConfig::builder(IntrinsicKind::Gemm)
        .name("gemmcore")
        .pe_array(16, 16)
        .scratchpad_kb(256)
        .banks(4)
        .build()
        .expect("gemmcore is valid")
}

/// The §II-C GA_L: 16×16 PE array, 256 KB scratchpad.
pub fn ga_l() -> AcceleratorConfig {
    let mut cfg = gemmcore();
    cfg.name = "GA_L".into();
    cfg
}

/// The §II-C GA_S: 8×8 PE array, 128 KB scratchpad.
pub fn ga_s() -> AcceleratorConfig {
    AcceleratorConfig::builder(IntrinsicKind::Gemm)
        .name("GA_S")
        .pe_array(8, 8)
        .scratchpad_kb(128)
        .banks(4)
        .build()
        .expect("ga_s is valid")
}

/// A 64-PE, 256 KB accelerator for each intrinsic (the §VII-B setup: "we
/// specify an array of 64 PEs and a 256 KB scratchpad memory for all
/// accelerators and give them different intrinsic functions").
pub fn accel_64pe(kind: IntrinsicKind) -> AcceleratorConfig {
    let pe = match kind {
        // Linear arrays for the vector engines, square for the 2-D ones.
        IntrinsicKind::Dot | IntrinsicKind::Gemv => PeArray::new(1, 64),
        _ => PeArray::new(8, 8),
    };
    let mut b = AcceleratorConfig::builder(kind);
    b.name(format!("{kind}-64pe"))
        .pe_array(pe.rows, pe.cols)
        .scratchpad_kb(256)
        .banks(4);
    b.build().expect("64-PE accelerator is valid")
}

/// Explorer options per scale.
pub fn sw_opts(scale: Scale) -> ExplorerOptions {
    match scale {
        Scale::Quick => ExplorerOptions {
            pool: 10,
            rounds: 12,
            top_k: 3,
            ..Default::default()
        },
        Scale::Paper => ExplorerOptions {
            pool: 16,
            rounds: 24,
            top_k: 4,
            ..Default::default()
        },
    }
}

/// Cheaper options for software evaluation inside hardware-DSE loops.
pub fn sw_inner_opts(scale: Scale) -> ExplorerOptions {
    match scale {
        Scale::Quick => ExplorerOptions {
            pool: 4,
            rounds: 3,
            top_k: 2,
            ..Default::default()
        },
        Scale::Paper => ExplorerOptions {
            pool: 6,
            rounds: 6,
            top_k: 2,
            ..Default::default()
        },
    }
}

/// Host-CPU fallback for sub-workloads that match no intrinsic of the
/// accelerator (e.g. MTTKRP's second stage on a GEMM core): the host
/// sustains ~2 MACs/cycle and streams every tensor once over the bus.
pub fn host_fallback_metrics(workload: &Workload, cfg: &AcceleratorConfig) -> Metrics {
    const HOST_MACS_PER_CYCLE: f64 = 2.0;
    let macs = workload.macs() as f64;
    let bytes = workload.footprint_bytes(cfg.dtype_bytes) as f64;
    let latency_cycles = macs / HOST_MACS_PER_CYCLE + bytes / cfg.bus_bytes_per_cycle();
    let latency_ms = cfg.cycles_to_ms(latency_cycles);
    let tech = TechParams::default();
    let area_mm2 = accel_model::area::area(cfg, &tech).total_mm2();
    // Host energy: ~4x the accelerator MAC energy plus the DRAM traffic.
    let energy_uj = (macs * 4.0 * tech.e_mac_pj + bytes * tech.e_dram_pj) / 1e6
        + area_mm2 * tech.leakage_mw_per_mm2 * latency_ms;
    Metrics {
        latency_cycles,
        latency_ms,
        energy_uj,
        power_mw: energy_uj / latency_ms.max(1e-12),
        area_mm2,
        throughput_mops: 2.0 * macs / (latency_ms * 1e3).max(1e-12),
        utilization: 1.0,
    }
}

/// Optimizes a workload on an accelerator; when the workload cannot be
/// tensorized onto the accelerator's intrinsic, the host executes it
/// ([`host_fallback_metrics`]) — the flow never fails, it just loses the
/// array-level acceleration for that stage.
pub fn optimize_degradable(
    explorer: &SoftwareExplorer,
    workload: &Workload,
    cfg: &AcceleratorConfig,
    opts: &ExplorerOptions,
) -> Result<Metrics, SwError> {
    match explorer.optimize(workload, cfg, opts) {
        Ok(o) => Ok(o.metrics),
        Err(SwError::NoTensorizeChoice { .. }) => Ok(host_fallback_metrics(workload, cfg)),
        Err(e) => Err(e),
    }
}

/// Sums metrics of sequentially executed workloads, optimizing each with
/// degradation fallback.
pub fn app_metrics_degradable(
    explorer: &SoftwareExplorer,
    workloads: &[Workload],
    cfg: &AcceleratorConfig,
    opts: &ExplorerOptions,
) -> Result<Metrics, SwError> {
    let mut parts = Vec::with_capacity(workloads.len());
    for w in workloads {
        parts.push(optimize_degradable(explorer, w, cfg, opts)?);
    }
    Ok(Metrics::sequential(&parts))
}

/// Evenly subsamples `n` workloads (keeps endpoints) — used to keep CNN
/// apps tractable inside DSE loops; documented in EXPERIMENTS.md.
pub fn subsample(workloads: &[Workload], n: usize) -> Vec<Workload> {
    if workloads.len() <= n || n == 0 {
        return workloads.to_vec();
    }
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let idx = k * (workloads.len() - 1) / (n - 1).max(1);
        out.push(workloads[idx].clone());
    }
    out.dedup_by(|a, b| a.name == b.name);
    out
}

/// Useful throughput in MOPS from a workload's MAC count and latency.
pub fn throughput_mops(workload: &Workload, latency_ms: f64) -> f64 {
    2.0 * workload.macs() as f64 / (latency_ms * 1e3).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_ir::suites;

    #[test]
    fn reference_accelerators_are_valid() {
        assert_eq!(gemmcore().pes(), 256);
        assert_eq!(ga_s().pes(), 64);
        assert_eq!(ga_l().scratchpad_bytes, 256 * 1024);
        for k in IntrinsicKind::ALL {
            assert_eq!(accel_64pe(k).pes(), 64, "{k}");
        }
    }

    #[test]
    fn untrained_surrogate_screen_is_rejected() {
        let mut cfg = Config::at(Scale::Quick);
        assert_eq!(cfg.untrained_surrogate(0), None, "analytic screen");
        cfg.backend = BackendKind::Surrogate;
        let msg = cfg
            .untrained_surrogate(0)
            .expect("untrained, unstaged surrogate");
        for flag in ["--refine-top-k", "--adaptive", "--surrogate-store"] {
            assert!(msg.contains(flag), "{msg}");
        }
        // Staging trains it.
        let staged = Config {
            refine_top_k: 2,
            ..cfg.clone()
        };
        assert_eq!(staged.untrained_surrogate(0), None);
        // A store passes only if it restored a trained surrogate: a path
        // with no image yet, or an untrained image, restores generation 0.
        let restored = Config {
            surrogate_store: Some("s.bin".into()),
            ..cfg
        };
        assert!(restored.untrained_surrogate(0).is_some());
        assert_eq!(restored.untrained_surrogate(3), None);
    }

    #[test]
    fn subsample_keeps_endpoints_and_size() {
        let ws = suites::resnet50_convs();
        let s = subsample(&ws, 8);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0].name, ws[0].name);
        assert_eq!(s.last().unwrap().name, ws.last().unwrap().name);
        assert_eq!(subsample(&ws[..3], 8).len(), 3);
    }

    #[test]
    fn degradable_handles_unmatchable_stage() {
        // MTTKRP stage 2 cannot be tensorized onto a GEMM core; the
        // degenerate GEMV path must carry it.
        let (_, s2) = suites::mttkrp_stages("m", 64, 64, 64, 64);
        let explorer = SoftwareExplorer::new(0);
        let cfg = accel_64pe(IntrinsicKind::Gemm);
        let m = optimize_degradable(&explorer, &s2, &cfg, &sw_opts(Scale::Quick)).unwrap();
        assert!(m.latency_cycles > 0.0);
    }

    #[test]
    fn degradable_direct_path_used_when_possible() {
        let wl = suites::gemm_workload("g", 128, 128, 128);
        let explorer = SoftwareExplorer::new(0);
        let cfg = accel_64pe(IntrinsicKind::Gemm);
        let direct = explorer
            .optimize(&wl, &cfg, &sw_opts(Scale::Quick))
            .unwrap();
        let via = optimize_degradable(&explorer, &wl, &cfg, &sw_opts(Scale::Quick)).unwrap();
        assert_eq!(direct.metrics.latency_cycles, via.latency_cycles);
    }
}
