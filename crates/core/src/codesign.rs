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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use accel_model::arch::AcceleratorConfig;
use accel_model::tech::TechParams;
use accel_model::{BackendKind, CostBackend, Metrics};
use dse::mobo::{AcquisitionStore, Mobo};
use dse::nsga2::Nsga2;
use dse::progress::{BatchUpdate, Progress};
use dse::random::RandomSearch;
use dse::Optimizer;
use hw_gen::space::Generator;
use hw_gen::{ChiselGenerator, GemminiGenerator};
use runtime::{resolve_threads, Telemetry, WorkerPool};
use sw_opt::explorer::{ExplorerOptions, SoftwareExplorer};

use crate::engine::{CoDesignRequest, Engine, EngineConfig};
use crate::event::{EventSink, RunEvent};
use crate::finals::{self, Final};
use crate::input::{GenerationMethod, InputDescription};
pub use crate::pricing::HwProblem;
use crate::report::RunStats;
use crate::solution::{Solution, WorkloadSolution};
use crate::stores::Stores;
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
        self.build_with_telemetry(seed, prior, &Telemetry::disabled(), None)
    }

    /// [`OptimizerKind::build`] reporting into `telemetry`: MOBO times its
    /// acquisitions (`job/hw_dse/acquire`) and GP fits (`dse/gp_fit`), and
    /// looks every acquisition up in `acquisitions` when given one.
    pub fn build_with_telemetry(
        self,
        seed: u64,
        prior: usize,
        telemetry: &Telemetry,
        acquisitions: Option<&Arc<AcquisitionStore>>,
    ) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Mobo => {
                let mobo = Mobo::new(seed)
                    .with_prior_samples(prior)
                    .with_telemetry(telemetry.clone());
                Box::new(match acquisitions {
                    Some(store) => mobo.with_store(Arc::clone(store)),
                    None => mobo,
                })
            }
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
    /// Capacity (entries) of the memoizing evaluation cache of a one-shot
    /// [`CoDesigner::run`] ([`EngineConfig::one_shot`]). A job on a
    /// long-lived engine prices through that engine's store instead,
    /// sized by [`EngineConfig::cache_capacity`].
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

/// Per-job execution context handed down by the engine.
pub(crate) struct ExecCtx {
    /// The request label (reporting only).
    pub label: String,
    /// Where the job's [`RunEvent`]s go.
    pub events: EventSink,
    /// Raised by [`JobHandle::cancel`](crate::engine::JobHandle::cancel).
    pub cancel: Arc<AtomicBool>,
    /// The engine's stores, read and written live by every job.
    pub stores: Arc<Stores>,
    /// Engine-provided screen backend (a forked surrogate carrying
    /// accumulated training); `None` builds a fresh one from the options.
    pub screen_backend: Option<Arc<dyn CostBackend>>,
    /// The engine's telemetry side channel (disabled unless the engine
    /// was configured with metrics). Observation-only: nothing recorded
    /// through it feeds back into results, stats, or events.
    pub telemetry: Telemetry,
}

impl ExecCtx {
    /// A context with no engine behind it: no events, no telemetry, and
    /// its own stores.
    fn quiet(opts: &CoDesignOptions) -> Self {
        ExecCtx {
            label: String::new(),
            events: EventSink::disabled(),
            cancel: Arc::new(AtomicBool::new(false)),
            stores: Arc::new(Stores::new(opts.cache_capacity)),
            screen_backend: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// What one executed job hands back to the engine.
pub(crate) struct ExecOutcome {
    /// The job's result.
    pub result: Result<Solution, HascoError>,
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
    let mut surrogate = None;
    let result = execute_inner(input, opts, ctx, &mut surrogate);
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
    ExecOutcome { result, surrogate }
}

fn execute_inner(
    input: &InputDescription,
    opts: &CoDesignOptions,
    ctx: &ExecCtx,
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
    // workload). The engine's choice memo matches every (loop nest,
    // intrinsic kind) once and serves every explorer of every job, so
    // this enumeration is observability-only and skipped when nobody
    // listens.
    if ctx.events.is_enabled() {
        let partition_span = ctx.telemetry.span("job/partition");
        for w in &input.app.workloads {
            ctx.events.emit(RunEvent::Partitioned {
                choices: ctx.stores.choices.count(w),
                workload: w.name.clone(),
            });
        }
        drop(partition_span);
    }

    let setup_span = ctx.telemetry.span("job/setup");
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
    let mut problem = HwProblem::on_stores(
        generator.as_ref(),
        &input.app.workloads,
        opts.sw_inner.clone(),
        opts.seed,
        Arc::clone(&ctx.stores),
        Arc::clone(&screen),
    )
    .with_workers(workers)
    .with_events(ctx.events.clone());
    problem = if opts.adaptive_refinement {
        problem.with_adaptive_refinement(refine_backend, opts.refine_top_k)
    } else {
        problem.with_refinement(refine_backend, opts.refine_top_k)
    };
    problem = problem.with_telemetry(ctx.telemetry.clone());

    let observer = RunObserver {
        events: ctx.events.clone(),
        cancel: Arc::clone(&ctx.cancel),
        forward: true,
    };
    let mut optimizer = opts.optimizer.build_with_telemetry(
        opts.seed,
        opts.mobo_prior,
        &ctx.telemetry,
        Some(&ctx.stores.acquisitions),
    );
    drop(setup_span);
    let dse_span = ctx.telemetry.span("job/hw_dse");
    let mut history = optimizer.run_with_progress(&mut problem, opts.hw_trials, &observer);
    drop(dse_span);
    if cancelled() {
        return Err(HascoError::Cancelled);
    }
    if history.evaluations.is_empty() {
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
                Some(&ctx.stores.acquisitions),
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

    // The screen surrogate (with whatever it learned this run) goes back
    // to the engine's registry. Every *completed* outcome publishes — a
    // selection or finalization failure still paid for its training —
    // while a cancelled job publishes nothing (what it had learned
    // depends on when the cancel landed).
    if !matches!(tuned, Err(HascoError::Cancelled)) {
        if screen.as_surrogate().is_some() {
            *surrogate_out = Some(Arc::clone(&screen));
        }
        problem.record_telemetry();
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
    // The job's solution reports its merged history (see `execute_inner`),
    // so this one carries none.
    finalize_solution(opts, input, cfg, Default::default(), ctx)
}

/// Optimizes the software thoroughly for a fixed accelerator and
/// assembles the solution (shared by the engine path, the one-shot
/// [`CoDesigner::finalize`], and the "separate design" baseline). A
/// workload whose final exploration the context's finals store already
/// holds is not explored again, and a job whose finals all hit builds no
/// explorer.
fn finalize_solution(
    opts: &CoDesignOptions,
    input: &InputDescription,
    cfg: AcceleratorConfig,
    hw_history: dse::problem::OptimizerResult,
    ctx: &ExecCtx,
) -> Result<Solution, HascoError> {
    let (events, cancel, telemetry) = (&ctx.events, &ctx.cancel, &ctx.telemetry);
    let _finalize_span = telemetry.span("job/finalize");
    // With fidelity staging on, the final thorough optimization runs
    // at the high-fidelity tier so reported metrics match the
    // refinement the Pareto front saw.
    let final_backend = if opts.refine_top_k > 0 {
        opts.refine_backend
    } else {
        opts.backend
    };
    let backend = final_backend.build_with(opts.tech.clone());
    let backend_fp = backend.fingerprint();
    let workloads = &input.app.workloads;
    let keys: Vec<(u64, u64)> = workloads
        .iter()
        .map(|w| finals::key(w, &cfg, &opts.sw_final, opts.seed, backend_fp))
        .collect();
    let stored: Vec<Option<Final>> = keys.iter().map(|k| ctx.stores.finals.get(k)).collect();
    // One exploration per distinct missed key: workloads with identical
    // loop nests (MobileNet repeats five layers) share theirs.
    let mut missed: Vec<usize> = Vec::new();
    for (i, hit) in stored.iter().enumerate() {
        if hit.is_none() && missed.iter().all(|&j| keys[j] != keys[i]) {
            missed.push(i);
        }
    }
    let mut explored = Vec::new();
    if !missed.is_empty() {
        // Built here, and its untrained Q-learner forced, on the job
        // thread: a learner first built on a pool worker costs resident
        // memory (see `SoftwareExplorer::learner`).
        // The explorer watches the cancel flag between revision rounds (its observer
        // forwards no events: these rounds run on worker threads, where
        // emission order would depend on scheduling).
        let tier = telemetry.timer(format_args!("sw_explore/{}", backend.name()));
        let explorer = SoftwareExplorer::new(opts.seed)
            .with_backend(backend)
            .with_choice_memo(Arc::clone(&ctx.stores.choices))
            .with_telemetry(telemetry.clone(), "sw_opt/final")
            .with_progress(Arc::new(RunObserver {
                events: EventSink::disabled(),
                cancel: Arc::clone(cancel),
                forward: false,
            }));
        explorer.learner();
        let workers = WorkerPool::new(resolve_threads(opts.threads))
            .with_stealing(opts.work_stealing)
            .with_telemetry(telemetry.clone());
        // The thorough per-workload explorations are independent pure
        // runs, so the missed ones fan out across the pool.
        explored = workers.map(&missed, |_, &i| {
            let w = &workloads[i];
            let optimized = tier
                .time(|| explorer.optimize(w, &cfg, &opts.sw_final))
                .map_err(|e| HascoError::Software(format!("{}: {e}", w.name)))?;
            let done = Final {
                schedule: optimized.schedule,
                metrics: optimized.metrics,
                rounds: optimized.history.len(),
            };
            // A cancel cuts an exploration short; only a run of every
            // round is the pure function's value.
            if done.rounds == opts.sw_final.rounds {
                ctx.stores.finals.insert(keys[i], &done);
            }
            Ok(done)
        });
    }
    // detlint-allow(atomics): cooperative cancel latch; a late observation only delays the exit
    if cancel.load(Ordering::Relaxed) {
        return Err(HascoError::Cancelled);
    }
    let intrinsic = cfg.intrinsic_comp();
    let mut per_workload = Vec::with_capacity(input.app.len());
    let mut parts = Vec::with_capacity(input.app.len());
    for ((w, key), stored) in workloads.iter().zip(&keys).zip(stored) {
        // Errors are reported in workload order (first failure wins),
        // matching the serial path.
        let done = match stored {
            Some(done) => done,
            None => {
                let at = missed.iter().position(|&j| keys[j] == *key);
                explored[at.expect("every missed key was explored")].clone()?
            }
        };
        // Emitted here — on the driver thread, in workload order — so the
        // event stream never depends on which worker finished first.
        events.emit(RunEvent::SoftwareOptimized {
            workload: w.name.clone(),
            rounds: done.rounds,
            latency_ms: done.metrics.latency_ms,
        });
        let program = sw_opt::codegen::render(&done.schedule, w, &intrinsic);
        parts.push(done.metrics);
        per_workload.push(WorkloadSolution {
            workload: w.name.clone(),
            schedule: done.schedule,
            metrics: done.metrics,
            program,
        });
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
            &ExecCtx::quiet(&self.opts),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::Constraints;
    use dse::problem::{Point, Problem};
    use tensor_ir::intrinsics::IntrinsicKind;
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
    fn a_cancelled_final_exploration_is_never_stored() {
        let input = toy_input();
        let opts = CoDesignOptions::quick(3);
        let cfg = hw_gen::GemminiGenerator::baseline(false);
        let ctx = ExecCtx::quiet(&opts);
        let finalize = || {
            let history = dse::problem::OptimizerResult::new("fixed");
            finalize_solution(&opts, &input, cfg.clone(), history, &ctx)
        };
        // Raised before the explorations start, the cancel stops each one
        // after its first round: those results are not the pure
        // function's, so none is stored.
        ctx.cancel.store(true, Ordering::Relaxed);
        assert_eq!(finalize().unwrap_err(), HascoError::Cancelled);
        assert_eq!(ctx.stores.finals.len(), 0);
        // Complete runs are stored, and a second finalization reads them
        // back into the very same solution.
        ctx.cancel.store(false, Ordering::Relaxed);
        let explored = finalize().unwrap();
        assert_eq!(ctx.stores.finals.len(), input.app.len());
        let stored = finalize().unwrap();
        assert_eq!(explored, stored);
        let hits: u64 = ctx.stores.finals.shard_stats().iter().map(|s| s.hits).sum();
        assert_eq!(hits, input.app.len() as u64);
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

    /// The memo store's lookups so far (its `store` cache scope): a miss
    /// is a software exploration run, a hit one answered from the store.
    fn store_traffic(engine: &Engine) -> runtime::CacheStats {
        let snapshot = engine.metrics().expect("metrics are on");
        let store = snapshot.caches.iter().find(|c| c.scope == "store");
        store.expect("no store cache scope").total()
    }

    /// One request on a fresh one-shot engine persisting its store at
    /// `path` — the warm-restart path every persisted run takes — with
    /// the store's entries at start-up and its lookups during the run.
    fn run_persisted(
        opts: &CoDesignOptions,
        path: &std::path::Path,
    ) -> (Solution, usize, runtime::CacheStats) {
        let engine = Engine::new(
            EngineConfig::one_shot(opts)
                .with_cache_path(path)
                .with_metrics(Telemetry::enabled()),
        );
        let warm_entries = engine.warm_entries();
        let solution = engine
            .submit_quiet(CoDesignRequest::new(toy_input(), opts.clone()))
            .unwrap()
            .wait()
            .unwrap();
        engine.persist().unwrap();
        (solution, warm_entries, store_traffic(&engine))
    }

    #[test]
    fn persistent_cache_warms_repeat_runs() {
        let path = temp_cache("warm");
        std::fs::remove_file(&path).ok();
        let opts = CoDesignOptions::quick(5);
        let (cold, cold_entries, cold_traffic) = run_persisted(&opts, &path);
        assert_eq!(cold_entries, 0);
        assert!(path.exists(), "cache file must be written");
        let (warm, warm_entries, warm_traffic) = run_persisted(&opts, &path);
        assert!(warm_entries > 0);
        // Identical run, warm cache: same solution, strictly fewer
        // explorer executions (= cache misses).
        assert_eq!(cold, warm);
        assert!(
            warm_traffic.misses < cold_traffic.misses,
            "warm run recomputed as much as cold: {} vs {}",
            warm_traffic.misses,
            cold_traffic.misses
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_persistent_cache_is_a_clean_cold_start() {
        let path = temp_cache("corrupt");
        std::fs::remove_file(&path).ok();
        let opts = CoDesignOptions::quick(6);
        let (reference, _, _) = run_persisted(&opts, &path);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (recovered, recovered_entries, _) = run_persisted(&opts, &path);
        assert_eq!(recovered_entries, 0);
        assert_eq!(reference, recovered);
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
    fn jobs_record_pricing_telemetry() {
        // Two identical jobs on one engine price through its store: the
        // first explores, the second reads every pair back.
        let mut opts = CoDesignOptions::quick(8).with_adaptive_refinement(BackendKind::TraceSim, 2);
        opts.hw_trials = 6;
        let engine = Engine::new(EngineConfig::one_shot(&opts).with_metrics(Telemetry::enabled()));
        let run = || {
            let request = CoDesignRequest::new(toy_input(), opts.clone());
            engine.submit_quiet(request).unwrap().wait().unwrap()
        };
        run();
        let cold = store_traffic(&engine);
        let warm_solution = run();
        let warm = store_traffic(&engine);
        let snapshot = engine.metrics().expect("metrics-on engine snapshots");
        let gauge = |name: &str| {
            let found = snapshot.gauges.iter().find(|(n, _)| n == name);
            found.unwrap_or_else(|| panic!("no {name} gauge")).1
        };
        // Every job times its set-up as a child of its `job` span.
        let spans = |name: &str| {
            let found = snapshot.timings.iter().find(|(n, _)| n == name);
            found.map_or(0, |(_, h)| h.count)
        };
        assert_eq!(spans("job/setup"), 2);
        assert_eq!(spans("job"), 2);
        let budget = warm_solution.stats.refine_topk_trajectory.last();
        assert_eq!(Some(gauge("staging.topk_budget") as usize), budget.copied());
        assert!(gauge("staging.rank_disagreement_milli") <= 1000);
        assert!(cold.misses > 0, "{cold:?}");
        assert!(warm.hits > cold.hits, "{cold:?} {warm:?}");
        assert_eq!(warm.misses, cold.misses, "the warm job explored again");
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
}
