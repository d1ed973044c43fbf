//! The software DSE driver: heuristic top-k selection + Q-learning
//! revisions (§VI-B, Fig. 5(d)/(e)).

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use accel_model::arch::AcceleratorConfig;
use accel_model::{AnalyticBackend, CostBackend, CostModel, Metrics};
use dse::progress::{BatchUpdate, Progress};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use runtime::{Fingerprinter, Key128, StableFingerprint, Telemetry, Timer, WorkerPool};
use tensor_ir::intrinsics::{intrinsic_for, Intrinsic, IntrinsicKind};
use tensor_ir::matching::{find_tensorize_choices, MatchOptions, TensorizeChoice};
use tensor_ir::workload::Workload;

use crate::heuristic::{Candidate, CandidatePool};
use crate::lowering;
use crate::qlearn::QLearner;
use crate::schedule::{Revision, Schedule, ScheduleContext, NUM_REVISIONS};
use crate::SwError;

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct ExplorerOptions {
    /// Initial candidate-pool size.
    pub pool: usize,
    /// Revision rounds ("the revision process may repeat for hundreds of
    /// rounds").
    pub rounds: usize,
    /// Valuable candidates revised per round.
    pub top_k: usize,
    /// Maximum pool size (pruned by value after each round).
    pub max_pool: usize,
    /// Use the Q-learning policy for revisions (`false` = random revision,
    /// the ablation baseline).
    pub use_qlearning: bool,
    /// Restrict exploration to one tensorize choice (used by the
    /// tensorize-comparison experiments and the AutoTVM baseline).
    pub fixed_choice: Option<TensorizeChoice>,
}

impl Default for ExplorerOptions {
    fn default() -> Self {
        ExplorerOptions {
            pool: 16,
            rounds: 24,
            top_k: 4,
            max_pool: 32,
            use_qlearning: true,
            fixed_choice: None,
        }
    }
}

impl StableFingerprint for ExplorerOptions {
    // Every knob changes which schedules get explored, so all of them key
    // memoized evaluation results.
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_usize(self.pool);
        fp.write_usize(self.rounds);
        fp.write_usize(self.top_k);
        fp.write_usize(self.max_pool);
        fp.write_bool(self.use_qlearning);
        self.fixed_choice.fingerprint_into(fp);
    }
}

runtime::wire_struct!(ExplorerOptions {
    pool,
    rounds,
    top_k,
    max_pool,
    use_qlearning,
    fixed_choice,
});

/// The result of software optimization for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizedSoftware {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its metrics on the target accelerator.
    pub metrics: Metrics,
    /// Best latency after each round (convergence curve).
    pub history: Vec<f64>,
    /// Total schedules evaluated.
    pub evaluated: usize,
}

/// The software explorer; owns the RNG seed. Every
/// [`SoftwareExplorer::optimize`] call trains a fresh Q-network from that
/// seed, which keeps each exploration a pure, memoizable function of its
/// inputs. The paper instead reuses one DQN "for all design points in a
/// software space" (§VI-B); see README.
///
/// What depends only on the software space is computed once and shared
/// by every exploration: the tensorize choices of each (loop nest,
/// intrinsic kind) pair — HASCO's step 1, which reads structure, never PE
/// geometry — in a [`ChoiceMemo`] that other explorers may share, and the
/// untrained Q-learner every exploration starts from, built at the first
/// exploration (or the first [`SoftwareExplorer::learner`] call), so an
/// explorer that never explores never builds one. Both are pure
/// functions of their keys, so sharing them changes no result, whichever
/// explorations ran first.
///
/// Schedule pricing dispatches through a pluggable [`CostBackend`]
/// ([`SoftwareExplorer::with_backend`]), defaulting to the fast analytic
/// tier. The backend changes which schedules look good and therefore the
/// entire exploration trajectory, so memoization layers must key results
/// by the backend's [`CostBackend::fingerprint`] — and must re-read it
/// whenever the backend's internal state can legitimately move, as the
/// self-improving surrogate tier's fingerprint advances with every
/// training generation.
#[derive(Debug)]
pub struct SoftwareExplorer {
    seed: u64,
    backend: Arc<dyn CostBackend>,
    workers: WorkerPool,
    /// Optional per-round progress observer (see
    /// [`SoftwareExplorer::with_progress`]).
    progress: Option<Arc<dyn Progress>>,
    /// Per-phase wall-clock timers (inert unless
    /// [`SoftwareExplorer::with_telemetry`] installed a live handle).
    phases: PhaseTimers,
    /// Matcher results (see [`SoftwareExplorer::context`]), shareable
    /// with other explorers ([`SoftwareExplorer::with_choice_memo`]).
    choices: Arc<ChoiceMemo>,
    /// The untrained Q-learner; each exploration trains its own clone.
    /// Built on first use (see [`SoftwareExplorer::learner`]).
    learner: OnceLock<QLearner>,
}

/// HASCO's step 1, memoized: the tensorize choices of each (loop nest,
/// intrinsic kind) pair, keyed by a [`Key128`] of the two. Matching reads
/// the intrinsic's structure, never its PE geometry, so one entry serves
/// every accelerator of that kind; the matcher runs outside the lock, so
/// concurrent first uses may both match — they find the same choices and
/// the first one stored is kept. [`ChoiceMemo::count`] walks one loop
/// nest against every kind: it fingerprints the nest once and builds an
/// intrinsic only for a kind it has not matched yet.
///
/// One memo can serve many explorers (an engine hands one to every
/// explorer of every job). It is never evicted: it holds one entry per
/// distinct (loop nest, intrinsic kind) pair ever matched, so at most
/// [`IntrinsicKind::ALL`]`.len()`
/// entries per distinct loop nest, each that pair's choice list (empty
/// when the pair cannot be tensorized). The three CNN suites and the GEMM
/// suite together have 65 distinct loop nests, so a memo that has seen
/// all of them holds 260 entries.
#[derive(Debug, Default)]
pub struct ChoiceMemo {
    map: Mutex<BTreeMap<(u64, u64), Choices>>,
}

/// One memoized choice list, shared by every context built from it.
type Choices = Arc<[TensorizeChoice]>;

/// The memo key of `workload`'s loop nest on intrinsics of `kind`:
/// `nest` is [`Key128::of`] the nest alone, extended here by the kind.
fn choice_key(nest: &Key128, kind: IntrinsicKind) -> (u64, u64) {
    let mut key = nest.clone();
    key.feed(|fp| kind.fingerprint_into(fp));
    key.finish()
}

impl ChoiceMemo {
    /// The tensorize choices of `workload` on intrinsics of `intrinsic`'s
    /// kind, matched on first use.
    pub fn choices(&self, workload: &Workload, intrinsic: &Intrinsic) -> Choices {
        let nest = Key128::of(|fp| workload.comp.fingerprint_into(fp));
        self.lookup(choice_key(&nest, intrinsic.kind), workload, || intrinsic)
    }

    /// The number of tensorize choices of `workload` summed over every
    /// [`IntrinsicKind`]: the sum of [`ChoiceMemo::choices`]`.len()` over
    /// [`IntrinsicKind::ALL`], matching a kind first seen against its
    /// 64-PE intrinsic.
    pub fn count(&self, workload: &Workload) -> usize {
        let nest = Key128::of(|fp| workload.comp.fingerprint_into(fp));
        IntrinsicKind::ALL
            .iter()
            .map(|&kind| {
                self.lookup(choice_key(&nest, kind), workload, || {
                    intrinsic_for(kind, 64)
                })
                .len()
            })
            .sum()
    }

    /// The entry at `key`, matched against `intrinsic()` on a miss.
    fn lookup<I: Borrow<Intrinsic>>(
        &self,
        key: (u64, u64),
        workload: &Workload,
        intrinsic: impl FnOnce() -> I,
    ) -> Choices {
        let map = || self.map.lock().expect("choice memo poisoned");
        let cached = map().get(&key).cloned();
        match cached {
            Some(choices) => choices,
            None => {
                let found: Choices = find_tensorize_choices(
                    &workload.comp,
                    &intrinsic().borrow().comp,
                    &MatchOptions::default(),
                )
                .into();
                Arc::clone(map().entry(key).or_insert(found))
            }
        }
    }

    /// Entries memoized so far.
    pub fn len(&self) -> usize {
        self.map.lock().expect("choice memo poisoned").len()
    }

    /// True before the first match.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One timer per phase of [`SoftwareExplorer::optimize`], resolved once
/// when telemetry is attached so exploring never touches the registry.
#[derive(Debug, Default)]
struct PhaseTimers {
    context: Timer,
    pool_init: Timer,
    propose: Timer,
    lower: Timer,
    learn: Timer,
}

impl SoftwareExplorer {
    /// Creates an explorer with the default analytic cost backend,
    /// evaluating serially.
    pub fn new(seed: u64) -> Self {
        SoftwareExplorer {
            seed,
            backend: Arc::new(AnalyticBackend::default()),
            workers: WorkerPool::serial(),
            progress: None,
            phases: PhaseTimers::default(),
            choices: Arc::default(),
            learner: OnceLock::new(),
        }
    }

    /// Creates an explorer with a custom analytic cost model.
    pub fn with_model(seed: u64, model: CostModel) -> Self {
        SoftwareExplorer::new(seed).with_backend(Arc::new(AnalyticBackend::new(model)))
    }

    /// Routes schedule pricing through the given cost backend.
    pub fn with_backend(mut self, backend: Arc<dyn CostBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Matches through `memo`, shared with every other explorer holding
    /// it, instead of this explorer's own (see [`ChoiceMemo`]).
    pub fn with_choice_memo(mut self, memo: Arc<ChoiceMemo>) -> Self {
        self.choices = memo;
        self
    }

    /// The cost backend pricing this explorer's schedules.
    pub fn backend(&self) -> &Arc<dyn CostBackend> {
        &self.backend
    }

    /// Evaluates candidate pools and per-round revision batches on the
    /// given worker pool. Schedule *generation* and Q-learning updates
    /// stay serial, so results are identical at any worker count.
    pub fn with_workers(mut self, workers: WorkerPool) -> Self {
        self.workers = workers;
        self
    }

    /// Reports every revision round to `progress` (phase `"round"`) and
    /// stops the exploration early — returning the best schedule so far —
    /// when the observer answers `false`. This is how a resident engine
    /// observes and cancels long final optimizations; the observer is
    /// called from the thread driving [`SoftwareExplorer::optimize`], in
    /// round order, so observations never depend on worker scheduling.
    /// Observation changes neither the trajectory nor the result of a
    /// completed run.
    pub fn with_progress(mut self, progress: Arc<dyn Progress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Times each phase of every exploration into `telemetry`, named
    /// under `scope`: `{scope}/context` (schedule-space construction and
    /// the exploration's clone of the explorer's untrained Q-learner,
    /// which the first exploration also builds unless it exists),
    /// `{scope}/pool_init` (the priced initial candidate pool), and per
    /// revision round `{scope}/propose` (Q-network proposals),
    /// `{scope}/lower` (lowering and pricing the proposals) and
    /// `{scope}/learn` (Q-learning updates). The co-design loop's screen
    /// and refine explorers use `sw_opt`, its final explorer
    /// `sw_opt/final`. Observation only: results are identical with or
    /// without it.
    pub fn with_telemetry(mut self, telemetry: Telemetry, scope: &str) -> Self {
        let timer = |phase: &str| telemetry.timer(format_args!("{scope}/{phase}"));
        self.phases = PhaseTimers {
            context: timer("context"),
            pool_init: timer("pool_init"),
            propose: timer("propose"),
            lower: timer("lower"),
            learn: timer("learn"),
        };
        self
    }

    /// The untrained Q-learner every exploration clones, built by the
    /// first call (or the first exploration) on the calling thread. A
    /// caller that fans explorations out to a pool calls this first, on
    /// its own thread: first allocated by a pool worker, this long-lived
    /// block would pin that worker's malloc arena (+0.4 MB peak RSS on
    /// perfbench `sw-staged`, measured on a 2-vCPU x86-64 VM).
    pub fn learner(&self) -> &QLearner {
        self.learner
            .get_or_init(|| QLearner::new(self.seed ^ 0x9e3779b97f4a7c15))
    }

    /// The schedule space of `workload` on `cfg`: equal to
    /// [`ScheduleContext::new`] with `cfg`'s intrinsic, but the matcher
    /// runs once per (loop nest, intrinsic kind) for the lifetime of the
    /// explorer's [`ChoiceMemo`].
    ///
    /// # Errors
    /// Returns [`SwError::NoTensorizeChoice`] when no tensorize choice
    /// maps the workload onto the intrinsic.
    pub fn context(
        &self,
        workload: &Workload,
        cfg: &AcceleratorConfig,
    ) -> Result<ScheduleContext, SwError> {
        let intrinsic = cfg.intrinsic_comp();
        let choices = self.choices.choices(workload, &intrinsic);
        ScheduleContext::with_choices(workload, &intrinsic, choices.to_vec())
    }

    /// Optimizes one workload for one accelerator.
    ///
    /// # Errors
    /// Returns [`SwError`] when no tensorize choice exists or no valid
    /// schedule fits the accelerator.
    pub fn optimize(
        &self,
        workload: &Workload,
        cfg: &AcceleratorConfig,
        opts: &ExplorerOptions,
    ) -> Result<OptimizedSoftware, SwError> {
        let (ctx, mut qlearner) = self.phases.context.time(|| {
            let mut ctx = self.context(workload, cfg)?;
            if let Some(choice) = &opts.fixed_choice {
                ctx.choices.retain(|c| c.var_map == choice.var_map);
                if ctx.choices.is_empty() {
                    ctx.choices.push(choice.clone());
                }
            }
            Ok::<_, SwError>((ctx, self.learner().clone()))
        })?;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut pool = self.phases.pool_init.time(|| {
            CandidatePool::initialize_batched(
                &ctx,
                cfg,
                self.backend.as_ref(),
                opts.pool,
                &mut rng,
                &self.workers,
            )
        })?;
        let mut history = Vec::with_capacity(opts.rounds);
        let mut evaluated = pool.len();

        for round in 0..opts.rounds {
            // Phase 1, serial: propose one revision per valuable candidate.
            // The Q-network state and the RNG stream advance in a fixed
            // order here, so the round's proposals are independent of the
            // worker count.
            let proposals = self.phases.propose.time(|| {
                let top = pool.top_k(opts.top_k);
                let mut proposals: Vec<(Candidate, Schedule, usize)> =
                    Vec::with_capacity(top.len());
                for idx in top {
                    let cand = pool.candidates()[idx].clone();
                    let proposal = if opts.use_qlearning {
                        qlearner.propose(&cand.schedule, &ctx)
                    } else {
                        // Random-revision ablation.
                        let a = rng.gen_range(0..NUM_REVISIONS);
                        Revision::from_action(a)
                            .apply(&cand.schedule, &ctx, &mut rng)
                            .map(|s| (s, a))
                    };
                    if let Some((revised, action)) = proposal {
                        proposals.push((cand, revised, action));
                    }
                }
                proposals
            });
            evaluated += proposals.len();

            // Phase 2, parallel: lower and cost the proposed schedules
            // (pure functions of the schedule). Tiny batches run inline —
            // per-batch thread spawns would cost more than sub-millisecond
            // lowering itself; either strategy yields identical results.
            let evaluate_one = |_: usize, (_, revised, _): &(Candidate, Schedule, usize)| {
                lowering::evaluate(revised, &ctx, cfg, self.backend.as_ref())
            };
            let outcomes: Vec<_> = self.phases.lower.time(|| {
                if proposals.len() < 4 {
                    proposals
                        .iter()
                        .enumerate()
                        .map(|(i, p)| evaluate_one(i, p))
                        .collect()
                } else {
                    self.workers.map(&proposals, evaluate_one)
                }
            });

            // Phase 3, serial: feed rewards back in submission order.
            let outcomes_len = proposals.len();
            let fresh = self.phases.learn.time(|| {
                let mut fresh: Vec<Candidate> = Vec::new();
                for ((cand, revised, action), outcome) in proposals.into_iter().zip(outcomes) {
                    match outcome {
                        Ok(metrics) => {
                            if opts.use_qlearning {
                                let reward = QLearner::reward(
                                    cand.metrics.latency_cycles,
                                    metrics.latency_cycles,
                                );
                                let state = cand.schedule.features(&ctx);
                                qlearner.observe(&state, action, reward, &revised.features(&ctx));
                            }
                            fresh.push(Candidate {
                                schedule: revised,
                                metrics,
                            });
                        }
                        // Invalid revisions (scratchpad overflow) get a
                        // strong negative reward.
                        Err(_) if opts.use_qlearning => {
                            let state = cand.schedule.features(&ctx);
                            qlearner.observe(&state, action, -1.0, &state);
                        }
                        Err(_) => {}
                    }
                }
                fresh
            });
            let feasible = fresh.len();
            let submitted = outcomes_len;
            for c in fresh {
                pool.insert(c);
            }
            pool.prune(opts.max_pool);
            history.push(pool.best_latency());
            if let Some(progress) = &self.progress {
                let keep_going = progress.on_batch(&BatchUpdate {
                    optimizer: "sw-explorer",
                    phase: "round",
                    batch: round + 1,
                    evaluated: submitted,
                    feasible,
                });
                if !keep_going {
                    break;
                }
            }
        }

        let best = pool.best().clone();
        Ok(OptimizedSoftware {
            schedule: best.schedule,
            metrics: best.metrics,
            history,
            evaluated,
        })
    }

    /// Optimizes and returns only the best metrics (the hardware DSE's
    /// objective evaluation: "the Bayesian-based hardware optimization uses
    /// the software latency as the performance metric").
    ///
    /// # Errors
    /// Propagates [`SwError`] from [`SoftwareExplorer::optimize`].
    pub fn best_metrics(
        &self,
        workload: &Workload,
        cfg: &AcceleratorConfig,
        opts: &ExplorerOptions,
    ) -> Result<Metrics, SwError> {
        Ok(self.optimize(workload, cfg, opts)?.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap()
    }

    fn quick_opts() -> ExplorerOptions {
        ExplorerOptions {
            pool: 10,
            rounds: 10,
            top_k: 3,
            ..ExplorerOptions::default()
        }
    }

    #[test]
    fn optimization_improves_over_pool_init() {
        let wl = suites::gemm_workload("g", 512, 512, 512);
        let r = SoftwareExplorer::new(7)
            .optimize(&wl, &cfg(), &quick_opts())
            .unwrap();
        assert!(!r.history.is_empty());
        let first = r.history[0];
        let last = *r.history.last().unwrap();
        assert!(last <= first);
        assert_eq!(r.metrics.latency_cycles, last);
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let r = SoftwareExplorer::new(3)
            .optimize(&wl, &cfg(), &quick_opts())
            .unwrap();
        assert!(r.history.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    }

    #[test]
    fn deterministic_per_seed() {
        let wl = suites::gemm_workload("g", 256, 256, 256);
        let a = SoftwareExplorer::new(11)
            .optimize(&wl, &cfg(), &quick_opts())
            .unwrap();
        let b = SoftwareExplorer::new(11)
            .optimize(&wl, &cfg(), &quick_opts())
            .unwrap();
        assert_eq!(a.metrics.latency_cycles, b.metrics.latency_cycles);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn parallel_workers_do_not_change_results() {
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        for use_qlearning in [true, false] {
            let mut opts = quick_opts();
            opts.use_qlearning = use_qlearning;
            let serial = SoftwareExplorer::new(13)
                .optimize(&wl, &cfg(), &opts)
                .unwrap();
            let parallel = SoftwareExplorer::new(13)
                .with_workers(runtime::WorkerPool::new(4))
                .optimize(&wl, &cfg(), &opts)
                .unwrap();
            assert_eq!(
                serial.history, parallel.history,
                "qlearning={use_qlearning}"
            );
            assert_eq!(
                serial.metrics.latency_cycles,
                parallel.metrics.latency_cycles
            );
            assert_eq!(serial.evaluated, parallel.evaluated);
            assert_eq!(
                serial.schedule.choice.var_map,
                parallel.schedule.choice.var_map
            );
        }
    }

    #[test]
    fn backend_changes_pricing_not_validity() {
        let wl = suites::gemm_workload("g", 256, 256, 256);
        let c = cfg();
        let mut latencies = Vec::new();
        for kind in accel_model::BackendKind::ALL {
            let r = SoftwareExplorer::new(21)
                .with_backend(kind.build())
                .optimize(&wl, &c, &quick_opts())
                .unwrap();
            assert!(r.metrics.latency_cycles > 0.0, "{kind}");
            latencies.push(r.metrics.latency_cycles);
        }
        // Same hardware, same order of magnitude across tiers.
        let (lo, hi) = latencies
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &l| {
                (lo.min(l), hi.max(l))
            });
        assert!(hi / lo < 4.0, "tiers disagree wildly: {latencies:?}");
    }

    #[test]
    fn backend_fingerprints_distinguish_tiers_and_key_identically() {
        let a = SoftwareExplorer::new(0);
        let b = SoftwareExplorer::new(0).with_backend(accel_model::BackendKind::TraceSim.build());
        assert_ne!(a.backend().fingerprint(), b.backend().fingerprint());
        let a2 = SoftwareExplorer::new(7);
        assert_eq!(a.backend().fingerprint(), a2.backend().fingerprint());
    }

    #[test]
    fn sim_backend_results_are_thread_count_independent() {
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let c = cfg();
        let serial = SoftwareExplorer::new(17)
            .with_backend(accel_model::BackendKind::TraceSim.build())
            .optimize(&wl, &c, &quick_opts())
            .unwrap();
        let parallel = SoftwareExplorer::new(17)
            .with_backend(accel_model::BackendKind::TraceSim.build())
            .with_workers(runtime::WorkerPool::new(4))
            .optimize(&wl, &c, &quick_opts())
            .unwrap();
        assert_eq!(serial.history, parallel.history);
        assert_eq!(
            serial.metrics.latency_cycles,
            parallel.metrics.latency_cycles
        );
    }

    #[test]
    fn surrogate_generations_move_the_explorer_fingerprint() {
        // The hardware DSE keys its memo cache by this fingerprint; a
        // surrogate retraining between batches must invalidate it, or
        // stale-generation prices would be served as fresh ones.
        let explorer =
            SoftwareExplorer::new(0).with_backend(accel_model::BackendKind::Surrogate.build());
        let before = explorer.backend().fingerprint();
        let surrogate = explorer.backend().as_surrogate().expect("surrogate tier");
        assert!(surrogate.observe(&cfg()) > 0);
        assert_ne!(before, explorer.backend().fingerprint());
    }

    #[test]
    fn trained_surrogate_explorations_stay_deterministic() {
        // Train one surrogate, then explore twice (serial and parallel):
        // a frozen generation must price identically everywhere.
        let wl = suites::gemm_workload("g", 256, 256, 256);
        let c = cfg();
        let backend = accel_model::BackendKind::Surrogate.build();
        for (rows, kb) in [(8u32, 128u64), (16, 256), (32, 512), (8, 512), (32, 128)] {
            let probe = AcceleratorConfig::builder(tensor_ir::intrinsics::IntrinsicKind::Gemm)
                .pe_array(rows, rows)
                .scratchpad_kb(kb)
                .build()
                .unwrap();
            backend.as_surrogate().unwrap().observe(&probe);
        }
        assert!(backend.as_surrogate().unwrap().is_trusted());
        let serial = SoftwareExplorer::new(19)
            .with_backend(backend.clone())
            .optimize(&wl, &c, &quick_opts())
            .unwrap();
        let parallel = SoftwareExplorer::new(19)
            .with_backend(backend)
            .with_workers(runtime::WorkerPool::new(4))
            .optimize(&wl, &c, &quick_opts())
            .unwrap();
        assert_eq!(serial.history, parallel.history);
        assert_eq!(
            serial.metrics.latency_cycles,
            parallel.metrics.latency_cycles
        );
    }

    #[test]
    fn explorer_options_fingerprints_distinguish_knobs() {
        use runtime::StableFingerprint;
        let base = quick_opts();
        let mut other = quick_opts();
        assert_eq!(base.fingerprint(), other.fingerprint());
        other.rounds += 1;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut ql = quick_opts();
        ql.use_qlearning = false;
        assert_ne!(base.fingerprint(), ql.fingerprint());
    }

    #[test]
    fn fixed_choice_is_respected() {
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let c = cfg();
        let ctx = ScheduleContext::new(&wl, &c.intrinsic_comp()).unwrap();
        let choice = ctx.choices[0].clone();
        let mut opts = quick_opts();
        opts.fixed_choice = Some(choice.clone());
        let r = SoftwareExplorer::new(5).optimize(&wl, &c, &opts).unwrap();
        assert_eq!(r.schedule.choice.var_map, choice.var_map);
    }

    #[test]
    fn qlearning_does_not_hurt_vs_random_revision() {
        // Ablation shape check: across seeds, Q-learning should be at least
        // as good as random revision on average.
        let wl = suites::gemm_workload("g", 512, 512, 512);
        let c = cfg();
        let mut q_total = 0.0;
        let mut r_total = 0.0;
        for seed in 0..4 {
            let mut opts = quick_opts();
            opts.rounds = 12;
            let q = SoftwareExplorer::new(seed)
                .optimize(&wl, &c, &opts)
                .unwrap();
            opts.use_qlearning = false;
            let r = SoftwareExplorer::new(seed)
                .optimize(&wl, &c, &opts)
                .unwrap();
            q_total += q.metrics.latency_cycles;
            r_total += r.metrics.latency_cycles;
        }
        assert!(
            q_total <= r_total * 1.15,
            "q = {q_total}, random = {r_total}"
        );
    }

    #[test]
    fn impossible_accelerator_errors() {
        let wl = suites::gemm_workload("g", 256, 256, 256);
        let mut c = cfg();
        c.scratchpad_bytes = 64;
        assert!(SoftwareExplorer::new(0)
            .optimize(&wl, &c, &quick_opts())
            .is_err());
    }

    fn cfg_at(kind: IntrinsicKind, rows: u32, cols: u32) -> AcceleratorConfig {
        AcceleratorConfig::builder(kind)
            .pe_array(rows, cols)
            .build()
            .unwrap()
    }

    #[test]
    fn tensorize_choices_ignore_pe_geometry() {
        // The choice memo is keyed by (loop nest, intrinsic kind), not by
        // PE geometry. That holds only while matching reads the
        // intrinsic's structure and never its extents: if extents ever
        // start to matter, this fails before the memo serves stale
        // choices.
        let opts = MatchOptions::default();
        let workloads = [
            suites::resnet50_convs(),
            suites::mobilenet_convs(),
            suites::xception_convs(),
            suites::gemm_workloads(),
        ]
        .concat();
        for kind in IntrinsicKind::ALL {
            let small = cfg_at(kind, 8, 8).intrinsic_comp();
            let large = cfg_at(kind, 64, 32).intrinsic_comp();
            // The geometry the engine's partitioning events match at.
            let partition = tensor_ir::intrinsics::intrinsic_for(kind, 64);
            assert_ne!(small, large, "{kind}: the geometries must differ");
            for w in &workloads {
                let want = find_tensorize_choices(&w.comp, &small.comp, &opts);
                for other in [&large, &partition] {
                    assert_eq!(
                        want,
                        find_tensorize_choices(&w.comp, &other.comp, &opts),
                        "{kind} on {}",
                        w.name
                    );
                }
            }
        }
        // The bound the `ChoiceMemo` docs state for these suites.
        let memo = ChoiceMemo::default();
        for w in &workloads {
            for kind in IntrinsicKind::ALL {
                memo.choices(w, &cfg_at(kind, 8, 8).intrinsic_comp());
            }
        }
        assert_eq!(memo.len(), 65 * IntrinsicKind::ALL.len());
    }

    #[test]
    fn context_matches_a_fresh_schedule_context() {
        let explorer = SoftwareExplorer::new(0);
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        for (rows, cols) in [(16, 16), (8, 32), (16, 16)] {
            let c = cfg_at(IntrinsicKind::Gemm, rows, cols);
            let memoized = explorer.context(&wl, &c).unwrap();
            let fresh = ScheduleContext::new(&wl, &c.intrinsic_comp()).unwrap();
            assert_eq!(memoized.choices, fresh.choices);
            assert_eq!(memoized.intrinsic, fresh.intrinsic);
            assert_eq!(memoized.workload, fresh.workload);
        }
        // Unmatchable pairs keep failing, with this workload's name.
        let gemm = suites::gemm_workload("g", 64, 64, 64);
        let conv_core = cfg_at(IntrinsicKind::Conv2d, 8, 8);
        for _ in 0..2 {
            assert!(matches!(
                explorer.context(&gemm, &conv_core),
                Err(SwError::NoTensorizeChoice { ref workload, .. }) if workload == "g"
            ));
        }
    }

    #[test]
    fn shared_explorer_is_order_independent() {
        // One explorer reused across configs and workloads, in a shuffled
        // order, must answer every pair exactly as a fresh explorer does:
        // neither the choice memo nor the shared untrained Q-learner may
        // carry state from one exploration into the next.
        let workloads = [
            suites::gemm_workload("g", 256, 256, 256),
            suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3),
        ];
        let configs = [
            cfg_at(IntrinsicKind::Gemm, 16, 16),
            cfg_at(IntrinsicKind::Gemm, 8, 32),
            cfg_at(IntrinsicKind::Gemv, 16, 16),
            cfg_at(IntrinsicKind::Conv2d, 8, 8),
        ];
        let mut pairs: Vec<(usize, usize)> = (0..workloads.len())
            .flat_map(|w| (0..configs.len()).map(move |c| (w, c)))
            .collect();
        let mut rng = SmallRng::seed_from_u64(29);
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        // Visit every pair twice, so the second visits are memo hits.
        pairs.extend(pairs.clone().into_iter().rev());
        let shared = SoftwareExplorer::new(23);
        for (w, c) in pairs {
            let (wl, c) = (&workloads[w], &configs[c]);
            let got = shared.optimize(wl, c, &quick_opts());
            let want = SoftwareExplorer::new(23).optimize(wl, c, &quick_opts());
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(
                        got.schedule, want.schedule,
                        "{} on {}",
                        wl.name, c.intrinsic
                    );
                    assert_eq!(got.metrics, want.metrics);
                    assert_eq!(got.history, want.history);
                    assert_eq!(got.evaluated, want.evaluated);
                }
                (got, want) => assert_eq!(got.err(), want.err()),
            }
        }
    }

    #[test]
    fn a_new_explorer_holds_no_learner() {
        let explorer = SoftwareExplorer::new(5);
        assert!(explorer.learner.get().is_none());
        let wl = suites::gemm_workload("g", 64, 64, 64);
        explorer.context(&wl, &cfg()).unwrap();
        assert!(
            explorer.learner.get().is_none(),
            "matching builds no learner"
        );
        explorer.optimize(&wl, &cfg(), &quick_opts()).unwrap();
        assert!(explorer.learner.get().is_some(), "exploring builds it");
    }

    #[test]
    fn a_forced_learner_changes_no_exploration() {
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let fresh = SoftwareExplorer::new(17);
        let forced = SoftwareExplorer::new(17);
        forced.learner();
        assert_eq!(
            fresh.optimize(&wl, &cfg(), &quick_opts()).unwrap(),
            forced.optimize(&wl, &cfg(), &quick_opts()).unwrap()
        );
    }

    #[test]
    fn the_forced_learner_is_the_seeded_untrained_one() {
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let ctx = ScheduleContext::new(&wl, &cfg().intrinsic_comp()).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for seed in [0, 17, u64::MAX] {
            let mut forced = SoftwareExplorer::new(seed).learner().clone();
            let mut want = QLearner::new(seed ^ 0x9e3779b97f4a7c15);
            for _ in 0..4 {
                let sched = ctx.random_schedule(&mut rng);
                let bits = |q: &[f64]| q.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(forced.q_values(&sched, &ctx)),
                    bits(want.q_values(&sched, &ctx)),
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn count_sums_the_choices_of_every_kind() {
        let workloads = [
            suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3),
            suites::gemm_workload("g", 64, 64, 64),
            suites::mttkrp_workload("m", 64, 64, 64, 64),
        ];
        let want = |w: &Workload| -> usize {
            IntrinsicKind::ALL
                .iter()
                .map(|&kind| {
                    ChoiceMemo::default()
                        .choices(w, &intrinsic_for(kind, 64))
                        .len()
                })
                .sum()
        };
        // Cold, then warm from its own walk, then warm from `choices` at
        // another geometry.
        let memo = ChoiceMemo::default();
        for w in &workloads {
            assert_eq!(memo.count(w), want(w), "cold {}", w.name);
            assert_eq!(memo.count(w), want(w), "warm {}", w.name);
        }
        assert_eq!(memo.len(), workloads.len() * IntrinsicKind::ALL.len());
        let warmed = ChoiceMemo::default();
        for w in &workloads {
            for kind in IntrinsicKind::ALL {
                warmed.choices(w, &cfg_at(kind, 8, 8).intrinsic_comp());
            }
            assert_eq!(warmed.count(w), want(w), "warmed {}", w.name);
        }
        assert_eq!(warmed.len(), memo.len());
    }

    #[test]
    fn best_metrics_matches_optimize() {
        let wl = suites::gemm_workload("g", 128, 128, 128);
        let e = SoftwareExplorer::new(2);
        let m = e.best_metrics(&wl, &cfg(), &quick_opts()).unwrap();
        let o = e.optimize(&wl, &cfg(), &quick_opts()).unwrap();
        assert_eq!(m.latency_cycles, o.metrics.latency_cycles);
    }
}
