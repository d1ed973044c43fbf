//! Software-in-the-loop pricing (§V): the hardware design space as a
//! [`Problem`] whose design points are priced by running the software
//! explorer on every workload.
//!
//! A problem prices through one or two [`Tier`]s. The screen tier prices
//! every fresh point; the optional refine tier re-prices the best-screened
//! survivors of each batch at high fidelity. Both price alike
//! ([`Tier::price`]): memo probes, in-batch deduplication, fan-out to the
//! worker pool, and submission-order reassembly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use accel_model::arch::AcceleratorConfig;
use accel_model::{AnalyticBackend, CostBackend, Metrics};
use dse::problem::{Point, Problem, SearchSpace};
use dse::staged::AdaptiveTopK;
use hw_gen::space::Generator;
use runtime::{Fingerprint, Key128, MemoCache, StableFingerprint, Telemetry, Timer, WorkerPool};
use sw_opt::explorer::{ExplorerOptions, SoftwareExplorer};
use tensor_ir::workload::Workload;

use crate::event::{EventSink, RunEvent};
use crate::stores::Stores;

/// Memoized per-(accelerator, workload) explorer outcomes; `None` records
/// a software-exploration failure (also worth caching). An engine shares
/// one across all its jobs.
pub(crate) type PairMemo = MemoCache<(u64, u64), Option<Metrics>>;

/// What every priced (accelerator, workload) pair shares besides the
/// accelerator and the tier's backend.
struct PairInputs<'a> {
    workloads: &'a [Workload],
    sw_opts: ExplorerOptions,
    seed: u64,
}

impl PairInputs<'_> {
    /// Per-workload memo-key bases under one backend fingerprint:
    /// (workload, options, seed, backend) hashed once, then cloned per
    /// pair instead of re-walking the workload on every lookup. Different
    /// backends legitimately price the same pair differently, so the
    /// backend is part of the key. The keys are 128-bit, so a 64-bit
    /// collision degrades to a cache miss instead of returning another
    /// design's metrics.
    fn bases(&self, backend: Fingerprint) -> Vec<Key128> {
        self.workloads
            .iter()
            .map(|w| {
                Key128::of(|fp| {
                    w.fingerprint_into(fp);
                    self.sw_opts.fingerprint_into(fp);
                    fp.write_u64(self.seed);
                    fp.write_u64(backend.0);
                })
            })
            .collect()
    }
}

/// One pricing tier: an explorer over one cost backend, the memo-key
/// bases derived from that backend, and the timer of its fresh
/// evaluations.
struct Tier {
    explorer: SoftwareExplorer,
    bases: Vec<Key128>,
    /// The backend fingerprint `bases` was computed from.
    fp: Fingerprint,
    /// `sw_explore/<backend>`: times the tier's fresh evaluations.
    timer: Timer,
}

impl Tier {
    fn new(explorer: SoftwareExplorer, pairs: &PairInputs) -> Tier {
        let fp = explorer.backend().fingerprint();
        Tier {
            bases: pairs.bases(fp),
            fp,
            explorer,
            timer: Timer::default(),
        }
    }

    /// Rebuilds the memo-key bases if the backend's fingerprint moved (a
    /// surrogate advancing its training generation), so stale-generation
    /// memo entries become unreachable instead of being served.
    fn refresh(&mut self, pairs: &PairInputs) {
        let fp = self.explorer.backend().fingerprint();
        if fp != self.fp {
            self.bases = pairs.bases(fp);
            self.fp = fp;
        }
    }

    fn with_telemetry(self, telemetry: &Telemetry) -> Tier {
        Tier {
            timer: telemetry.timer(format_args!(
                "sw_explore/{}",
                self.explorer.backend().name()
            )),
            explorer: self.explorer.with_telemetry(telemetry.clone(), "sw_opt"),
            ..self
        }
    }

    /// Stable 128-bit memo key of one (accelerator, workload) pair: the
    /// workload's base extended by the accelerator config.
    fn key(&self, cfg: &AcceleratorConfig, workload: usize) -> (u64, u64) {
        let mut key = self.bases[workload].clone();
        key.feed(|fp| cfg.fingerprint_into(fp));
        key.finish()
    }

    /// Prices every config over all workloads: the sequential sum of its
    /// per-workload metrics, `None` if any workload failed. Memoized
    /// pairs are answered without occupying a worker, duplicates within
    /// the batch are dispatched once, and the rest fan out to the worker
    /// pool; each fresh outcome is memoized. Each pair is a pure function
    /// of (seed, backend, config, workload, options), so completion order
    /// is irrelevant — the pool reassembles in submission order, keeping
    /// results identical at any thread count — and so is whichever job
    /// memoized an entry first.
    fn price(
        &self,
        pairs: &PairInputs,
        memo: &PairMemo,
        workers: &WorkerPool,
        configs: &[&AcceleratorConfig],
    ) -> Vec<Option<Metrics>> {
        let mut results: Vec<Vec<Option<Option<Metrics>>>> = configs
            .iter()
            .map(|_| vec![None; pairs.workloads.len()])
            .collect();
        let mut jobs: Vec<(usize, usize, (u64, u64))> = Vec::new();
        let mut duplicates: Vec<(usize, usize, (u64, u64))> = Vec::new();
        let mut pending: BTreeSet<(u64, u64)> = BTreeSet::new();
        for ((ci, cfg), per_workload) in configs.iter().enumerate().zip(results.iter_mut()) {
            for (wi, slot) in per_workload.iter_mut().enumerate() {
                let key = self.key(cfg, wi);
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

        // An all-hit batch builds no learner; otherwise this thread builds
        // it before the pool's workers clone it (see
        // `SoftwareExplorer::learner`).
        if !jobs.is_empty() {
            self.explorer.learner();
        }
        // Only real (non-memoized) software explorations are timed, so
        // `sw_explore/<backend>` measures the backend, not the cache.
        let outcomes = workers.map(&jobs, |_, &(ci, wi, _)| {
            self.timer.time(|| {
                self.explorer
                    .best_metrics(&pairs.workloads[wi], configs[ci], &pairs.sw_opts)
                    .ok()
            })
        });

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
            results[ci][wi] = Some(memo.get(&key).unwrap_or_else(|| fresh_outcomes[&key]));
        }
        results
            .into_iter()
            .map(|per| {
                per.into_iter()
                    .map(|slot| slot.expect("every pair was resolved"))
                    .collect::<Option<Vec<Metrics>>>()
                    .map(|parts| Metrics::sequential(&parts))
            })
            .collect()
    }
}

/// The staging policy of the refine tier.
struct RefineTier {
    /// Survivors per screened batch re-evaluated at high fidelity (the
    /// fixed policy; ignored while `controller` is installed).
    top_k: usize,
    /// The adaptive refine-budget controller, when adaptive staging is
    /// on. Updated serially between batches, so its trajectory is a pure
    /// function of batch content.
    controller: Option<AdaptiveTopK>,
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
    space: SearchSpace,
    pairs: PairInputs<'a>,
    workers: WorkerPool,
    /// Both tiers price through its pair memo (their keys differ through
    /// the backend fingerprint) and match through its choice memo.
    stores: Arc<Stores>,
    /// Exact per-point replay cache (a point hit skips config generation
    /// and the memo lookups entirely).
    cache: BTreeMap<Point, Option<Vec<f64>>>,
    /// Prices every fresh point.
    screen: Tier,
    /// The optional high-fidelity stage.
    refine: Option<(Tier, RefineTier)>,
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
    /// [`RunStats`](crate::report::RunStats), or the event stream.
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
        HwProblem::on_stores(
            generator,
            workloads,
            sw_opts,
            seed,
            Arc::new(Stores::new(4096)),
            Arc::new(AnalyticBackend::default()),
        )
    }

    /// Like [`HwProblem::new`], but pricing and matching through `stores`
    /// and screening through `screen`: an engine hands every job its
    /// shared stores, read and written live. Entries are pure values, so
    /// which job computed one, and when it became visible, changes wall
    /// time only.
    pub(crate) fn on_stores(
        generator: &'a dyn Generator,
        workloads: &'a [Workload],
        sw_opts: ExplorerOptions,
        seed: u64,
        stores: Arc<Stores>,
        screen: Arc<dyn CostBackend>,
    ) -> Self {
        let dim_sizes = generator.space().dims.iter().map(|d| d.len()).collect();
        let pairs = PairInputs {
            workloads,
            sw_opts,
            seed,
        };
        let explorer = SoftwareExplorer::new(seed)
            .with_backend(screen)
            .with_choice_memo(Arc::clone(&stores.choices));
        HwProblem {
            generator,
            space: SearchSpace::new(dim_sizes),
            screen: Tier::new(explorer, &pairs),
            pairs,
            workers: WorkerPool::serial(),
            stores,
            cache: BTreeMap::new(),
            refine: None,
            sw_requests: 0,
            refine_requests: 0,
            staged_batches: 0,
            events: EventSink::disabled(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Runs batch evaluations on the given worker pool.
    pub fn with_workers(mut self, workers: WorkerPool) -> Self {
        self.workers = workers;
        self
    }

    /// Bounds the memoizing evaluation cache (call before
    /// [`HwProblem::load_cache`] — resizing resets the cache).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        let stores = Arc::new(Stores::new(capacity));
        let share = |tier: Tier| Tier {
            explorer: tier.explorer.with_choice_memo(Arc::clone(&stores.choices)),
            ..tier
        };
        self.screen = share(self.screen);
        self.refine = self.refine.map(|(tier, policy)| (share(tier), policy));
        self.stores = stores;
        self
    }

    /// An explorer for this problem's seed, pricing through `backend` and
    /// matching through the problem's choice memo.
    fn explorer(&self, backend: Arc<dyn CostBackend>) -> SoftwareExplorer {
        SoftwareExplorer::new(self.pairs.seed)
            .with_backend(backend)
            .with_choice_memo(Arc::clone(&self.stores.choices))
    }

    /// Screens every candidate evaluation through the given cost backend.
    /// The screen explorer is kept; only its backend and the memo-key
    /// bases change.
    pub fn with_backend(mut self, backend: Arc<dyn CostBackend>) -> Self {
        self.screen = Tier::new(self.screen.explorer.with_backend(backend), &self.pairs);
        self
    }

    /// Enables fidelity staging: the `top_k` best-screened points of every
    /// batch are re-evaluated through `backend` before their objectives
    /// are reported. `top_k == 0` disables staging.
    pub fn with_refinement(mut self, backend: Arc<dyn CostBackend>, top_k: usize) -> Self {
        self.refine = (top_k > 0).then(|| {
            let tier = Tier::new(self.explorer(backend), &self.pairs);
            let policy = RefineTier {
                top_k,
                controller: None,
            };
            (tier, policy)
        });
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
        if let Some((_, policy)) = &mut self.refine {
            policy.controller = Some(AdaptiveTopK::new(initial_top_k));
        }
        self
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
    /// [`SoftwareExplorer::with_telemetry`]), staging spans, and the
    /// end-of-run staging gauges flow into it. A surrogate screen backend additionally
    /// reports its GP fit/predict timings. Call after
    /// [`HwProblem::with_backend`] / [`HwProblem::with_refinement`] so the
    /// installed explorers and backends are the ones that run.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        if let Some(surrogate) = self.screen.explorer.backend().as_surrogate() {
            surrogate.install_telemetry(telemetry.clone());
        }
        self.screen = self.screen.with_telemetry(&telemetry);
        self.refine = self
            .refine
            .map(|(tier, policy)| (tier.with_telemetry(&telemetry), policy));
        self.telemetry = telemetry;
        self
    }

    /// Records the end-of-job telemetry: the adaptive staging
    /// controller's final budget and rank disagreement. (The memo's
    /// traffic is the engine's `store` cache scope.)
    pub(crate) fn record_telemetry(&self) {
        let Some(controller) = self.controller() else {
            return;
        };
        if let Some(budget) = controller.trajectory().last() {
            self.telemetry
                .gauge_set("staging.topk_budget", *budget as u64);
        }
        if let Some(disagreement) = controller.evidence_disagreement() {
            self.telemetry.gauge_set(
                "staging.rank_disagreement_milli",
                (disagreement * 1000.0) as u64,
            );
        }
    }

    /// Counters of the memoizing evaluation cache (every job's traffic
    /// when the cache is an engine's shared store).
    pub fn cache_stats(&self) -> runtime::CacheStats {
        self.stores.pairs.stats()
    }

    /// Loads an engine image of persisted stores (warm start), all or
    /// nothing. Returns the number of pair entries loaded; a missing or
    /// corrupted file is a clean cold start (0).
    pub fn load_cache(&self, path: &std::path::Path) -> u64 {
        self.stores.load(path)
    }

    /// Persists the stores for future runs as an engine image, merging
    /// newest-wins into whatever the file already holds (so cache files
    /// shared across runs and bench binaries accumulate instead of
    /// thrash) and writing atomically (a crash mid-save never truncates
    /// the previous image). Returns the pair entries written.
    ///
    /// # Errors
    /// Propagates I/O errors from writing the file.
    pub fn save_cache(&self, path: &std::path::Path) -> std::io::Result<u64> {
        self.stores.save(path, None)
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

    fn controller(&self) -> Option<&AdaptiveTopK> {
        self.refine.as_ref()?.1.controller.as_ref()
    }

    /// The refine budget each staged batch used (empty when staging is
    /// off or the budget is fixed).
    pub fn topk_trajectory(&self) -> Vec<usize> {
        self.controller()
            .map(|c| c.trajectory().to_vec())
            .unwrap_or_default()
    }

    /// Surrogate screen-tier state as `(training samples, trusted)`;
    /// `None` when the screen backend is not a surrogate.
    pub fn surrogate_stats(&self) -> Option<(usize, bool)> {
        self.screen
            .explorer
            .backend()
            .as_surrogate()
            .map(|s| (s.training_len(), s.is_trusted()))
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
        let workloads = self.pairs.workloads.len();
        self.sw_requests += fresh.len() * workloads;
        let configs: Vec<&AcceleratorConfig> = fresh.iter().map(|(_, cfg)| cfg).collect();
        let screen_span = self.telemetry.span("job/hw_dse/screen");
        let mut fresh_metrics =
            self.screen
                .price(&self.pairs, &self.stores.pairs, &self.workers, &configs);
        drop(screen_span);

        // Stage 3 (refine): re-price only the top-k screened survivors at
        // high fidelity before anything enters the Pareto front / GP
        // training set. Selection ranks by screened latency with
        // submission-index tie-breaks, and the adaptive controller (when
        // installed) resizes the budget from the survivors' screen-vs-
        // refine rank disagreement — both pure functions of the batch, so
        // thread count still never changes results.
        let mut refined_survivors: Vec<usize> = Vec::new();
        if let Some((tier, policy)) = &mut self.refine {
            let top_k = match &mut policy.controller {
                Some(c) if !fresh.is_empty() => c.begin_batch(),
                Some(c) => c.current(),
                None => policy.top_k,
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
                self.refine_requests += survivors.len() * workloads;
                let latency = |metrics: &[Option<Metrics>]| -> Vec<f64> {
                    survivors
                        .iter()
                        .map(|&fi| metrics[fi].as_ref().expect("survivors are feasible"))
                        .map(|m| m.latency_cycles)
                        .collect()
                };
                let screened_latency = latency(&fresh_metrics);
                let sub: Vec<&AcceleratorConfig> =
                    survivors.iter().map(|&fi| &fresh[fi].1).collect();
                let refine_span = self.telemetry.span("job/hw_dse/refine");
                let refined = tier.price(&self.pairs, &self.stores.pairs, &self.workers, &sub);
                drop(refine_span);
                for (&fi, metrics) in survivors.iter().zip(refined) {
                    // A refine-tier failure (impossible mappings are
                    // backend-independent, so this is purely defensive)
                    // keeps the screened estimate.
                    if metrics.is_some() {
                        fresh_metrics[fi] = metrics;
                    }
                }
                if let Some(c) = &mut policy.controller {
                    c.observe(&screened_latency, &latency(&fresh_metrics));
                }
                refined_survivors = survivors;
            }
        }

        // Stage 3b (learn): a surrogate screen tier trains on every
        // configuration the refine tier just priced, then the memo-key
        // bases move to the new training generation. Serial and in batch
        // order, so the learning trajectory is thread-count-independent.
        if !refined_survivors.is_empty() {
            if let Some(surrogate) = self.screen.explorer.backend().as_surrogate() {
                for &fi in &refined_survivors {
                    surrogate.observe(&fresh[fi].1);
                }
            }
            self.screen.refresh(&self.pairs);
        }

        // Stage 4 (serial): record final metrics per point, in submission
        // order.
        for ((i, _), metrics) in fresh.iter().zip(fresh_metrics) {
            let response = metrics.map(|m| vec![m.latency_cycles, m.power_mw, m.area_mm2]);
            self.cache.insert(points[*i].clone(), response);
        }

        points
            .iter()
            .map(|p| self.cache.get(p).expect("every point was resolved"))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_gen::GemminiGenerator;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;

    #[test]
    fn pair_key_is_pinned() {
        // Memo keys are persisted in `--cache` images: a moved key turns
        // every warm entry into a miss.
        let workloads = [
            suites::gemm_workload("g1", 128, 128, 128),
            suites::gemm_workload("g2", 256, 128, 64),
        ];
        let generator = GemminiGenerator::new();
        let p = HwProblem::new(
            &generator,
            &workloads,
            crate::CoDesignOptions::quick(0).sw_inner,
            3,
        );
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(8, 8)
            .build()
            .unwrap();
        assert_eq!(
            p.screen.key(&cfg, 1),
            (0x50c56bb2cf29fba5, 0x2adeedcba7ed403c)
        );
    }
}
