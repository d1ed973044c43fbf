//! The heuristic candidate-pool step (§VI-B, Fig. 5(d)).
//!
//! "To identify valuable candidates, we measure and maintain the latency of
//! each candidate optimization p as l_p, and the lowest latency in history
//! is l*. Then, the value of p is measured by exp(−(l_p − l*)/l*). The
//! higher the value is, the better the candidate is. We choose the top-k
//! candidates as valuable candidates."

use accel_model::arch::AcceleratorConfig;
use accel_model::{CostBackend, Metrics};
use rand::Rng;
use runtime::WorkerPool;

use crate::lowering;
use crate::schedule::{Schedule, ScheduleContext};
use crate::SwError;

/// A candidate optimization with its measured metrics.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The schedule.
    pub schedule: Schedule,
    /// Its evaluated metrics.
    pub metrics: Metrics,
}

/// The candidate pool with the paper's value function.
#[derive(Debug, Clone)]
pub struct CandidatePool {
    candidates: Vec<Candidate>,
    best_latency: f64,
}

impl CandidatePool {
    /// Initializes the pool with `size` random valid schedules ("we
    /// initialize plenty of candidate optimizations ... by randomly
    /// generating primitive sequences and factors").
    ///
    /// # Errors
    /// Returns [`SwError::NoValidSchedule`] when no valid schedule is found
    /// within the sampling budget.
    pub fn initialize<R: Rng + ?Sized>(
        ctx: &ScheduleContext,
        cfg: &AcceleratorConfig,
        backend: &dyn CostBackend,
        size: usize,
        rng: &mut R,
    ) -> Result<Self, SwError> {
        Self::initialize_batched(ctx, cfg, backend, size, rng, &WorkerPool::serial())
    }

    /// [`CandidatePool::initialize`] with the schedule *evaluations* fanned
    /// out to a worker pool. Schedules are generated serially in chunks
    /// whose size depends only on `size` and the attempt budget — never on
    /// the worker count — so the candidate pool is identical at any
    /// parallelism.
    ///
    /// # Errors
    /// Returns [`SwError::NoValidSchedule`] when no valid schedule is found
    /// within the sampling budget.
    pub fn initialize_batched<R: Rng + ?Sized>(
        ctx: &ScheduleContext,
        cfg: &AcceleratorConfig,
        backend: &dyn CostBackend,
        size: usize,
        rng: &mut R,
        workers: &WorkerPool,
    ) -> Result<Self, SwError> {
        let mut pool = CandidatePool {
            candidates: Vec::new(),
            best_latency: f64::INFINITY,
        };
        let mut attempts = 0;
        let budget = size.max(1) * 60;
        while pool.candidates.len() < size && attempts < budget {
            let chunk = (size - pool.candidates.len()).max(1).min(budget - attempts);
            let schedules: Vec<Schedule> = (0..chunk).map(|_| ctx.random_schedule(rng)).collect();
            attempts += schedules.len();
            let outcomes = workers.map(&schedules, |_, s| {
                lowering::evaluate(s, ctx, cfg, backend).ok()
            });
            for (sched, metrics) in schedules.into_iter().zip(outcomes) {
                if let Some(metrics) = metrics {
                    if pool.candidates.len() < size {
                        pool.insert(Candidate {
                            schedule: sched,
                            metrics,
                        });
                    }
                }
            }
        }
        if pool.candidates.is_empty() {
            return Err(SwError::NoValidSchedule);
        }
        Ok(pool)
    }

    /// The paper's candidate value: `exp(−(l_p − l*)/l*)`, 1.0 for the
    /// incumbent best and decaying toward 0 for slower candidates.
    pub fn value(&self, c: &Candidate) -> f64 {
        let l = c.metrics.latency_cycles;
        (-(l - self.best_latency) / self.best_latency)
            .exp()
            .min(1.0)
    }

    /// Inserts a candidate and updates `l*`.
    pub fn insert(&mut self, c: Candidate) {
        self.best_latency = self.best_latency.min(c.metrics.latency_cycles);
        self.candidates.push(c);
    }

    /// Indices of the top-k candidates by value (descending; ties keep
    /// insertion order). Each value is computed once, not per comparison.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let values: Vec<f64> = self.candidates.iter().map(|c| self.value(c)).collect();
        let mut idx: Vec<usize> = (0..self.candidates.len()).collect();
        idx.sort_by(|&a, &b| {
            values[b]
                .partial_cmp(&values[a])
                .expect("values are finite")
        });
        idx.truncate(k);
        idx
    }

    /// Drops the lowest-value candidates beyond `max`.
    pub fn prune(&mut self, max: usize) {
        if self.candidates.len() <= max {
            return;
        }
        let keep = self.top_k(max);
        let mut kept: Vec<Candidate> = keep
            .into_iter()
            .map(|i| self.candidates[i].clone())
            .collect();
        std::mem::swap(&mut self.candidates, &mut kept);
    }

    /// The candidate with the lowest latency.
    ///
    /// # Panics
    /// Panics on an empty pool (pools are non-empty by construction).
    pub fn best(&self) -> &Candidate {
        self.candidates
            .iter()
            .min_by(|a, b| {
                a.metrics
                    .latency_cycles
                    .partial_cmp(&b.metrics.latency_cycles)
                    .expect("latencies are finite")
            })
            .expect("pool is non-empty")
    }

    /// The lowest latency seen so far (`l*`).
    pub fn best_latency(&self) -> f64 {
        self.best_latency
    }

    /// All candidates.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;

    fn setup() -> (
        ScheduleContext,
        AcceleratorConfig,
        accel_model::AnalyticBackend,
    ) {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let wl = suites::gemm_workload("g", 256, 256, 256);
        let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
        (ctx, cfg, accel_model::AnalyticBackend::default())
    }

    #[test]
    fn initializes_requested_size() {
        let (ctx, cfg, model) = setup();
        let mut rng = SmallRng::seed_from_u64(0);
        let pool = CandidatePool::initialize(&ctx, &cfg, &model, 12, &mut rng).unwrap();
        assert_eq!(pool.len(), 12);
        assert!(!pool.is_empty());
    }

    #[test]
    fn best_candidate_has_value_one() {
        let (ctx, cfg, model) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        let pool = CandidatePool::initialize(&ctx, &cfg, &model, 10, &mut rng).unwrap();
        let best = pool.best();
        assert!((pool.value(best) - 1.0).abs() < 1e-12);
        assert_eq!(best.metrics.latency_cycles, pool.best_latency());
    }

    #[test]
    fn values_are_in_unit_interval_and_ordered() {
        let (ctx, cfg, model) = setup();
        let mut rng = SmallRng::seed_from_u64(2);
        let pool = CandidatePool::initialize(&ctx, &cfg, &model, 10, &mut rng).unwrap();
        for c in pool.candidates() {
            let v = pool.value(c);
            assert!((0.0..=1.0).contains(&v));
        }
        let top = pool.top_k(3);
        assert_eq!(top.len(), 3);
        let v0 = pool.value(&pool.candidates()[top[0]]);
        let v2 = pool.value(&pool.candidates()[top[2]]);
        assert!(v0 >= v2);
    }

    #[test]
    fn prune_keeps_best() {
        let (ctx, cfg, model) = setup();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut pool = CandidatePool::initialize(&ctx, &cfg, &model, 15, &mut rng).unwrap();
        let best_before = pool.best().metrics.latency_cycles;
        pool.prune(5);
        assert_eq!(pool.len(), 5);
        assert_eq!(pool.best().metrics.latency_cycles, best_before);
    }

    #[test]
    fn parallel_initialization_matches_serial() {
        let (ctx, cfg, model) = setup();
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        let serial = CandidatePool::initialize_batched(
            &ctx,
            &cfg,
            &model,
            14,
            &mut rng_a,
            &WorkerPool::serial(),
        )
        .unwrap();
        let parallel = CandidatePool::initialize_batched(
            &ctx,
            &cfg,
            &model,
            14,
            &mut rng_b,
            &WorkerPool::new(4),
        )
        .unwrap();
        assert_eq!(serial.len(), parallel.len());
        assert_eq!(serial.best_latency(), parallel.best_latency());
        for (a, b) in serial.candidates().iter().zip(parallel.candidates()) {
            assert_eq!(a.metrics.latency_cycles, b.metrics.latency_cycles);
        }
    }

    #[test]
    fn fails_when_nothing_fits() {
        let (ctx, mut cfg, model) = setup();
        cfg.scratchpad_bytes = 64; // nothing fits
        let mut rng = SmallRng::seed_from_u64(4);
        let r = CandidatePool::initialize(&ctx, &cfg, &model, 5, &mut rng);
        assert_eq!(r.unwrap_err(), SwError::NoValidSchedule);
    }
}
