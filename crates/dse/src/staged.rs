//! Fidelity-staging policy: screen everything cheaply, refine only the
//! survivors.
//!
//! The co-design loop's high-fidelity evaluations (trace simulation) cost
//! orders of magnitude more than the analytic screen, yet only the
//! candidates that might enter the Pareto front or the GP training set
//! deserve them. The co-design `HwProblem` (crate `hasco`) applies that
//! policy with the pieces here: a deterministic ranking ([`rank_top_k`])
//! picks the `top_k` most promising screened responses for re-evaluation,
//! and [`AdaptiveTopK`] resizes `top_k` per batch from the observed
//! screen-vs-refine rank disagreement ([`rank_disagreement`]).
//!
//! Determinism: survivor selection depends only on the batch's screened
//! responses (ties broken by submission index), never on thread count or
//! completion order, so staging composes with the parallel runtime
//! without weakening the "thread count never changes results" invariant.

/// Indices of the `k` best-scoring items, deterministic under ties.
///
/// `score` returns `None` for items that cannot be ranked (infeasible
/// candidates); those never survive. Lower scores are better (the
/// minimization convention of every objective in this crate). Ties are
/// broken by submission index, so the selection is a pure function of the
/// batch content. The returned indices are in ascending index order.
pub fn rank_top_k<T>(items: &[T], k: usize, score: impl Fn(&T) -> Option<f64>) -> Vec<usize> {
    let mut ranked: Vec<(f64, usize)> = items
        .iter()
        .enumerate()
        .filter_map(|(i, t)| score(t).map(|s| (s, i)))
        .filter(|(s, _)| !s.is_nan())
        .collect();
    ranked.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("NaN scores were filtered")
            .then(a.1.cmp(&b.1))
    });
    ranked.truncate(k);
    let mut idx: Vec<usize> = ranked.into_iter().map(|(_, i)| i).collect();
    idx.sort_unstable();
    idx
}

/// Pairwise rank disagreement between two score vectors over the same
/// items — a Kendall-tau-style statistic in `[0, 1]`.
///
/// A pair `(i, j)` is *discordant* when the two scores order it in
/// opposite directions; ties in either score count as concordant (the
/// cheap tier not separating two near-equal candidates is not a ranking
/// error). The result is the discordant fraction of all pairs: `0.0` =
/// identical rankings, `1.0` = fully reversed, and fewer than two items
/// yield `0.0`. Deterministic — a pure function of the two slices — so
/// staging policies built on it preserve the thread-count invariant.
pub fn rank_disagreement(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "score vectors must align");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let mut discordant = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += 1;
            if (a[i] - a[j]) * (b[i] - b[j]) < 0.0 {
                discordant += 1;
            }
        }
    }
    discordant as f64 / total as f64
}

/// Adaptive fidelity-staging controller: grows or shrinks the per-batch
/// refine budget (`top_k`) from the observed screen-vs-refine rank
/// disagreement.
///
/// After each refined batch the caller reports the survivors' screen-tier
/// and refine-tier scores ([`AdaptiveTopK::observe`]). The pairs
/// accumulate in a bounded sliding window spanning recent batches — so
/// the controller keeps learning even in optimizer regimes that evaluate
/// one point at a time (MOBO acquisitions) — and the window's rank
/// disagreement steers the budget: agreement below 10% means the screen
/// tier ranks like the refiner and the budget shrinks (possibly to zero,
/// skipping refinement entirely); disagreement above 30% grows it toward
/// `4 * initial`. While the budget sits at zero, every 4th batch still
/// refines one survivor so fresh evidence keeps flowing and a drifting
/// screen tier is caught. All decisions are pure functions of the batch
/// sequence, so adaptive trajectories are identical at any thread count
/// and stealing mode.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveTopK {
    k: usize,
    max_k: usize,
    /// Batches begun so far (drives the audit cadence).
    batches: usize,
    /// Sliding `(screen, refine)` score window across recent batches.
    window: std::collections::VecDeque<(f64, f64)>,
    trajectory: Vec<usize>,
}

/// Cross-batch evidence window size: big enough for a stable
/// discordant-pair estimate, small enough to track a retraining screen
/// tier.
const EVIDENCE_WINDOW: usize = 8;

/// Minimum window fill before the controller acts on its estimate.
const EVIDENCE_MIN: usize = 3;

/// Window disagreement below which the refine budget shrinks by one.
const SHRINK_BELOW: f64 = 0.10;

/// Window disagreement above which the refine budget grows by one.
const GROW_ABOVE: f64 = 0.30;

/// While the budget is 0, refine one survivor every this many batches
/// anyway (evidence audit).
const AUDIT_EVERY: usize = 4;

impl AdaptiveTopK {
    /// Creates a controller starting at `initial` survivors per batch,
    /// bounded to `[0, 4 * initial]`.
    pub fn new(initial: usize) -> Self {
        let initial = initial.max(1);
        AdaptiveTopK {
            k: initial,
            max_k: initial.saturating_mul(4),
            batches: 0,
            window: std::collections::VecDeque::new(),
            trajectory: Vec::new(),
        }
    }

    /// The refine budget the next batch will use (0 = refinement off
    /// except for audits).
    pub fn current(&self) -> usize {
        self.k
    }

    /// Starts a batch: resolves the effective budget (the current one,
    /// or a single audit survivor when the budget is zero and the audit
    /// cadence fires), records it in the trajectory, and returns it.
    pub fn begin_batch(&mut self) -> usize {
        self.batches += 1;
        let effective = if self.k == 0 && (self.batches - 1).is_multiple_of(AUDIT_EVERY) {
            1
        } else {
            self.k
        };
        self.trajectory.push(effective);
        effective
    }

    /// Reports one refined batch's survivor scores at both tiers
    /// (aligned by survivor; lower = better, as everywhere in this
    /// crate). The pairs join the sliding evidence window; once the
    /// window holds enough pairs, its rank disagreement adjusts the
    /// budget by one step.
    pub fn observe(&mut self, screen_scores: &[f64], refine_scores: &[f64]) {
        for (&s, &r) in screen_scores.iter().zip(refine_scores) {
            if self.window.len() == EVIDENCE_WINDOW {
                self.window.pop_front();
            }
            self.window.push_back((s, r));
        }
        if self.window.len() < EVIDENCE_MIN {
            return;
        }
        let (screen, refine): (Vec<f64>, Vec<f64>) = self.window.iter().copied().unzip();
        let d = rank_disagreement(&screen, &refine);
        if d > GROW_ABOVE {
            self.k = (self.k + 1).min(self.max_k);
        } else if d < SHRINK_BELOW {
            self.k = self.k.saturating_sub(1);
        }
    }

    /// The effective budget each batch used, in batch order (audit
    /// batches show their single audit survivor).
    pub fn trajectory(&self) -> &[usize] {
        &self.trajectory
    }

    /// The current evidence-window rank disagreement the controller is
    /// acting on, in `[0, 1]` — `None` until the window holds enough
    /// pairs ([`AdaptiveTopK::observe`]). Read-only: exposed so
    /// telemetry can gauge how much the screen and refine tiers disagree
    /// without re-deriving the window.
    pub fn evidence_disagreement(&self) -> Option<f64> {
        if self.window.len() < EVIDENCE_MIN {
            return None;
        }
        let (screen, refine): (Vec<f64>, Vec<f64>) = self.window.iter().copied().unzip();
        Some(rank_disagreement(&screen, &refine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_top_k_is_deterministic_and_tie_stable() {
        let items = [3.0, 1.0, 2.0, 1.0, f64::NAN];
        let top = rank_top_k(&items, 3, |&x| Some(x));
        // The two 1.0s tie: the earlier index wins first, and 2.0 fills
        // the third slot; NaN never survives.
        assert_eq!(top, vec![1, 2, 3]);
        assert_eq!(rank_top_k(&items, 0, |&x| Some(x)), Vec::<usize>::new());
        assert_eq!(rank_top_k(&items, 10, |&x| Some(x)).len(), 4);
    }

    #[test]
    fn rank_top_k_skips_unrankable_items() {
        let items = [Some(5.0), None, Some(1.0)];
        assert_eq!(rank_top_k(&items, 2, |x| *x), vec![0, 2]);
    }

    #[test]
    fn rank_disagreement_measures_discordant_pairs() {
        assert_eq!(rank_disagreement(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(rank_disagreement(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]), 1.0);
        // One discordant pair of three: (b, c) swap.
        let d = rank_disagreement(&[1.0, 2.0, 3.0], &[1.0, 3.0, 2.0]);
        assert!((d - 1.0 / 3.0).abs() < 1e-12);
        // Ties never count as disagreement.
        assert_eq!(rank_disagreement(&[1.0, 1.0], &[2.0, 5.0]), 0.0);
        assert_eq!(rank_disagreement(&[1.0], &[9.0]), 0.0);
        assert_eq!(rank_disagreement(&[], &[]), 0.0);
    }

    /// Eight fully-reversed score pairs: replaces the whole evidence
    /// window with maximal disagreement.
    fn reversed_window() -> ([f64; 8], [f64; 8]) {
        (
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
        )
    }

    #[test]
    fn adaptive_topk_shrinks_on_agreement_and_grows_on_disagreement() {
        let mut c = AdaptiveTopK::new(4);
        assert_eq!(c.current(), 4);
        assert_eq!(c.begin_batch(), 4);
        // Tiers agree: budget shrinks.
        c.observe(&[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(c.current(), 3);
        assert_eq!(c.begin_batch(), 3);
        // Tiers fully disagree (the window flips wholesale): budget grows
        // back.
        let (s, r) = reversed_window();
        c.observe(&s, &r);
        assert_eq!(c.current(), 4);
        assert_eq!(c.trajectory(), &[4, 3]);
    }

    #[test]
    fn adaptive_topk_learns_from_singleton_batches_and_audits_at_zero() {
        // MOBO acquisitions refine one survivor per batch; the evidence
        // window accumulates those singletons, walks the budget to zero,
        // and then only the audit cadence (every 4th batch) refines.
        let mut c = AdaptiveTopK::new(2);
        let mut used = Vec::new();
        for i in 0..10 {
            let k = c.begin_batch();
            used.push(k);
            if k > 0 {
                let s = i as f64;
                c.observe(&[s], &[s * 10.0 + 5.0]); // rank-consistent tiers
            }
        }
        assert_eq!(used, vec![2, 2, 2, 1, 1, 0, 0, 0, 1, 0]);
        assert_eq!(c.current(), 0);
        assert_eq!(c.trajectory(), used.as_slice());
    }

    #[test]
    fn adaptive_topk_respects_bounds() {
        // The budget lives in [0, 4 * initial].
        let mut c = AdaptiveTopK::new(2);
        for i in 0..12 {
            // Agreement: try to shrink below zero.
            c.observe(&[i as f64], &[i as f64 + 100.0]);
        }
        assert_eq!(c.current(), 0, "never below zero");
        let (s, r) = reversed_window();
        for _ in 0..12 {
            c.observe(&s, &r); // disagreement: try to grow past 4 * initial
        }
        assert_eq!(c.current(), 8, "never above 4 * initial");
    }
}
