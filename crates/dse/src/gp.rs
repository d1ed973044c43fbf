//! Gaussian-process regression — the MOBO surrogate model (§V-B: "we use a
//! Gaussian Process as the surrogate model ... cheap to evaluate").
//!
//! Squared-exponential (RBF) kernel on inputs normalized to `[0,1]^d`,
//! targets standardized to zero mean / unit variance, and a small
//! length-scale grid search by log marginal likelihood.
//!
//! [`GaussianProcess::fit`] is **deterministic**: the grid search, the
//! Cholesky factorization, and the solves are pure floating-point
//! sequences with no RNG or iteration-order dependence, so refitting from
//! the identical training rows reproduces the identical model bit for
//! bit. The surrogate cost tier's warm-restart persistence leans on this
//! — a restarted engine refits the GP from the restored training window
//! and must price exactly like the process that saved it.

use crate::linalg::{self, Cholesky, LinalgError, Matrix};

/// The RBF length-scale grid searched by log marginal likelihood.
const LENGTH_SCALE_GRID: [f64; 5] = [0.1, 0.2, 0.35, 0.6, 1.0];
/// RBF signal variance (targets are standardized, so 1.0).
const SIGNAL_VAR: f64 = 1.0;
/// Observation-noise variance added to the kernel diagonal.
const NOISE_VAR: f64 = 1e-4;

/// A fitted Gaussian process.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    xs: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    chol: Matrix,
    length_scale: f64,
    y_mean: f64,
    y_std: f64,
}

/// Posterior prediction at one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posterior {
    /// Posterior mean (in the original target units).
    pub mean: f64,
    /// Posterior standard deviation (original units).
    pub std: f64,
}

/// Reusable buffers for posterior predictions
/// ([`GaussianProcess::predict_with`]): holding them across calls makes
/// the prediction hot path allocation-free.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    kstar: Vec<f64>,
    v: Vec<f64>,
}

fn rbf(a: &[f64], b: &[f64], length_scale: f64, signal_var: f64) -> f64 {
    let d2: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum();
    signal_var * (-d2 / (2.0 * length_scale * length_scale)).exp()
}

/// Builds the jittered RBF kernel matrix for one length-scale candidate,
/// computing each off-diagonal entry **once** and mirroring it (the kernel
/// is symmetric, and `rbf(a, b)` ≡ `rbf(b, a)` bitwise — squared
/// differences are negation-invariant — so the filled matrix is
/// bit-identical to evaluating both triangles).
fn kernel_matrix(xs: &[Vec<f64>], ls: f64) -> Matrix {
    let n = xs.len();
    let mut k = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..r {
            let v = rbf(&xs[r], &xs[c], ls, SIGNAL_VAR);
            k[(r, c)] = v;
            k[(c, r)] = v;
        }
        k[(r, r)] = rbf(&xs[r], &xs[r], ls, SIGNAL_VAR) + NOISE_VAR;
    }
    k
}

/// Factorizes the kernel matrix of every length-scale candidate from
/// scratch. `None` marks a candidate whose matrix is not positive definite
/// even with jitter (practically impossible).
fn factor_grid(xs: &[Vec<f64>]) -> Vec<Option<Cholesky>> {
    LENGTH_SCALE_GRID
        .iter()
        .map(|&ls| linalg::cholesky_jittered(&kernel_matrix(xs, ls)).ok())
        .collect()
}

/// The outcome of the length-scale grid search: the winning candidate
/// index plus everything derived from the targets.
#[derive(Debug, Clone)]
struct Selection {
    /// Index into [`LENGTH_SCALE_GRID`] / the factor grid.
    idx: usize,
    /// `K⁻¹·yn` for the winning candidate.
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

/// Grid search by log marginal likelihood over pre-factorized candidates.
/// This is the **single** selection routine shared by the from-scratch
/// [`GaussianProcess::fit`] and the incremental [`IncrementalGp`], so the
/// two paths cannot diverge.
fn select(ys: &[f64], factors: &[Option<Cholesky>]) -> Result<Selection, LinalgError> {
    let n = ys.len();
    let y_mean = ys.iter().sum::<f64>() / n as f64;
    let var = ys.iter().map(|y| (y - y_mean) * (y - y_mean)).sum::<f64>() / n as f64;
    let y_std = var.sqrt().max(1e-12);
    let yn: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();

    let mut best: Option<(f64, usize, Vec<f64>)> = None;
    for (idx, factor) in factors.iter().enumerate() {
        let Some(c) = factor else { continue };
        let alpha = linalg::cholesky_solve(&c.l, &yn);
        // log p(y|X) = -0.5 yᵀα - Σ log L_ii - (n/2) log 2π
        let fit_term: f64 = -0.5 * yn.iter().zip(&alpha).map(|(y, a)| y * a).sum::<f64>();
        let logdet: f64 = (0..n).map(|i| c.l[(i, i)].ln()).sum();
        let lml = fit_term - logdet - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        if best.as_ref().is_none_or(|(b, _, _)| lml > *b) {
            best = Some((lml, idx, alpha));
        }
    }
    best.map(|(_, idx, alpha)| Selection {
        idx,
        alpha,
        y_mean,
        y_std,
    })
    .ok_or(LinalgError::NotPositiveDefinite)
}

/// Shared posterior arithmetic — the one implementation behind
/// [`GaussianProcess::predict_with`] and [`IncrementalGp::predict_with`].
#[allow(clippy::too_many_arguments)]
fn posterior(
    xs: &[Vec<f64>],
    alpha: &[f64],
    chol: &Matrix,
    length_scale: f64,
    y_mean: f64,
    y_std: f64,
    x: &[f64],
    scratch: &mut PredictScratch,
) -> Posterior {
    scratch.kstar.clear();
    scratch
        .kstar
        .extend(xs.iter().map(|xi| rbf(xi, x, length_scale, SIGNAL_VAR)));
    let mean_n: f64 = scratch.kstar.iter().zip(alpha).map(|(k, a)| k * a).sum();
    // var = k(x,x) + σn² − k*ᵀ K⁻¹ k* via the Cholesky factor.
    linalg::solve_lower_into(chol, &scratch.kstar, &mut scratch.v);
    let explained: f64 = scratch.v.iter().map(|x| x * x).sum();
    let var_n = (SIGNAL_VAR + NOISE_VAR - explained).max(1e-12);
    Posterior {
        mean: mean_n * y_std + y_mean,
        std: var_n.sqrt() * y_std,
    }
}

impl GaussianProcess {
    /// Fits a GP, selecting the RBF length scale from a small grid by log
    /// marginal likelihood. Training rows are borrowed and copied exactly
    /// once (into the returned model) — no per-candidate clones.
    ///
    /// # Errors
    /// Returns [`LinalgError`] if every candidate kernel matrix fails to
    /// factorize (practically impossible with jitter).
    ///
    /// # Panics
    /// Panics if `xs` and `ys` differ in length or are empty.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<Self, LinalgError> {
        assert_eq!(xs.len(), ys.len(), "inputs and targets must align");
        assert!(!xs.is_empty(), "cannot fit a GP on zero observations");
        let factors = factor_grid(xs);
        let sel = select(ys, &factors)?;
        Ok(Self::materialize(xs, &sel, &factors))
    }

    /// Builds the owned model from a selection over a factor grid.
    fn materialize(xs: &[Vec<f64>], sel: &Selection, factors: &[Option<Cholesky>]) -> Self {
        GaussianProcess {
            xs: xs.to_vec(),
            alpha: sel.alpha.clone(),
            chol: factors[sel.idx]
                .as_ref()
                .expect("selected candidate has a factor")
                .l
                .clone(),
            length_scale: LENGTH_SCALE_GRID[sel.idx],
            y_mean: sel.y_mean,
            y_std: sel.y_std,
        }
    }

    /// The selected RBF length scale.
    pub fn length_scale(&self) -> f64 {
        self.length_scale
    }

    /// Training-set size.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the model has no training rows (never true for a fitted
    /// model — fitting zero observations panics).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Posterior mean and standard deviation at `x`.
    ///
    /// Convenience wrapper over [`GaussianProcess::predict_with`] that
    /// allocates fresh scratch; hot paths should hold a
    /// [`PredictScratch`] and call `predict_with` instead.
    pub fn predict(&self, x: &[f64]) -> Posterior {
        self.predict_with(x, &mut PredictScratch::default())
    }

    /// Posterior mean and standard deviation at `x`, reusing the caller's
    /// scratch buffers — allocation-free after the first call at a given
    /// training size, and bit-identical to [`GaussianProcess::predict`].
    pub fn predict_with(&self, x: &[f64], scratch: &mut PredictScratch) -> Posterior {
        posterior(
            &self.xs,
            &self.alpha,
            &self.chol,
            self.length_scale,
            self.y_mean,
            self.y_std,
            x,
            scratch,
        )
    }
}

/// An incrementally trainable Gaussian process: maintains the jittered
/// kernel Cholesky factor of **every** length-scale candidate, so
/// appending one observation extends each factor by one row — O(n²) —
/// instead of refactorizing from scratch — O(n³). The length-scale grid
/// search is recomputed from the maintained factors on demand
/// ([`IncrementalGp::refresh`]), so model selection (and therefore every
/// prediction) is unchanged.
///
/// **Bit-exactness contract:** after any sequence of
/// [`IncrementalGp::push`] calls, [`IncrementalGp::model`] is
/// bit-identical to `GaussianProcess::fit(&xs, &ys)` on the same rows —
/// column-ordered Cholesky extension reproduces a from-scratch
/// factorization of the grown matrix exactly (see [`Cholesky::extend`]),
/// and selection/prediction share one implementation with the batch path.
/// When an extension's pivot fails (a from-scratch run would escalate the
/// diagonal jitter), the candidate falls back to a full refactorization —
/// rare, and still bit-identical by construction.
#[derive(Debug, Clone, Default)]
pub struct IncrementalGp {
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    /// One maintained factor per [`LENGTH_SCALE_GRID`] candidate (empty
    /// until the first push).
    factors: Vec<Option<Cholesky>>,
    /// The current grid-search outcome; invalidated by every push.
    selection: Option<Selection>,
    /// Scratch for the incoming kernel row.
    row: Vec<f64>,
}

impl IncrementalGp {
    /// An empty trainer.
    pub fn new() -> Self {
        IncrementalGp::default()
    }

    /// Training-set size.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// Whether no observations have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// The training rows pushed so far, in order.
    pub fn rows(&self) -> (&[Vec<f64>], &[f64]) {
        (&self.xs, &self.ys)
    }

    /// Appends one observation, extending every candidate factor by one
    /// row (O(n²) per candidate; a full O(n³) refactorization only when a
    /// pivot fails, which a from-scratch fit would answer with escalated
    /// jitter too). Invalidates the current selection.
    pub fn push(&mut self, x: Vec<f64>, y: f64) {
        let n = self.xs.len();
        self.xs.push(x);
        self.ys.push(y);
        self.selection = None;
        if n == 0 {
            self.factors = factor_grid(&self.xs);
            return;
        }
        for (idx, &ls) in LENGTH_SCALE_GRID.iter().enumerate() {
            // The grown kernel matrix's new bottom row, jitter-free (the
            // factor applies its own); entry order matches the symmetric
            // fill in `kernel_matrix` exactly.
            self.row.clear();
            let xn = &self.xs[n];
            self.row
                .extend(self.xs[..n].iter().map(|xi| rbf(xn, xi, ls, SIGNAL_VAR)));
            self.row.push(rbf(xn, xn, ls, SIGNAL_VAR) + NOISE_VAR);
            let extended = match &mut self.factors[idx] {
                Some(factor) => factor.extend(&self.row),
                None => false,
            };
            if !extended {
                // A from-scratch fit would escalate jitter across the whole
                // matrix here (or had no factor to begin with): refactorize
                // so the maintained state keeps matching it bit for bit.
                self.factors[idx] = linalg::cholesky_jittered(&kernel_matrix(&self.xs, ls)).ok();
            }
        }
    }

    /// Re-runs the length-scale grid search from the maintained factors
    /// (O(n²): two triangular solves per candidate, no factorization).
    /// Until this (or [`IncrementalGp::model`]) is called after a push,
    /// [`IncrementalGp::predict_with`] has no model to read.
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] when no candidate factorized.
    ///
    /// # Panics
    /// Panics when no observations have been pushed.
    pub fn refresh(&mut self) -> Result<(), LinalgError> {
        assert!(!self.ys.is_empty(), "cannot fit a GP on zero observations");
        self.selection = Some(select(&self.ys, &self.factors)?);
        Ok(())
    }

    /// Posterior at `x` from the current selection, without materializing
    /// an owned model — bit-identical to
    /// `GaussianProcess::fit(&xs, &ys)?.predict(x)`.
    ///
    /// # Panics
    /// Panics when the trainer has not been [`IncrementalGp::refresh`]ed
    /// since the last push.
    pub fn predict_with(&self, x: &[f64], scratch: &mut PredictScratch) -> Posterior {
        let sel = self
            .selection
            .as_ref()
            .expect("refresh() the trainer before predicting");
        posterior(
            &self.xs,
            &sel.alpha,
            &self.factors[sel.idx]
                .as_ref()
                .expect("selected candidate has a factor")
                .l,
            LENGTH_SCALE_GRID[sel.idx],
            sel.y_mean,
            sel.y_std,
            x,
            scratch,
        )
    }

    /// Materializes the selected model as an owned [`GaussianProcess`],
    /// bit-identical to `GaussianProcess::fit(&xs, &ys)` on the same
    /// rows. Refreshes the selection if a push invalidated it.
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] when no candidate factorized.
    ///
    /// # Panics
    /// Panics when no observations have been pushed.
    pub fn model(&mut self) -> Result<GaussianProcess, LinalgError> {
        if self.selection.is_none() {
            self.refresh()?;
        }
        let sel = self.selection.as_ref().expect("refresh succeeded");
        Ok(GaussianProcess::materialize(&self.xs, sel, &self.factors))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn interpolates_training_points() {
        let xs = grid_1d(6);
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 3.0).sin()).collect();
        let gp = GaussianProcess::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x);
            assert!((p.mean - y).abs() < 0.05, "at {x:?}: {} vs {y}", p.mean);
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let xs = vec![vec![0.0], vec![0.1]];
        let ys = vec![0.0, 0.1];
        let gp = GaussianProcess::fit(&xs, &ys).unwrap();
        let near = gp.predict(&[0.05]).std;
        let far = gp.predict(&[1.0]).std;
        assert!(far > near);
    }

    #[test]
    fn predicts_smooth_function_between_points() {
        let xs = grid_1d(9);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0]).collect();
        let gp = GaussianProcess::fit(&xs, &ys).unwrap();
        let p = gp.predict(&[0.3125]);
        assert!((p.mean - 0.3125f64 * 0.3125).abs() < 0.05);
    }

    #[test]
    fn handles_constant_targets() {
        let xs = grid_1d(4);
        let ys = vec![5.0; 4];
        let gp = GaussianProcess::fit(&xs, &ys).unwrap();
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 5.0).abs() < 1e-6);
    }

    #[test]
    fn handles_duplicate_inputs() {
        let xs = vec![vec![0.5], vec![0.5], vec![0.7]];
        let ys = vec![1.0, 1.2, 2.0];
        let gp = GaussianProcess::fit(&xs, &ys).unwrap();
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 1.1).abs() < 0.3);
    }

    #[test]
    fn multi_dim_inputs() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                let x = vec![i as f64 / 4.0, j as f64 / 4.0];
                ys.push(x[0] + 2.0 * x[1]);
                xs.push(x);
            }
        }
        let gp = GaussianProcess::fit(&xs, &ys).unwrap();
        let p = gp.predict(&[0.5, 0.5]);
        assert!((p.mean - 1.5).abs() < 0.1);
    }

    #[test]
    fn length_scale_is_from_grid() {
        let xs = grid_1d(5);
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let gp = GaussianProcess::fit(&xs, &ys).unwrap();
        assert!([0.1, 0.2, 0.35, 0.6, 1.0].contains(&gp.length_scale()));
    }

    #[test]
    #[should_panic(expected = "zero observations")]
    fn empty_fit_panics() {
        let _ = GaussianProcess::fit(&[], &[]);
    }

    #[test]
    fn refit_from_identical_rows_is_bit_identical() {
        // The warm-restart contract: a GP refit from restored training
        // rows must reproduce the saved process's predictions exactly —
        // same length scale, same posterior bits at training points,
        // between them, and far away.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..6 {
            for j in 0..4 {
                let x = vec![i as f64 / 5.0, j as f64 / 3.0];
                ys.push((x[0] * 3.0).sin() + 0.5 * x[1] * x[1]);
                xs.push(x);
            }
        }
        let a = GaussianProcess::fit(&xs, &ys).unwrap();
        let b = GaussianProcess::fit(&xs, &ys).unwrap();
        assert_eq!(a.length_scale(), b.length_scale());
        let probes: Vec<Vec<f64>> = xs
            .into_iter()
            .chain([vec![0.123, 0.456], vec![7.0, -3.0]])
            .collect();
        for x in &probes {
            let (pa, pb) = (a.predict(x), b.predict(x));
            assert_eq!(pa.mean.to_bits(), pb.mean.to_bits(), "mean at {x:?}");
            assert_eq!(pa.std.to_bits(), pb.std.to_bits(), "std at {x:?}");
        }
    }

    /// Asserts the two models agree to the bit at every probe.
    fn assert_models_bit_identical(a: &GaussianProcess, b: &GaussianProcess, probes: &[Vec<f64>]) {
        assert_eq!(a.length_scale().to_bits(), b.length_scale().to_bits());
        for x in probes {
            let (pa, pb) = (a.predict(x), b.predict(x));
            assert_eq!(pa.mean.to_bits(), pb.mean.to_bits(), "mean at {x:?}");
            assert_eq!(pa.std.to_bits(), pb.std.to_bits(), "std at {x:?}");
        }
    }

    #[test]
    fn incremental_appends_match_from_scratch_bit_for_bit() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..8 {
            for j in 0..3 {
                let x = vec![i as f64 / 7.0, j as f64 / 2.0];
                ys.push((x[0] * 4.0).cos() + x[1]);
                xs.push(x);
            }
        }
        let probes = [vec![0.31, 0.62], vec![0.0, 0.0], vec![5.0, -2.0]];
        let mut inc = IncrementalGp::new();
        for (i, (x, y)) in xs.iter().zip(&ys).enumerate() {
            inc.push(x.clone(), *y);
            let scratch = GaussianProcess::fit(&xs[..=i], &ys[..=i]).unwrap();
            let incremental = inc.model().unwrap();
            assert_models_bit_identical(&incremental, &scratch, &probes);
        }
    }

    #[test]
    fn incremental_survives_near_duplicate_rows() {
        // Near-duplicate inputs drive the kernel matrix toward
        // singularity (the noise diagonal keeps it barely positive
        // definite); extension pivots shrink to the noise floor and
        // must still match a from-scratch fit bit for bit.
        let mut inc = IncrementalGp::new();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            let x = vec![0.5 + 1e-13 * (i % 3) as f64];
            let y = 1.0 + 0.1 * i as f64;
            inc.push(x.clone(), y);
            xs.push(x);
            ys.push(y);
        }
        let scratch = GaussianProcess::fit(&xs, &ys).unwrap();
        let incremental = inc.model().unwrap();
        assert_models_bit_identical(&incremental, &scratch, &[vec![0.5], vec![0.9]]);
    }

    #[test]
    fn incremental_predict_with_matches_materialized_model() {
        let xs = grid_1d(7);
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 2.0).exp()).collect();
        let mut inc = IncrementalGp::new();
        for (x, y) in xs.iter().zip(&ys) {
            inc.push(x.clone(), *y);
        }
        inc.refresh().unwrap();
        let model = inc.model().unwrap();
        let mut scratch = PredictScratch::default();
        for x in &[vec![0.25], vec![0.8], vec![3.0]] {
            let direct = inc.predict_with(x, &mut scratch);
            let via_model = model.predict(x);
            assert_eq!(direct.mean.to_bits(), via_model.mean.to_bits());
            assert_eq!(direct.std.to_bits(), via_model.std.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "refresh() the trainer")]
    fn incremental_predict_requires_refresh() {
        let mut inc = IncrementalGp::new();
        inc.push(vec![0.0], 1.0);
        let _ = inc.predict_with(&[0.5], &mut PredictScratch::default());
    }

    #[test]
    #[should_panic(expected = "zero observations")]
    fn incremental_refresh_on_empty_panics() {
        let _ = IncrementalGp::new().refresh();
    }

    #[test]
    fn predict_with_reuses_scratch_and_matches_predict() {
        let xs = grid_1d(10);
        let ys: Vec<f64> = xs.iter().map(|x| x[0].sqrt()).collect();
        let gp = GaussianProcess::fit(&xs, &ys).unwrap();
        let mut scratch = PredictScratch::default();
        for x in &[vec![0.1], vec![0.55], vec![2.0]] {
            let fresh = gp.predict(x);
            let reused = gp.predict_with(x, &mut scratch);
            assert_eq!(fresh.mean.to_bits(), reused.mean.to_bits());
            assert_eq!(fresh.std.to_bits(), reused.std.to_bits());
        }
    }

    #[test]
    fn incremental_len_and_rows_track_pushes() {
        let mut inc = IncrementalGp::new();
        assert!(inc.is_empty());
        inc.push(vec![0.1], 2.0);
        inc.push(vec![0.9], 3.0);
        assert_eq!(inc.len(), 2);
        let (rx, ry) = inc.rows();
        assert_eq!(rx, &[vec![0.1], vec![0.9]]);
        assert_eq!(ry, &[2.0, 3.0]);
    }
}
