//! Minimal dense linear algebra for the Gaussian-process surrogate:
//! symmetric matrices, jittered Cholesky factorization, and triangular
//! solves. Sizes are tiny (≤ the DSE trial budget, ~40), so simplicity wins
//! over cleverness.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a closure over (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Errors from the factorization routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not positive definite even after adding jitter.
    NotPositiveDefinite,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite")
    }
}

impl std::error::Error for LinalgError {}

/// A Cholesky factorization `A + jitter·I = L·Lᵀ` that remembers which
/// diagonal jitter made it succeed, so it can later be *extended* by one
/// row ([`Cholesky::extend`]) bit-identically to refactorizing the grown
/// matrix from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    /// The lower-triangular factor.
    pub l: Matrix,
    /// The diagonal jitter the successful attempt used (0.0 on clean
    /// factorizations).
    pub jitter: f64,
}

impl Cholesky {
    /// Extends an `n×n` factor to `(n+1)×(n+1)` given the grown matrix's
    /// new bottom row `row` (length `n + 1`, diagonal entry last, *without*
    /// jitter — the factor's own jitter is applied internally).
    ///
    /// Returns `false` — leaving `self` untouched — when the new diagonal
    /// pivot is not positive, i.e. when a from-scratch factorization of
    /// the grown matrix would have to escalate to a larger jitter; the
    /// caller must then refactorize via [`cholesky_jittered`].
    ///
    /// **Bit-exactness:** on success the extended factor is bit-identical
    /// to a from-scratch factorization of the grown matrix. A from-scratch
    /// run replays the identical floating-point sequence: attempts with
    /// smaller jitter fail at the same (unchanged) leading rows they
    /// failed at before, the first `n` rows under this factor's jitter
    /// reproduce `self.l` exactly (column-ordered Cholesky never reads
    /// ahead), and the new row is computed here with the same operations
    /// in the same order as `try_cholesky`'s last row.
    ///
    /// # Panics
    /// Panics when `row.len() != self.l.rows + 1`.
    pub fn extend(&mut self, row: &[f64]) -> bool {
        let n = self.l.rows;
        assert_eq!(row.len(), n + 1, "extension row must cover the diagonal");
        // Compute the candidate row first; commit only if the pivot holds.
        let mut new_row = vec![0.0f64; n + 1];
        for j in 0..=n {
            let mut sum = row[j] + if j == n { self.jitter } else { 0.0 };
            for (k, &nk) in new_row.iter().enumerate().take(j) {
                let ljk = if j == n { nk } else { self.l[(j, k)] };
                sum -= nk * ljk;
            }
            if j == n {
                if sum <= 0.0 || !sum.is_finite() {
                    return false;
                }
                new_row[j] = sum.sqrt();
            } else {
                new_row[j] = sum / self.l[(j, j)];
            }
        }
        let mut grown = Matrix::zeros(n + 1, n + 1);
        for r in 0..n {
            for c in 0..=r {
                grown[(r, c)] = self.l[(r, c)];
            }
        }
        for (c, v) in new_row.iter().enumerate() {
            grown[(n, c)] = *v;
        }
        self.l = grown;
        true
    }
}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric matrix, retrying with
/// exponentially growing diagonal jitter — the standard GP trick for nearly
/// singular kernel matrices.
///
/// # Errors
/// Returns [`LinalgError::NotPositiveDefinite`] if factorization fails even
/// with the largest jitter.
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    cholesky_jittered(a).map(|c| c.l)
}

/// Like [`cholesky`], additionally reporting the jitter the successful
/// attempt used — the state an incrementally extendable factor
/// ([`Cholesky`]) needs.
///
/// # Errors
/// Returns [`LinalgError::NotPositiveDefinite`] if factorization fails even
/// with the largest jitter.
pub fn cholesky_jittered(a: &Matrix) -> Result<Cholesky, LinalgError> {
    assert_eq!(a.rows, a.cols, "cholesky needs a square matrix");
    let n = a.rows;
    let mut jitter = 0.0;
    for attempt in 0..8 {
        if attempt > 0 {
            jitter = 1e-10 * 10f64.powi(attempt);
        }
        if let Some(l) = try_cholesky(a, jitter, n) {
            return Ok(Cholesky { l, jitter });
        }
    }
    Err(LinalgError::NotPositiveDefinite)
}

fn try_cholesky(a: &Matrix, jitter: f64, n: usize) -> Option<Matrix> {
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)] + if i == j { jitter } else { 0.0 };
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// Solves `L·x = b` (forward substitution, `L` lower triangular).
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut x = Vec::new();
    solve_lower_into(l, b, &mut x);
    x
}

/// [`solve_lower`] into a reusable buffer — the allocation-free variant
/// for hot paths that solve many right-hand sides against one factor.
pub fn solve_lower_into(l: &Matrix, b: &[f64], x: &mut Vec<f64>) {
    let n = l.rows;
    x.clear();
    x.resize(n, 0.0);
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
}

/// Solves `Lᵀ·x = b` (backward substitution).
pub fn solve_upper_transposed(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows;
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for k in i + 1..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

/// Solves `A·x = b` given `A = L·Lᵀ`.
pub fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    solve_upper_transposed(l, &solve_lower(l, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ·B + I is SPD.
        Matrix::from_fn(3, 3, |r, c| {
            let b = [[1.0, 2.0, 0.5], [0.0, 1.0, 1.0], [0.7, 0.3, 2.0]];
            let mut s = 0.0;
            for bk in &b {
                s += bk[r] * bk[c];
            }
            s + if r == c { 1.0 } else { 0.0 }
        })
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l[(i, k)] * l[(j, k)];
                }
                assert!((s - a[(i, j)]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_roundtrips() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b: Vec<f64> = (0..3)
            .map(|r| (0..3).map(|c| a[(r, c)] * x_true[c]).sum())
            .collect();
        let x = cholesky_solve(&l, &b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn jitter_rescues_near_singular() {
        // Rank-deficient Gram matrix of duplicated inputs.
        let a = Matrix::from_fn(3, 3, |_, _| 1.0);
        let l = cholesky(&a);
        assert!(l.is_ok());
    }

    #[test]
    fn non_pd_fails() {
        let a = Matrix::from_fn(2, 2, |r, c| if r == c { -1.0 } else { 0.0 });
        assert_eq!(cholesky(&a).unwrap_err(), LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn triangular_solves() {
        let mut l = Matrix::zeros(2, 2);
        l[(0, 0)] = 2.0;
        l[(1, 0)] = 1.0;
        l[(1, 1)] = 3.0;
        let x = solve_lower(&l, &[4.0, 11.0]);
        assert_eq!(x, vec![2.0, 3.0]);
        let y = solve_upper_transposed(&l, &[5.0, 6.0]);
        // Lᵀ y = b: [2 1; 0 3] y = [5, 6] → y1 = 2, y0 = (5-2)/2 = 1.5
        assert_eq!(y, vec![1.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn cholesky_rejects_rectangular() {
        let _ = cholesky(&Matrix::zeros(2, 3));
    }

    #[test]
    fn jittered_reports_zero_jitter_on_clean_matrices() {
        let c = cholesky_jittered(&spd3()).unwrap();
        assert_eq!(c.jitter, 0.0);
        assert_eq!(c.l, cholesky(&spd3()).unwrap());
    }

    #[test]
    fn jittered_reports_the_rescuing_jitter() {
        let ones = Matrix::from_fn(3, 3, |_, _| 1.0);
        let c = cholesky_jittered(&ones).unwrap();
        assert!(c.jitter > 0.0);
    }

    #[test]
    fn extend_is_bit_identical_to_from_scratch() {
        // Grow a 5×5 SPD matrix row by row; the extended factor must match
        // a from-scratch factorization of every leading submatrix exactly.
        let a = Matrix::from_fn(5, 5, |r, c| {
            let d = (r as f64 - c as f64).abs();
            (-d * d / 8.0).exp() + if r == c { 0.5 } else { 0.0 }
        });
        let sub = |n: usize| Matrix::from_fn(n, n, |r, c| a[(r, c)]);
        let mut inc = cholesky_jittered(&sub(1)).unwrap();
        for n in 1..5 {
            let row: Vec<f64> = (0..=n).map(|c| a[(n, c)]).collect();
            assert!(inc.extend(&row), "extension failed at n={n}");
            let scratch = cholesky_jittered(&sub(n + 1)).unwrap();
            assert_eq!(inc.jitter, scratch.jitter);
            for r in 0..=n {
                for c in 0..=r {
                    assert_eq!(
                        inc.l[(r, c)].to_bits(),
                        scratch.l[(r, c)].to_bits(),
                        "entry ({r},{c}) diverged at n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn extend_refuses_a_degenerate_pivot_and_leaves_the_factor_intact() {
        // A near-duplicate of row 2 whose diagonal falls short by 1e-6
        // drives the new pivot negative: extend must refuse, and the
        // caller falls back to a full refactorization (which escalates
        // the jitter and succeeds).
        let a = spd3();
        let mut inc = cholesky_jittered(&a).unwrap();
        let before = inc.clone();
        let deficient = a[(2, 2)] - 1e-6;
        let dup_row = vec![a[(2, 0)], a[(2, 1)], a[(2, 2)], deficient];
        assert!(!inc.extend(&dup_row));
        assert_eq!(inc, before, "failed extension must not mutate the factor");
        // The from-scratch fallback on the grown matrix still succeeds.
        let grown = Matrix::from_fn(4, 4, |r, c| {
            if r == 3 && c == 3 {
                deficient
            } else {
                a[(r.min(2), c.min(2))]
            }
        });
        assert!(cholesky_jittered(&grown).unwrap().jitter > 0.0);
    }

    #[test]
    fn solve_lower_into_reuses_the_buffer() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let mut buf = vec![9.0; 7]; // stale, wrongly sized
        solve_lower_into(&l, &b, &mut buf);
        assert_eq!(buf, solve_lower(&l, &b));
    }

    #[test]
    #[should_panic(expected = "cover the diagonal")]
    fn extend_rejects_short_rows() {
        let mut c = cholesky_jittered(&spd3()).unwrap();
        c.extend(&[1.0, 2.0]);
    }
}
