//! Symmetric positive-definite solvers and the (weighted, ridge) least-squares
//! routines Kernel SHAP and LIME are built on.

use crate::matrix::Matrix;

/// Errors from the dense solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The system matrix was not positive definite even after the allowed
    /// diagonal jitter (rank-deficient design with zero ridge, usually).
    NotPositiveDefinite,
    /// Input dimensions were inconsistent.
    DimensionMismatch,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NotPositiveDefinite => {
                write!(
                    f,
                    "matrix is not positive definite (rank-deficient design?)"
                )
            }
            SolveError::DimensionMismatch => write!(f, "inconsistent dimensions"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Cholesky factorisation `A = L L^T` of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular factor. Fails if a pivot becomes
/// non-positive.
pub fn cholesky(a: &Matrix) -> Result<Matrix, SolveError> {
    Cholesky::factor(a).map(|c| c.l)
}

/// Solve `A x = b` for symmetric positive-definite `A` via Cholesky.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    if a.rows() != b.len() {
        return Err(SolveError::DimensionMismatch);
    }
    Cholesky::factor(a)?.solve(b)
}

/// A Cholesky factor `L` of a symmetric positive-definite matrix, kept to
/// solve for any number of right-hand sides.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor `a = L L^T`. Fails if a pivot becomes non-positive.
    pub fn factor(a: &Matrix) -> Result<Cholesky, SolveError> {
        if a.rows() != a.cols() {
            return Err(SolveError::DimensionMismatch);
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(SolveError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Solve `L L^T x = b` by forward then back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        let (l, n) = (&self.l, self.l.rows());
        if b.len() != n {
            return Err(SolveError::DimensionMismatch);
        }
        // Forward substitution: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        // Back substitution: L^T x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
        }
        Ok(x)
    }
}

/// Weighted least squares: minimise `Σ_i w_i (x_i^T β - y_i)^2 + ridge ‖β‖²`.
///
/// Solves the normal equations `(X^T W X + ridge·I) β = X^T W y` by Cholesky.
/// If the design is rank-deficient and `ridge == 0`, a tiny jitter is added
/// to the diagonal (up to 1e-8 · trace/n) before giving up.
///
/// Kernel SHAP calls this with Shapley-kernel weights; LIME with distance
/// kernel weights and a nonzero ridge. It is [`WeightedLeastSquares::new`]
/// followed by one [`WeightedLeastSquares::solve`].
pub fn weighted_least_squares(
    x: &Matrix,
    y: &[f64],
    weights: &[f64],
    ridge: f64,
) -> Result<Vec<f64>, SolveError> {
    if y.len() != x.rows() || weights.len() != x.rows() {
        return Err(SolveError::DimensionMismatch);
    }
    WeightedLeastSquares::new(x, weights, ridge)?.solve(y)
}

/// A weighted least squares whose design `X`, weights `W` and ridge are
/// fixed, prepared once and solved for many targets `y`.
///
/// Preparation accumulates `X^T W X + ridge·I` and factors it, with the
/// jitter fallback of [`weighted_least_squares`]; a factor that fails even
/// then is kept as the error every solve returns. Each solve accumulates
/// `X^T W y` from the stored nonzero `w_i x_ia` terms in row-major order —
/// the same per-element order and zero skips as a one-shot solve — and runs
/// the two triangular substitutions, so its `β` is bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedLeastSquares {
    /// `row_end[i]` is one past row `i`'s last entry in `terms`.
    row_end: Vec<usize>,
    /// `(column, w_i x_ia)` for every nonzero product, row-major.
    terms: Vec<(usize, f64)>,
    factor: Result<Cholesky, SolveError>,
}

impl WeightedLeastSquares {
    /// Prepare the system for design `x` and `weights`.
    pub fn new(x: &Matrix, weights: &[f64], ridge: f64) -> Result<Self, SolveError> {
        let (n, p) = (x.rows(), x.cols());
        if weights.len() != n {
            return Err(SolveError::DimensionMismatch);
        }
        let mut xtwx = Matrix::zeros(p, p);
        let mut row_end = Vec::with_capacity(n);
        let mut terms = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            // xtask-allow: AIIO-F001 — exact-zero skip: zero-weight rows contribute nothing
            if w != 0.0 {
                let row = x.row(i);
                for a in 0..p {
                    let wa = w * row[a];
                    // xtask-allow: AIIO-F001 — exact-zero skip: zero terms contribute nothing
                    if wa == 0.0 {
                        continue;
                    }
                    terms.push((a, wa));
                    for b in a..p {
                        xtwx[(a, b)] += wa * row[b];
                    }
                }
            }
            row_end.push(terms.len());
        }
        // Mirror the upper triangle and add the ridge.
        for a in 0..p {
            for b in 0..a {
                xtwx[(a, b)] = xtwx[(b, a)];
            }
            xtwx[(a, a)] += ridge;
        }
        let factor = match Cholesky::factor(&xtwx) {
            // xtask-allow: AIIO-F001 — ridge = 0.0 is an exact config sentinel, not arithmetic
            Err(SolveError::NotPositiveDefinite) if ridge == 0.0 => {
                let trace: f64 = (0..p).map(|i| xtwx[(i, i)]).sum();
                let jitter = 1e-8 * (trace / p.max(1) as f64).max(1.0);
                for i in 0..p {
                    xtwx[(i, i)] += jitter;
                }
                Cholesky::factor(&xtwx)
            }
            other => other,
        };
        Ok(Self {
            row_end,
            terms,
            factor,
        })
    }

    /// Solve for the target `y` (one value per design row).
    pub fn solve(&self, y: &[f64]) -> Result<Vec<f64>, SolveError> {
        if y.len() != self.row_end.len() {
            return Err(SolveError::DimensionMismatch);
        }
        let factor = self.factor.as_ref().map_err(Clone::clone)?;
        let mut xtwy = vec![0.0; factor.l.rows()];
        let mut start = 0;
        for (&yi, &end) in y.iter().zip(&self.row_end) {
            for &(a, wa) in &self.terms[start..end] {
                xtwy[a] += wa * yi;
            }
            start = end;
        }
        factor.solve(&xtwy)
    }
}

/// Ordinary ridge regression: `weighted_least_squares` with unit weights.
pub fn ridge_regression(x: &Matrix, y: &[f64], ridge: f64) -> Result<Vec<f64>, SolveError> {
    weighted_least_squares(x, y, &vec![1.0; x.rows()], ridge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The one-pass normal-equation solve the prepared form must
    /// reproduce bit for bit: `X^T W X` and `X^T W y` accumulated together
    /// row by row, then a fresh factor and substitution per call.
    fn wls_reference(x: &Matrix, y: &[f64], weights: &[f64], ridge: f64) -> Option<Vec<f64>> {
        let (n, p) = (x.rows(), x.cols());
        let mut xtwx = Matrix::zeros(p, p);
        let mut xtwy = vec![0.0; p];
        for i in 0..n {
            let w = weights[i];
            if w == 0.0 {
                continue;
            }
            let row = x.row(i);
            for a in 0..p {
                let wa = w * row[a];
                if wa == 0.0 {
                    continue;
                }
                xtwy[a] += wa * y[i];
                for b in a..p {
                    xtwx[(a, b)] += wa * row[b];
                }
            }
        }
        for a in 0..p {
            for b in 0..a {
                xtwx[(a, b)] = xtwx[(b, a)];
            }
            xtwx[(a, a)] += ridge;
        }
        let solve = |m: &Matrix| -> Option<Vec<f64>> {
            let l = cholesky(m).ok()?;
            let mut z = vec![0.0; p];
            for i in 0..p {
                let mut sum = xtwy[i];
                for k in 0..i {
                    sum -= l[(i, k)] * z[k];
                }
                z[i] = sum / l[(i, i)];
            }
            let mut beta = vec![0.0; p];
            for i in (0..p).rev() {
                let mut sum = z[i];
                for k in i + 1..p {
                    sum -= l[(k, i)] * beta[k];
                }
                beta[i] = sum / l[(i, i)];
            }
            Some(beta)
        };
        solve(&xtwx).or_else(|| {
            if ridge != 0.0 {
                return None;
            }
            let trace: f64 = (0..p).map(|i| xtwx[(i, i)]).sum();
            let jitter = 1e-8 * (trace / p.max(1) as f64).max(1.0);
            for i in 0..p {
                xtwx[(i, i)] += jitter;
            }
            solve(&xtwx)
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn prepared_solves_match_the_one_pass_reference_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for case in 0..40 {
            let (n, p) = (rng.gen_range(1..60), rng.gen_range(1..9));
            // Kernel-SHAP-like designs in {-1, 0, 1}, LIME-like dense
            // ones, some zero weights, and a duplicated column now and
            // then to reach the jitter fallback.
            let x = Matrix::from_fn(n, p, |_, _| match case % 2 {
                0 => rng.gen_range(-1..=1) as f64,
                _ => rng.gen_range(-2.0..2.0),
            });
            let x = if case % 5 == 0 && p > 1 {
                Matrix::from_fn(n, p, |i, j| x[(i, j.min(p - 2))])
            } else {
                x
            };
            let weights: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        0.0
                    } else {
                        rng.gen_range(0.0..3.0)
                    }
                })
                .collect();
            let ridge = if case % 3 == 0 { 0.5 } else { 0.0 };
            let prepared = WeightedLeastSquares::new(&x, &weights, ridge).unwrap();
            for _ in 0..3 {
                let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
                let want = wls_reference(&x, &y, &weights, ridge);
                let got = prepared.solve(&y).ok();
                assert_eq!(
                    got.as_deref().map(bits),
                    want.as_deref().map(bits),
                    "case {case}"
                );
                let once = weighted_least_squares(&x, &y, &weights, ridge).ok();
                assert_eq!(once.as_deref().map(bits), want.as_deref().map(bits));
            }
        }
    }

    #[test]
    fn prepared_solve_checks_the_target_length() {
        let x = Matrix::identity(2);
        let wls = WeightedLeastSquares::new(&x, &[1.0, 1.0], 0.0).unwrap();
        assert_eq!(wls.solve(&[1.0]), Err(SolveError::DimensionMismatch));
        assert!(WeightedLeastSquares::new(&x, &[1.0], 0.0).is_err());
    }

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} !~ {b:?}");
        }
    }

    #[test]
    fn cholesky_recovers_factor() {
        // A = L L^T with known L.
        let l = Matrix::from_rows(&[vec![2.0, 0.0], vec![1.0, 3.0]]);
        let a = l.matmul(&l.transpose());
        let got = cholesky(&a).unwrap();
        approx(got.as_slice(), l.as_slice(), 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(cholesky(&a), Err(SolveError::NotPositiveDefinite));
    }

    #[test]
    fn cholesky_solve_solves_spd_system() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let b = vec![1.0, 2.0];
        let x = cholesky_solve(&a, &b).unwrap();
        let back = a.matvec(&x);
        approx(&back, &b, 1e-12);
    }

    #[test]
    fn least_squares_recovers_exact_linear_model() {
        // y = 3 x0 - 2 x1, enough samples for full rank.
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, -1.0],
        ]);
        let y: Vec<f64> = (0..x.rows())
            .map(|i| 3.0 * x[(i, 0)] - 2.0 * x[(i, 1)])
            .collect();
        let beta = ridge_regression(&x, &y, 0.0).unwrap();
        approx(&beta, &[3.0, -2.0], 1e-10);
    }

    #[test]
    fn weights_zero_out_contaminated_samples() {
        // Same linear model plus one wild outlier whose weight is zero.
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![5.0, 5.0],
        ]);
        let mut y: Vec<f64> = (0..x.rows())
            .map(|i| 3.0 * x[(i, 0)] - 2.0 * x[(i, 1)])
            .collect();
        y[3] = 1e6;
        let w = vec![1.0, 1.0, 1.0, 0.0];
        let beta = weighted_least_squares(&x, &y, &w, 0.0).unwrap();
        approx(&beta, &[3.0, -2.0], 1e-8);
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![2.0, 4.0, 6.0];
        let b0 = ridge_regression(&x, &y, 0.0).unwrap()[0];
        let b1 = ridge_regression(&x, &y, 10.0).unwrap()[0];
        assert!((b0 - 2.0).abs() < 1e-10);
        assert!(b1 < b0 && b1 > 0.0);
    }

    #[test]
    fn rank_deficient_design_handled_by_jitter() {
        // Duplicate column ⇒ singular normal equations; jitter should rescue.
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let y = vec![2.0, 4.0, 6.0];
        let beta = ridge_regression(&x, &y, 0.0).unwrap();
        // The two coefficients split the slope; their sum predicts y.
        let pred: Vec<f64> = (0..3)
            .map(|i| x.row(i).iter().zip(&beta).map(|(a, b)| a * b).sum())
            .collect();
        approx(&pred, &y, 1e-3);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let x = Matrix::zeros(3, 2);
        assert_eq!(
            weighted_least_squares(&x, &[1.0; 2], &[1.0; 3], 0.0),
            Err(SolveError::DimensionMismatch)
        );
        assert_eq!(
            cholesky_solve(&Matrix::identity(2), &[1.0; 3]),
            Err(SolveError::DimensionMismatch)
        );
    }
}
