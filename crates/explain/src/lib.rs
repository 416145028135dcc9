//! Model-interpretation substrate: Shapley-value attribution and LIME.
//!
//! AIIO's diagnosis function (paper §3.3) is SHAP run on each performance
//! model: the contribution `C_j` of counter `j` to the predicted
//! performance of one job, computed against a **zero background** so that
//! counters that are zero in the job's log receive exactly zero
//! contribution — the paper's robustness property. This crate provides:
//!
//! * [`exact`] — exact Shapley values by subset enumeration (the test
//!   oracle; exponential, fine for ≤ 20 active features);
//! * [`kernel`] — Kernel SHAP (Lundberg & Lee, 2017): coalition sampling
//!   with Shapley-kernel weights and a constrained weighted least squares,
//!   exactly the paper's "SHAP Kernel Explainer" including the sparse-input
//!   handling;
//! * [`tree`] — path-dependent TreeSHAP for `aiio-gbdt` ensembles
//!   (polynomial-time, used for ablations and cross-checks);
//! * [`lime`] — LIME (Ribeiro et al., 2016): local perturbation plus
//!   distance-weighted ridge regression;
//! * [`metrics`] — the paper's Eq. 5 "RMSE for SHAP" diagnosis-quality
//!   metric and local-accuracy checks;
//! * [`global`] — PDP (the "traditional method" the paper contrasts SHAP
//!   against) and permutation importance.
//!
//! All explainers return an [`Attribution`]: per-feature contributions plus
//! the expected (background) prediction, satisfying
//! `expected + Σ values ≈ f(x)` (local accuracy).

pub mod exact;
pub mod global;
pub mod kernel;
pub mod lime;
pub mod metrics;
pub mod tree;

use aiio_gbdt::{Booster, MaskedBooster};
use serde::{Deserialize, Serialize};

/// The sparsity mask of the paper's robustness guarantee (§3.3): indices
/// whose value differs from the background.
///
/// Every attribution-producing function must restrict its work to this
/// set so that counters absent from a job's log — zero in the input and
/// zero in the background — provably receive exactly zero attribution.
/// This is the single routing point the `xtask` sparsity-guarantee lint
/// (`AIIO-S001`) checks for.
///
/// The comparison is intentionally exact: "absent" in a Darshan log means
/// the counter is exactly the background value, not merely close to it.
pub fn sparsity_mask(x: &[f64], background: &[f64]) -> Vec<usize> {
    assert_eq!(x.len(), background.len(), "x/background length mismatch");
    // xtask-allow: AIIO-F001 — exact background equality defines the mask
    (0..x.len()).filter(|&i| x[i] != background[i]).collect()
}

/// A model that can be explained: batch prediction over raw feature rows.
pub trait Predictor: Sync {
    /// Predict a batch of rows.
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64>;

    /// Predict a single row.
    fn predict_one(&self, row: &[f64]) -> f64 {
        self.predict_batch(std::slice::from_ref(&row.to_vec()))[0]
    }

    /// Prepare the evaluation of coalitions of `x` against `background`
    /// over the features `active` (at most 64): bit `b` of a coalition mask
    /// set means feature `active[b]` takes its value from `x`, and every
    /// other feature keeps the background's value (see [`coalition_row`]).
    ///
    /// The default materialises each coalition's row and calls
    /// [`Predictor::predict_batch`]. A model overrides it to do its
    /// per-explanation work once — compiling trees against `x` and
    /// `background`, say — and to skip building rows. An override must
    /// return exactly the bits of the default: Kernel SHAP's output may not
    /// depend on which path a model takes.
    fn coalitions<'a>(
        &'a self,
        x: &'a [f64],
        background: &'a [f64],
        active: &'a [usize],
    ) -> Box<dyn CoalitionEval + 'a> {
        Box::new(RowCoalitions {
            model: self,
            x,
            background,
            active,
        })
    }
}

/// The coalition evaluator of one explanation (see
/// [`Predictor::coalitions`]). Chunks of masks may be evaluated
/// concurrently.
pub trait CoalitionEval: Sync {
    /// The model's output at each coalition of `masks`, in order.
    fn predict(&self, masks: &[u64]) -> Vec<f64>;
}

/// The default [`CoalitionEval`]: materialised rows through
/// [`Predictor::predict_batch`].
struct RowCoalitions<'a, P: ?Sized> {
    model: &'a P,
    x: &'a [f64],
    background: &'a [f64],
    active: &'a [usize],
}

impl<P: Predictor + ?Sized> CoalitionEval for RowCoalitions<'_, P> {
    fn predict(&self, masks: &[u64]) -> Vec<f64> {
        let rows: Vec<Vec<f64>> = masks
            .iter()
            .map(|&mask| coalition_row(self.x, self.background, self.active, mask))
            .collect();
        self.model.predict_batch(&rows)
    }
}

/// The row of coalition `mask`: `background`, with `x`'s value at each
/// feature `active[b]` whose mask bit `b` is set.
pub fn coalition_row(x: &[f64], background: &[f64], active: &[usize], mask: u64) -> Vec<f64> {
    let mut row = background.to_vec();
    for (bit, &feat) in active.iter().enumerate() {
        if mask >> bit & 1 == 1 {
            row[feat] = x[feat];
        }
    }
    row
}

/// Apply `f` to the row of every coalition in `masks`, each written in
/// turn into one reused buffer — the row-building half of a row-at-a-time
/// [`CoalitionEval`].
pub fn map_coalition_rows(
    x: &[f64],
    background: &[f64],
    active: &[usize],
    masks: &[u64],
    mut f: impl FnMut(&[f64]) -> f64,
) -> Vec<f64> {
    let mut row = background.to_vec();
    masks
        .iter()
        .map(|&mask| {
            for (bit, &feat) in active.iter().enumerate() {
                row[feat] = if mask >> bit & 1 == 1 {
                    x[feat]
                } else {
                    background[feat]
                };
            }
            f(&row)
        })
        .collect()
}

/// Wrap a plain function as a [`Predictor`].
pub struct FnPredictor<F: Fn(&[f64]) -> f64 + Sync>(pub F);

impl<F: Fn(&[f64]) -> f64 + Sync> Predictor for FnPredictor<F> {
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| (self.0)(r)).collect()
    }
}

/// Gradient-boosted trees evaluate coalitions through
/// [`Booster::masked`], compiled once per explanation.
impl Predictor for Booster {
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        self.predict(rows)
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        Booster::predict_one(self, row)
    }

    fn coalitions<'a>(
        &'a self,
        x: &'a [f64],
        background: &'a [f64],
        active: &'a [usize],
    ) -> Box<dyn CoalitionEval + 'a> {
        Box::new(self.masked(x, background, active))
    }
}

impl CoalitionEval for MaskedBooster {
    fn predict(&self, masks: &[u64]) -> Vec<f64> {
        masks.iter().map(|&mask| self.predict_mask(mask)).collect()
    }
}

/// Per-feature attribution of one prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribution {
    /// Contribution of each feature (aligned with the input row).
    pub values: Vec<f64>,
    /// Expected model output over the background (`φ0`).
    pub expected: f64,
}

impl Attribution {
    /// `expected + Σ values` — should equal the model output at the
    /// explained point (local accuracy).
    pub fn reconstructed(&self) -> f64 {
        self.expected + self.values.iter().sum::<f64>()
    }

    /// Indices sorted by most-negative contribution first (the paper's
    /// bottleneck ranking).
    pub fn most_negative_first(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        idx.sort_by(|&a, &b| self.values[a].total_cmp(&self.values[b]));
        idx
    }

    /// Indices sorted by absolute contribution, largest first.
    pub fn largest_magnitude_first(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        idx.sort_by(|&a, &b| self.values[b].abs().total_cmp(&self.values[a].abs()));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_predictor_wraps_closures() {
        let p = FnPredictor(|x: &[f64]| x[0] * 2.0);
        assert_eq!(p.predict_one(&[3.0]), 6.0);
        assert_eq!(p.predict_batch(&[vec![1.0], vec![2.0]]), vec![2.0, 4.0]);
    }

    /// A booster seen only through `predict_batch`.
    struct Opaque<'a>(&'a Booster);

    impl Predictor for Opaque<'_> {
        fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
            self.0.predict(rows)
        }
    }

    #[test]
    fn booster_coalitions_match_the_default_path_bit_for_bit() {
        let x: Vec<Vec<f64>> = (0..200)
            .map(|i| (0..6).map(|j| ((i * (j + 3)) % 5) as f64).collect())
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[1] - r[4] + r[5]).collect();
        let cfg = aiio_gbdt::GbdtConfig {
            n_rounds: 25,
            ..aiio_gbdt::GbdtConfig::lightgbm_like()
        };
        let b = Booster::fit(&cfg, &x, &y, None).unwrap();
        let point = [4.0, 0.0, 2.0, 3.0, 1.0, 2.0];
        for background in [[0.0; 6], [1.0, 1.0, 2.0, 0.0, 1.0, 4.0]] {
            let active = sparsity_mask(&point, &background);
            let masks: Vec<u64> = (0..1u64 << active.len()).collect();
            let fast = b.coalitions(&point, &background, &active).predict(&masks);
            let slow = Opaque(&b)
                .coalitions(&point, &background, &active)
                .predict(&masks);
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&slow));
        }
    }

    #[test]
    fn map_coalition_rows_writes_each_coalition_row() {
        let (x, bg, active) = ([5.0, 6.0, 7.0], [1.0, 2.0, 3.0], [0, 2]);
        let masks = [0b00, 0b01, 0b10, 0b11, 0b01];
        let mut seen = Vec::new();
        map_coalition_rows(&x, &bg, &active, &masks, |row| {
            seen.push(row.to_vec());
            0.0
        });
        let want: Vec<Vec<f64>> = masks
            .iter()
            .map(|&m| coalition_row(&x, &bg, &active, m))
            .collect();
        assert_eq!(seen, want);
        assert_eq!(want[3], vec![5.0, 2.0, 7.0]);
    }

    #[test]
    fn attribution_orderings() {
        let a = Attribution {
            values: vec![0.5, -2.0, 1.0, -0.1],
            expected: 3.0,
        };
        assert_eq!(a.most_negative_first()[0], 1);
        assert_eq!(a.largest_magnitude_first()[0], 1);
        assert_eq!(a.largest_magnitude_first()[1], 2);
        assert!((a.reconstructed() - 2.4).abs() < 1e-12);
    }
}
