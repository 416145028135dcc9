//! Kernel SHAP (Lundberg & Lee, 2017) — the paper's "SHAP Kernel
//! Explainer", model-agnostic and sparsity-aware.
//!
//! Coalitions of *active* features (value ≠ background) are evaluated
//! through the model with masked-out features set to the background; a
//! weighted least squares with the Shapley kernel recovers the
//! attributions. The sum constraint `Σφ = f(x) − f(background)` is enforced
//! by variable elimination, so local accuracy holds by construction.
//! Features equal to the background never enter the regression and receive
//! exactly zero attribution — the paper's robustness-to-sparsity behaviour
//! (§3.3 "Sparse Darshan log input is required for diagnosis functions").

use crate::{Attribution, Predictor};
use aiio_linalg::{Matrix, WeightedLeastSquares};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Kernel SHAP configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelShapConfig {
    /// Maximum model evaluations (coalitions). When all `2^k - 2` proper
    /// coalitions fit, the result is exact.
    pub max_evals: usize,
    /// RNG seed for coalition sampling.
    pub seed: u64,
}

impl Default for KernelShapConfig {
    fn default() -> Self {
        Self {
            max_evals: 2048,
            seed: 0,
        }
    }
}

/// The Shapley kernel weight for a coalition of size `s` out of `k`.
fn shapley_kernel(k: usize, s: usize) -> f64 {
    debug_assert!(s >= 1 && s < k);
    let binom = binomial(k, s);
    (k as f64 - 1.0) / (binom * s as f64 * (k - s) as f64)
}

fn binomial(n: usize, r: usize) -> f64 {
    let r = r.min(n - r);
    let mut v = 1.0;
    for i in 0..r {
        v = v * (n - i) as f64 / (i + 1) as f64;
    }
    v
}

/// Most active features a [`CoalitionPlan`] covers: coalitions are `u64`
/// bitmasks over the active set.
pub const MAX_ACTIVE: usize = 64;

/// The part of a Kernel SHAP explanation that depends only on the active
/// count `k` and the [`KernelShapConfig`]: the coalition masks and the
/// constrained weighted least squares over the eliminated-variable design
/// with the masks' Shapley-kernel weights, prepared down to its Cholesky
/// factor. Explaining a job with `k` active features then costs the model
/// evaluations, `XᵀWy` and two triangular solves.
#[derive(Debug, Clone)]
pub struct CoalitionPlan {
    config: KernelShapConfig,
    masks: Vec<u64>,
    /// `None` when no regression is needed or possible (`k < 2` or
    /// `k > MAX_ACTIVE`).
    wls: Option<WeightedLeastSquares>,
}

impl CoalitionPlan {
    /// Plan explanations of jobs with `k` active features.
    ///
    /// `k` up to [`MAX_ACTIVE`] is supported. A larger `k` yields a plan
    /// without coalitions, and explanations through it take the
    /// solver-failure fallback: the regression's `β` is zero, so every
    /// active feature but the last gets zero and the last gets
    /// `f(x) − f(background)`, which keeps local accuracy.
    pub fn new(k: usize, config: &KernelShapConfig) -> Self {
        let mut plan = CoalitionPlan {
            config: config.clone(),
            masks: Vec::new(),
            wls: None,
        };
        if !(2..=MAX_ACTIVE).contains(&k) {
            return plan;
        }
        let (masks, weights) = coalitions(k, config);
        // Constrained WLS by eliminating the last variable:
        //   y_S - z_last (fx - f0)  =  Σ_{j<k-1} φ_j (z_j - z_last)
        let p = k - 1;
        let mut design = Matrix::zeros(masks.len(), p);
        for (r, &mask) in masks.iter().enumerate() {
            let z_last = (mask >> (k - 1) & 1) as f64;
            for j in 0..p {
                let z_j = (mask >> j & 1) as f64;
                design[(r, j)] = z_j - z_last;
            }
        }
        plan.wls = WeightedLeastSquares::new(&design, &weights, 0.0).ok();
        plan.masks = masks;
        plan
    }

    /// The coalitions evaluated per explanation, in regression-row order.
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// The configuration the plan was built for.
    pub fn config(&self) -> &KernelShapConfig {
        &self.config
    }
}

/// Choose coalitions: full enumeration when it fits the budget,
/// otherwise paired sampling with level-weighted sizes. `2 <= k <= 64`.
fn coalitions(k: usize, config: &KernelShapConfig) -> (Vec<u64>, Vec<f64>) {
    let all = u64::MAX >> (64 - k); // the grand coalition
    let full = all - 1; // proper nonempty subsets
    if full <= config.max_evals as u64 {
        let masks: Vec<u64> = (1..all).collect();
        let weights = masks
            .iter()
            .map(|m| shapley_kernel(k, m.count_ones() as usize))
            .collect();
        return (masks, weights);
    }
    let mut masks = Vec::with_capacity(config.max_evals);
    let mut weights = Vec::with_capacity(config.max_evals);
    // Always include every singleton and every (k-1)-coalition — the
    // highest-weight levels.
    for bit in 0..k {
        let m = 1u64 << bit;
        masks.push(m);
        weights.push(shapley_kernel(k, 1));
        masks.push(all ^ m);
        weights.push(shapley_kernel(k, k - 1));
    }
    // Sample the rest in complement pairs; each sampled coalition
    // carries its kernel weight (duplicates simply add weight).
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    // Level distribution ∝ kernel weight × level size.
    let level_mass: Vec<f64> = (2..=k.saturating_sub(2))
        .map(|s| shapley_kernel(k, s) * binomial(k, s))
        .collect();
    let total_mass: f64 = level_mass.iter().sum();
    if total_mass <= 0.0 {
        return (masks, weights);
    }
    while masks.len() + 2 <= config.max_evals {
        // Draw a size.
        let mut pick = rng.gen_range(0.0..total_mass);
        let mut s = 2;
        for (i, m) in level_mass.iter().enumerate() {
            if pick < *m {
                s = i + 2;
                break;
            }
            pick -= m;
        }
        // Draw a random coalition of size s.
        let mut bits: Vec<usize> = (0..k).collect();
        for i in 0..s {
            let j = rng.gen_range(i..k);
            bits.swap(i, j);
        }
        let mask: u64 = bits[..s].iter().map(|b| 1u64 << b).sum();
        masks.push(mask);
        weights.push(shapley_kernel(k, s));
        masks.push(all ^ mask);
        weights.push(shapley_kernel(k, k - s));
    }
    (masks, weights)
}

/// A memo of [`CoalitionPlan`]s with one slot per active count, for
/// explainers that share one configuration (a service diagnosing many
/// jobs). Plans are pure functions of `(k, config)`, so a memoised plan
/// explains exactly as a fresh one does. A lookup whose config differs
/// from the memoised plan's, or whose `k` exceeds [`MAX_ACTIVE`], builds a
/// fresh plan without memoising it.
#[derive(Debug)]
pub struct PlanCache {
    slots: Vec<OnceLock<CoalitionPlan>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self {
            slots: (0..=MAX_ACTIVE).map(|_| OnceLock::new()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl PlanCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for `k` active features under `config`.
    pub fn plan(&self, k: usize, config: &KernelShapConfig) -> Cow<'_, CoalitionPlan> {
        let Some(slot) = self.slots.get(k) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Cow::Owned(CoalitionPlan::new(k, config));
        };
        if let Some(plan) = slot.get().filter(|p| p.config == *config) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Cow::Borrowed(plan);
        }
        // Concurrent first calls may both build; the slot keeps one plan
        // and both count as misses.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = slot.get_or_init(|| CoalitionPlan::new(k, config));
        if plan.config == *config {
            Cow::Borrowed(plan)
        } else {
            Cow::Owned(CoalitionPlan::new(k, config))
        }
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build a plan.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Kernel SHAP explainer.
///
/// ```
/// use aiio_explain::kernel::KernelShap;
/// use aiio_explain::FnPredictor;
/// let f = FnPredictor(|x: &[f64]| 3.0 * x[0] - 2.0 * x[1]);
/// let attr = KernelShap::default().explain(&f, &[1.0, 1.0, 0.0], &[0.0; 3]);
/// assert!((attr.values[0] - 3.0).abs() < 1e-9);
/// assert!((attr.values[1] + 2.0).abs() < 1e-9);
/// assert_eq!(attr.values[2], 0.0); // zero input, zero attribution
/// ```
#[derive(Debug, Clone, Default)]
pub struct KernelShap {
    config: KernelShapConfig,
}

impl KernelShap {
    pub fn new(config: KernelShapConfig) -> Self {
        Self { config }
    }

    /// Explain `model` at `x` against `background`.
    pub fn explain(&self, model: &dyn Predictor, x: &[f64], background: &[f64]) -> Attribution {
        self.explain_with_baseline(model, x, background, model.predict_one(background))
    }

    /// [`Self::explain`] with the baseline `f(background)` supplied by the
    /// caller — the hook for per-model background caches: the background
    /// prediction is the one model evaluation repeated diagnoses share, so
    /// callers that explain many jobs against one background compute it
    /// once. `expected` must equal `model.predict_one(background)`.
    pub fn explain_with_baseline(
        &self,
        model: &dyn Predictor,
        x: &[f64],
        background: &[f64],
        expected: f64,
    ) -> Attribution {
        self.explain_planned(model, x, background, expected, None)
    }

    /// [`Self::explain_with_baseline`] with the coalition plan taken from
    /// (and memoised in) `plans`; the result is bit-identical.
    pub fn explain_with_plans(
        &self,
        model: &dyn Predictor,
        x: &[f64],
        background: &[f64],
        expected: f64,
        plans: &PlanCache,
    ) -> Attribution {
        self.explain_planned(model, x, background, expected, Some(plans))
    }

    fn explain_planned(
        &self,
        model: &dyn Predictor,
        x: &[f64],
        background: &[f64],
        expected: f64,
        plans: Option<&PlanCache>,
    ) -> Attribution {
        let active = crate::sparsity_mask(x, background);
        let k = active.len();
        let mut values = vec![0.0; x.len()];
        if k == 0 {
            return Attribution { values, expected };
        }
        let fx = model.predict_one(x);
        if k == 1 {
            values[active[0]] = fx - expected;
            return Attribution { values, expected };
        }
        let plan = match plans {
            Some(plans) => plans.plan(k, &self.config),
            None => Cow::Owned(CoalitionPlan::new(k, &self.config)),
        };

        // Evaluate the model at every coalition, in parallel over the
        // stable chunk partition of the masks: predictions are per
        // coalition, so the chunked evaluation is bit-identical at any
        // thread count.
        let fvals = if plan.masks.is_empty() {
            Vec::new()
        } else {
            let eval = model.coalitions(x, background, &active);
            aiio_par::map_chunks(&plan.masks, |chunk| eval.predict(chunk))
        };

        let delta = fx - expected;
        let target: Vec<f64> = plan
            .masks
            .iter()
            .zip(&fvals)
            .map(|(&mask, &fval)| {
                let z_last = (mask >> (k - 1) & 1) as f64;
                (fval - expected) - z_last * delta
            })
            .collect();
        let mut phi_active = plan
            .wls
            .as_ref()
            .and_then(|wls| wls.solve(&target).ok())
            .unwrap_or_else(|| vec![0.0; k - 1]);
        let last = delta - phi_active.iter().sum::<f64>();
        phi_active.push(last);

        for (bit, &feat) in active.iter().enumerate() {
            values[feat] = phi_active[bit];
        }
        Attribution { values, expected }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_shapley;
    use crate::FnPredictor;

    fn close(a: &[f64], b: &[f64], tol: f64) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} !~ {b:?}");
        }
    }

    #[test]
    fn matches_exact_for_full_enumeration() {
        let f = FnPredictor(|x: &[f64]| x[0] * x[1] + 2.0 * x[2] - x[3] * x[3]);
        let x = [1.0, 2.0, 3.0, 0.5];
        let bg = [0.0; 4];
        let ks = KernelShap::new(KernelShapConfig::default());
        let got = ks.explain(&f, &x, &bg);
        let want = exact_shapley(&f, &x, &bg);
        close(&got.values, &want.values, 1e-8);
        assert!((got.expected - want.expected).abs() < 1e-10);
    }

    #[test]
    fn zero_background_features_get_zero() {
        let f = FnPredictor(|x: &[f64]| x.iter().sum::<f64>());
        let x = [1.0, 0.0, 2.0, 0.0];
        let got = KernelShap::default().explain(&f, &x, &[0.0; 4]);
        assert_eq!(got.values[1], 0.0);
        assert_eq!(got.values[3], 0.0);
        assert!((got.values[0] - 1.0).abs() < 1e-9);
        assert!((got.values[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn local_accuracy_always_holds() {
        let f = FnPredictor(|x: &[f64]| (x[0] - x[1]).powi(2) + x[2].exp());
        let x = [0.7, -0.3, 0.4];
        let got = KernelShap::default().explain(&f, &x, &[0.0; 3]);
        assert!((got.reconstructed() - f.predict_one(&x)).abs() < 1e-9);
    }

    #[test]
    fn single_active_feature_gets_full_delta() {
        let f = FnPredictor(|x: &[f64]| 5.0 + 2.0 * x[1]);
        let got = KernelShap::default().explain(&f, &[0.0, 3.0], &[0.0, 0.0]);
        assert!((got.values[1] - 6.0).abs() < 1e-12);
        assert_eq!(got.values[0], 0.0);
        assert!((got.expected - 5.0).abs() < 1e-12);
    }

    #[test]
    fn no_active_features_yields_all_zero() {
        let f = FnPredictor(|x: &[f64]| x[0] + 1.0);
        let got = KernelShap::default().explain(&f, &[0.0], &[0.0]);
        assert_eq!(got.values, vec![0.0]);
    }

    #[test]
    fn sampling_mode_approximates_exact() {
        // 14 active features: 2^14-2 = 16382 coalitions > budget of 600.
        let f = FnPredictor(|x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (i as f64 + 1.0) * v)
                .sum::<f64>()
                + x[0] * x[1]
                + x[2] * x[3]
        });
        let x: Vec<f64> = (0..14).map(|i| 1.0 + 0.1 * i as f64).collect();
        let bg = vec![0.0; 14];
        let got = KernelShap::new(KernelShapConfig {
            max_evals: 600,
            seed: 3,
        })
        .explain(&f, &x, &bg);
        let want = exact_shapley(&f, &x, &bg);
        // Loose tolerance: it's a sampled estimate.
        let scale = want.values.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        for (g, w) in got.values.iter().zip(&want.values) {
            assert!((g - w).abs() < 0.15 * scale, "got {g} want {w}");
        }
        // Local accuracy still exact thanks to the constraint.
        assert!((got.reconstructed() - f.predict_one(&x)).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let f = FnPredictor(|x: &[f64]| x.iter().product::<f64>());
        let x: Vec<f64> = (0..13).map(|i| 1.0 + i as f64 * 0.01).collect();
        let bg = vec![0.0; 13];
        let cfg = KernelShapConfig {
            max_evals: 300,
            seed: 9,
        };
        let a = KernelShap::new(cfg.clone()).explain(&f, &x, &bg);
        let b = KernelShap::new(cfg).explain(&f, &x, &bg);
        assert_eq!(a, b);
    }

    /// The explanation as computed before coalition plans existed: every
    /// coalition materialised as a row, one batch prediction, then a
    /// one-shot weighted least squares over the dense design.
    fn explain_reference(
        model: &dyn Predictor,
        x: &[f64],
        bg: &[f64],
        cfg: &KernelShapConfig,
    ) -> Attribution {
        let expected = model.predict_one(bg);
        let active = crate::sparsity_mask(x, bg);
        let k = active.len();
        let mut values = vec![0.0; x.len()];
        let fx = model.predict_one(x);
        let masks = CoalitionPlan::new(k, cfg).masks;
        let rows: Vec<Vec<f64>> = masks
            .iter()
            .map(|&m| crate::coalition_row(x, bg, &active, m))
            .collect();
        let fvals = model.predict_batch(&rows);
        let delta = fx - expected;
        let p = k - 1;
        let mut design = Matrix::zeros(masks.len(), p);
        let mut target = vec![0.0; masks.len()];
        let mut weights = vec![0.0; masks.len()];
        for (r, &mask) in masks.iter().enumerate() {
            let z_last = (mask >> (k - 1) & 1) as f64;
            for j in 0..p {
                design[(r, j)] = (mask >> j & 1) as f64 - z_last;
            }
            target[r] = (fvals[r] - expected) - z_last * delta;
            weights[r] = shapley_kernel(k, mask.count_ones() as usize);
        }
        let mut phi = aiio_linalg::weighted_least_squares(&design, &target, &weights, 0.0)
            .unwrap_or_else(|_| vec![0.0; p]);
        phi.push(delta - phi.iter().sum::<f64>());
        for (bit, &feat) in active.iter().enumerate() {
            values[feat] = phi[bit];
        }
        Attribution { values, expected }
    }

    fn bits(a: &Attribution) -> Vec<u64> {
        std::iter::once(a.expected)
            .chain(a.values.iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn planned_explanations_match_the_row_reference_bit_for_bit() {
        let f = FnPredictor(|x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (i as f64 - 3.5) * v)
                .sum::<f64>()
                + (x[0] * x[3]).sin()
                + x[2] * x[5] * x[7]
        });
        let mut x: Vec<f64> = (0..16).map(|i| 0.3 + 0.07 * i as f64).collect();
        x[4] = 0.0;
        x[11] = 0.0;
        let bg = vec![0.0; 16];
        for (max_evals, seed) in [(2048, 0), (2048, 5), (300, 1)] {
            for k in [2, 5, 9, 14] {
                let xk: Vec<f64> = x
                    .iter()
                    .take(k + 2)
                    .copied()
                    .chain(std::iter::repeat(0.0))
                    .take(16)
                    .collect();
                let cfg = KernelShapConfig { max_evals, seed };
                let want = explain_reference(&f, &xk, &bg, &cfg);
                let ks = KernelShap::new(cfg.clone());
                let got = ks.explain(&f, &xk, &bg);
                assert_eq!(bits(&got), bits(&want), "k~{k} max_evals {max_evals}");
                let plans = PlanCache::new();
                for _ in 0..2 {
                    let cached = ks.explain_with_plans(&f, &xk, &bg, want.expected, &plans);
                    assert_eq!(bits(&cached), bits(&want));
                }
                assert_eq!((plans.hits(), plans.misses()), (1, 1));
            }
        }
    }

    #[test]
    fn plan_cache_rebuilds_for_a_different_config() {
        let plans = PlanCache::new();
        let a = KernelShapConfig {
            max_evals: 64,
            seed: 1,
        };
        let b = KernelShapConfig {
            max_evals: 64,
            seed: 2,
        };
        assert_eq!(plans.plan(9, &a).config(), &a);
        assert_eq!(plans.plan(9, &b).config(), &b);
        assert_eq!(plans.plan(9, &a).masks(), CoalitionPlan::new(9, &a).masks());
        assert_eq!((plans.hits(), plans.misses()), (1, 2));
        // Beyond the slots: built fresh every time, never memoised.
        assert!(plans.plan(MAX_ACTIVE + 1, &a).masks().is_empty());
        assert_eq!(plans.misses(), 3);
    }

    fn linear_over(n: usize) -> (impl Fn(&[f64]) -> f64 + Sync, Vec<f64>) {
        let f = move |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (0.1 + 0.01 * i as f64) * v)
                .sum::<f64>()
        };
        let x = (0..n).map(|i| 1.0 + 0.02 * i as f64).collect();
        (f, x)
    }

    #[test]
    fn up_to_max_active_features_are_explained_exactly_for_linear_models() {
        for k in [63, MAX_ACTIVE] {
            let (f, x) = linear_over(k);
            let plan = CoalitionPlan::new(k, &KernelShapConfig::default());
            assert_eq!(plan.masks().len(), KernelShapConfig::default().max_evals);
            // Every mask stays inside the k active bits; the grand
            // coalition's complement pairs cover all of them.
            let all = u64::MAX >> (64 - k);
            assert!(plan
                .masks()
                .iter()
                .all(|&m| m != 0 && m != all && m & !all == 0));
            let got = KernelShap::default().explain(&FnPredictor(&f), &x, &vec![0.0; k]);
            for (i, (v, xi)) in got.values.iter().zip(&x).enumerate() {
                let want = (0.1 + 0.01 * i as f64) * xi;
                assert!((v - want).abs() < 1e-9, "k {k} feature {i}: {v} vs {want}");
            }
        }
    }

    #[test]
    fn more_than_max_active_features_take_the_solver_failure_fallback() {
        let k = 70;
        let (f, x) = linear_over(k);
        let plan = CoalitionPlan::new(k, &KernelShapConfig::default());
        assert!(plan.masks().is_empty());
        let f = FnPredictor(&f);
        let got = KernelShap::default().explain(&f, &x, &vec![0.0; k]);
        // β = 0: all of f(x) - f(0) lands on the last active feature.
        assert!(got.values[..k - 1].iter().all(|&v| v == 0.0));
        assert_eq!(got.values[k - 1], f.predict_one(&x) - got.expected);
        assert!((got.reconstructed() - f.predict_one(&x)).abs() < 1e-9);
    }

    #[test]
    fn kernel_weights_are_symmetric_and_positive() {
        for k in 2..10 {
            for s in 1..k {
                let w = shapley_kernel(k, s);
                assert!(w > 0.0);
                assert!((w - shapley_kernel(k, k - s)).abs() < 1e-12);
            }
        }
    }
}
