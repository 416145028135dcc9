//! Scalar and vector activation functions.
//!
//! Includes the exact `sparsemax` projection (Martins & Astudillo, 2016)
//! that TabNet's attentive transformer uses for feature-selection masks,
//! together with its Jacobian-vector product for backpropagation.

/// Rectified linear unit.
#[inline]
pub fn relu(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Derivative of [`relu`] (subgradient 0 at the kink).
#[inline]
pub fn relu_grad(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Logistic sigmoid, numerically stable for large |x|.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Gated linear unit over a pre-split pair: `a * sigmoid(b)`.
#[inline]
pub fn glu(a: f64, b: f64) -> f64 {
    a * sigmoid(b)
}

/// Numerically-stable softmax of a slice (subtracts the max before `exp`).
pub fn softmax(z: &[f64]) -> Vec<f64> {
    if z.is_empty() {
        return Vec::new();
    }
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = z.iter().map(|&x| (x - m).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Exact sparsemax: the Euclidean projection of `z` onto the probability
/// simplex. Unlike softmax it produces genuinely sparse distributions,
/// which is what gives TabNet's masks their feature-selection behaviour.
///
/// Returns a vector `p` with `p_i >= 0`, `Σ p_i = 1`, and `p_i = 0` outside
/// the support.
pub fn sparsemax(z: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; z.len()];
    sparsemax_into(z, &mut Vec::new(), &mut out);
    out
}

/// [`sparsemax`] writing into `out` (`out.len() == z.len()`), with `keys`
/// as a reusable sort buffer — the allocation-free form for per-row
/// forward passes.
///
/// The values are sorted through their [`f64::total_cmp`] keys, integers
/// that compare exactly as `total_cmp` compares the values. Equal keys are
/// equal bits, so any sort of the keys yields the one descending sequence
/// a stable `total_cmp` sort would, and the prefix sums below see the
/// values in that order.
pub fn sparsemax_into(z: &[f64], keys: &mut Vec<i64>, out: &mut [f64]) {
    assert_eq!(z.len(), out.len(), "sparsemax length mismatch");
    if z.is_empty() {
        return;
    }
    // Sort descending, find the support size via the threshold condition
    // 1 + j*z_(j) > Σ_{i<=j} z_(i).
    keys.clear();
    keys.extend(z.iter().map(|&v| total_order_key(v)));
    keys.sort_unstable();
    let mut cumsum = 0.0;
    let mut support = 0;
    let mut support_sum = 0.0;
    for (j, &key) in keys.iter().rev().enumerate() {
        let zj = f64::from_bits(total_order_key_inverse(key));
        cumsum += zj;
        let jf = (j + 1) as f64;
        if 1.0 + jf * zj > cumsum {
            support = j + 1;
            support_sum = cumsum;
        }
    }
    let tau = (support_sum - 1.0) / support as f64;
    for (o, &x) in out.iter_mut().zip(z) {
        *o = (x - tau).max(0.0);
    }
}

/// The integer [`f64::total_cmp`] orders by: flipping the magnitude bits
/// of negative values makes two's-complement order the total order.
fn total_order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The bits of the value whose [`total_order_key`] is `key` (the flip
/// keeps the sign bit, so it undoes itself).
fn total_order_key_inverse(key: i64) -> u64 {
    (key ^ (((key >> 63) as u64) >> 1) as i64) as u64
}

/// Jacobian-vector product of sparsemax at output `p` applied to upstream
/// gradient `g`: `J^T g` where `J = diag(s) - s s^T / |S|` and `s` is the
/// support indicator. Needed for TabNet backprop.
pub fn sparsemax_jvp(p: &[f64], g: &[f64]) -> Vec<f64> {
    assert_eq!(p.len(), g.len());
    let support: Vec<bool> = p.iter().map(|&x| x > 0.0).collect();
    let k = support.iter().filter(|&&s| s).count();
    if k == 0 {
        return vec![0.0; p.len()];
    }
    let mean_g: f64 = g
        .iter()
        .zip(&support)
        .filter(|(_, &s)| s)
        .map(|(&x, _)| x)
        .sum::<f64>()
        / k as f64;
    g.iter()
        .zip(&support)
        .map(|(&gi, &s)| if s { gi - mean_g } else { 0.0 })
        .collect()
}

/// `log10(x + 1)` — the paper's Eq. 2 feature transform.
#[inline]
pub fn log1p10(x: f64) -> f64 {
    (x + 1.0).log10()
}

/// Inverse of [`log1p10`].
#[inline]
pub fn inv_log1p10(y: f64) -> f64 {
    10f64.powf(y) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The sort-by-`total_cmp` sparsemax the key sort must reproduce.
    fn sparsemax_reference(z: &[f64]) -> Vec<f64> {
        if z.is_empty() {
            return Vec::new();
        }
        let mut sorted: Vec<f64> = z.to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let mut cumsum = 0.0;
        let mut support = 0;
        let mut support_sum = 0.0;
        for (j, &zj) in sorted.iter().enumerate() {
            cumsum += zj;
            let jf = (j + 1) as f64;
            if 1.0 + jf * zj > cumsum {
                support = j + 1;
                support_sum = cumsum;
            }
        }
        let tau = (support_sum - 1.0) / support as f64;
        z.iter().map(|&x| (x - tau).max(0.0)).collect()
    }

    #[test]
    fn key_sorted_sparsemax_matches_the_total_cmp_sort_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut keys = Vec::new();
        for len in 0..60 {
            for _ in 0..20 {
                // Coarse values force ties; some rows mix in specials.
                let z: Vec<f64> = (0..len)
                    .map(|_| match rng.gen_range(0..10) {
                        0 => specials[rng.gen_range(0..specials.len())],
                        1..=4 => rng.gen_range(-4..4) as f64 * 0.25,
                        _ => rng.gen_range(-3.0..2.0),
                    })
                    .collect();
                let mut out = vec![0.0; len];
                sparsemax_into(&z, &mut keys, &mut out);
                let want = sparsemax_reference(&z);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&want), "z = {z:?}");
            }
        }
    }

    #[test]
    fn total_order_keys_order_like_total_cmp_and_invert() {
        let vals = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            3.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for &a in &vals {
            assert_eq!(total_order_key_inverse(total_order_key(a)), a.to_bits());
            for &b in &vals {
                assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b));
            }
        }
    }

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(relu(-3.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(1.0), 1.0);
    }

    #[test]
    fn sigmoid_symmetry_and_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] < p[1] && p[1] < p[2]);
    }

    #[test]
    fn softmax_stable_under_large_inputs() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sparsemax_matches_softmax_limit_on_uniform() {
        let p = sparsemax(&[0.5, 0.5, 0.5]);
        for &x in &p {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sparsemax_is_sparse_for_spread_inputs() {
        let p = sparsemax(&[3.0, 0.0, -3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(p[0], 1.0);
        assert_eq!(p[1], 0.0);
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn sparsemax_simplex_properties() {
        let z = [0.9, 0.2, -0.1, 0.4];
        let p = sparsemax(&z);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&x| x >= 0.0));
        // Order preserved on the support.
        assert!(p[0] >= p[3] && p[3] >= p[1]);
    }

    #[test]
    fn sparsemax_shift_invariance() {
        // Projection onto the simplex is invariant to adding a constant.
        let z = [0.3, -0.2, 0.8];
        let p1 = sparsemax(&z);
        let shifted: Vec<f64> = z.iter().map(|x| x + 5.0).collect();
        let p2 = sparsemax(&shifted);
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sparsemax_jvp_zero_mean_on_support() {
        let p = sparsemax(&[0.9, 0.2, -5.0]);
        let g = [1.0, 2.0, 3.0];
        let jvp = sparsemax_jvp(&p, &g);
        // Off-support entries get zero gradient.
        assert_eq!(jvp[2], 0.0);
        // On-support entries are centred.
        let s: f64 = jvp.iter().take(2).sum();
        assert!(s.abs() < 1e-12);
    }

    #[test]
    fn sparsemax_jvp_finite_difference_check() {
        // Directional derivative of sparsemax along g matches JVP where the
        // support is stable.
        let z = [0.9, 0.2, -0.1, 0.4];
        let g = [0.3, -0.1, 0.2, 0.05];
        let eps = 1e-7;
        let zp: Vec<f64> = z.iter().zip(&g).map(|(a, b)| a + eps * b).collect();
        let zm: Vec<f64> = z.iter().zip(&g).map(|(a, b)| a - eps * b).collect();
        let fd: Vec<f64> = sparsemax(&zp)
            .iter()
            .zip(sparsemax(&zm))
            .map(|(a, b)| (a - b) / (2.0 * eps))
            .collect();
        let p = sparsemax(&z);
        let jvp = sparsemax_jvp(&p, &g);
        for (a, b) in fd.iter().zip(&jvp) {
            assert!((a - b).abs() < 1e-5, "fd {fd:?} vs jvp {jvp:?}");
        }
    }

    #[test]
    fn log_transform_roundtrip() {
        for &x in &[0.0, 1.0, 42.0, 6309573.0] {
            let y = log1p10(x);
            assert!((inv_log1p10(y) - x).abs() < 1e-6 * (x + 1.0));
        }
        assert_eq!(log1p10(0.0), 0.0);
    }
}
