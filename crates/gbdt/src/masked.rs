//! Boosters compiled against one explanation's coalitions.
//!
//! Kernel SHAP evaluates a model at many *coalitions* of one job `x`
//! against a background: each coalition is a bitmask over the job's active
//! features (those where `x` differs from the background), and its row
//! takes `x`'s value at every active feature whose bit is set and the
//! background's value everywhere else. A split on a feature outside the
//! active set, or on one where `x` and the background fall on the same
//! side of the threshold, routes every coalition the same way, so
//! [`Booster::masked`] resolves it once. What is left tests one mask bit
//! per node.

use crate::booster::Booster;
use crate::tree::Node;

/// Marks a [`MaskedBooster`] link as a leaf (the low bits index `leaves`).
const LEAF: u32 = 1 << 31;

/// A split that still depends on the coalition: follow `next[1]` when mask
/// bit `bit` is set, `next[0]` when it is clear.
#[derive(Debug, Clone, Copy)]
struct MaskedNode {
    bit: u32,
    next: [u32; 2],
}

/// A [`Booster`] specialised to one `(x, background, active)` triple; see
/// the [module docs](self).
///
/// [`MaskedBooster::predict_mask`] returns exactly the bits
/// [`Booster::predict_one`] returns on the coalition's materialised row:
/// every tree lands on the same leaf, and the leaves are summed from the
/// base score in tree order.
#[derive(Debug, Clone)]
pub struct MaskedBooster {
    base_score: f64,
    /// One root link per tree, in tree order.
    roots: Vec<u32>,
    nodes: Vec<MaskedNode>,
    leaves: Vec<f64>,
}

impl Booster {
    /// Compile the prediction trees against the coalitions of `x` over
    /// `background`: bit `b` of a coalition mask selects `x[active[b]]`.
    ///
    /// `active` must list at most 64 features (the mask width), each with
    /// an index below `x.len() == background.len()`.
    pub fn masked(&self, x: &[f64], background: &[f64], active: &[usize]) -> MaskedBooster {
        debug_assert!(active.len() <= 64 && x.len() == background.len());
        let mut bit_of = vec![None; x.len()];
        for (bit, &feat) in active.iter().enumerate() {
            bit_of[feat] = Some(bit as u32);
        }
        let mut compiler = Compiler {
            x,
            background,
            bit_of: &bit_of,
            out: MaskedBooster {
                base_score: self.base_score(),
                roots: Vec::with_capacity(self.trees().len()),
                nodes: Vec::new(),
                leaves: Vec::new(),
            },
        };
        for tree in self.trees() {
            let root = compiler.link(tree.nodes(), 0);
            compiler.out.roots.push(root);
        }
        compiler.out
    }
}

struct Compiler<'a> {
    x: &'a [f64],
    background: &'a [f64],
    bit_of: &'a [Option<u32>],
    out: MaskedBooster,
}

impl Compiler<'_> {
    /// The link for the subtree at `nodes[i]`, skipping every split the
    /// coalitions cannot change.
    fn link(&mut self, nodes: &[Node], mut i: usize) -> u32 {
        loop {
            let n = &nodes[i];
            if n.is_leaf() {
                self.out.leaves.push(n.value);
                return (self.out.leaves.len() - 1) as u32 | LEAF;
            }
            let f = n.feature as usize;
            let background_left = self.background[f] <= n.threshold;
            match self.bit_of[f] {
                Some(bit) if (self.x[f] <= n.threshold) != background_left => {
                    let slot = self.out.nodes.len();
                    self.out.nodes.push(MaskedNode { bit, next: [0; 2] });
                    let left = self.link(nodes, n.left as usize);
                    let right = self.link(nodes, n.right as usize);
                    // A set bit takes x's side, a clear one the background's.
                    self.out.nodes[slot].next = if background_left {
                        [left, right]
                    } else {
                        [right, left]
                    };
                    return slot as u32;
                }
                _ => i = if background_left { n.left } else { n.right } as usize,
            }
        }
    }
}

impl MaskedBooster {
    /// The booster's prediction at coalition `mask`.
    pub fn predict_mask(&self, mask: u64) -> f64 {
        let mut p = self.base_score;
        for &root in &self.roots {
            let mut link = root;
            while link & LEAF == 0 {
                let n = &self.nodes[link as usize];
                link = n.next[(mask >> n.bit & 1) as usize];
            }
            p += self.leaves[(link & !LEAF) as usize];
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use crate::{Booster, GbdtConfig, Growth};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn row_of(x: &[f64], background: &[f64], active: &[usize], mask: u64) -> Vec<f64> {
        let mut row = background.to_vec();
        for (bit, &f) in active.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                row[f] = x[f];
            }
        }
        row
    }

    fn fitted(growth: Growth) -> Booster {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let x: Vec<Vec<f64>> = (0..300)
            .map(|_| {
                (0..8)
                    .map(|_| rng.gen_range(0.0..4.0_f64).floor())
                    .collect()
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * r[1] - r[2] + 0.5 * r[5]).collect();
        let cfg = GbdtConfig {
            growth,
            n_rounds: 30,
            max_depth: 4,
            ..GbdtConfig::xgboost_like()
        };
        Booster::fit(&cfg, &x, &y, None).unwrap()
    }

    #[test]
    fn masked_prediction_is_bit_identical_to_the_materialised_row() {
        for growth in [Growth::LevelWise, Growth::LeafWise, Growth::Oblivious] {
            let b = fitted(growth);
            // Integer-valued inputs put many coalition values exactly on
            // split thresholds; a nonzero background exercises both sides.
            let x = [3.0, 0.0, 2.0, 1.0, 0.0, 3.0, 2.0, 1.0];
            let background = [1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0];
            let active = active_of(&x, &background);
            let m = b.masked(&x, &background, &active);
            assert!(!m.nodes.is_empty());
            for mask in 0..1u64 << active.len() {
                let row = row_of(&x, &background, &active, mask);
                assert_eq!(
                    m.predict_mask(mask).to_bits(),
                    b.predict_one(&row).to_bits(),
                    "{growth:?} mask {mask:b}"
                );
            }
        }
    }

    fn active_of(x: &[f64], background: &[f64]) -> Vec<usize> {
        (0..x.len()).filter(|&i| x[i] != background[i]).collect()
    }

    #[test]
    fn no_active_features_compiles_to_constant_leaves() {
        let b = fitted(Growth::LevelWise);
        let x = [1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0, 0.0];
        let m = b.masked(&x, &x, &[]);
        assert!(m.nodes.is_empty());
        assert_eq!(m.predict_mask(0).to_bits(), b.predict_one(&x).to_bits());
    }
}
