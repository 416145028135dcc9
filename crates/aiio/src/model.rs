//! The five performance-function models behind one interface.

use aiio_explain::{map_coalition_rows, CoalitionEval, Predictor};
use aiio_gbdt::Booster;
use aiio_nn::{Mlp, MlpEval, MlpScratch, TabNet, TabNetEval, TabNetScratch};
use serde::{Deserialize, Serialize};

/// Which of the paper's five models a trained performance function is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Level-wise GBDT (XGBoost-style).
    XgboostLike,
    /// Leaf-wise GBDT (LightGBM-style).
    LightgbmLike,
    /// Oblivious GBDT (CatBoost-style).
    CatboostLike,
    /// Multilayer perceptron (paper Table 5).
    Mlp,
    /// TabNet.
    TabNet,
}

impl ModelKind {
    /// All five kinds in the paper's order (Table 2).
    pub const ALL: [ModelKind; 5] = [
        ModelKind::CatboostLike,
        ModelKind::LightgbmLike,
        ModelKind::XgboostLike,
        ModelKind::Mlp,
        ModelKind::TabNet,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::XgboostLike => "XGBoost",
            ModelKind::LightgbmLike => "LightGBM",
            ModelKind::CatboostLike => "CatBoost",
            ModelKind::Mlp => "MLP",
            ModelKind::TabNet => "TabNet",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A trained performance function of any kind.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnyModel {
    Gbdt(Booster),
    Mlp(Mlp),
    TabNet(TabNet),
}

impl AnyModel {
    /// Predict one transformed-feature row.
    pub fn predict_one(&self, x: &[f64]) -> f64 {
        match self {
            AnyModel::Gbdt(m) => m.predict_one(x),
            AnyModel::Mlp(m) => m.predict_one(x),
            AnyModel::TabNet(m) => m.predict_one(x),
        }
    }

    /// Predict a batch.
    pub fn predict_batch(&self, x: &[Vec<f64>]) -> Vec<f64> {
        match self {
            AnyModel::Gbdt(m) => m.predict(x),
            AnyModel::Mlp(m) => m.predict(x),
            AnyModel::TabNet(m) => m.predict(x),
        }
    }

    /// Access the underlying booster when this is a tree model (TreeSHAP).
    pub fn as_gbdt(&self) -> Option<&Booster> {
        match self {
            AnyModel::Gbdt(m) => Some(m),
            _ => None,
        }
    }
}

impl Predictor for AnyModel {
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        AnyModel::predict_batch(self, rows)
    }

    fn predict_one(&self, row: &[f64]) -> f64 {
        AnyModel::predict_one(self, row)
    }

    /// Trees compile against the explanation ([`Booster::masked`]); the
    /// networks run their eval forward over `&self` on one reused
    /// coalition row per chunk. Both return the default path's bits.
    fn coalitions<'a>(
        &'a self,
        x: &'a [f64],
        background: &'a [f64],
        active: &'a [usize],
    ) -> Box<dyn CoalitionEval + 'a> {
        match self {
            AnyModel::Gbdt(m) => m.coalitions(x, background, active),
            AnyModel::Mlp(m) => Box::new(RowwiseCoalitions {
                eval: m.eval(),
                x,
                background,
                active,
            }),
            AnyModel::TabNet(m) => Box::new(RowwiseCoalitions {
                eval: m.eval(),
                x,
                background,
                active,
            }),
        }
    }
}

/// A network's eval forward, one row at a time with reused buffers.
trait RowEval: Sync {
    type Scratch: Default;
    fn predict_row(&self, row: &[f64], scratch: &mut Self::Scratch) -> f64;
}

impl RowEval for MlpEval<'_> {
    type Scratch = MlpScratch;
    fn predict_row(&self, row: &[f64], scratch: &mut MlpScratch) -> f64 {
        MlpEval::predict_row(self, row, scratch)
    }
}

impl RowEval for TabNetEval<'_> {
    type Scratch = TabNetScratch;
    fn predict_row(&self, row: &[f64], scratch: &mut TabNetScratch) -> f64 {
        TabNetEval::predict_row(self, row, scratch)
    }
}

/// Coalitions through a [`RowEval`]: each chunk writes its coalitions in
/// turn into one scratch row.
struct RowwiseCoalitions<'a, E> {
    eval: E,
    x: &'a [f64],
    background: &'a [f64],
    active: &'a [usize],
}

impl<E: RowEval> CoalitionEval for RowwiseCoalitions<'_, E> {
    fn predict(&self, masks: &[u64]) -> Vec<f64> {
        let mut scratch = E::Scratch::default();
        map_coalition_rows(self.x, self.background, self.active, masks, |row| {
            self.eval.predict_row(row, &mut scratch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio_gbdt::GbdtConfig;

    #[test]
    fn kinds_have_unique_paper_names() {
        let names: std::collections::HashSet<&str> =
            ModelKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 5);
        assert_eq!(ModelKind::XgboostLike.to_string(), "XGBoost");
    }

    #[test]
    fn any_model_predicts_through_the_trait() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0).collect();
        let cfg = GbdtConfig {
            n_rounds: 20,
            ..GbdtConfig::xgboost_like()
        };
        let m = AnyModel::Gbdt(Booster::fit(&cfg, &x, &y, None).unwrap());
        let p1 = m.predict_one(&[25.0]);
        let p2 = Predictor::predict_batch(&m, &[vec![25.0]])[0];
        assert_eq!(p1, p2);
        assert!((p1 - 50.0).abs() < 10.0);
        assert!(m.as_gbdt().is_some());
    }
}
