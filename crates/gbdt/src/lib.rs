//! Histogram gradient-boosted regression trees.
//!
//! The AIIO paper uses XGBoost, LightGBM, and CatBoost as three of its five
//! performance functions. Those libraries are all gradient boosting over
//! decision trees; what distinguishes them most is the *tree growth
//! strategy* — level-wise (XGBoost), leaf-wise with a leaf budget
//! (LightGBM), and oblivious/symmetric (CatBoost). This crate implements one
//! histogram-based boosting engine with all three strategies
//! ([`Growth`]), which reproduces the axis of model diversity the paper's
//! ensemble merging exploits.
//!
//! Features: quantile binning (≤ 256 bins/feature), second-order split gain
//! with L2 regularisation, row/column subsampling, shrinkage, early
//! stopping on a validation set (the paper's mechanism for generalising to
//! unseen jobs, §3.2), Rayon-parallel histogram construction, and a tree
//! representation that exposes covers/children for TreeSHAP
//! (`aiio-explain`).
//!
//! ```
//! use aiio_gbdt::{GbdtConfig, Booster};
//! // y = 3*x0, noiseless
//! let x: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64, (i % 7) as f64]).collect();
//! let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0]).collect();
//! let cfg = GbdtConfig { n_rounds: 50, ..GbdtConfig::xgboost_like() };
//! let model = Booster::fit(&cfg, &x, &y, None).unwrap();
//! let pred = model.predict_one(&[100.0, 3.0]);
//! assert!((pred - 300.0).abs() < 30.0);
//! ```

pub mod booster;
pub mod dataset;
pub mod grow;
pub mod masked;
pub mod tree;

pub use booster::{Booster, EvalRecord, FitError, GbdtConfig, Growth};
pub use dataset::{BinnedMatrix, Binner};
pub use masked::MaskedBooster;
pub use tree::{Node, Tree};
