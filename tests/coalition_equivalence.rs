//! Differential suite for coalition-native Kernel SHAP: every model's own
//! coalition evaluator must return exactly the bits of the default path,
//! which materialises each coalition row and calls `predict_batch`.
//!
//! The comparisons are on `f64::to_bits`, so a single ULP of drift — a
//! reordered sum, a changed zero skip, a split resolved the wrong way —
//! fails. Covered: seeded held-out jobs for all five model kinds; active
//! sets of size 0, 1, 2, fully enumerated and sampled; a counter sitting
//! exactly on a split threshold; nonzero backgrounds (a dataset mean, and
//! Gauge's cluster-mean explanations); and the end-to-end stage replay
//! (`diagnose` against a plain `explain_with_baseline` through an opaque
//! wrapper) at 1, 2 and 8 engine threads.

use aiio::gauge::{GaugeAnalysis, GaugeConfig};
use aiio::prelude::*;
use aiio::{average_weights, merge_attributions_average};
use aiio_cluster::HdbscanConfig;
use aiio_explain::kernel::{CoalitionPlan, KernelShap, KernelShapConfig};
use aiio_explain::{coalition_row, sparsity_mask, Attribution, Predictor};
use aiio_gbdt::GbdtConfig;
use std::sync::OnceLock;

/// A model seen only through `predict_batch`: Kernel SHAP takes the
/// default, row-materialising coalition path.
struct Opaque<'a>(&'a dyn Predictor);

impl Predictor for Opaque<'_> {
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        self.0.predict_batch(rows)
    }
}

/// The fast five-model service and a seeded set of held-out jobs.
fn fixture() -> &'static (AiioService, Vec<JobLog>) {
    static CACHE: OnceLock<(AiioService, Vec<JobLog>)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 600,
            seed: 0xC0A1,
            noise_sigma: 0.02,
        })
        .generate();
        let service = AiioService::train(&TrainConfig::fast(), &db).expect("fast zoo trains");
        assert_eq!(service.zoo().models().len(), ModelKind::ALL.len());
        let held_out = DatabaseSampler::new(SamplerConfig {
            n_jobs: 24,
            seed: 0xC0A2,
            noise_sigma: 0.02,
        })
        .generate();
        (service, held_out.jobs().to_vec())
    })
}

fn shap_config() -> KernelShapConfig {
    let cfg = TrainConfig::fast().diagnosis;
    KernelShapConfig {
        max_evals: cfg.max_evals,
        seed: cfg.seed,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn attribution_bits(a: &Attribution) -> Vec<u64> {
    std::iter::once(a.expected.to_bits())
        .chain(a.values.iter().map(|v| v.to_bits()))
        .collect()
}

/// Require `model`'s coalition evaluator to equal `predict_batch` on the
/// materialised rows, bit for bit, for the plan's masks of `x`.
fn assert_coalitions_match(model: &dyn Predictor, x: &[f64], background: &[f64], what: &str) {
    let active = sparsity_mask(x, background);
    let mut masks = CoalitionPlan::new(active.len(), &shap_config())
        .masks()
        .to_vec();
    // The empty and grand coalitions are never regression rows, but the
    // evaluator must handle every mask.
    masks.push(0);
    if !active.is_empty() {
        masks.push(u64::MAX >> (64 - active.len()));
    }
    let rows: Vec<Vec<f64>> = masks
        .iter()
        .map(|&m| coalition_row(x, background, &active, m))
        .collect();
    let want = model.predict_batch(&rows);
    let got = model.coalitions(x, background, &active).predict(&masks);
    assert_eq!(bits(&got), bits(&want), "{what} (k = {})", active.len());
}

#[test]
fn every_kind_matches_materialised_rows_on_held_out_jobs() {
    let (service, jobs) = fixture();
    let pipeline = service.pipeline();
    let mut sampled = 0;
    for job in jobs {
        let x = pipeline.features_of(job);
        let background = vec![0.0; x.len()];
        let k = sparsity_mask(&x, &background).len();
        if (1u64 << k) - 2 > shap_config().max_evals as u64 {
            sampled += 1;
        }
        for tm in service.zoo().models() {
            let what = format!("{} on job {}", tm.kind, job.job_id);
            assert_coalitions_match(&tm.model, &x, &background, &what);
        }
    }
    assert!(sampled > 0, "no held-out job needed coalition sampling");
}

#[test]
fn every_kind_matches_on_small_and_enumerated_active_sets() {
    let (service, jobs) = fixture();
    let x = service.pipeline().features_of(&jobs[0]);
    let background = vec![0.0; x.len()];
    let active = sparsity_mask(&x, &background);
    assert!(active.len() > 10, "job 0 should need sampling");
    // Keep only the first k active counters: k = 0, 1, 2 and a fully
    // enumerated 2^10 - 2 coalitions.
    for k in [0, 1, 2, 10] {
        let mut xk = background.clone();
        for &f in &active[..k] {
            xk[f] = x[f];
        }
        for tm in service.zoo().models() {
            assert_coalitions_match(&tm.model, &xk, &background, &format!("{} k={k}", tm.kind));
        }
    }
}

#[test]
fn trees_match_with_a_counter_exactly_at_a_split_threshold() {
    let (service, jobs) = fixture();
    let x = service.pipeline().features_of(&jobs[1]);
    let background = vec![0.0; x.len()];
    for tm in service.zoo().models() {
        let Some(booster) = tm.model.as_gbdt() else {
            continue;
        };
        // Put an active counter exactly on each of a handful of the
        // booster's split thresholds (`<=` goes left, so the boundary is
        // where an off-by-one in the compiled split would show).
        let splits: Vec<(usize, f64)> = booster
            .trees()
            .iter()
            .flat_map(|t| t.nodes().iter().filter(|n| !n.is_leaf()))
            .map(|n| (n.feature as usize, n.threshold))
            .filter(|&(_, t)| t != 0.0)
            .take(8)
            .collect();
        assert!(!splits.is_empty());
        for (f, threshold) in splits {
            let mut xt = x.clone();
            xt[f] = threshold;
            assert_coalitions_match(
                &tm.model,
                &xt,
                &background,
                &format!("{} with counter {f} at {threshold}", tm.kind),
            );
        }
    }
}

#[test]
fn every_kind_matches_against_a_nonzero_background() {
    let (service, jobs) = fixture();
    let pipeline = service.pipeline();
    let features: Vec<Vec<f64>> = jobs.iter().map(|j| pipeline.features_of(j)).collect();
    let n = features.len() as f64;
    let mut mean = vec![0.0; features[0].len()];
    for row in &features {
        for (m, v) in mean.iter_mut().zip(row) {
            *m += v / n;
        }
    }
    for x in features.iter().take(6) {
        for tm in service.zoo().models() {
            assert_coalitions_match(&tm.model, x, &mean, &format!("{} vs mean", tm.kind));
        }
    }
}

#[test]
fn gauge_cluster_mean_explanations_match_the_default_path() {
    let db = DatabaseSampler::new(SamplerConfig {
        n_jobs: 240,
        seed: 11,
        noise_sigma: 0.0,
    })
    .generate();
    let ds = FeaturePipeline::paper().dataset_of(&db);
    let config = GaugeConfig {
        hdbscan: HdbscanConfig {
            min_cluster_size: 10,
            min_samples: 5,
        },
        model: GbdtConfig {
            n_rounds: 20,
            max_depth: 4,
            ..GbdtConfig::xgboost_like()
        },
        max_evals: 128,
        seed: 0,
    };
    let gauge = GaugeAnalysis::fit(&ds, &config).expect("gauge fits");
    let shap = KernelShap::new(KernelShapConfig {
        max_evals: config.max_evals,
        seed: config.seed,
    });
    let mut checked = 0;
    for cluster in &gauge.clusters {
        for &i in cluster.members.iter().take(3) {
            let got = gauge.explain_member(cluster, &ds.x[i]);
            let want = shap.explain(&Opaque(&cluster.model), &ds.x[i], &cluster.mean_features);
            assert_eq!(attribution_bits(&got), attribution_bits(&want));
            checked += 1;
        }
    }
    assert!(checked > 0, "gauge found no clusters");
}

/// The stage replay: `diagnose`'s per-model attributions equal a plain
/// `explain_with_baseline` through an opaque wrapper, and its merged
/// attribution equals the Average merge of those, at any thread count.
#[test]
fn diagnose_matches_the_opaque_stage_replay_at_1_2_and_8_threads() {
    let (service, jobs) = fixture();
    let pipeline = service.pipeline();
    let shap = KernelShap::new(shap_config());
    let replay: Vec<(Vec<Attribution>, Attribution)> = jobs
        .iter()
        .take(6)
        .map(|job| {
            let x = pipeline.features_of(job);
            let background = vec![0.0; x.len()];
            let attrs: Vec<Attribution> = service
                .zoo()
                .models()
                .iter()
                .map(|tm| {
                    let expected = tm.model.predict_one(&background);
                    shap.explain_with_baseline(&Opaque(&tm.model), &x, &background, expected)
                })
                .collect();
            let predictions = service.zoo().predict_all(&x);
            let weights =
                average_weights(&predictions, pipeline.tag_of(job)).expect("weights exist");
            let merged = merge_attributions_average(&attrs, &weights);
            (attrs, merged)
        })
        .collect();
    for threads in [1, 2, 8] {
        aiio_par::with_threads(threads, || {
            for (job, (attrs, merged)) in jobs.iter().zip(&replay) {
                let report = service.diagnose(job);
                assert_eq!(report.per_model.len(), attrs.len());
                for ((kind, got), want) in report.per_model.iter().zip(attrs) {
                    assert_eq!(
                        attribution_bits(got),
                        attribution_bits(want),
                        "{kind} on job {} at {threads} threads",
                        job.job_id
                    );
                }
                assert_eq!(attribution_bits(&report.merged), attribution_bits(merged));
            }
        });
    }
    // Every diagnosis after the first per active count reused its plan.
    assert!(service.plan_cache().hits() > 0);
}
