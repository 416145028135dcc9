//! Microbenchmarks of the interpretation methods on a trained booster:
//! exact Shapley vs Kernel SHAP vs TreeSHAP vs LIME at matched budgets.

use aiio_darshan::FeaturePipeline;
use aiio_explain::exact::exact_shapley;
use aiio_explain::kernel::{KernelShap, KernelShapConfig};
use aiio_explain::lime::{Lime, LimeConfig};
use aiio_explain::tree::tree_shap;
use aiio_gbdt::{Booster, GbdtConfig};
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn setup() -> (Booster, Vec<f64>, Vec<f64>) {
    let db = DatabaseSampler::new(SamplerConfig {
        n_jobs: 512,
        seed: 9,
        noise_sigma: 0.0,
    })
    .generate();
    let ds = FeaturePipeline::paper().dataset_of(&db);
    let cfg = GbdtConfig {
        n_rounds: 40,
        ..GbdtConfig::xgboost_like()
    };
    let model = Booster::fit(&cfg, &ds.x, &ds.y, None).unwrap();
    // Pick a moderately sparse row and sparsify it further so exact
    // enumeration stays tractable (<= 14 active features).
    let mut x = ds.x[0].clone();
    let mut active = 0;
    for v in x.iter_mut() {
        if *v != 0.0 {
            active += 1;
            if active > 14 {
                *v = 0.0;
            }
        }
    }
    let bg = vec![0.0; x.len()];
    (model, x, bg)
}

fn bench_explainers(c: &mut Criterion) {
    let (model, x, bg) = setup();
    let mut g = c.benchmark_group("explain_one_job");
    g.sample_size(10);
    g.bench_function("exact_shapley_14_active", |b| {
        b.iter(|| black_box(exact_shapley(&model, black_box(&x), &bg)))
    });
    let ks = KernelShap::new(KernelShapConfig {
        max_evals: 1024,
        seed: 0,
    });
    g.bench_function("kernel_shap_1024_evals", |b| {
        b.iter(|| black_box(ks.explain(&model, black_box(&x), &bg)))
    });
    let lime = Lime::new(LimeConfig {
        n_samples: 1024,
        ..LimeConfig::default()
    });
    g.bench_function("lime_1024_samples", |b| {
        b.iter(|| black_box(lime.explain(&model, black_box(&x), &bg)))
    });
    g.bench_function("tree_shap_exact_polytime", |b| {
        b.iter(|| black_box(tree_shap(&model, black_box(&x))))
    });
    g.finish();
}

criterion_group!(benches, bench_explainers);
criterion_main!(benches);
