//! Diagnosis benchmark for coalition-native Kernel SHAP.
//!
//! Trains the fast model zoo on a seeded iosim database, then explains
//! held-out jobs with every model two ways:
//!
//! * **default** — through an opaque `Predictor` that implements only
//!   `predict_batch`, so Kernel SHAP materialises every coalition row;
//! * **override** — through the model itself, whose coalition evaluator
//!   skips the rows (compiled trees, row-at-a-time network forwards).
//!
//! Both take a fresh coalition plan per explanation and must agree bit for
//! bit. A third timing reuses plans across jobs, as `diagnose` does. The
//! paths alternate job by job so host load hits them alike.
//! It then times whole in-process `diagnose` calls (which also use the
//! service's coalition-plan memo) at one engine thread and at all cores,
//! and records the memo's hits and misses. Each job is timed as the median
//! of 3 calls and each figure is the median over jobs, f64 ms at µs
//! resolution. Writes `results/BENCH_diagnose.json`.
//!
//! Scale knobs: `AIIO_BENCH_JOBS` (training database size, default 4000),
//! `AIIO_BENCH_DIAG` (held-out jobs, default 64), `AIIO_BENCH_SEED`
//! (default 7). `AIIO_BENCH_BEFORE` names the results file of an earlier
//! build to embed as `before`.

use aiio::prelude::*;
use aiio_bench::{before_results, cores, median_ms, write_json};
use aiio_explain::kernel::{KernelShap, KernelShapConfig, PlanCache};
use aiio_explain::{Attribution, Predictor};
use serde::Serialize;

/// A model seen only through `predict_batch`: Kernel SHAP takes the
/// default coalition path.
struct Opaque<'a>(&'a dyn Predictor);

impl Predictor for Opaque<'_> {
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        self.0.predict_batch(rows)
    }
}

#[derive(Serialize)]
struct ModelExplain {
    model: String,
    /// Median explanation time through the opaque wrapper.
    default_us: f64,
    /// Median explanation time through the model's own evaluator.
    override_us: f64,
    speedup: f64,
    /// The override with coalition plans memoised across jobs, as
    /// `diagnose` runs it.
    memo_us: f64,
}

#[derive(Serialize)]
struct BenchDiagnose {
    n_jobs: usize,
    held_out: usize,
    seed: u64,
    cores: usize,
    git_rev: String,
    max_evals: usize,
    /// Mean active counters per held-out job (Kernel SHAP's `k`).
    mean_active: f64,
    per_model: Vec<ModelExplain>,
    /// Every override explanation equalled the default path's bit for bit.
    identical: bool,
    /// Median in-process `diagnose` latency per job at one engine thread.
    diagnose_p50_ms_1_thread: f64,
    /// The same at `cores` engine threads.
    diagnose_p50_ms_all_threads: f64,
    plan_hits: u64,
    plan_misses: u64,
    /// The same bench's results from an earlier build, if supplied.
    before: Option<serde_json::Value>,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn same_bits(a: &Attribution, b: &Attribution) -> bool {
    a.expected.to_bits() == b.expected.to_bits()
        && a.values.len() == b.values.len()
        && a.values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Repeats per job and path; each job's time is their median.
const REPEATS: usize = 3;

/// The median over jobs of each job's median wall time (ms) for `f`.
fn per_job_median_ms(per_job: &[f64]) -> f64 {
    let mut v = per_job.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// `f(job)` timed as the median of [`REPEATS`] calls.
fn job_ms<T>(job: &T, mut f: impl FnMut(&T)) -> std::io::Result<f64> {
    median_ms(REPEATS, || {
        f(job);
        Ok(())
    })
}

fn run() -> std::io::Result<bool> {
    let n_jobs = env_usize("AIIO_BENCH_JOBS", 4000);
    let held_out = env_usize("AIIO_BENCH_DIAG", 64).max(1);
    let seed = env_usize("AIIO_BENCH_SEED", 7) as u64;
    let before = before_results()?;
    let cores = cores();

    eprintln!("[bench_diagnose] training the fast zoo on {n_jobs} jobs (seed {seed})...");
    let db = DatabaseSampler::new(SamplerConfig {
        n_jobs,
        seed,
        noise_sigma: 0.03,
    })
    .generate();
    let config = TrainConfig::fast();
    let service = AiioService::train(&config, &db).map_err(std::io::Error::other)?;
    let jobs: Vec<JobLog> = DatabaseSampler::new(SamplerConfig {
        n_jobs: held_out,
        seed: seed + 1,
        noise_sigma: 0.03,
    })
    .generate()
    .jobs()
    .to_vec();
    let pipeline = service.pipeline();
    let features: Vec<Vec<f64>> = jobs.iter().map(|j| pipeline.features_of(j)).collect();
    let background = vec![0.0; features[0].len()];
    let mean_active = features
        .iter()
        .map(|f| aiio_explain::sparsity_mask(f, &background).len() as f64)
        .sum::<f64>()
        / features.len() as f64;

    let shap = KernelShap::new(KernelShapConfig {
        max_evals: config.diagnosis.max_evals,
        seed: config.diagnosis.seed,
    });
    let mut identical = true;
    let mut per_model = Vec::new();
    aiio_par::with_threads(1, || -> std::io::Result<()> {
        for tm in service.zoo().models() {
            eprintln!("[bench_diagnose] explaining with {}...", tm.kind);
            let model: &dyn Predictor = &tm.model;
            let expected = model.predict_one(&background);
            let explain = |m: &dyn Predictor, x: &[f64]| {
                shap.explain_with_baseline(m, x, &background, expected)
            };
            for x in &features {
                identical &= same_bits(&explain(&Opaque(model), x), &explain(model, x));
            }
            // Alternate the paths job by job so all see the same host
            // load.
            let plans = PlanCache::new();
            let (mut default, mut over, mut memo) = (Vec::new(), Vec::new(), Vec::new());
            for x in &features {
                default.push(job_ms(x, |x| {
                    std::hint::black_box(explain(&Opaque(model), x));
                })?);
                over.push(job_ms(x, |x| {
                    std::hint::black_box(explain(model, x));
                })?);
                memo.push(job_ms(x, |x| {
                    std::hint::black_box(shap.explain_with_plans(
                        model,
                        x,
                        &background,
                        expected,
                        &plans,
                    ));
                })?);
            }
            let (default_ms, override_ms) = (per_job_median_ms(&default), per_job_median_ms(&over));
            per_model.push(ModelExplain {
                model: tm.kind.to_string(),
                default_us: default_ms * 1e3,
                override_us: override_ms * 1e3,
                speedup: default_ms / override_ms,
                memo_us: per_job_median_ms(&memo) * 1e3,
            });
        }
        Ok(())
    })?;

    eprintln!("[bench_diagnose] diagnosing {held_out} jobs at 1 and {cores} threads...");
    let diagnose_at = |threads: usize| {
        aiio_par::with_threads(threads, || {
            let per_job = jobs
                .iter()
                .map(|job| {
                    job_ms(job, |job| {
                        std::hint::black_box(service.diagnose(job));
                    })
                })
                .collect::<std::io::Result<Vec<f64>>>()?;
            Ok::<f64, std::io::Error>(per_job_median_ms(&per_job))
        })
    };
    let diagnose_p50_ms_1_thread = diagnose_at(1)?;
    let diagnose_p50_ms_all_threads = diagnose_at(cores)?;

    let result = BenchDiagnose {
        n_jobs,
        held_out,
        seed,
        cores,
        git_rev: git_rev(),
        max_evals: config.diagnosis.max_evals,
        mean_active,
        per_model,
        identical,
        diagnose_p50_ms_1_thread,
        diagnose_p50_ms_all_threads,
        plan_hits: service.plan_cache().hits(),
        plan_misses: service.plan_cache().misses(),
        before,
    };
    for m in &result.per_model {
        println!(
            "{:<9} explain: default {:>8.1} µs, override {:>8.1} µs ({:.2}x), with plan memo {:>8.1} µs",
            m.model, m.default_us, m.override_us, m.speedup, m.memo_us
        );
    }
    println!(
        "diagnose p50: {:.3} ms at 1 thread, {:.3} ms at {cores} threads; plan memo {} hits / {} misses; identical: {identical}",
        result.diagnose_p50_ms_1_thread,
        result.diagnose_p50_ms_all_threads,
        result.plan_hits,
        result.plan_misses
    );
    write_json("BENCH_diagnose", &result)?;
    Ok(identical)
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(true) => std::process::ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_diagnose: the override path differs from the default path");
            std::process::ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_diagnose: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
