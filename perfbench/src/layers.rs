//! The traced run: spans around every call the benchmark makes into a
//! layer, per-layer metrics derived from them, and the tracing overhead.
//!
//! The per-layer metrics cover every layer whatever the workload, so the
//! traced run always makes a traced pass of all three workloads (the
//! batch and store passes shortened to `Scale::traced_*`) plus probes of
//! single layers. The selected workload additionally runs the same pass
//! untraced first; the difference in its headline figure is
//! `trace.overhead_pct`.

use crate::batch;
use crate::http::{self, HttpSetup};
use crate::output::Metrics;
use crate::rng::{derive, SplitMix64};
use crate::setup::{held_out, STREAM_PROBE, TRAIN_SEED};
use crate::storecycle::{self, Cycle};
use crate::timing::{median, timed, Samples};
use crate::trace::Tracer;
use crate::{check, nproc, Failure, Result, Scale};
use aiio::{
    average_weights, merge_attributions_average, AiioService, ExplainerKind, MergeMethod,
    ModelKind, ModelZoo, TrainConfig, ZooConfig,
};
use aiio_darshan::{FeaturePipeline, JobLog};
use aiio_explain::kernel::{KernelShap, KernelShapConfig};
use aiio_explain::{Attribution, Predictor};
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DiagnoseHttp,
    DiagnoseBatch,
    StoreCycle,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DiagnoseHttp,
        Workload::DiagnoseBatch,
        Workload::StoreCycle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DiagnoseHttp => "diagnose-http",
            Workload::DiagnoseBatch => "diagnose-batch",
            Workload::StoreCycle => "store-cycle",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Rows of a coalition batch: `KernelShap` evaluates its 1024 coalitions
/// through `aiio_par::map_chunks`, whose stable partition cuts 1024 rows
/// into 64 chunks of 16.
const COALITION_BATCH: usize = 16;

/// Sequential `GET /healthz` round trips behind `serve.empty_rtt_ms`.
const HEALTHZ_PROBES: usize = 50;

/// Outcome of a traced run.
pub struct Traced {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
}

/// A `Predictor` that forwards to a model and counts the rows it
/// evaluates.
struct Counting<'a> {
    inner: &'a dyn Predictor,
    rows: AtomicU64,
}

impl Predictor for Counting<'_> {
    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        self.rows.fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.inner.predict_batch(rows)
    }
}

fn family(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::XgboostLike | ModelKind::LightgbmLike | ModelKind::CatboostLike => "gbdt",
        ModelKind::Mlp | ModelKind::TabNet => "nn",
    }
}

fn same_attribution(a: &Attribution, b: &Attribution) -> bool {
    a.expected.to_bits() == b.expected.to_bits()
        && a.values.len() == b.values.len()
        && a.values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn median_or(values: &[f64], what: &str) -> Result<f64> {
    median(values).ok_or_else(|| Failure::Broken(format!("no samples for {what}")))
}

/// Per-model and per-stage figures of the in-process diagnosis probes.
#[derive(Debug, Default)]
pub struct DiagnosisProbe {
    pub diagnose_ms: Vec<f64>,
    pub merge_us: Vec<f64>,
    pub features_us: Vec<f64>,
    /// Per model kind: explanation times (ms) and rows evaluated per
    /// explanation.
    pub shap_ms: Vec<(ModelKind, Vec<f64>)>,
    pub evals: Vec<(ModelKind, Vec<u64>)>,
    pub active_counters: Vec<usize>,
    pub baseline_hits: u64,
    pub baseline_lookups: u64,
    pub reports: Vec<aiio::DiagnosisReport>,
}

/// Diagnose `jobs` one at a time at one engine thread, then replay each
/// diagnosis stage by stage (features → per-model explanation →
/// `average_weights` → merge) and require the replay to reproduce the
/// report's `merged` attribution bit for bit.
pub fn diagnosis_probe(
    service: &AiioService,
    jobs: &[JobLog],
    tracer: &Tracer,
) -> Result<DiagnosisProbe> {
    let cfg = TrainConfig::fast().diagnosis;
    if cfg.explainer != ExplainerKind::KernelShap || cfg.merge != MergeMethod::Average {
        return Err(Failure::Broken(
            "stage replay covers Kernel SHAP with the Average merge only".into(),
        ));
    }
    let zoo = service.zoo();
    let pipeline = service.pipeline();
    let mut probe = DiagnosisProbe {
        shap_ms: zoo.models().iter().map(|m| (m.kind, Vec::new())).collect(),
        evals: zoo.models().iter().map(|m| (m.kind, Vec::new())).collect(),
        ..DiagnosisProbe::default()
    };
    aiio_par::with_threads(1, || -> Result<()> {
        let cache = service.baseline_cache();
        let (h0, m0) = (cache.hits(), cache.misses());
        for (j, job) in jobs.iter().enumerate() {
            let (report, s) =
                timed(|| tracer.span("aiio.diagnose", 0, j as u64 + 1, |_| service.diagnose(job)));
            probe.diagnose_ms.push(s * 1e3);
            probe.reports.push(report);
        }
        probe.baseline_hits = cache.hits() - h0;
        probe.baseline_lookups = probe.baseline_hits + (cache.misses() - m0);

        for (j, job) in jobs.iter().enumerate() {
            let req = j as u64 + 1;
            tracer.span("bench.stage_replay", 0, req, |parent| -> Result<()> {
                let (features, s) = timed(|| {
                    tracer.span("darshan.features_of", parent, req, |_| {
                        pipeline.features_of(job)
                    })
                });
                probe.features_us.push(s * 1e6);
                probe
                    .active_counters
                    .push(features.iter().filter(|&&v| v != 0.0).count());
                let background = vec![0.0; features.len()];
                let mut attrs = Vec::with_capacity(zoo.models().len());
                for (i, tm) in zoo.models().iter().enumerate() {
                    let expected = tm.model.predict_one(&background);
                    let counting = Counting {
                        inner: &tm.model,
                        rows: AtomicU64::new(0),
                    };
                    let explainer = KernelShap::new(KernelShapConfig {
                        max_evals: cfg.max_evals,
                        seed: cfg.seed,
                    });
                    let (attr, s) = timed(|| {
                        tracer.span("explain.explain_with_baseline", parent, req, |_| {
                            explainer.explain_with_baseline(
                                &counting,
                                &features,
                                &background,
                                expected,
                            )
                        })
                    });
                    probe.shap_ms[i].1.push(s * 1e3);
                    probe.evals[i].1.push(counting.rows.load(Ordering::Relaxed));
                    attrs.push(attr);
                }
                let predictions = tracer.span("aiio.predict_all", parent, req, |_| {
                    zoo.predict_all(&features)
                });
                let tag = pipeline.tag_of(job);
                let ((weights, merged), s) = timed(|| {
                    let w = tracer.span("aiio.average_weights", parent, req, |_| {
                        average_weights(&predictions, tag)
                    });
                    let merged = w.as_ref().ok().map(|w| {
                        tracer.span("aiio.merge_attributions_average", parent, req, |_| {
                            merge_attributions_average(&attrs, w)
                        })
                    });
                    (w, merged)
                });
                probe.merge_us.push(s * 1e6);
                weights.map_err(|e| Failure::Wrong(format!("average_weights failed: {e}")))?;
                let report = &probe.reports[j];
                let merged =
                    merged.ok_or_else(|| Failure::Wrong("no merged attribution".into()))?;
                check(same_attribution(&merged, &report.merged), || {
                    format!(
                        "stage replay of job {} does not reproduce `merged`",
                        job.job_id
                    )
                })?;
                check(
                    report.per_model.len() == attrs.len()
                        && report
                            .per_model
                            .iter()
                            .zip(&attrs)
                            .all(|((_, a), b)| same_attribution(a, b)),
                    || format!("stage replay of job {} differs per model", job.job_id),
                )?;
                Ok(())
            })?;
        }
        Ok(())
    })?;
    Ok(probe)
}

/// Rows shaped like Kernel SHAP coalitions of `jobs`: each active
/// counter kept or masked to the zero background with even odds.
fn coalition_rows(jobs: &[JobLog], per_job: usize, seed: u64) -> Vec<Vec<f64>> {
    let pipeline = FeaturePipeline::paper();
    let mut rng = SplitMix64::new(seed);
    let mut rows = Vec::with_capacity(jobs.len() * per_job);
    for job in jobs {
        let x = pipeline.features_of(job);
        for _ in 0..per_job {
            rows.push(
                x.iter()
                    .map(|&v| if rng.next_u64() & 1 == 1 { v } else { 0.0 })
                    .collect(),
            );
        }
    }
    rows
}

/// Per family, µs per row of `predict_batch` over coalition-sized
/// batches: the median over three sweeps of total time / rows.
fn predict_probe(
    zoo: &ModelZoo,
    rows: &[Vec<f64>],
    tracer: &Tracer,
) -> Result<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();
    for fam in ["gbdt", "nn"] {
        let models: Vec<_> = zoo
            .models()
            .iter()
            .filter(|m| family(m.kind) == fam)
            .collect();
        let name = if fam == "gbdt" {
            "gbdt.predict_batch"
        } else {
            "nn.predict_batch"
        };
        let mut sweeps = Vec::new();
        for _ in 0..3 {
            let mut total = 0.0;
            for m in &models {
                for chunk in rows.chunks(COALITION_BATCH) {
                    let (p, s) = timed(|| tracer.call(name, || m.model.predict_batch(chunk)));
                    std::hint::black_box(p);
                    total += s;
                }
            }
            sweeps.push(total * 1e6 / (rows.len() * models.len()).max(1) as f64);
        }
        out.push((fam, median_or(&sweeps, name)?));
    }
    Ok(out)
}

/// Single-kind `ModelZoo::train` time per family on the fixed training
/// database's half/half split.
fn fit_probe(scale: &Scale, tracer: &Tracer) -> Result<Vec<(&'static str, f64)>> {
    let db = DatabaseSampler::new(SamplerConfig {
        n_jobs: scale.train_jobs,
        seed: TRAIN_SEED,
        noise_sigma: 0.03,
    })
    .generate();
    let ds = FeaturePipeline::paper().dataset_of(&db);
    let split = db.split_indices(0.5, 0);
    let (train, valid) = (ds.subset(&split.train), ds.subset(&split.valid));
    let mut gbdt = 0.0;
    let mut nn = 0.0;
    aiio_par::with_threads(nproc(), || -> Result<()> {
        for kind in ModelKind::ALL {
            let cfg = ZooConfig::fast().with_kinds(&[kind]);
            let (zoo, s) = timed(|| {
                tracer.call("aiio.ModelZoo::train", || {
                    ModelZoo::train(&cfg, &train, &valid)
                })
            });
            zoo.map_err(|e| Failure::Broken(format!("{kind} fit failed: {e}")))?;
            if family(kind) == "gbdt" {
                gbdt += s;
            } else {
                nn += s;
            }
        }
        Ok(())
    })?;
    Ok(vec![("gbdt", gbdt), ("nn", nn)])
}

/// Parse `aiio_request_latency_ms_sum{endpoint="diagnose"}`-style lines.
fn scrape(text: &str, key: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            (k == key).then(|| v.trim().parse::<f64>().ok()).flatten()
        })
        .unwrap_or(0.0)
}

#[derive(Debug, Clone, Copy, Default)]
struct ServeCounters {
    diagnose_sum_ms: f64,
    diagnose_count: f64,
    rejected: f64,
    timeouts: f64,
}

fn serve_counters(addr: &str) -> Result<ServeCounters> {
    let r = aiio_serve::client::request(
        addr,
        "GET",
        "/metrics",
        None,
        std::time::Duration::from_secs(10),
    )?;
    check(r.status == 200, || {
        format!("GET /metrics answered {}", r.status)
    })?;
    Ok(ServeCounters {
        diagnose_sum_ms: scrape(
            &r.body,
            "aiio_request_latency_ms_sum{endpoint=\"diagnose\"}",
        ),
        diagnose_count: scrape(
            &r.body,
            "aiio_request_latency_ms_count{endpoint=\"diagnose\"}",
        ),
        rejected: scrape(&r.body, "aiio_rejected_total"),
        timeouts: scrape(&r.body, "aiio_timeouts_total"),
    })
}

/// The `diagnose-http` part: a traced open-loop pass, `/metrics`
/// deltas, `/healthz` round trips and JSON decode/encode.
fn http_layers(
    setup: &HttpSetup,
    references: &[String],
    reports: &[aiio::DiagnosisReport],
    untraced_first: bool,
    tracer: &Tracer,
    m: &mut Metrics,
    totals: &mut (u64, u64),
) -> Result<Option<f64>> {
    let p50 = |o: &[http::Outcome]| http::least_window_p50(o, setup.per_window).map(|(v, _)| v);
    let untraced_p50 = if untraced_first {
        let outcomes = http::run_pass(setup, &Tracer::off());
        http::verify(&outcomes, references)?;
        let s = http::summarize(&outcomes);
        totals.0 += s.attempted;
        totals.1 += s.attempted - s.ok;
        Some(p50(&outcomes)?)
    } else {
        None
    };
    let before = serve_counters(&setup.server.addr)?;
    let outcomes = http::run_pass(setup, tracer);
    let after = serve_counters(&setup.server.addr)?;
    http::verify(&outcomes, references)?;
    let s = http::summarize(&outcomes);
    totals.0 += s.attempted;
    totals.1 += s.attempted - s.ok;
    let late = s.late_ms.percentile(99.0).ok_or_else(|| {
        Failure::Broken(format!(
            "gen.late_p99_ms needs at least 1000 requests, the pass sent {}",
            s.attempted
        ))
    })?;
    m.set("gen.late_p99_ms", late.value, "ms");
    let p99 = s.latency_ms.percentile(99.0).ok_or_else(|| {
        Failure::Broken(format!(
            "gen.p99_ms needs at least 1000 requests, the pass sent {}",
            s.attempted
        ))
    })?;
    m.set("gen.p99_ms", p99.value, "ms");
    m.set("gen.sent", s.attempted as f64, "count");
    let n = after.diagnose_count - before.diagnose_count;
    m.set(
        "serve.handler_ms",
        if n > 0.0 {
            (after.diagnose_sum_ms - before.diagnose_sum_ms) / n
        } else {
            0.0
        },
        "ms",
    );
    m.set("serve.rejected", after.rejected - before.rejected, "count");
    m.set("serve.timeouts", after.timeouts - before.timeouts, "count");

    let mut rtt = Vec::new();
    for i in 0..HEALTHZ_PROBES {
        let (r, s) = timed(|| {
            tracer.span("serve.GET /healthz", 0, i as u64 + 1, |_| {
                aiio_serve::client::request(
                    &setup.server.addr,
                    "GET",
                    "/healthz",
                    None,
                    std::time::Duration::from_secs(10),
                )
            })
        });
        let r = r?;
        check(r.status == 200, || {
            format!("GET /healthz answered {}", r.status)
        })?;
        rtt.push(s * 1e3);
    }
    m.set("serve.empty_rtt_ms", median_or(&rtt, "healthz")?, "ms");

    let mut decode = Vec::new();
    for body in setup.bodies.iter().take(200) {
        let (job, s) = timed(|| {
            tracer.call("serve.decode_joblog", || {
                serde_json::from_str::<JobLog>(body)
            })
        });
        job.map_err(|e| Failure::Wrong(format!("JobLog body does not parse: {e}")))?;
        decode.push(s * 1e6);
    }
    m.set("serve.decode_us", median_or(&decode, "decode")?, "us");
    let mut encode = Vec::new();
    for r in reports {
        let (json, s) = timed(|| tracer.call("serve.encode_report", || serde_json::to_string(r)));
        json.map_err(|e| Failure::Broken(format!("report serialization: {e}")))?;
        encode.push(s * 1e6);
    }
    m.set("serve.encode_us", median_or(&encode, "encode")?, "us");
    let traced_p50 = p50(&outcomes)?;
    Ok(untraced_p50.map(|u| (traced_p50 / u - 1.0) * 100.0))
}

/// Store and replication metrics of the traced cycles.
fn store_layers(cycles: &[Cycle], m: &mut Metrics, tracer: &Tracer) -> Result<()> {
    let first = cycles
        .first()
        .ok_or_else(|| Failure::Broken("no store cycle ran".into()))?;
    let med = |f: &dyn Fn(&Cycle) -> f64, what: &str| {
        median_or(&cycles.iter().map(f).collect::<Vec<_>>(), what)
    };
    let rows = first.rows as f64;
    let appended: f64 = tracer.total_s("store.append_batch");
    m.set(
        "store.append_us_per_row",
        appended * 1e6 / (rows * cycles.len() as f64),
        "us",
    );
    let p50 = |name: &str| -> Result<f64> { median_or(tracer.durations_ms(name).values(), name) };
    m.set("store.sync_ms", p50("store.sync")?, "ms");
    m.set("store.seal_ms", p50("store.seal")?, "ms");
    let wal: Vec<f64> = first.wal_bytes_per_row.clone();
    m.set(
        "store.wal_bytes_per_row",
        wal.iter().sum::<f64>() / wal.len().max(1) as f64,
        "bytes",
    );
    m.set(
        "store.rows_moved_ratio",
        first.compact.rows_moved as f64 / rows,
        "ratio",
    );
    m.set(
        "store.bytes_per_row",
        first.sealed_bytes as f64 / rows,
        "bytes",
    );
    let mut read = Samples::new();
    for c in cycles {
        read.extend(&c.read_segment_ms);
    }
    m.set(
        "store.read_segment_ms",
        median_or(read.values(), "read_segment")?,
        "ms",
    );
    m.set(
        "store.cold_mib_per_s",
        med(
            &|c| c.sealed_bytes as f64 / (1024.0 * 1024.0) / c.cold_scan_s,
            "cold MiB/s",
        )?,
        "MiB/s",
    );
    let hits = first.cache.hits + first.evict_cache.hits;
    let misses = first.cache.misses + first.evict_cache.misses;
    m.set("store.cache_hits", hits as f64, "count");
    m.set("store.cache_misses", misses as f64, "count");
    m.set(
        "store.cache_evictions",
        (first.cache.evictions + first.evict_cache.evictions) as f64,
        "count",
    );
    m.set(
        "store.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    m.set("store.ingest_s", med(&|c| c.ingest_s, "ingest")?, "s");
    m.set("store.compact_s", med(&|c| c.compact_s, "compact")?, "s");
    m.set("store.open_s", med(&|c| c.open_s, "open")?, "s");
    m.set("store.cold_scan_s", med(&|c| c.cold_scan_s, "cold")?, "s");
    m.set("store.warm_scan_s", med(&|c| c.warm_scan_s, "warm")?, "s");
    m.set(
        "store.evict_scan_s",
        med(&|c| c.evict_scan_s, "evict")?,
        "s",
    );
    m.set("replnet.pull_s", med(&|c| c.pull_s, "pull")?, "s");
    let pull = first
        .pull
        .as_ref()
        .ok_or_else(|| Failure::Broken("no pull report".into()))?;
    m.set(
        "replnet.segments_copied",
        pull.shards.iter().map(|s| s.segments_copied).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "replnet.rows_shipped",
        pull.shards.iter().map(|s| s.rows_shipped).sum::<u64>() as f64,
        "count",
    );
    let noop: Vec<f64> = cycles.iter().filter_map(|c| c.noop_pull_s).collect();
    m.set(
        "replnet.noop_pull_ms",
        median_or(&noop, "noop pull")? * 1e3,
        "ms",
    );
    Ok(())
}

/// The probes and passes behind the counts that must repeat exactly at
/// one seed: explanation evaluations, active counters, compaction and
/// cache counts, replication counts.
pub fn exact_counts(root: &Path, seed: u64, scale: &Scale) -> Result<Metrics> {
    let tracer = Tracer::new(true);
    let service = crate::setup::train_service(scale)?;
    let jobs = held_out(seed, STREAM_PROBE, scale.probe_jobs);
    let mut m = Metrics::new();
    let probe = diagnosis_probe(&service, &jobs, &tracer)?;
    explain_counts(&probe, &mut m);
    let setup = storecycle::prepare(seed, scale)?;
    let reference = FeaturePipeline::paper().dataset_of(&setup.rows);
    let work = crate::setup::WorkDir::new(root, "exact")?;
    let cycles = storecycle::run_pass(
        &setup,
        scale,
        work.path(),
        0.0,
        Some(1),
        &reference,
        &tracer,
    )?;
    store_layers(&cycles, &mut m, &tracer)?;
    Ok(m)
}

fn explain_counts(probe: &DiagnosisProbe, m: &mut Metrics) {
    for (kind, evals) in &probe.evals {
        let mean = evals.iter().sum::<u64>() as f64 / evals.len().max(1) as f64;
        m.set(format!("explain.evals.{}", kind.name()), mean, "count");
    }
    m.set(
        "explain.active_counters",
        probe.active_counters.iter().sum::<usize>() as f64
            / probe.active_counters.len().max(1) as f64,
        "count",
    );
}

/// The names `exact_counts` checks for exact repetition.
pub const EXACT: &[&str] = &[
    "explain.active_counters",
    "store.rows_moved_ratio",
    "store.bytes_per_row",
    "store.wal_bytes_per_row",
    "store.cache_hits",
    "store.cache_misses",
    "store.cache_evictions",
    "store.cache_hit_ratio",
    "replnet.segments_copied",
    "replnet.rows_shipped",
];

/// The traced run of `workload`.
pub fn run_traced(
    root: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: &Scale,
) -> Result<Traced> {
    let tracer = Tracer::new(true);
    let off = Tracer::off();
    let mut m = Metrics::new();
    let mut totals = (0u64, 0u64);
    let mut overhead = None;

    // Batch workload, in-process diagnosis probes and model probes.
    let bsetup = batch::prepare(seed, scale)?;
    let calls = Some(scale.traced_batch_calls);
    let rate_u = if workload == Workload::DiagnoseBatch {
        let p = batch::run_pass(&bsetup, scale, seed, seconds, calls, &off)?;
        totals.0 += p.jobs() as u64;
        p.jobs_per_s()
    } else {
        None
    };
    let p = batch::run_pass(&bsetup, scale, seed, seconds, calls, &tracer)?;
    totals.0 += p.jobs() as u64;
    if let (Some(u), Some(t)) = (rate_u, p.jobs_per_s()) {
        overhead = Some((u / t - 1.0) * 100.0);
    }
    let eff_jobs = &bsetup.pool[..64.min(bsetup.pool.len())];
    let (_, t1) = timed(|| {
        tracer.call("aiio.diagnose_batch", || {
            aiio_par::with_threads(1, || bsetup.service.diagnose_batch(eff_jobs))
        })
    });
    let (_, tn) = timed(|| {
        tracer.call("aiio.diagnose_batch", || {
            aiio_par::with_threads(nproc(), || bsetup.service.diagnose_batch(eff_jobs))
        })
    });
    m.set("par.efficiency", t1 / (nproc() as f64 * tn), "ratio");

    let jobs = held_out(seed, STREAM_PROBE, scale.probe_jobs);
    let probe = diagnosis_probe(&bsetup.service, &jobs, &tracer)?;
    m.set(
        "aiio.diagnose_ms",
        median_or(&probe.diagnose_ms, "diagnose")?,
        "ms",
    );
    m.set("aiio.merge_us", median_or(&probe.merge_us, "merge")?, "us");
    m.set(
        "aiio.baseline_hit_ratio",
        probe.baseline_hits as f64 / probe.baseline_lookups.max(1) as f64,
        "ratio",
    );
    m.set(
        "darshan.features_us",
        median_or(&probe.features_us, "features")?,
        "us",
    );
    for (kind, ms) in &probe.shap_ms {
        m.set(
            format!("explain.shap_ms.{}", kind.name()),
            median_or(ms, "shap")?,
            "ms",
        );
    }
    explain_counts(&probe, &mut m);
    let rows = coalition_rows(&jobs, 64, derive(seed, STREAM_PROBE ^ 0xC0A1));
    for (fam, us) in predict_probe(bsetup.service.zoo(), &rows, &tracer)? {
        m.set(format!("{fam}.predict_us_per_row"), us, "us");
    }
    for (fam, s) in fit_probe(scale, &tracer)? {
        m.set(format!("{fam}.fit_s"), s, "s");
    }
    let reports = probe.reports;
    drop(bsetup);

    // HTTP workload.
    let hsetup = http::prepare(seed, seconds, scale)?;
    let references = http::references(&hsetup)?;
    if let Some(o) = http_layers(
        &hsetup,
        &references,
        &reports,
        workload == Workload::DiagnoseHttp,
        &tracer,
        &mut m,
        &mut totals,
    )? {
        overhead = Some(o);
    }
    drop(hsetup);

    // Store workload.
    let ssetup = storecycle::prepare(seed, scale)?;
    let reference = tracer.call("darshan.dataset_of", || {
        FeaturePipeline::paper().dataset_of(&ssetup.rows)
    });
    let mut featurize = Vec::new();
    for _ in 0..3 {
        let (ds, s) = timed(|| {
            tracer.call("darshan.dataset_of", || {
                FeaturePipeline::paper().dataset_of(&ssetup.rows)
            })
        });
        check(storecycle::same_bits(&ds, &reference), || {
            "dataset_of is not deterministic".to_string()
        })?;
        featurize.push(s * 1e3);
    }
    m.set(
        "darshan.featurize_ms",
        median_or(&featurize, "featurize")?,
        "ms",
    );
    let work = crate::setup::WorkDir::new(root, "traced")?;
    let cycles = Some(scale.traced_store_cycles);
    let cycle_u = if workload == Workload::StoreCycle {
        let cs = storecycle::run_pass(
            &ssetup,
            scale,
            work.path(),
            seconds,
            cycles,
            &reference,
            &off,
        )?;
        totals.0 += cs.iter().map(Cycle::operations).sum::<u64>();
        median(&cs.iter().map(Cycle::total_s).collect::<Vec<_>>())
    } else {
        None
    };
    let cs = storecycle::run_pass(
        &ssetup,
        scale,
        work.path(),
        seconds,
        cycles,
        &reference,
        &tracer,
    )?;
    totals.0 += cs.iter().map(Cycle::operations).sum::<u64>();
    if let (Some(u), Some(t)) = (
        cycle_u,
        median(&cs.iter().map(Cycle::total_s).collect::<Vec<_>>()),
    ) {
        overhead = Some((t / u - 1.0) * 100.0);
    }
    store_layers(&cs, &mut m, &tracer)?;

    let overhead = overhead
        .filter(|o| o.is_finite())
        .ok_or_else(|| Failure::Broken("tracing overhead could not be measured".into()))?;
    m.set("trace.overhead_pct", overhead, "%");
    m.set("trace.spans", tracer.spans().len() as f64, "count");
    Ok(Traced {
        metrics: m,
        attempted: totals.0,
        failed: totals.1,
        tracer,
    })
}
