//! `store-cycle`: one job-log store through its whole life, all on
//! `aiio_store::Store` except the replication pull.
//!
//! Per cycle: ingest the set-up rows as `append_batch` + `sync` calls
//! with a partial `seal` every `seal_every` calls (the serve `/ingest`
//! shape plus threshold sealing, which leaves `compact` many undersized
//! segments to merge); `compact`; drop and `Store::open` again;
//! `FeaturePipeline::dataset_of_backend` cold and warm on a fresh private
//! cache at the default budget, then on a cache of a quarter of the
//! sealed bytes (evicting); one `aiio_replnet::pull_pass` from a loopback
//! primary `Server` into an empty follower directory.

use crate::rng::derive;
use crate::setup::{RunningServer, STREAM_STORE, TRAIN_SEED};
use crate::timing::{secs_since, timed, Samples};
use crate::trace::Tracer;
use crate::{check, nproc, Failure, Result, Scale};
use aiio::{AiioService, ModelKind, TrainConfig, ZooConfig};
use aiio_darshan::{Dataset, FeaturePipeline, LogDatabase};
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_replnet::{PullConfig, PullReport};
use aiio_serve::ServeConfig;
use aiio_store::{CacheStats, CompactReport, SegmentCache, Store};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct StoreSetup {
    /// The rows every cycle ingests, generated before timing starts.
    pub rows: LogDatabase,
    /// The primary server's model: one small tree model (the pull never
    /// diagnoses, but a server needs a service).
    pub service: AiioService,
}

pub fn prepare(seed: u64, scale: &Scale) -> Result<StoreSetup> {
    aiio_par::set_threads(nproc());
    let rows = DatabaseSampler::new(SamplerConfig {
        n_jobs: scale.store_rows,
        seed: derive(seed, STREAM_STORE),
        noise_sigma: 0.03,
    })
    .generate();
    let small = DatabaseSampler::new(SamplerConfig {
        n_jobs: 256,
        seed: TRAIN_SEED,
        noise_sigma: 0.03,
    })
    .generate();
    let config = TrainConfig {
        zoo: ZooConfig::fast().with_kinds(&[ModelKind::XgboostLike]),
        ..TrainConfig::fast()
    };
    let service = AiioService::train(&config, &small)
        .map_err(|e| Failure::Broken(format!("primary model training failed: {e}")))?;
    Ok(StoreSetup { rows, service })
}

/// Timings and counts of one cycle.
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    pub ingest_s: f64,
    pub compact_s: f64,
    pub open_s: f64,
    pub cold_scan_s: f64,
    pub warm_scan_s: f64,
    pub evict_scan_s: f64,
    pub pull_s: f64,
    /// Latency of each ingest call (`append_batch` + `sync`, plus the
    /// `seal` on every `seal_every`-th call), ms.
    pub ingest_call_ms: Samples,
    pub ingest_calls: u64,
    pub compact: CompactReport,
    pub rows: usize,
    pub sealed_bytes: u64,
    /// Private cache counters after the cold + warm scans.
    pub cache: CacheStats,
    /// Counters of the evicting cache after its scan.
    pub evict_cache: CacheStats,
    pub pull: Option<PullReport>,
    /// Traced extras (empty in untraced cycles).
    pub wal_bytes_per_row: Vec<f64>,
    pub read_segment_ms: Samples,
    pub noop_pull_s: Option<f64>,
}

impl Cycle {
    /// Sum of the timed stages.
    pub fn total_s(&self) -> f64 {
        self.ingest_s
            + self.compact_s
            + self.open_s
            + self.cold_scan_s
            + self.warm_scan_s
            + self.evict_scan_s
            + self.pull_s
    }

    /// Store and replication calls the cycle made.
    pub fn operations(&self) -> u64 {
        self.ingest_calls + 6
    }
}

/// True when two datasets hold the same rows bit for bit.
pub fn same_bits(a: &Dataset, b: &Dataset) -> bool {
    let eq = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.job_ids == b.job_ids
        && eq(&a.y, &b.y)
        && a.x.len() == b.x.len()
        && a.x.iter().zip(&b.x).all(|(p, q)| eq(p, q))
}

/// One full cycle in `dir` (created empty, removed afterwards).
/// `reference` is `dataset_of` over the rows in memory.
pub fn run_cycle(
    setup: &StoreSetup,
    scale: &Scale,
    dir: &Path,
    reference: &Dataset,
    tracer: &Tracer,
) -> Result<Cycle> {
    let _ = std::fs::remove_dir_all(dir);
    let primary = dir.join("primary");
    let follower = dir.join("follower");
    std::fs::create_dir_all(&follower)?;
    let pipeline = FeaturePipeline::paper();
    let traced = tracer.enabled();
    let mut cy = Cycle {
        rows: setup.rows.len(),
        ..Cycle::default()
    };

    // Ingest.
    let t = Instant::now();
    let mut store = tracer.call("store.open", || Store::open(&primary))?;
    for (i, chunk) in setup
        .rows
        .jobs()
        .chunks(scale.ingest_rows_per_call.max(1))
        .enumerate()
    {
        let (r, s) = timed(|| -> Result<()> {
            tracer.span("bench.ingest_call", 0, i as u64 + 1, |call| -> Result<()> {
                tracer.span("store.append_batch", call, i as u64 + 1, |_| {
                    store.append_batch(chunk)
                })?;
                tracer.span("store.sync", call, i as u64 + 1, |_| store.sync())?;
                if (i + 1) % scale.seal_every.max(1) == 0 {
                    if traced {
                        let st = store.stats();
                        if st.wal_rows > 0 {
                            cy.wal_bytes_per_row
                                .push(st.wal_bytes as f64 / st.wal_rows as f64);
                        }
                    }
                    tracer.span("store.seal", call, i as u64 + 1, |_| store.seal())?;
                }
                Ok(())
            })
        });
        r?;
        cy.ingest_call_ms.push(s * 1e3);
        cy.ingest_calls += 1;
    }
    cy.ingest_s = secs_since(t);

    let (report, s) = timed(|| tracer.call("store.compact", || store.compact()));
    cy.compact = report?;
    cy.compact_s = s;
    drop(store);

    let (store, s) = timed(|| tracer.call("store.open", || Store::open(&primary)));
    let mut store = store?;
    cy.open_s = s;
    check(store.recovery_report().is_clean(), || {
        format!("reopen was not clean: {:?}", store.recovery_report())
    })?;
    let stats = store.stats();
    cy.sealed_bytes = stats.sealed_bytes;
    check(stats.total_rows == setup.rows.len(), || {
        format!(
            "reopened store holds {} of {} rows",
            stats.total_rows,
            setup.rows.len()
        )
    })?;

    let scan = |store: &Store| {
        timed(|| {
            tracer.call("darshan.dataset_of_backend", || {
                pipeline.dataset_of_backend(store)
            })
        })
    };
    let cache = Arc::new(SegmentCache::new(aiio_store::cache::DEFAULT_CAPACITY_BYTES));
    store.set_cache(Some(Arc::clone(&cache)));
    let (cold, s) = scan(&store);
    cy.cold_scan_s = s;
    let (warm, s) = scan(&store);
    cy.warm_scan_s = s;
    cy.cache = cache.stats();
    let small = Arc::new(SegmentCache::new(stats.sealed_bytes / 4));
    store.set_cache(Some(Arc::clone(&small)));
    let (evict, s) = scan(&store);
    cy.evict_scan_s = s;
    cy.evict_cache = small.stats();
    for (name, ds) in [("cold", cold?), ("warm", warm?), ("evicting", evict?)] {
        check(same_bits(&ds, reference), || {
            format!("{name} dataset_of_backend differs from dataset_of on the rows in memory")
        })?;
    }
    if traced {
        store.set_cache(None);
        for meta in store.segments().to_vec() {
            let (r, s) = timed(|| tracer.call("store.read_segment", || store.read_segment(&meta)));
            r?;
            cy.read_segment_ms.push(s * 1e3);
        }
    }
    drop(store);

    // Replication: a primary serving this store, an empty follower.
    let server = RunningServer::start(
        setup.service.clone(),
        ServeConfig {
            workers: nproc(),
            engine_threads: 0,
            store_dir: Some(primary.clone()),
            ..ServeConfig::default()
        },
    )?;
    let url = server.url();
    let (pulled, s) = timed(|| {
        tracer.call("replnet.pull_pass", || {
            aiio_replnet::pull_pass(&follower, &url, &PullConfig::default())
        })
    });
    let pulled = pulled?;
    cy.pull_s = s;
    check(pulled.total_lag_frames() == 0, || {
        format!("follower still lags {} frames", pulled.total_lag_frames())
    })?;
    if traced {
        let (again, s) = timed(|| {
            tracer.call("replnet.pull_pass", || {
                aiio_replnet::pull_pass(&follower, &url, &PullConfig::default())
            })
        });
        let again = again?;
        let shipped: u64 = again
            .shards
            .iter()
            .map(|s| s.segments_copied + s.rows_shipped)
            .sum();
        check(shipped == 0 && again.total_lag_frames() == 0, || {
            format!("a pull with nothing new shipped {shipped} segments+rows")
        })?;
        cy.noop_pull_s = Some(s);
    }
    cy.pull = Some(pulled);
    server.stop()?;

    let mut copy = Store::open(&follower)?;
    copy.set_cache(None);
    let ds = pipeline.dataset_of_backend(&copy)?;
    check(same_bits(&ds, reference), || {
        "follower dataset differs from the primary's".to_string()
    })?;
    drop(copy);
    std::fs::remove_dir_all(dir)?;
    Ok(cy)
}

/// Cycles until `seconds` have passed (or exactly `cycles` cycles).
pub fn run_pass(
    setup: &StoreSetup,
    scale: &Scale,
    work: &Path,
    seconds: f64,
    cycles: Option<usize>,
    reference: &Dataset,
    tracer: &Tracer,
) -> Result<Vec<Cycle>> {
    let mut out = Vec::new();
    let t0 = Instant::now();
    loop {
        let done = match cycles {
            Some(n) => out.len() >= n,
            None => !out.is_empty() && secs_since(t0) >= seconds,
        };
        if done {
            return Ok(out);
        }
        let dir = work.join(format!("cycle-{}", out.len()));
        out.push(run_cycle(setup, scale, &dir, reference, tracer)?);
    }
}
