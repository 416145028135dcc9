//! End-to-end and per-layer benchmark of the AIIO workspace.
//!
//! Three workloads, each run from one process (see `METRICS.md` for the
//! metric definitions and the per-layer → end-to-end mapping):
//!
//! * `diagnose-http` — open-loop Poisson `POST /diagnose` over loopback
//!   against an in-process [`aiio_serve::Server`] ([`http`]);
//! * `diagnose-batch` — closed in-process `AiioService::diagnose_batch`
//!   sweeps ([`batch`]);
//! * `store-cycle` — ingest, compact, reopen, cold/warm/evicting scans and
//!   a replication pull on `aiio-store` ([`storecycle`]).
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! ([`layers`]) wraps every call the benchmark makes into a layer in a
//! [`trace::Tracer`] span, derives the per-layer metrics from those spans
//! and from probes of single layers, and reports its own overhead.

pub mod batch;
pub mod context;
pub mod http;
pub mod layers;
pub mod output;
pub mod rng;
pub mod setup;
pub mod storecycle;
pub mod timing;
pub mod trace;

/// Error type of every fallible benchmark step: a message naming what
/// failed. A correctness violation is a [`Failure::Wrong`], which makes
/// the run print `"correct": false` and no metrics.
#[derive(Debug)]
pub enum Failure {
    /// The program under test returned a wrong output.
    Wrong(String),
    /// The benchmark could not run (I/O, bind, build of inputs).
    Broken(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Wrong(m) => write!(f, "wrong output: {m}"),
            Failure::Broken(m) => write!(f, "benchmark error: {m}"),
        }
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Broken(e.to_string())
    }
}

impl From<aiio_store::StoreError> for Failure {
    fn from(e: aiio_store::StoreError) -> Self {
        Failure::Broken(e.to_string())
    }
}

/// Result of a benchmark step.
pub type Result<T> = std::result::Result<T, Failure>;

/// Fail with [`Failure::Wrong`] unless `cond` holds.
pub fn check(cond: bool, what: impl FnOnce() -> String) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(Failure::Wrong(what()))
    }
}

/// Input sizes of every workload and probe. [`Scale::full`] is what the
/// benchmark command runs; tests use [`Scale::tiny`].
#[derive(Debug, Clone)]
pub struct Scale {
    /// Jobs in the fixed training database the zoo is trained on.
    pub train_jobs: usize,
    /// Open-loop `POST /diagnose` arrivals per second.
    pub http_rate: f64,
    /// Requests per latency window of a `diagnose-http` pass.
    pub http_window: usize,
    /// Jobs per `diagnose_batch` call.
    pub batch_size: usize,
    /// Distinct held-out jobs the batch calls cycle through.
    pub batch_pool: usize,
    /// Rows ingested per store cycle.
    pub store_rows: usize,
    /// Rows per `append_batch` + `sync` call.
    pub ingest_rows_per_call: usize,
    /// A partial `seal` follows every this many ingest calls.
    pub seal_every: usize,
    /// Held-out jobs the per-layer diagnosis probes explain.
    pub probe_jobs: usize,
    /// Batch calls and store cycles of the traced passes.
    pub traced_batch_calls: usize,
    pub traced_store_cycles: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    /// The benchmark's load sizes.
    pub fn full() -> Scale {
        Scale {
            train_jobs: 4000,
            http_rate: 40.0,
            http_window: 80,
            batch_size: 32,
            batch_pool: 256,
            store_rows: 100_000,
            ingest_rows_per_call: 256,
            seal_every: 8,
            probe_jobs: 48,
            traced_batch_calls: 16,
            traced_store_cycles: 2,
            setups: 5,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn tiny() -> Scale {
        Scale {
            train_jobs: 300,
            http_rate: 20.0,
            http_window: 20,
            batch_size: 8,
            batch_pool: 16,
            store_rows: 6_000,
            ingest_rows_per_call: 256,
            seal_every: 8,
            probe_jobs: 2,
            traced_batch_calls: 1,
            traced_store_cycles: 1,
            setups: 1,
        }
    }
}

/// Hardware threads of this machine: the sender, worker and engine
/// thread count of every workload.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
