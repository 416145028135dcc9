//! Shared set-up pieces: the trained zoo, held-out jobs, an in-process
//! loopback server and the scratch directory of a run.

use crate::rng::derive;
use crate::{Failure, Result, Scale};
use aiio::{AiioService, TrainConfig};
use aiio_darshan::JobLog;
use aiio_iosim::{DatabaseSampler, SamplerConfig};
use aiio_serve::{Handle, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// Seed of the fixed training database, the same for every workload
/// seed (the repro binaries' default).
pub const TRAIN_SEED: u64 = 7;

/// Job ids of held-out jobs start here, far above any training id.
const HELD_OUT_BASE: u64 = 1 << 40;

/// Input streams derived from the workload seed.
pub const STREAM_HTTP: u64 = 1;
pub const STREAM_BATCH: u64 = 2;
pub const STREAM_STORE: u64 = 3;
pub const STREAM_PROBE: u64 = 4;

/// Train the zoo with `TrainConfig::fast()` on the fixed sampler
/// database of `scale.train_jobs` jobs.
pub fn train_service(scale: &Scale) -> Result<AiioService> {
    let db = DatabaseSampler::new(SamplerConfig {
        n_jobs: scale.train_jobs,
        seed: TRAIN_SEED,
        noise_sigma: 0.03,
    })
    .generate();
    AiioService::train(&TrainConfig::fast(), &db)
        .map_err(|e| Failure::Broken(format!("zoo training failed: {e}")))
}

/// `n` held-out jobs of input stream `stream` of workload seed `seed`.
pub fn held_out(seed: u64, stream: u64, n: usize) -> Vec<JobLog> {
    DatabaseSampler::new(SamplerConfig {
        n_jobs: n,
        seed: derive(seed, stream),
        noise_sigma: 0.03,
    })
    .generate_range(HELD_OUT_BASE, HELD_OUT_BASE + n as u64)
}

/// An `aiio_serve::Server` bound on an ephemeral loopback port and
/// running on its own thread.
pub struct RunningServer {
    pub addr: String,
    handle: Handle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl RunningServer {
    pub fn start(service: AiioService, config: ServeConfig) -> Result<RunningServer> {
        let server = Server::bind("127.0.0.1:0", service, config)?;
        let addr = server.local_addr()?.to_string();
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || server.run())?;
        Ok(RunningServer {
            addr,
            handle,
            thread: Some(thread),
        })
    }

    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Shut down gracefully and wait for every server thread.
    pub fn stop(mut self) -> Result<()> {
        self.join()
    }

    fn join(&mut self) -> Result<()> {
        self.handle.shutdown();
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| Failure::Broken("server thread panicked".into()))?
                .map_err(Failure::from),
            None => Ok(()),
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// Run `build` `n` times (at least once), timing each; keep the last
/// result and drop the others. Returns the kept result and every time.
pub fn repeat_setup<T>(n: usize, mut build: impl FnMut() -> Result<T>) -> Result<(T, Vec<f64>)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..n.max(1) {
        drop(kept.take());
        let (built, s) = crate::timing::timed(&mut build);
        times.push(s);
        kept = Some(built?);
    }
    let kept = kept.ok_or_else(|| Failure::Broken("no set-up ran".into()))?;
    Ok((kept, times))
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(root: &Path, tag: &str) -> Result<WorkDir> {
        let path = root
            .join(".bench_work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once no other run uses the directory.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
