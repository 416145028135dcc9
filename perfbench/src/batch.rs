//! `diagnose-batch`: closed, in-process `AiioService::diagnose_batch`
//! sweeps at `nproc` engine threads. The same explain and model work as
//! `diagnose-http`, with `aiio-serve` off the path entirely.

use crate::rng::{derive, SplitMix64};
use crate::setup::{held_out, train_service, STREAM_BATCH};
use crate::timing::{least, median, secs_since, timed};
use crate::trace::Tracer;
use crate::{check, nproc, Failure, Result, Scale};
use aiio::AiioService;
use aiio_darshan::JobLog;
use std::time::Instant;

/// Reports per call checked against one-at-a-time `diagnose`.
const CHECKS_PER_CALL: usize = 2;

pub struct BatchSetup {
    pub service: AiioService,
    /// Distinct held-out jobs; calls take consecutive `batch_size` slices.
    pub pool: Vec<JobLog>,
}

pub fn prepare(seed: u64, scale: &Scale) -> Result<BatchSetup> {
    aiio_par::set_threads(nproc());
    let service = train_service(scale)?;
    let pool = held_out(seed, STREAM_BATCH, scale.batch_pool);
    Ok(BatchSetup { service, pool })
}

/// Outcome of a pass of consecutive `diagnose_batch` calls.
#[derive(Debug, Clone, Default)]
pub struct BatchPass {
    /// Duration of each call, seconds.
    pub call_s: Vec<f64>,
    /// Pool slice of each call: calls cycle through the slices, so each
    /// slice's work is repeated.
    pub call_slice: Vec<usize>,
    pub jobs_per_call: usize,
    /// Reports compared with one-at-a-time `diagnose`.
    pub checked: usize,
}

impl BatchPass {
    pub fn jobs(&self) -> usize {
        self.call_s.len() * self.jobs_per_call
    }

    /// The least-disturbed call of each slice that ran, seconds.
    pub fn best_slice_s(&self) -> Vec<f64> {
        let slices = self.call_slice.iter().max().map_or(0, |m| m + 1);
        (0..slices)
            .filter_map(|k| {
                let s: Vec<f64> = self
                    .call_s
                    .iter()
                    .zip(&self.call_slice)
                    .filter(|&(_, &c)| c == k)
                    .map(|(&s, _)| s)
                    .collect();
                least(&s)
            })
            .collect()
    }

    /// Jobs per second of a sweep over the slices that ran, each at its
    /// least-disturbed call.
    pub fn jobs_per_s(&self) -> Option<f64> {
        let best = self.best_slice_s();
        let total: f64 = best.iter().sum();
        (total > 0.0).then(|| (best.len() * self.jobs_per_call) as f64 / total)
    }

    /// Median over slices of the least-disturbed call's duration, ms:
    /// how long a job of the sweep waits for its report.
    pub fn call_ms(&self) -> Option<f64> {
        median(&self.best_slice_s()).map(|s| s * 1e3)
    }

    /// Median call duration, ms.
    pub fn median_call_ms(&self) -> Option<f64> {
        median(&self.call_s).map(|s| s * 1e3)
    }
}

/// Run calls until `seconds` have passed (or exactly `calls` calls),
/// then check a seeded subset of the reports against one-at-a-time
/// `diagnose`.
pub fn run_pass(
    setup: &BatchSetup,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    calls: Option<usize>,
    tracer: &Tracer,
) -> Result<BatchPass> {
    let size = scale.batch_size.min(setup.pool.len()).max(1);
    let slices = setup.pool.len() / size;
    let mut rng = SplitMix64::new(derive(seed, STREAM_BATCH ^ 0xC4EC));
    let mut pass = BatchPass {
        jobs_per_call: size,
        ..BatchPass::default()
    };
    let mut kept: Vec<(usize, String)> = Vec::new();
    let t0 = Instant::now();
    loop {
        let c = pass.call_s.len();
        let done = match calls {
            Some(n) => c >= n,
            None => c > 0 && secs_since(t0) >= seconds,
        };
        if done {
            break;
        }
        let start = (c % slices) * size;
        let slice = &setup.pool[start..start + size];
        let (reports, s) = timed(|| {
            tracer.span("aiio.diagnose_batch", 0, c as u64 + 1, |_| {
                aiio_par::with_threads(nproc(), || setup.service.diagnose_batch(slice))
            })
        });
        pass.call_s.push(s);
        pass.call_slice.push(c % slices);
        check(reports.len() == size, || {
            format!(
                "diagnose_batch returned {} reports for {size} jobs",
                reports.len()
            )
        })?;
        for _ in 0..CHECKS_PER_CALL {
            let i = rng.below(size);
            let json = serde_json::to_string(&reports[i])
                .map_err(|e| Failure::Broken(format!("report serialization: {e}")))?;
            kept.push((start + i, json));
        }
    }
    for (job, json) in &kept {
        let one = serde_json::to_string(&setup.service.diagnose(&setup.pool[*job]))
            .map_err(|e| Failure::Broken(format!("report serialization: {e}")))?;
        check(&one == json, || {
            format!("diagnose_batch report of pool job {job} differs from diagnose")
        })?;
    }
    pass.checked = kept.len();
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_slice_keeps_its_least_call() {
        let pass = BatchPass {
            call_s: vec![2.0, 4.0, 1.0, 3.0, 5.0],
            call_slice: vec![0, 1, 0, 1, 0],
            jobs_per_call: 8,
            checked: 0,
        };
        assert_eq!(pass.best_slice_s(), vec![1.0, 3.0]);
        assert_eq!(pass.jobs_per_s(), Some(16.0 / 4.0));
        assert_eq!(pass.call_ms(), Some(2000.0));
        assert_eq!(BatchPass::default().jobs_per_s(), None);
    }
}
