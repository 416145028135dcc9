//! `diagnose-http`: open-loop Poisson `POST /diagnose` over loopback.
//!
//! The server is `aiio_serve::Server` bound in-process on `127.0.0.1:0`
//! with `workers = nproc` and one engine thread per worker. Each request
//! carries a distinct held-out job. Requests are due on a seeded Poisson
//! schedule; at most `nproc` sender threads (so at most `nproc` open
//! connections) send them, and latency is timed from each request's due
//! time, so a stalled sender charges its wait to the requests behind it.

use crate::rng::{derive, SplitMix64};
use crate::setup::{held_out, train_service, RunningServer, STREAM_HTTP};
use crate::timing::{least, Samples};
use crate::trace::Tracer;
use crate::{check, nproc, Failure, Result, Scale};
use aiio::AiioService;
use aiio_darshan::JobLog;
use aiio_serve::ServeConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client-side limit on one request; the server's own deadline (30 s)
/// answers 504 well before it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Everything a pass needs, built before timing starts.
pub struct HttpSetup {
    pub service: AiioService,
    pub jobs: Vec<JobLog>,
    pub bodies: Vec<String>,
    /// Due time of request `i` (seconds after the pass starts); request
    /// `i` carries `jobs[i]`.
    pub schedule: Vec<f64>,
    /// Requests per latency window (`Scale::http_window`).
    pub per_window: usize,
    pub server: RunningServer,
}

/// Requests in one pass: the rate times the run length.
pub fn request_count(scale: &Scale, seconds: f64) -> usize {
    ((scale.http_rate * seconds).round() as usize).max(1)
}

pub fn prepare(seed: u64, seconds: f64, scale: &Scale) -> Result<HttpSetup> {
    aiio_par::set_threads(nproc());
    let service = train_service(scale)?;
    let n = request_count(scale, seconds);
    let jobs = held_out(seed, STREAM_HTTP, n);
    let bodies = jobs
        .iter()
        .map(serde_json::to_string)
        .collect::<std::result::Result<Vec<_>, _>>()
        .map_err(|e| Failure::Broken(format!("JobLog serialization: {e}")))?;
    let schedule = poisson_schedule(derive(seed, STREAM_HTTP), n, seconds);
    let server = RunningServer::start(
        service.clone(),
        ServeConfig {
            workers: nproc(),
            engine_threads: 1,
            ..ServeConfig::default()
        },
    )?;
    Ok(HttpSetup {
        service,
        jobs,
        bodies,
        schedule,
        per_window: scale.http_window,
        server,
    })
}

/// Arrival times of a Poisson process on `[0, span)` conditioned on
/// exactly `n` arrivals: `n` sorted uniform draws. Fixing the count keeps
/// the sample size, and so the reportable percentiles, the same for
/// every seed.
pub fn poisson_schedule(seed: u64, n: usize, span: f64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut t: Vec<f64> = (0..n).map(|_| rng.next_f64() * span).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub index: usize,
    /// Send time minus due time.
    pub late_s: f64,
    /// Response time minus due time.
    pub latency_s: f64,
    /// Completion time, seconds after the pass started.
    pub done_s: f64,
    /// HTTP status; 0 for a connection or protocol error.
    pub status: u16,
    pub body: String,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// Send every scheduled request with at most `senders` threads.
pub fn open_loop(
    addr: &str,
    bodies: &[String],
    schedule: &[f64],
    senders: usize,
    tracer: &Tracer,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    // A short lead so every sender is parked before the first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let mut out: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..senders.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.len() {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(schedule[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let reply = tracer.span("serve.POST /diagnose", 0, i as u64 + 1, |_| {
                            aiio_serve::client::request(
                                addr,
                                "POST",
                                "/diagnose",
                                Some(&bodies[i]),
                                REQUEST_TIMEOUT,
                            )
                        });
                        let done = Instant::now();
                        let (status, body) = match reply {
                            Ok(r) => (r.status, r.body),
                            Err(_) => (0, String::new()),
                        };
                        local.push(Outcome {
                            index: i,
                            late_s: sent.saturating_duration_since(due).as_secs_f64(),
                            latency_s: done.saturating_duration_since(due).as_secs_f64(),
                            done_s: done.saturating_duration_since(start).as_secs_f64(),
                            status,
                            body,
                        });
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    out.sort_by_key(|o| o.index);
    out
}

/// One open-loop pass over the whole schedule.
pub fn run_pass(setup: &HttpSetup, tracer: &Tracer) -> Vec<Outcome> {
    open_loop(
        &setup.server.addr,
        &setup.bodies,
        &setup.schedule,
        nproc(),
        tracer,
    )
}

/// The in-process reference body of every job:
/// `serde_json::to_string(&service.diagnose(job))`.
pub fn references(setup: &HttpSetup) -> Result<Vec<String>> {
    let bodies = aiio_par::with_threads(nproc(), || {
        aiio_par::map(&setup.jobs, |job| {
            serde_json::to_string(&setup.service.diagnose(job))
        })
    });
    bodies
        .into_iter()
        .collect::<std::result::Result<Vec<_>, _>>()
        .map_err(|e| Failure::Broken(format!("report serialization: {e}")))
}

/// Every 200 body must be byte-identical to the in-process reference.
pub fn verify(outcomes: &[Outcome], references: &[String]) -> Result<()> {
    for o in outcomes.iter().filter(|o| o.ok()) {
        check(o.body == references[o.index], || {
            format!(
                "POST /diagnose body of request {} differs from the in-process report",
                o.index
            )
        })?;
    }
    Ok(())
}

/// End-to-end figures of a pass.
#[derive(Debug, Clone)]
pub struct HttpSummary {
    pub attempted: u64,
    pub ok: u64,
    /// Latency from due time; failures enter as `+inf`.
    pub latency_ms: Samples,
    pub late_ms: Samples,
    /// Successful responses per second of the pass.
    pub jobs_per_s: f64,
}

pub fn summarize(outcomes: &[Outcome]) -> HttpSummary {
    let mut latency_ms = Samples::new();
    let mut late_ms = Samples::new();
    let mut ok = 0u64;
    let mut end_s: f64 = 0.0;
    for o in outcomes {
        late_ms.push(o.late_s * 1e3);
        end_s = end_s.max(o.done_s);
        if o.ok() {
            ok += 1;
            latency_ms.push(o.latency_s * 1e3);
        } else {
            latency_ms.push_failed();
        }
    }
    HttpSummary {
        attempted: outcomes.len() as u64,
        ok,
        latency_ms,
        late_ms,
        jobs_per_s: if end_s > 0.0 { ok as f64 / end_s } else { 0.0 },
    }
}

/// Median latency of each window of `per_window` consecutive requests
/// (by due time; the last window takes the remainder). `None` if a
/// window is too small for a median under the percentile rule.
pub fn window_p50s(outcomes: &[Outcome], per_window: usize) -> Option<Vec<f64>> {
    let windows = (outcomes.len() / per_window.max(1)).max(1);
    let n = outcomes.len();
    (0..windows)
        .map(|w| {
            let slice = &outcomes[w * n / windows..(w + 1) * n / windows];
            summarize(slice).latency_ms.p50().map(|q| q.value)
        })
        .collect()
}

/// The pass's `latency_ms`: the median latency of its least-disturbed
/// window (see [`crate::timing::least`]), with the number of windows.
pub fn least_window_p50(outcomes: &[Outcome], per_window: usize) -> Result<(f64, usize)> {
    let windows = window_p50s(outcomes, per_window).ok_or_else(|| {
        Failure::Broken(format!(
            "{} requests are too few for a median",
            outcomes.len()
        ))
    })?;
    let p50 = least(&windows).ok_or_else(|| Failure::Broken("no latency window".into()))?;
    Ok((p50, windows.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sorted_and_in_span() {
        let a = poisson_schedule(5, 200, 10.0);
        assert_eq!(a, poisson_schedule(5, 200, 10.0));
        assert_ne!(a, poisson_schedule(6, 200, 10.0));
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // Roughly uniform: about half the arrivals in the first half.
        let first = a.iter().filter(|&&t| t < 5.0).count();
        assert!((70..=130).contains(&first), "{first}");
    }

    #[test]
    fn windows_split_by_due_order() {
        let outcomes: Vec<Outcome> = (0..105)
            .map(|i| Outcome {
                index: i,
                late_s: 0.0,
                latency_s: if i < 50 { 0.002 } else { 0.001 },
                done_s: 0.0,
                status: 200,
                body: String::new(),
            })
            .collect();
        assert_eq!(window_p50s(&outcomes, 50), Some(vec![2.0, 1.0]));
        assert_eq!(window_p50s(&outcomes[..30], 50).map(|w| w.len()), Some(1));
        assert_eq!(window_p50s(&outcomes[..10], 50), None);
    }
}
