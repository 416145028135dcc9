//! `aiio-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the checkout root and prints, as its last two
//! lines of standard output, a detail object (run context, sample counts,
//! percentiles) and the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! A wrong program output prints `"correct": false` with no metrics and
//! exits 1; a run that cannot be carried out prints no result and exits 2.

use aiio_darshan::FeaturePipeline;
use aiio_perfbench::context::Context;
use aiio_perfbench::layers::{run_traced, Workload};
use aiio_perfbench::output::{number, quantile_json, result_line, Metrics};
use aiio_perfbench::setup::{repeat_setup, WorkDir};
use aiio_perfbench::timing::{least, median, Samples};
use aiio_perfbench::trace::Tracer;
use aiio_perfbench::{batch, http, storecycle, Failure, Result, Scale};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25),
        trace: trace.unwrap_or(false),
    })
}

/// End-to-end figures of an untraced run.
struct Run {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    detail: Vec<(String, String)>,
}

/// Every reportable percentile of `latency` for the detail line.
fn tail_detail(run: &mut Run, prefix: &str, latency: &Samples) {
    for p in [50.0, 90.0, 95.0, 99.0] {
        if let Some(q) = latency.percentile(p) {
            run.detail
                .push((format!("{prefix}p{p}_ms"), quantile_json(&q)));
        }
    }
}

fn setup_metric(run: &mut Run, times: &[f64]) -> Result<()> {
    let s = median(times).ok_or_else(|| Failure::Broken("no set-up time".into()))?;
    run.metrics.set("setup_s", s, "s");
    run.detail
        .push(("setup_runs".into(), times.len().to_string()));
    Ok(())
}

fn untraced(root: &Path, args: &Args, scale: &Scale) -> Result<Run> {
    let seconds = args.seconds as f64;
    let off = Tracer::off();
    let mut run = Run {
        metrics: Metrics::new(),
        attempted: 0,
        failed: 0,
        detail: Vec::new(),
    };
    match args.workload {
        Workload::DiagnoseHttp => {
            let (setup, times) =
                repeat_setup(scale.setups, || http::prepare(args.seed, seconds, scale))?;
            let outcomes = http::run_pass(&setup, &off);
            let references = http::references(&setup)?;
            http::verify(&outcomes, &references)?;
            drop(setup);
            let s = http::summarize(&outcomes);
            setup_metric(&mut run, &times)?;
            run.attempted = s.attempted;
            run.failed = s.attempted - s.ok;
            run.metrics
                .set("success_ratio", s.ok as f64 / s.attempted as f64, "ratio");
            run.metrics.set("jobs_per_s", s.jobs_per_s, "1/s");
            let (p50, windows) = http::least_window_p50(&outcomes, scale.http_window)?;
            run.metrics.set("latency_ms", p50, "ms");
            run.detail
                .push(("latency_windows".into(), windows.to_string()));
            tail_detail(&mut run, "latency_", &s.latency_ms);
            tail_detail(&mut run, "late_", &s.late_ms);
            let mut service = Samples::new();
            for o in outcomes.iter().filter(|o| o.ok()) {
                service.push((o.latency_s - o.late_s) * 1e3);
            }
            tail_detail(&mut run, "sent_to_done_", &service);
            run.detail
                .push(("rate_per_s".into(), scale.http_rate.to_string()));
        }
        Workload::DiagnoseBatch => {
            let (setup, times) = repeat_setup(scale.setups, || batch::prepare(args.seed, scale))?;
            let pass = batch::run_pass(&setup, scale, args.seed, seconds, None, &off)?;
            setup_metric(&mut run, &times)?;
            run.attempted = pass.jobs() as u64;
            run.metrics.set("success_ratio", 1.0, "ratio");
            let rate = pass
                .jobs_per_s()
                .ok_or_else(|| Failure::Broken("no batch call ran".into()))?;
            run.metrics.set("jobs_per_s", rate, "1/s");
            let call_ms = pass
                .call_ms()
                .ok_or_else(|| Failure::Broken("no batch call ran".into()))?;
            run.metrics.set("latency_ms", call_ms, "ms");
            if let Some(m) = pass.median_call_ms() {
                run.detail.push(("call_ms_median".into(), number(m)));
            }
            run.detail
                .push(("calls".into(), pass.call_s.len().to_string()));
            run.detail
                .push(("jobs_per_call".into(), pass.jobs_per_call.to_string()));
            run.detail
                .push(("checked".into(), pass.checked.to_string()));
        }
        Workload::StoreCycle => {
            let (setup, times) =
                repeat_setup(scale.setups, || storecycle::prepare(args.seed, scale))?;
            let reference = FeaturePipeline::paper().dataset_of(&setup.rows);
            let work = WorkDir::new(root, "store-cycle")?;
            let cycles =
                storecycle::run_pass(&setup, scale, work.path(), seconds, None, &reference, &off)?;
            setup_metric(&mut run, &times)?;
            run.attempted = cycles.iter().map(storecycle::Cycle::operations).sum();
            run.metrics.set("success_ratio", 1.0, "ratio");
            let cycle_s: Vec<f64> = cycles.iter().map(storecycle::Cycle::total_s).collect();
            let best = least(&cycle_s).ok_or_else(|| Failure::Broken("no cycle ran".into()))?;
            run.metrics
                .set("jobs_per_s", setup.rows.len() as f64 / best, "1/s");
            run.metrics.set("latency_ms", best * 1e3, "ms");
            if let Some(m) = median(&cycle_s) {
                run.detail.push(("cycle_ms_median".into(), number(m * 1e3)));
            }
            let mut ingest = Samples::new();
            for c in &cycles {
                ingest.extend(&c.ingest_call_ms);
            }
            tail_detail(&mut run, "ingest_call_", &ingest);
            run.detail.push(("cycles".into(), cycles.len().to_string()));
            for (name, f) in [
                (
                    "ingest_s",
                    (|c: &storecycle::Cycle| c.ingest_s) as fn(&storecycle::Cycle) -> f64,
                ),
                ("compact_s", |c| c.compact_s),
                ("open_s", |c| c.open_s),
                ("cold_scan_s", |c| c.cold_scan_s),
                ("warm_scan_s", |c| c.warm_scan_s),
                ("evict_scan_s", |c| c.evict_scan_s),
                ("pull_s", |c| c.pull_s),
            ] {
                let v: Vec<f64> = cycles.iter().map(f).collect();
                if let Some(m) = median(&v) {
                    run.detail.push((name.into(), number(m)));
                }
            }
        }
    }
    Ok(run)
}

fn detail_line(ctx: &Context, detail: &[(String, String)]) -> String {
    let mut parts = vec![format!("\"context\":{}", ctx.to_json())];
    parts.extend(detail.iter().map(|(k, v)| format!("\"{k}\":{v}")));
    format!("{{\"detail\":{{{}}}}}", parts.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::full();
    let nproc = aiio_perfbench::nproc();
    // The diagnose-http server runs one engine thread per worker; the
    // batch sweep and the store calls run at `nproc` engine threads.
    let (workers, engine_threads) = match args.workload {
        Workload::DiagnoseHttp => (nproc, 1),
        Workload::DiagnoseBatch => (0, nproc),
        Workload::StoreCycle => (nproc, nproc),
    };
    let ctx = Context::new(
        &root,
        args.workload.name(),
        (args.seed, args.seconds, args.trace),
        workers,
        engine_threads,
    );
    eprintln!("perfbench: {}", ctx.to_json());
    let outcome = if args.trace {
        run_traced(&root, args.workload, args.seed, args.seconds as f64, &scale).and_then(|t| {
            let dir = root.join(".bench_trace");
            std::fs::create_dir_all(&dir)?;
            let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
            t.tracer.write_jsonl(&path)?;
            let mut detail = vec![(
                "trace_file".to_string(),
                format!(
                    "\"{}\"",
                    path.strip_prefix(&root).unwrap_or(&path).display()
                ),
            )];
            for (name, s) in t.tracer.summary() {
                detail.push((
                    format!("span:{name}"),
                    format!(
                        "{{\"count\":{},\"total_s\":{},\"self_s\":{}}}",
                        s.count,
                        number(s.total_s),
                        number(s.self_s)
                    ),
                ));
            }
            Ok(Run {
                metrics: t.metrics,
                attempted: t.attempted,
                failed: t.failed,
                detail,
            })
        })
    } else {
        untraced(&root, &args, &scale)
    };
    match outcome {
        Ok(run) => {
            println!("{}", detail_line(&ctx, &run.detail));
            println!(
                "{}",
                result_line(true, run.attempted.max(1), run.failed, &run.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(Failure::Wrong(msg)) => {
            eprintln!("perfbench: WRONG OUTPUT: {msg}");
            println!("{}", result_line(false, 1, 1, &Metrics::new()));
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
