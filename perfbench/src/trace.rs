//! In-memory spans recorded around every call the benchmark makes into
//! a layer of the program.
//!
//! A span has a name (`layer.function`), a start and an end relative to
//! the tracer's origin, the span that caused it (`parent`, 0 for none)
//! and a request id shared by every span of one request. Spans stay in
//! memory and are written out once, when the run ends. A disabled tracer
//! runs the wrapped call and records nothing, so untraced and traced runs
//! execute the same code.

use crate::timing::Samples;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, caused by span `parent` and
    /// belonging to request `request`. `f` receives the new span's id so
    /// it can parent nested spans (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("tracer mutex poisoned by a panicking span")
            .push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// A top-level span with no parent and no request.
    pub fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span(name, 0, 0, |_| f())
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("tracer mutex poisoned by a panicking span")
            .clone()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Samples {
        let mut s = Samples::new();
        for span in self.spans().iter().filter(|s| s.name == name) {
            s.push(span.duration_ns() as f64 / 1e6);
        }
        s
    }

    /// Sum of the durations (s) of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Per span name: count, total and self time. A span's self time is
    /// its duration minus the time its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.duration_ns();
        }
        let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for s in &spans {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.duration_ns() as f64 / 1e9;
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            e.self_s += s.duration_ns().saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanSummary {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let v = t.span("a.b", 0, 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer.f", 0, 1, |outer| {
            t.span("inner.g", outer, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.request == 1));
        let inner = spans.iter().find(|s| s.name == "inner.g").expect("inner");
        let outer = spans.iter().find(|s| s.name == "outer.f").expect("outer");
        assert_eq!(inner.parent, outer.id);
        let sum = t.summary();
        let o = sum["outer.f"];
        assert!(o.total_s >= 0.02);
        assert!(o.self_s < o.total_s - 0.019, "{o:?}");
        assert_eq!(t.durations_ms("inner.g").len(), 1);
    }
}
