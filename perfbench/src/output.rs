//! The result lines: a detail object, then the final result object
//! (`correct`, `attempted`, `failed`, `metrics`) that tools comparing runs
//! read from the last line of standard output.

use crate::timing::Quantile;
use std::collections::BTreeMap;

/// Named metrics of one run, each with its unit.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", number(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives. JSON has no infinity: a percentile that landed on a failed
/// request (`+inf`, slower than any limit) is written as `1e300`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else if v > 0.0 {
        "1e300".to_string()
    } else {
        "null".to_string()
    }
}

/// A percentile for the detail line: value, sample count and how many
/// samples lie beyond it.
pub fn quantile_json(q: &Quantile) -> String {
    format!(
        "{{\"p\":{},\"value\":{},\"samples\":{},\"beyond\":{}}}",
        number(q.percent),
        number(q.value),
        q.samples,
        q.beyond
    )
}

/// The final line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_all_digits() {
        assert_eq!(number(1.203_412_345_678_9), "1.2034123456789");
        assert_eq!(number(40.0), "40.0");
        assert_eq!(number(f64::INFINITY), "1e300");
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::new();
        m.set("setup_s", 0.5, "s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
