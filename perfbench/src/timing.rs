//! The one timing and percentile helper of the benchmark.
//!
//! * Durations are read with [`std::time::Duration::as_secs_f64`]: full
//!   clock resolution, never rounded to whole milliseconds and never
//!   clamped.
//! * A percentile of a latency distribution is reported only when at
//!   least [`MIN_BEYOND`] samples lie beyond it, and always with its
//!   sample count ([`Quantile`]).
//! * [`median`] is for repeats of one measurement (set-ups), where the
//!   median is the steady estimate and no tail is claimed.
//! * [`least`] is for the end-to-end timings, taken over consecutive
//!   slices of a run (request windows, batch calls, store cycles): load
//!   from neighbouring machines only ever adds time, so the
//!   least-disturbed slice is the figure closest to the program's own.

use std::time::Instant;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `f` and return its result with its duration in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs_since(t))
}

/// Median of repeated measurements (mean of the middle two for an even
/// count). `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The least of repeated measurements of one slice of work: the
/// least-disturbed slice. `None` for no values.
pub fn least(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// A reported percentile: its value, the sample count it was taken
/// from, and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub percent: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// A latency distribution. Failed operations enter as `+inf`, so they
/// count as slower than any limit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Record a failed operation.
    pub fn push_failed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Nearest-rank percentile: the value at rank `ceil(p/100 · n)`.
    /// `None` unless at least [`MIN_BEYOND`] samples rank beyond it.
    pub fn percentile(&self, percent: f64) -> Option<Quantile> {
        let n = self.values.len();
        if n == 0 || !(0.0..=100.0).contains(&percent) {
            return None;
        }
        let rank = ((percent / 100.0) * n as f64).ceil().max(1.0) as usize;
        let beyond = n - rank.min(n);
        if beyond < MIN_BEYOND {
            return None;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        Some(Quantile {
            percent,
            value: v[rank - 1],
            samples: n,
            beyond,
        })
    }

    /// Median of the samples, under the same rule as [`Self::percentile`].
    pub fn p50(&self) -> Option<Quantile> {
        self.percentile(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn least_is_the_smallest_value() {
        assert_eq!(least(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(least(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = samples(1000);
        let p99 = s.percentile(99.0).expect("ten samples beyond p99 of 1000");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert_eq!(p99.samples, 1000);
        assert_eq!(s.p50().map(|q| q.value), Some(500.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert!(samples(999).percentile(99.0).is_none());
        assert!(samples(1000).percentile(99.0).is_some());
        assert!(samples(19).p50().is_none());
        assert!(samples(20).p50().is_some());
        assert!(Samples::new().p50().is_none());
    }

    #[test]
    fn failures_are_slower_than_any_limit() {
        let mut s = samples(100);
        for _ in 0..20 {
            s.push_failed();
        }
        let p90 = s.percentile(90.0).expect("12 beyond");
        assert!(p90.value.is_infinite());
        assert_eq!(s.p50().map(|q| q.value), Some(60.0));
    }

    #[test]
    fn timings_keep_sub_millisecond_resolution() {
        let ((), s) = timed(|| std::thread::sleep(std::time::Duration::from_micros(300)));
        assert!(s > 0.0 && s < 0.5, "{s}");
        assert!(s.fract() != 0.0);
    }
}
