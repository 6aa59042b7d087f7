//! Metrics registry: counters and base-2 log-scale histograms.
//!
//! All maps are `BTreeMap`s so snapshots and exports enumerate metrics in
//! a deterministic (sorted) order regardless of registration order.

use std::collections::BTreeMap;

use parking_lot::Mutex;

/// Number of base-2 buckets. With [`BUCKET_OFFSET`] this spans roughly
/// `2^-40` (≈ 1e-12, sub-picosecond) to `2^63`, far beyond any latency or
/// size the stack records.
const BUCKET_COUNT: usize = 104;
/// Bucket index of value `1.0`; values below `2^-40` land in bucket 0.
const BUCKET_OFFSET: i32 = 40;

/// A histogram with exponentially sized (base-2) buckets.
///
/// Recording is O(1); quantiles are estimated by a cumulative walk over the
/// buckets using the geometric midpoint of the matched bucket, clamped to
/// the exact observed min/max. Relative quantile error is bounded by the
/// bucket width (≤ √2×).
#[derive(Debug, Clone)]
pub(crate) struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        LogHistogram {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        let idx = value.log2().floor() as i32 + BUCKET_OFFSET;
        idx.clamp(0, BUCKET_COUNT as i32 - 1) as usize
    }

    /// Records one observation. Non-finite values are counted in the
    /// underflow bucket but excluded from `sum`/`min`/`max`.
    pub(crate) fn record(&mut self, value: f64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`).
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                if i == 0 {
                    return self.min.min(self.max).max(0.0);
                }
                let lower = (i as i32 - BUCKET_OFFSET) as f64;
                // Geometric midpoint of [2^lower, 2^(lower+1)].
                let mid = (lower + 0.5).exp2();
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// A compact summary (count, sum, min, max, p50, p95).
    pub(crate) fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.min.is_finite() { self.min } else { 0.0 },
            max: if self.max.is_finite() { self.max } else { 0.0 },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
        }
    }
}

/// Point-in-time summary of one log-bucketed histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all finite observations.
    pub sum: f64,
    /// Smallest finite observation (0 if none).
    pub min: f64,
    /// Largest finite observation (0 if none).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
}

/// Point-in-time snapshot of every metric in a registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Every counter and histogram of one handle, under one lock.
#[derive(Default)]
pub(crate) struct Registry(Mutex<Metrics>);

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, LogHistogram>,
}

impl Registry {
    pub(crate) fn inc_counter(&self, name: &'static str, by: u64) {
        *self.0.lock().counters.entry(name).or_insert(0) += by;
    }

    pub(crate) fn record_hist(&self, name: &'static str, value: f64) {
        self.0.lock().hists.entry(name).or_default().record(value);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let m = self.0.lock();
        MetricsSnapshot {
            counters: m
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: m
                .hists
                .iter()
                .map(|(k, h)| (k.to_string(), h.summary()))
                .collect(),
        }
    }
}

#[cfg(test)]
impl Registry {
    pub(crate) fn clear(&self) {
        *self.0.lock() = Metrics::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0); // uniform on (0, 1]
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        // Log-scale buckets give coarse estimates; within a 2x band.
        assert!((0.25..=1.0).contains(&p50), "p50 {p50}");
        assert!((0.5..=1.0).contains(&p95), "p95 {p95}");
        assert!(p50 <= p95);
        assert_eq!(h.count, 1000);
    }

    #[test]
    fn single_value_is_exact() {
        let mut h = LogHistogram::new();
        h.record(0.0123);
        let s = h.summary();
        assert_eq!(s.p50, 0.0123);
        assert_eq!(s.p95, 0.0123);
        assert_eq!(s.min, 0.0123);
        assert_eq!(s.max, 0.0123);
    }

    #[test]
    fn zero_and_nonfinite_values_do_not_poison() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(f64::NAN);
        h.record(2.0);
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 0.0); // zero is finite and tracked; NaN is not
        assert_eq!(s.max, 2.0);
        assert!(s.sum == 2.0);
        assert!(s.p50.is_finite());
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let s = LogHistogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.min, 0.0);
    }

    #[test]
    fn extreme_magnitudes_stay_in_range() {
        let mut h = LogHistogram::new();
        h.record(1e-15); // below bucket floor -> underflow bucket
        h.record(1e18);
        assert!(h.quantile(0.0) >= 0.0);
        assert!(h.quantile(1.0) <= 1e18);
    }
}
