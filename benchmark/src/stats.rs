//! Percentiles, window medians, quartiles and the report digest.
//!
//! Every number the benchmark prints goes through these helpers, so the
//! rules of the metric definitions live in one place: a percentile is
//! refused when fewer than ten samples lie beyond it, a throughput or
//! timing is the median of five equal windows of the measured interval,
//! and run-to-run spread is the distance between the quartiles as
//! Python's `statistics.quantiles(values, n=4)` gives them.

use std::fmt;

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Equal windows the measured interval is cut into. Ten rather than
/// five: one scheduling stall of 20 ms spoils the p99 of the whole window
/// it falls into, and the median of ten windows shrugs off four of those.
pub const WINDOWS: usize = 10;

/// Percentiles tried, highest first, when the asked-for one is refused.
const FALLBACKS: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// A percentile was asked of too few samples.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// The percentile asked for, in `[0, 1]`.
    pub q: f64,
    /// Samples available.
    pub n: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples has fewer than {MIN_BEYOND} samples beyond it",
            self.q * 100.0,
            self.n
        )
    }
}

/// 1-based nearest rank of the `q` percentile among `n` samples. The
/// small tolerance keeps `0.9 * 100` (90.00000000000001 in binary) at rank
/// 90.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The `q` percentile (nearest rank) of `sorted`, which must be
/// ascending. Refused unless at least [`MIN_BEYOND`] samples lie beyond
/// it; the median needs only one sample.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    let n = sorted.len();
    if n == 0 || (q > 0.5 && n - rank(n, q) < MIN_BEYOND) {
        return Err(TooFewSamples { q, n });
    }
    Ok(sorted[rank(n, q) - 1])
}

/// The highest percentile not above `q` that `sorted` supports, with the
/// percentile actually used. Falls back to the maximum only for an
/// empty-tailed handful of samples (fewer than two).
pub fn tail(sorted: &[f64], q: f64) -> (f64, f64) {
    for p in FALLBACKS.into_iter().filter(|p| *p <= q) {
        if let Ok(v) = percentile(sorted, p) {
            return (p, v);
        }
    }
    (1.0, sorted.last().copied().unwrap_or(0.0))
}

/// Median of an unsorted slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them.
/// Fewer than two values have no spread: all three are the value itself.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Quartile spread as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// One completed operation of a service workload.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the reply arrived, in ns since the workload's first send.
    pub at_ns: u64,
    /// Send→reply (closed loop) or due→reply (open loop), in ns.
    pub latency_ns: u64,
    /// A fabric `Deploy` (reported on its own as well).
    pub is_deploy: bool,
}

/// The tail percentiles every latency summary reads.
pub const TAILS: [f64; 3] = [0.90, 0.95, 0.99];

/// One tail percentile of a measured interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually read: the one asked for, or the highest
    /// below it that every window supports.
    pub q: f64,
    /// In ms: `[q1, median, q3]` over the windows.
    pub ms: [f64; 3],
}

/// Throughput and latency of one measured interval, each the median of
/// [`WINDOWS`] equal windows, with the quartiles across the windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Replies per second: `[q1, median, q3]` over the windows.
    pub per_s: [f64; 3],
    /// Median latency in ms: `[q1, median, q3]` over the windows.
    pub p50_ms: [f64; 3],
    /// p90, p95 and p99 (see [`TAILS`]).
    pub tails: [Tail; 3],
    /// Samples inside the interval.
    pub samples: usize,
}

/// Cuts `[from_ns, from_ns + len_ns)` into [`WINDOWS`] equal windows and
/// summarises the samples in each. Samples outside the interval (warm-up,
/// drain) are ignored.
pub fn windows(samples: &[Sample], from_ns: u64, len_ns: u64) -> WindowSummary {
    let width = (len_ns / WINDOWS as u64).max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for s in samples {
        if s.at_ns >= from_ns && s.at_ns < from_ns + width * WINDOWS as u64 {
            buckets[((s.at_ns - from_ns) / width) as usize].push(s.latency_ns as f64 / 1e6);
        }
    }
    for b in &mut buckets {
        b.sort_by(f64::total_cmp);
    }
    let over = |f: &dyn Fn(&Vec<f64>) -> f64| quartiles(&buckets.iter().map(f).collect::<Vec<_>>());
    let tails = TAILS.map(|asked| {
        // Every window is read at the same percentile, so that they can
        // be compared: the lowest any of them had to fall back to.
        let q = buckets
            .iter()
            .map(|b| tail(b, asked).0)
            .fold(asked, f64::min);
        Tail {
            q,
            ms: over(&|b| tail(b, q).1),
        }
    });
    WindowSummary {
        per_s: over(&|b| b.len() as f64 / (width as f64 / 1e9)),
        p50_ms: over(&|b| percentile(b, 0.5).unwrap_or(0.0)),
        tails,
        samples: buckets.iter().map(Vec::len).sum(),
    }
}

/// FNV-1a over `bytes`, cut to 48 bits so the digest survives a trip
/// through a JSON number (an `f64` holds 53 bits exactly).
pub fn fnv48(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 48)) & 0xffff_ffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|x| x as f64).collect()
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // 999 samples leave nine beyond p99: refused. 1000 leave ten.
        assert_eq!(
            percentile(&ramp(999), 0.99),
            Err(TooFewSamples { q: 0.99, n: 999 })
        );
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
        assert!(percentile(&[], 0.5).is_err());
        assert_eq!(percentile(&[7.0], 0.5), Ok(7.0));
    }

    #[test]
    fn tail_reports_the_percentile_it_could_support() {
        assert_eq!(tail(&ramp(1000), 0.99), (0.99, 990.0));
        assert_eq!(tail(&ramp(300), 0.99), (0.95, 285.0));
        assert_eq!(tail(&ramp(100), 0.99), (0.90, 90.0));
        assert_eq!(tail(&ramp(21), 0.99), (0.50, 11.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_take_the_median_window_and_skip_warm_up() {
        // 100 ms warm-up, then ten windows of 100 ms: 1000 samples each at
        // 1 ms, except three windows, which run at half rate and 3 ms.
        let mut samples = Vec::new();
        for i in 0..100 {
            samples.push(Sample {
                at_ns: i * 1_000_000,
                latency_ns: 50_000_000,
                is_deploy: false,
            });
        }
        for w in 0..WINDOWS as u64 {
            let (n, lat) = if (2..5).contains(&w) {
                (500, 3_000_000)
            } else {
                (1000, 1_000_000)
            };
            for i in 0..n {
                samples.push(Sample {
                    at_ns: 100_000_000 + w * 100_000_000 + i * (100_000_000 / n),
                    latency_ns: lat,
                    is_deploy: false,
                });
            }
        }
        let s = windows(&samples, 100_000_000, 1_000_000_000);
        assert_eq!(s.samples, 8500);
        assert_eq!(s.per_s[1], 10_000.0);
        assert_eq!(s.p50_ms[1], 1.0);
        assert_eq!(
            s.tails[0],
            Tail {
                q: 0.90,
                ms: [1.0, 1.0, 3.0]
            }
        );
        assert_eq!(s.tails[2].q, 0.95, "500 samples support p95, not p99");
        assert_eq!(s.tails[2].ms[1], 1.0);
        assert!(
            s.per_s[0] < s.per_s[1],
            "the slow windows show in the quartiles"
        );
    }

    #[test]
    fn digest_fits_a_json_number() {
        let d = fnv48(b"report");
        assert!(d < 1 << 48);
        assert_eq!(d as f64 as u64, d);
        assert_ne!(d, fnv48(b"repors"));
    }
}
