//! Quality-of-service metrics of a simulated run (paper §5.5).

use serde::{Deserialize, Serialize};

use crate::RequestId;

/// Per-request outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// The request.
    pub id: RequestId,
    /// Application name.
    pub name: String,
    /// Arrival time (s).
    pub arrival_s: f64,
    /// When resources were granted (s).
    pub scheduled_s: f64,
    /// When reconfiguration finished and execution began (s).
    pub exec_start_s: f64,
    /// When execution finished (s).
    pub completion_s: f64,
    /// Pure execution time (s), including any pause disturbance.
    pub service_s: f64,
    /// Blocks the request needed.
    pub blocks_needed: u32,
    /// Blocks actually allocated (the baseline allocates whole devices).
    pub blocks_allocated: u32,
    /// Distinct FPGAs used.
    pub fpgas_used: u32,
    /// Fraction of service time attributable to the latency-insensitive
    /// interface (paper: < 0.03 %).
    pub interface_overhead_fraction: f64,
    /// Times the request was killed by an FPGA failure and re-queued.
    pub restarts: u32,
}

impl RequestOutcome {
    /// Response time = completion − arrival: the paper's QoS metric.
    pub fn response_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }

    /// Time spent waiting for resources.
    pub fn wait_s(&self) -> f64 {
        self.scheduled_s - self.arrival_s
    }

    /// `true` if the application spanned multiple FPGAs.
    pub fn spanned_fpgas(&self) -> bool {
        self.fpgas_used > 1
    }
}

/// Terminal record of a request that exhausted its retry budget: every
/// deployment attempt was interrupted by an injected fault and the
/// [`RetryPolicy`](crate::RetryPolicy) gave up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailedOutcome {
    /// The request.
    pub id: RequestId,
    /// Application name.
    pub name: String,
    /// Arrival time (s).
    pub arrival_s: f64,
    /// When the final attempt was interrupted (s).
    pub(crate) failed_s: f64,
    /// Deployment attempts made before giving up.
    pub attempts: u32,
    /// Blocks the request needed.
    pub blocks_needed: u32,
}

/// Aggregate report of one simulated workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Policy that produced the run.
    pub policy: String,
    /// Per-request outcomes, in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Makespan: last completion time (s).
    pub makespan_s: f64,
    /// Time-averaged fraction of physical blocks occupied while the cluster
    /// was active.
    pub block_utilization: f64,
    /// Time-averaged fraction of occupied blocks doing *useful* work
    /// (needed blocks over allocated blocks — exposes the baseline's
    /// internal fragmentation).
    pub effective_utilization: f64,
    /// Time-averaged fraction of physical blocks occupied while at least
    /// one request was waiting for resources — the utilization figure that
    /// matters for the paper's ">93 % of blocks utilized" claim (§5.5):
    /// idle blocks are only a problem while demand is queued.
    pub pressured_utilization: f64,
    /// Time-averaged number of concurrently running applications.
    pub avg_concurrency: f64,
    /// Peak number of concurrently running applications.
    pub peak_concurrency: usize,
    /// Requests that exhausted their retry budget (terminal failures).
    pub failed: Vec<FailedOutcome>,
    /// Instance evictions caused by injected faults (a request evicted
    /// twice counts twice).
    pub interrupted_jobs: u64,
    /// Block-seconds occupied by instances that were later evicted — work
    /// and capacity thrown away to faults.
    pub wasted_block_s: f64,
    /// Total block-seconds occupied by any instance (the throughput-side
    /// denominator of [`SimReport::goodput_fraction`]).
    pub(crate) busy_block_s: f64,
    /// Quantum expiries that actually swapped a tenant out (zero outside
    /// time-sliced runs). Unlike fault evictions, a preemption preserves
    /// the tenant's progress, so it contributes to neither
    /// [`SimReport::interrupted_jobs`] nor [`SimReport::wasted_block_s`].
    pub preemptions: u64,
    /// Reconfiguration seconds spent swapping previously-preempted tenants
    /// back in — the partial-reconfiguration cost time-slicing pays for
    /// oversubscribing the cluster.
    pub swap_reconfig_s: f64,
}

impl SimReport {
    /// Number of completed requests.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Mean response time (s).
    pub fn avg_response_s(&self) -> f64 {
        mean(self.outcomes.iter().map(RequestOutcome::response_s))
    }

    /// Mean wait time (s).
    pub fn avg_wait_s(&self) -> f64 {
        mean(self.outcomes.iter().map(RequestOutcome::wait_s))
    }

    /// 95th-percentile response time (s), ceil-based nearest-rank: the
    /// smallest observation with at least 95 % of the sample at or below
    /// it (`rank = ceil(0.95 n)`). The earlier `round()`-based rank
    /// overshot on small samples (N=2 reported the max as p95).
    pub fn p95_response_s(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let mut v: Vec<f64> = self
            .outcomes
            .iter()
            .map(RequestOutcome::response_s)
            .collect();
        v.sort_by(|a, b| a.total_cmp(b));
        let rank = (0.95 * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// Fraction of applications that spanned multiple FPGAs (the paper
    /// observes 5–40 % under ViTAL).
    pub fn spanning_fraction(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.spanned_fpgas()).count() as f64
            / self.outcomes.len() as f64
    }

    /// Number of requests that terminally failed (retry budget exhausted).
    pub fn failed_count(&self) -> usize {
        self.failed.len()
    }

    /// Block-seconds that produced completed work: total occupancy minus
    /// the occupancy of evicted instances.
    pub(crate) fn goodput_block_s(&self) -> f64 {
        (self.busy_block_s - self.wasted_block_s).max(0.0)
    }

    /// Goodput over throughput: the fraction of occupied block-seconds
    /// that belonged to instances that ran to completion (1.0 in a
    /// fault-free run, lower the more work faults threw away).
    pub fn goodput_fraction(&self) -> f64 {
        if self.busy_block_s <= 0.0 {
            1.0
        } else {
            self.goodput_block_s() / self.busy_block_s
        }
    }

    /// Worst interface-overhead fraction observed.
    pub fn max_interface_overhead(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.interface_overhead_fraction)
            .fold(0.0, f64::max)
    }
}

/// Compile-side metrics of a benchmark run: local-P&R parallelism and the
/// content-addressed compile cache's hit/miss counters. Produced by the
/// compile-layer reports/benches and carried next to the QoS metrics so a
/// whole evaluation run serializes as one record. Plain integers/floats
/// here — the cluster layer sits below the runtime and must not depend on
/// its types.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CompileMetrics {
    /// Designs compiled (cache misses included).
    pub designs: usize,
    /// Worker threads the local-P&R stage ran with.
    pub workers: usize,
    /// Sum of per-block local-P&R times (the stage's one-worker cost), s.
    pub serial_pnr_s: f64,
    /// Wall-clock local-P&R time actually observed, s.
    pub wall_pnr_s: f64,
    /// Compile-cache hits (deploys that skipped P&R entirely).
    pub cache_hits: u64,
    /// Compile-cache misses (deploys that paid for a full compile).
    pub cache_misses: u64,
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
impl SimReport {
    /// Total failure-induced restarts across all requests.
    pub(crate) fn total_restarts(&self) -> u64 {
        self.outcomes.iter().map(|o| u64::from(o.restarts)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, arrival: f64, completion: f64, fpgas: u32) -> RequestOutcome {
        RequestOutcome {
            id: RequestId(id),
            name: "t".into(),
            arrival_s: arrival,
            scheduled_s: arrival,
            exec_start_s: arrival,
            completion_s: completion,
            service_s: completion - arrival,
            blocks_needed: 1,
            blocks_allocated: 1,
            fpgas_used: fpgas,
            interface_overhead_fraction: 0.0,
            restarts: 0,
        }
    }

    fn report(outcomes: Vec<RequestOutcome>) -> SimReport {
        SimReport {
            policy: "test".into(),
            makespan_s: 10.0,
            block_utilization: 0.5,
            effective_utilization: 0.5,
            pressured_utilization: 0.5,
            avg_concurrency: 1.0,
            peak_concurrency: 1,
            failed: Vec::new(),
            interrupted_jobs: 0,
            wasted_block_s: 0.0,
            busy_block_s: 0.0,
            preemptions: 0,
            swap_reconfig_s: 0.0,
            outcomes,
        }
    }

    #[test]
    fn aggregates() {
        let r = report(vec![outcome(1, 0.0, 2.0, 1), outcome(2, 1.0, 5.0, 2)]);
        assert_eq!(r.completed(), 2);
        assert!((r.avg_response_s() - 3.0).abs() < 1e-12);
        assert_eq!(r.spanning_fraction(), 0.5);
        assert!(r.p95_response_s() >= 2.0);
    }

    #[test]
    fn p95_is_ceil_based_nearest_rank() {
        // Response time of outcome k is k+1 seconds, so the sorted sample
        // is 1.0, 2.0, .., n and `v[i]` is `(i + 1) as f64`. Ceil-based
        // nearest rank selects index ceil(0.95 n) - 1.
        let sample = |n: u64| report((0..n).map(|k| outcome(k, 0.0, (k + 1) as f64, 1)).collect());
        assert_eq!(sample(1).p95_response_s(), 1.0); // ceil(0.95)  = 1 -> v[0]
        assert_eq!(sample(2).p95_response_s(), 2.0); // ceil(1.90)  = 2 -> v[1]
        assert_eq!(sample(3).p95_response_s(), 3.0); // ceil(2.85)  = 3 -> v[2]
        assert_eq!(sample(20).p95_response_s(), 19.0); // ceil(19.0) = 19 -> v[18]
    }

    #[test]
    fn empty_report_is_zeroed() {
        let r = report(vec![]);
        assert_eq!(r.avg_response_s(), 0.0);
        assert_eq!(r.spanning_fraction(), 0.0);
        assert_eq!(r.p95_response_s(), 0.0);
    }
}
