//! Per-stage compile-time accounting (paper Fig. 8).

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Wall-clock time spent in each stage of the six-step flow.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Step 1: synthesis (reused commercial front-end).
    pub synthesis: Duration,
    /// Step 2: partition (ViTAL custom tool, §4).
    pub partition: Duration,
    /// Step 3: latency-insensitive interface generation (custom tool).
    pub interface_gen: Duration,
    /// Step 4: local place-and-route (reused commercial back-end). Wall
    /// clock of the whole stage, i.e. with `workers` blocks in flight.
    pub local_pnr: Duration,
    /// Step 5: relocation (custom tool over RapidWright-style APIs).
    pub relocation: Duration,
    /// Step 6: global place-and-route (reused commercial back-end).
    pub global_pnr: Duration,
    /// Per-virtual-block local P&R times, indexed by virtual block.
    pub per_block_pnr: Vec<Duration>,
    /// Worker threads the local P&R stage ran with (1 = serial path,
    /// 0 = not recorded).
    pub workers: usize,
}

impl StageTimings {
    /// Total compile time.
    pub fn total(&self) -> Duration {
        self.synthesis
            + self.partition
            + self.interface_gen
            + self.local_pnr
            + self.relocation
            + self.global_pnr
    }

    /// Fractional breakdown of the total.
    pub fn breakdown(&self) -> TimingBreakdown {
        let total = self.total().as_secs_f64().max(1e-12);
        TimingBreakdown {
            synthesis: self.synthesis.as_secs_f64() / total,
            partition: self.partition.as_secs_f64() / total,
            interface_gen: self.interface_gen.as_secs_f64() / total,
            local_pnr: self.local_pnr.as_secs_f64() / total,
            relocation: self.relocation.as_secs_f64() / total,
            global_pnr: self.global_pnr.as_secs_f64() / total,
        }
    }

    /// Sum of per-block local P&R times: the stage's cost on one worker.
    pub fn serial_pnr_work(&self) -> Duration {
        self.per_block_pnr.iter().sum()
    }

    /// The longest single block's local P&R — the stage's critical path
    /// under perfect parallelism.
    pub fn max_block_pnr(&self) -> Duration {
        self.per_block_pnr.iter().max().copied().unwrap_or_default()
    }

    /// Element-wise sum, for aggregating a benchmark suite. Per-block P&R
    /// times are concatenated; the recorded worker count is the maximum.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.synthesis += other.synthesis;
        self.partition += other.partition;
        self.interface_gen += other.interface_gen;
        self.local_pnr += other.local_pnr;
        self.relocation += other.relocation;
        self.global_pnr += other.global_pnr;
        self.per_block_pnr.extend_from_slice(&other.per_block_pnr);
        self.workers = self.workers.max(other.workers);
    }
}

/// Fractions of total compile time per stage; sums to ~1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TimingBreakdown {
    /// Synthesis fraction.
    pub synthesis: f64,
    /// Partition fraction.
    pub partition: f64,
    /// Interface-generation fraction.
    pub interface_gen: f64,
    /// Local P&R fraction.
    pub local_pnr: f64,
    /// Relocation fraction.
    pub relocation: f64,
    /// Global P&R fraction.
    pub global_pnr: f64,
}

impl TimingBreakdown {
    /// Fraction in custom tools.
    pub fn custom_tools(&self) -> f64 {
        self.partition + self.interface_gen + self.relocation
    }

    /// Fraction in commercial P&R.
    pub fn commercial_pnr(&self) -> f64 {
        self.local_pnr + self.global_pnr
    }
}

#[cfg(test)]
impl StageTimings {
    /// Time spent in ViTAL's custom tools (partition + interface generation
    /// + relocation). The paper measures this at ~1.6 % of the total.
    pub(crate) fn custom_tools(&self) -> Duration {
        self.partition + self.interface_gen + self.relocation
    }

    /// Time spent in the reused commercial place-and-route stages. The
    /// paper measures this at ~83.9 % of the total.
    pub(crate) fn commercial_pnr(&self) -> Duration {
        self.local_pnr + self.global_pnr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let t = StageTimings {
            synthesis: Duration::from_millis(10),
            partition: Duration::from_millis(1),
            interface_gen: Duration::from_millis(1),
            local_pnr: Duration::from_millis(80),
            relocation: Duration::from_millis(1),
            global_pnr: Duration::from_millis(7),
            ..StageTimings::default()
        };
        assert_eq!(t.total(), Duration::from_millis(100));
        let b = t.breakdown();
        assert!((b.commercial_pnr() - 0.87).abs() < 1e-9);
        assert!((b.custom_tools() - 0.03).abs() < 1e-9);
        let sum =
            b.synthesis + b.partition + b.interface_gen + b.local_pnr + b.relocation + b.global_pnr;
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accumulate_adds() {
        let mut a = StageTimings::default();
        let b = StageTimings {
            local_pnr: Duration::from_secs(1),
            ..StageTimings::default()
        };
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.local_pnr, Duration::from_secs(2));
    }

    #[test]
    fn zero_total_breakdown_is_finite() {
        let b = StageTimings::default().breakdown();
        assert!(b.local_pnr.is_finite());
    }

    #[test]
    fn per_block_helpers_and_accumulate() {
        let mut a = StageTimings {
            per_block_pnr: vec![Duration::from_millis(3), Duration::from_millis(9)],
            workers: 4,
            ..StageTimings::default()
        };
        assert_eq!(a.serial_pnr_work(), Duration::from_millis(12));
        assert_eq!(a.max_block_pnr(), Duration::from_millis(9));
        let b = StageTimings {
            per_block_pnr: vec![Duration::from_millis(5)],
            workers: 2,
            ..StageTimings::default()
        };
        a.accumulate(&b);
        assert_eq!(a.per_block_pnr.len(), 3);
        assert_eq!(a.workers, 4);
        assert_eq!(StageTimings::default().max_block_pnr(), Duration::ZERO);
    }
}
