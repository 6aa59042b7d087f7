//! Application requests arriving at the cluster.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of one request in a workload set.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// One request to deploy and run an accelerator on the cluster.
///
/// The fields mirror what the runtime can know from the bitstream database
/// plus the user's job description: how many virtual blocks the compiled
/// application needs, how much work one run performs, and how
/// communication-bound the design is when split across FPGAs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRequest {
    /// Unique id within the workload.
    pub id: RequestId,
    /// Application name (bitstream-database key).
    pub name: String,
    /// Virtual blocks the compiled bitstream needs.
    pub blocks_needed: u32,
    /// Total work of the job in abstract operations.
    pub work_ops: f64,
    /// Throughput in ops/second when all blocks share one FPGA.
    pub standalone_ops_per_sec: f64,
    /// How strongly performance degrades when spanning FPGAs: 0 = pure
    /// compute (insensitive), 1 = fully bound by inter-block traffic.
    pub(crate) comm_intensity: f64,
    /// Arrival time in seconds since the start of the workload.
    pub arrival_s: f64,
}

impl AppRequest {
    /// Creates a request with sensible defaults: 1 Gops/s standalone
    /// throughput and moderate (0.3) communication intensity.
    pub fn new(id: u64, name: impl Into<String>, blocks_needed: u32, work_ops: f64) -> Self {
        AppRequest {
            id: RequestId(id),
            name: name.into(),
            blocks_needed: blocks_needed.max(1),
            work_ops,
            standalone_ops_per_sec: 1.0e9,
            comm_intensity: 0.3,
            arrival_s: 0.0,
        }
    }

    /// Sets the arrival time.
    #[must_use]
    pub fn arriving_at(mut self, arrival_s: f64) -> Self {
        self.arrival_s = arrival_s;
        self
    }

    /// Sets the standalone throughput.
    #[must_use]
    pub fn with_throughput(mut self, ops_per_sec: f64) -> Self {
        self.standalone_ops_per_sec = ops_per_sec;
        self
    }

    /// Sets the communication intensity (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_comm_intensity(mut self, intensity: f64) -> Self {
        self.comm_intensity = intensity.clamp(0.0, 1.0);
        self
    }

    /// The job's service time in seconds when not spanning FPGAs.
    pub fn standalone_service_s(&self) -> f64 {
        self.work_ops / self.standalone_ops_per_sec.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let r = AppRequest::new(1, "a", 0, 2.0e9)
            .arriving_at(3.5)
            .with_throughput(2.0e9)
            .with_comm_intensity(7.0);
        assert_eq!(r.blocks_needed, 1, "clamped to at least one block");
        assert_eq!(r.arrival_s, 3.5);
        assert_eq!(r.comm_intensity, 1.0, "clamped to [0,1]");
        assert!((r.standalone_service_s() - 1.0).abs() < 1e-12);
    }
}
