//! Discrete-event simulator of an FPGA cluster (the paper's evaluation
//! platform, §5.2): four XCVU37P boards on a 100 Gb/s bidirectional ring.
//!
//! The paper evaluates ViTAL's system layer on real hardware; this crate is
//! the reproduction's stand-in. It simulates, at the event level, exactly
//! the quantities the paper's §5.5 metrics depend on:
//!
//! * arrival, queueing and deployment of application requests,
//! * per-block partial reconfiguration vs. full-device reconfiguration
//!   (including the disturbance full reconfiguration causes co-runners),
//! * the throughput penalty of spanning an application across FPGAs
//!   (bounded by the ring bandwidth) and the latency overhead of the
//!   latency-insensitive interface,
//! * response time (wait + service), block utilization, concurrency and
//!   multi-FPGA spanning rate.
//!
//! The interconnect is one [`Topology`]: the paper's ring, or pods of
//! rings joined by switches for the scale-out sweeps. Hop counts and path
//! bandwidth come from its shape in closed form; a breadth-first search
//! runs only while a [`FaultPlan`] holds a link down.
//!
//! Scheduling policy is pluggable via the [`Scheduler`] trait: ViTAL's
//! communication-aware controller lives in `vital-runtime`, the per-device
//! cloud baseline and AmorphOS modes in `vital::baselines`.
//!
//! # Example
//!
//! ```
//! use vital_cluster::{AppRequest, ClusterConfig, ClusterSim, Scheduler,
//!                     ClusterView, Deployment, PendingRequest, ReconfigKind};
//!
//! /// A trivial policy: first-fit blocks on a single FPGA. Each grant
//! /// leaves the pass's own free lists, so one pass places everything that
//! /// fits, as the simulator requires.
//! struct FirstFit;
//! impl Scheduler for FirstFit {
//!     fn name(&self) -> &str { "first-fit" }
//!     fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
//!         let mut free: Vec<_> = (0..view.fpga_count()).map(|f| view.free_blocks_of(f)).collect();
//!         let mut out = Vec::new();
//!         for p in pending {
//!             let need = p.blocks_needed as usize;
//!             if let Some(list) = free.iter_mut().find(|list| list.len() >= need) {
//!                 out.push(Deployment {
//!                     request: p.id,
//!                     blocks: list.drain(..need).collect(),
//!                     reconfig: ReconfigKind::PartialPerBlock,
//!                 });
//!             }
//!         }
//!         out
//!     }
//! }
//!
//! let requests = vec![
//!     AppRequest::new(0, "app", 3, 1.0e9).arriving_at(0.0),
//!     AppRequest::new(1, "other", 9, 1.0e9).arriving_at(0.0),
//! ];
//! let report = ClusterSim::new(ClusterConfig::paper_cluster())
//!     .run(&mut FirstFit, requests);
//! assert_eq!(report.completed(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod error;
mod metrics;
mod request;
mod sim;
mod state;
mod topology;

pub use error::ClusterError;
pub use metrics::{FailedOutcome, RequestOutcome, SimReport};
pub use request::{AppRequest, RequestId};
pub use sim::{ClusterSim, INSTRUCTION_SWITCH_S};
pub(crate) use state::InstanceId;
pub use state::{
    ClusterConfig, ClusterView, Deployment, FaultEvent, FaultPlan, FpgaHealth, PendingRequest,
    ReconfigKind, RetryPolicy, Scheduler,
};
pub use topology::Topology;

#[cfg(test)]
mod ring;
