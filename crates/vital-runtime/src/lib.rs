//! The ViTAL system layer (paper §3.4, Fig. 6): a system controller that
//! performs runtime resource management over the virtualized cluster.
//!
//! The controller owns two databases:
//!
//! * the **resource database** ([`ResourceDatabase`]) — the status of every
//!   physical block of every FPGA: the simulator's own block table,
//!   [`vital_cluster::ClusterView`], whose slots hold tenant ids,
//! * the **bitstream database** ([`BitstreamDatabase`]) — the compiled,
//!   relocatable [`vital_compiler::AppBitstream`] of every application.
//!
//! Everything else the controller decides on — its tenants (live, parked
//! or on the ISA backend), the ISA tile pool, the failure counters and
//! the cached `Status` reply — sits behind **one lock**, and every
//! control operation is one transaction on it. The block table is
//! written only under that lock (lock order: controller state → block
//! table → DRAM, bandwidth and vNIC peripherals), so a
//! [`ControlRequest::Status`] reply is one snapshot. No compile runs
//! under the lock: a portable migration or restore resolves its image
//! between two transactions, with the tenant parked in between.
//!
//! Deployment uses the **communication-aware multi-round policy**
//! ([`allocate_blocks_on`]): round 1 looks for a single FPGA with enough free
//! blocks (best-fit, to limit fragmentation); each following round admits
//! one more FPGA, choosing the spanning set that is **adjacent on the
//! ring** — the primary plus its nearest neighbours by hop distance — so
//! inter-FPGA traffic crosses as few ring links as possible. Blocks are
//! programmed with per-block partial reconfiguration, so co-running
//! applications are never disturbed.
//!
//! Isolation (paper §3.4): a physical block is never shared between
//! applications, each tenant gets a private DRAM address space and virtual
//! NIC, and undeploy scrubs both.
//!
//! The controller and the `vital-cluster` discrete-event simulator (the
//! paper's §5.5 experiments) place with the same [`vital_cluster::Scheduler`]
//! policies: [`VitalScheduler`] (this policy) on a ring, [`PodScheduler`]
//! (best-fit pod, never spanning pods) on a pod topology. The controller
//! asks for one request at a time and claims the decision under the same
//! write guard, so `vitald` and a simulation of the same trace pick the
//! same blocks. [`VitalScheduler::time_sliced`] oversubscribes a simulated
//! cluster by swapping tenants on quantum expiry.
//!
//! Context save/restore: [`SystemController::suspend`] quiesces a tenant's
//! channels, exports its DRAM, and parks a
//! [`TenantCheckpoint`] capsule; [`SystemController::resume`] re-admits it
//! losslessly, and a [`ControlRequest::Migrate`] chains the two, as
//! `Defragment` and `Evacuate` do, to move tenants without dropping state.
//!
//! One control surface: every management operation is a
//! [`ControlRequest`] run by [`SystemController::execute`], which answers
//! the same [`ControlResponse`] in process as `vitald` sends on the wire.
//! The typed methods that stay public return what a response cannot
//! carry — a live [`DeployHandle`], a checkpoint capsule, the data plane.
//!
//! # Example
//!
//! ```
//! use vital_runtime::{ControlRequest, ControlResponse, RuntimeConfig, SystemController};
//! use vital_compiler::{Compiler, CompilerConfig};
//! use vital_netlist::hls::{AppSpec, Operator};
//!
//! // Compile an app and register it in the bitstream database.
//! let mut spec = AppSpec::new("demo");
//! spec.add_operator("m", Operator::MacArray { pes: 8 });
//! let bitstream = Compiler::new(CompilerConfig::default())
//!     .compile(&spec)?
//!     .into_bitstream();
//!
//! let controller = SystemController::new(RuntimeConfig::paper_cluster());
//! controller.register(bitstream)?;
//! let handle = controller.deploy("demo")?;
//! assert!(handle.fpga_count() >= 1);
//! let done = controller.execute(ControlRequest::undeploy(handle.tenant()));
//! assert_eq!(done, ControlResponse::Undeployed { tenant: handle.tenant().raw() });
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod api;
mod bitstream_db;
pub mod checkpoint;
mod controller;
mod error;
mod farm;
pub mod isa;
mod policy;
mod resource_db;
mod scheduler;

// The ISA backend's parts, re-exported through `isa`.
mod pool;
mod program;
mod sched;
mod template;

pub use api::{
    ControlRequest, ControlResponse, DeployBackend, DeployRequest, DeploySummary,
    EvacuationSummary, FailureSummary, FpgaStatus, MigratePolicy, MigrationSummary, ScaleSummary,
    StatusSummary, SuspendSummary,
};
pub use bitstream_db::{BitstreamDatabase, CacheStats};
pub use controller::{DeployHandle, RuntimeConfig, SystemController};
pub use error::RuntimeError;
pub use farm::{AppResolver, CompileOutcome, FarmStats};
pub use policy::{allocate_blocks_on, AllocationOutcome};
pub use resource_db::{BlockState, ResourceDatabase};
pub use scheduler::{PodScheduler, VitalScheduler};
pub use vital_cluster::FpgaHealth;
// The checkpoint capsule types appear in the controller's public API.
pub use checkpoint::{
    ChannelCheckpoint, CheckpointDigest, PlacementMeta, PortableChannel, PortableCheckpoint,
    ScanState, TenantCheckpoint,
};

#[cfg(test)]
mod tests;
