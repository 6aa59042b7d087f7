//! Instruction-level DNN accelerator virtualization (ROADMAP item 4).
//!
//! ViTAL (the main paper) virtualizes the FPGA *spatially*: tenants own
//! physical blocks and resizing a tenant means partial reconfiguration at
//! millisecond cost. The Tsinghua paper ("Enabling Efficient and Flexible
//! FPGA Virtualization for Deep Learning in the Cloud", FCCM'20) occupies
//! the complementary point in the design space: the FPGA is flashed **once**
//! with a static multi-core DNN accelerator template, tenants are compiled
//! to *instruction streams* over the template's compute tiles, and a
//! two-level scheduler reassigns tiles between tenants at quantum
//! boundaries with **zero reconfiguration** — the cost of moving capacity
//! is rewriting an instruction pointer, not reprogramming fabric.
//!
//! This module models that backend end to end:
//!
//! * [`IsaTemplate`] — the static template: a pool of identical compute
//!   tiles calibrated against the `vital-workloads::dnn` Table 2 resource
//!   model (one tile ≈ one ViTAL virtual block at the 33 % routability
//!   fill, so head-to-head comparisons hold silicon constant);
//! * [`IsaProgram`] — a per-tenant instruction stream compiled from a DNN
//!   benchmark's layer structure: tiling turns each layer into an
//!   instruction block with a per-tile cycle cost;
//! * [`TilePool`] — the hardware-level allocator: deterministic, conserving
//!   grow/shrink of each tenant's tile share;
//! * [`IsaSim`] — the two-level scheduler: at each quantum boundary the
//!   hardware level recomputes tile shares from queued demand, and the
//!   tenant level replays instruction blocks on whatever tiles are
//!   currently owned.
//!
//! The headline constant is [`TILE_SWITCH_S`]: handing a tile to another
//! tenant costs ~10 µs (drain the in-flight instruction block, swap the
//! stream pointer), vs 12.3 ms for a ViTAL per-block partial
//! reconfiguration — a ~1000× cheaper capacity change, which is the whole
//! argument for this backend under bursty traffic.
//!
//! # Example
//!
//! ```
//! use vital_runtime::isa::{IsaJob, IsaSim, IsaTemplate};
//!
//! let template = IsaTemplate::paper_pool();
//! let jobs = vec![
//!     IsaJob::new(0, 1, "lenet-M", 4.0e12, 0.0),
//!     IsaJob::new(1, 2, "vgg-L", 8.0e12, 0.0),
//! ];
//! let report = IsaSim::new(template).run(&jobs);
//! assert_eq!(report.completed(), 2);
//! // Capacity moved between tenants without any reconfiguration.
//! assert_eq!(report.reconfigurations, 0);
//! ```

pub use crate::pool::{TilePool, TilesUnavailable};
pub use crate::program::{IsaProgram, UnknownIsaApp};
pub use crate::sched::{IsaJob, IsaJobError, IsaOutcome, IsaReport, IsaSim};
pub use crate::template::IsaTemplate;

/// Time to hand one compute tile to a different tenant's instruction
/// stream: drain the in-flight instruction block and swap the stream
/// pointer. Micro-seconds, vs milliseconds for partial reconfiguration —
/// the core advantage of instruction-level virtualization. Defined once,
/// next to the cluster simulator's [`ReconfigKind::Instruction`] cost
/// model that charges it per block.
///
/// [`ReconfigKind::Instruction`]: vital_cluster::ReconfigKind::Instruction
pub const TILE_SWITCH_S: f64 = vital_cluster::INSTRUCTION_SWITCH_S;
