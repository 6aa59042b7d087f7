//! Island-style FPGA device model for the ViTAL stack.
//!
//! This crate is the *architecture substrate* of the ViTAL reproduction
//! (ASPLOS 2020, "Virtualizing FPGAs in the Cloud"). It models what the paper
//! takes from real silicon:
//!
//! * the **column-based heterogeneous fabric** of a commercial FPGA
//!   (CLB / BRAM / DSP / transceiver columns — paper §2.1, Fig. 3a),
//! * the **practical heterogeneities** of commercial parts that the paper calls
//!   out in §3.2: clock regions and multi-die (SLR) packages,
//! * the **region partitioning** that supports the homogeneous abstraction:
//!   user region split into identical physical blocks, plus communication and
//!   service regions reserved by the system (Fig. 4b, Fig. 7),
//! * the **design-space exploration** over candidate partitions used in §5.3.
//!
//! # Example
//!
//! ```
//! use vital_fabric::{DeviceModel, Floorplan};
//!
//! let device = DeviceModel::xcvu37p();
//! let plan = Floorplan::optimal_for(&device)?;
//! assert!(plan.user_blocks().len() >= 8);
//! // All physical blocks are identical, so any virtual block can be
//! // relocated into any physical block without recompilation.
//! assert!(plan.blocks_identical());
//! # Ok::<(), vital_fabric::FabricError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod catalog;
mod device;
mod dse;
mod error;
mod floorplan;
mod fnv;
mod ids;
mod resources;
mod tile;

pub use catalog::{device_generations, DeviceGeneration};
pub use device::{DeviceModel, LinkTechnology};
pub use dse::{explore_partitions, PartitionCandidate, PartitionObjective};
pub use error::FabricError;
pub use floorplan::{Floorplan, FloorplanBuilder, PhysicalBlock, Region, RegionKind};
pub use fnv::Fnv1a;
pub use ids::{BlockAddr, FpgaId, PhysicalBlockId};
pub use resources::{ResourceKind, Resources, Utilization};
pub use tile::{ColumnSpec, TileKind};
