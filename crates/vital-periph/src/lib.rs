//! Peripheral virtualization — the service region's function (paper §3.2).
//!
//! ViTAL's abstraction virtualizes not only the FPGA fabric but also the
//! peripheral devices attached to each board:
//!
//! * **On-board DRAM** ([`MemoryManager`]): every tenant gets a private
//!   virtual address space; accesses are translated through per-tenant page
//!   tables and *monitored*, so an application can never read or corrupt
//!   another tenant's data — the secure-execution requirement of the
//!   multi-user cloud.
//! * **DRAM bandwidth** ([`BandwidthArbiter`]): the shared memory channels
//!   are divided among co-resident tenants with proportional shares.
//! * **Ethernet** ([`VirtualSwitch`]): per-tenant virtual NICs behind one
//!   physical port, with frames delivered only to their addressee.
//!
//! All types are thread-safe (`parking_lot` locks) because the service
//! region is shared by every block of an FPGA and the runtime touches it
//! from multiple contexts.
//!
//! # Example
//!
//! ```
//! use vital_periph::{MemoryManager, TenantId};
//!
//! let mm = MemoryManager::new(1 << 30, 4096); // 1 GiB board DRAM
//! let alice = TenantId::new(1);
//! mm.create_space(alice, 1 << 20)?;           // 1 MiB quota
//! mm.write(alice, 0x100, b"hello")?;
//! let mut buf = [0u8; 5];
//! mm.read(alice, 0x100, &mut buf)?;
//! assert_eq!(&buf, b"hello");
//! # Ok::<(), vital_periph::PeriphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod arbiter;
mod error;
mod ethernet;
mod vmem;

pub use arbiter::{BandwidthArbiter, ShareGrant};
pub use error::PeriphError;
pub use ethernet::{EthernetFrame, VirtualNic, VirtualSwitch};
pub use vmem::{MemoryImage, MemoryManager, MemoryStats, PageImage, TenantId};
