//! Error type of the peripheral-virtualization crate.

use std::error::Error;
use std::fmt;

use crate::TenantId;

/// Errors raised by the virtualized peripherals. Every variant corresponds
/// to a condition the service region's monitor circuits detect and report,
/// never silently allow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PeriphError {
    /// The tenant has no address space (not deployed, or already torn down).
    UnknownTenant(TenantId),
    /// An address space already exists for the tenant.
    SpaceExists(TenantId),
    /// The board does not have enough free DRAM for the requested quota.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// A virtual address fell outside the tenant's quota — the access
    /// monitor blocks it (protection fault).
    ProtectionFault {
        /// The offending tenant.
        tenant: TenantId,
        /// The offending virtual address.
        vaddr: u64,
    },
    /// A frame was addressed to a NIC that does not exist.
    UnknownNic(u64),
    /// The virtual NIC's receive queue is full.
    RxQueueFull(u64),
    /// A memory image could not be restored because its geometry does not
    /// match the target board (different page size).
    ImageMismatch {
        /// Page size recorded in the image.
        image_page_size: u64,
        /// Page size of the target manager.
        page_size: u64,
    },
}

impl fmt::Display for PeriphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeriphError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            PeriphError::SpaceExists(t) => write!(f, "tenant {t} already has an address space"),
            PeriphError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of board DRAM: requested {requested} bytes, {available} available"
            ),
            PeriphError::ProtectionFault { tenant, vaddr } => {
                write!(f, "protection fault: tenant {tenant} at vaddr {vaddr:#x}")
            }
            PeriphError::UnknownNic(mac) => write!(f, "unknown virtual NIC {mac:#x}"),
            PeriphError::RxQueueFull(mac) => write!(f, "rx queue full on virtual NIC {mac:#x}"),
            PeriphError::ImageMismatch {
                image_page_size,
                page_size,
            } => write!(
                f,
                "memory image page size {image_page_size} does not match board page size {page_size}"
            ),
        }
    }
}

impl Error for PeriphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_traits() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<PeriphError>();
        assert!(!PeriphError::UnknownNic(1).to_string().is_empty());
    }
}
