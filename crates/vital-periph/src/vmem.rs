//! Virtual memory over the board DRAM (paper §3.2: "User applications use
//! virtual address to access the data stored in the off-chip DRAM, which is
//! then translated into the physical address. The memory access from
//! applications are monitored to ensure a secure execution environment.").

use std::collections::HashMap;
use std::fmt;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use vital_fabric::Fnv1a;

use crate::PeriphError;

/// Identifier of one tenant (a deployed application instance).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TenantId(u64);

impl TenantId {
    /// Creates a tenant id.
    pub const fn new(raw: u64) -> Self {
        TenantId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// One tenant's address space: quota, page table, and backing data.
#[derive(Debug, Default)]
struct AddressSpace {
    quota_bytes: u64,
    /// Virtual page number -> physical page number.
    page_table: HashMap<u64, u64>,
    /// Physical page number -> page contents (allocated lazily on write).
    pages: HashMap<u64, Vec<u8>>,
    reads: u64,
    writes: u64,
    faults: u64,
}

/// Usage statistics of one address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryStats {
    /// Quota in bytes.
    pub quota_bytes: u64,
    /// Pages currently mapped.
    pub(crate) mapped_pages: u64,
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Protection faults blocked by the monitor.
    pub faults: u64,
}

/// One exported page of a tenant's address space.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageImage {
    /// Virtual page number.
    pub vpn: u64,
    /// The page's bytes (exactly one page worth).
    pub bytes: Vec<u8>,
}

/// A serializable image of one tenant's address space, produced by
/// [`MemoryManager::export_space`] and consumed by
/// [`MemoryManager::restore_space`] — the DRAM half of a live-migration
/// checkpoint.
///
/// Only written pages are materialized; pages that were mapped but never
/// written read as zero on both sides of a round trip, so the image is
/// content-lossless without storing zero pages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryImage {
    /// Page size of the exporting board in bytes.
    pub page_size: u64,
    /// The tenant's quota in bytes (page-aligned).
    pub quota_bytes: u64,
    /// Written pages, sorted by virtual page number.
    pub pages: Vec<PageImage>,
    /// Reads served before the export (carried so statistics survive a
    /// migration).
    pub reads: u64,
    /// Writes served before the export.
    pub writes: u64,
    /// Protection faults blocked before the export.
    pub faults: u64,
}

impl MemoryImage {
    /// Stable 64-bit FNV-1a content digest over the image's *data*:
    /// geometry, quota, and every page's number and bytes. Access counters
    /// are deliberately excluded — two images with identical memory
    /// contents digest identically even if one tenant read more often.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.u64(self.page_size);
        h.u64(self.quota_bytes);
        h.usize(self.pages.len());
        for page in &self.pages {
            h.u64(page.vpn);
            h.usize(page.bytes.len());
            for &b in &page.bytes {
                h.byte(b);
            }
        }
        h.finish()
    }

    /// Total bytes of page data carried by the image.
    pub fn payload_bytes(&self) -> u64 {
        self.pages.iter().map(|p| p.bytes.len() as u64).sum()
    }
}

struct Inner {
    free_pages: u64,
    next_phys_page: u64,
    spaces: HashMap<TenantId, AddressSpace>,
}

/// The service region's DRAM virtualization: per-tenant translation,
/// quota enforcement and access monitoring.
///
/// Thread-safe; clones of references can be shared across the runtime.
pub struct MemoryManager {
    page_size: u64,
    inner: RwLock<Inner>,
}

impl fmt::Debug for MemoryManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("MemoryManager")
            .field("page_size", &self.page_size)
            .field("free_pages", &inner.free_pages)
            .field("tenants", &inner.spaces.len())
            .finish()
    }
}

impl MemoryManager {
    /// Creates a manager over `total_bytes` of board DRAM with the given
    /// page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero or does not divide `total_bytes`.
    pub fn new(total_bytes: u64, page_size: u64) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        assert_eq!(
            total_bytes % page_size,
            0,
            "total bytes must be a whole number of pages"
        );
        MemoryManager {
            page_size,
            inner: RwLock::new(Inner {
                free_pages: total_bytes / page_size,
                next_phys_page: 0,
                spaces: HashMap::new(),
            }),
        }
    }

    /// Unreserved DRAM in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.inner.read().free_pages * self.page_size
    }

    /// Creates an address space with a `quota_bytes` reservation.
    ///
    /// # Errors
    ///
    /// * [`PeriphError::SpaceExists`] if the tenant already has a space.
    /// * [`PeriphError::OutOfMemory`] if the quota exceeds free DRAM.
    pub fn create_space(&self, tenant: TenantId, quota_bytes: u64) -> Result<(), PeriphError> {
        let mut inner = self.inner.write();
        if inner.spaces.contains_key(&tenant) {
            return Err(PeriphError::SpaceExists(tenant));
        }
        let pages = quota_bytes.div_ceil(self.page_size);
        if pages > inner.free_pages {
            return Err(PeriphError::OutOfMemory {
                requested: quota_bytes,
                available: inner.free_pages * self.page_size,
            });
        }
        inner.free_pages -= pages;
        inner.spaces.insert(
            tenant,
            AddressSpace {
                quota_bytes: pages * self.page_size,
                ..AddressSpace::default()
            },
        );
        Ok(())
    }

    /// Tears down a tenant's space, scrubbing its pages and returning the
    /// reservation to the free pool. Scrubbing prevents data leakage to the
    /// next tenant of the same physical pages.
    ///
    /// # Errors
    ///
    /// Returns [`PeriphError::UnknownTenant`] if no space exists.
    pub fn destroy_space(&self, tenant: TenantId) -> Result<(), PeriphError> {
        let mut inner = self.inner.write();
        let space = inner
            .spaces
            .remove(&tenant)
            .ok_or(PeriphError::UnknownTenant(tenant))?;
        inner.free_pages += space.quota_bytes / self.page_size;
        // Pages drop here — the model's scrub.
        Ok(())
    }

    /// Translates a virtual address to a physical address, allocating the
    /// page on first touch.
    ///
    /// # Errors
    ///
    /// * [`PeriphError::UnknownTenant`] for undeployed tenants.
    /// * [`PeriphError::ProtectionFault`] if `vaddr` exceeds the quota —
    ///   the monitored access is blocked.
    pub fn translate(&self, tenant: TenantId, vaddr: u64) -> Result<u64, PeriphError> {
        let mut inner = self.inner.write();
        let next = inner.next_phys_page;
        let page_size = self.page_size;
        let space = inner
            .spaces
            .get_mut(&tenant)
            .ok_or(PeriphError::UnknownTenant(tenant))?;
        if vaddr >= space.quota_bytes {
            space.faults += 1;
            return Err(PeriphError::ProtectionFault { tenant, vaddr });
        }
        let vpn = vaddr / page_size;
        let (ppn, allocated) = match space.page_table.get(&vpn) {
            Some(&p) => (p, false),
            None => {
                space.page_table.insert(vpn, next);
                (next, true)
            }
        };
        if allocated {
            inner.next_phys_page += 1;
        }
        Ok(ppn * page_size + vaddr % page_size)
    }

    /// Writes `data` at the tenant's virtual address.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MemoryManager::translate`], checked for the
    /// whole range.
    pub fn write(&self, tenant: TenantId, vaddr: u64, data: &[u8]) -> Result<(), PeriphError> {
        // Validate the whole range first so partial writes never happen.
        if !data.is_empty() {
            self.check_range(tenant, vaddr, data.len() as u64)?;
        }
        let mut inner = self.inner.write();
        let page_size = self.page_size;
        let mut next = inner.next_phys_page;
        let space = inner
            .spaces
            .get_mut(&tenant)
            .ok_or(PeriphError::UnknownTenant(tenant))?;
        for (i, &byte) in data.iter().enumerate() {
            let va = vaddr + i as u64;
            let vpn = va / page_size;
            let ppn = *space.page_table.entry(vpn).or_insert_with(|| {
                let p = next;
                next += 1;
                p
            });
            let page = space
                .pages
                .entry(ppn)
                .or_insert_with(|| vec![0; page_size as usize]);
            page[(va % page_size) as usize] = byte;
        }
        space.writes += 1;
        inner.next_phys_page = next;
        Ok(())
    }

    /// Reads into `buf` from the tenant's virtual address; untouched pages
    /// read as zero.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MemoryManager::translate`], checked for the
    /// whole range.
    pub fn read(&self, tenant: TenantId, vaddr: u64, buf: &mut [u8]) -> Result<(), PeriphError> {
        if !buf.is_empty() {
            self.check_range(tenant, vaddr, buf.len() as u64)?;
        }
        let mut inner = self.inner.write();
        let page_size = self.page_size;
        let space = inner
            .spaces
            .get_mut(&tenant)
            .ok_or(PeriphError::UnknownTenant(tenant))?;
        for (i, slot) in buf.iter_mut().enumerate() {
            let va = vaddr + i as u64;
            let vpn = va / page_size;
            *slot = match space.page_table.get(&vpn) {
                Some(ppn) => space
                    .pages
                    .get(ppn)
                    .map(|p| p[(va % page_size) as usize])
                    .unwrap_or(0),
                None => 0,
            };
        }
        space.reads += 1;
        Ok(())
    }

    fn check_range(&self, tenant: TenantId, vaddr: u64, len: u64) -> Result<(), PeriphError> {
        let mut inner = self.inner.write();
        let space = inner
            .spaces
            .get_mut(&tenant)
            .ok_or(PeriphError::UnknownTenant(tenant))?;
        let end = vaddr.checked_add(len);
        match end {
            Some(end) if end <= space.quota_bytes => Ok(()),
            _ => {
                space.faults += 1;
                Err(PeriphError::ProtectionFault { tenant, vaddr })
            }
        }
    }

    /// Usage statistics of one tenant's space.
    ///
    /// # Errors
    ///
    /// Returns [`PeriphError::UnknownTenant`] if no space exists.
    pub fn stats(&self, tenant: TenantId) -> Result<MemoryStats, PeriphError> {
        let inner = self.inner.read();
        let space = inner
            .spaces
            .get(&tenant)
            .ok_or(PeriphError::UnknownTenant(tenant))?;
        Ok(MemoryStats {
            quota_bytes: space.quota_bytes,
            mapped_pages: space.page_table.len() as u64,
            reads: space.reads,
            writes: space.writes,
            faults: space.faults,
        })
    }

    /// Number of live address spaces.
    pub fn tenant_count(&self) -> usize {
        self.inner.read().spaces.len()
    }

    /// Exports a tenant's address space as a serializable [`MemoryImage`]
    /// — the DRAM half of a checkpoint capsule. Read-only: the tenant's
    /// counters and pages are untouched, so export followed by
    /// [`MemoryManager::destroy_space`] loses nothing the image does not
    /// hold.
    ///
    /// # Errors
    ///
    /// Returns [`PeriphError::UnknownTenant`] if no space exists.
    pub fn export_space(&self, tenant: TenantId) -> Result<MemoryImage, PeriphError> {
        let inner = self.inner.read();
        let space = inner
            .spaces
            .get(&tenant)
            .ok_or(PeriphError::UnknownTenant(tenant))?;
        let mut pages: Vec<PageImage> = space
            .page_table
            .iter()
            .filter_map(|(&vpn, ppn)| {
                space.pages.get(ppn).map(|bytes| PageImage {
                    vpn,
                    bytes: bytes.clone(),
                })
            })
            .collect();
        pages.sort_by_key(|p| p.vpn);
        Ok(MemoryImage {
            page_size: self.page_size,
            quota_bytes: space.quota_bytes,
            pages,
            reads: space.reads,
            writes: space.writes,
            faults: space.faults,
        })
    }

    /// Rebuilds a tenant's address space from an exported image, restoring
    /// quota, page contents, and access counters. Pages land on fresh
    /// physical frames (the physical mapping is *not* part of the
    /// abstraction), but every virtual address reads back the bytes it held
    /// at export time.
    ///
    /// # Errors
    ///
    /// * [`PeriphError::ImageMismatch`] if the image's page size differs
    ///   from this board's.
    /// * [`PeriphError::SpaceExists`] if the tenant already has a space.
    /// * [`PeriphError::OutOfMemory`] if the quota exceeds free DRAM.
    /// * [`PeriphError::ProtectionFault`] if a page lies beyond the image's
    ///   own quota (a corrupt capsule).
    pub fn restore_space(&self, tenant: TenantId, image: &MemoryImage) -> Result<(), PeriphError> {
        if image.page_size != self.page_size {
            return Err(PeriphError::ImageMismatch {
                image_page_size: image.page_size,
                page_size: self.page_size,
            });
        }
        let mut inner = self.inner.write();
        if inner.spaces.contains_key(&tenant) {
            return Err(PeriphError::SpaceExists(tenant));
        }
        let quota_pages = image.quota_bytes.div_ceil(self.page_size);
        if quota_pages > inner.free_pages {
            return Err(PeriphError::OutOfMemory {
                requested: image.quota_bytes,
                available: inner.free_pages * self.page_size,
            });
        }
        for page in &image.pages {
            if page.vpn >= quota_pages {
                return Err(PeriphError::ProtectionFault {
                    tenant,
                    vaddr: page.vpn * self.page_size,
                });
            }
        }
        inner.free_pages -= quota_pages;
        let mut space = AddressSpace {
            quota_bytes: quota_pages * self.page_size,
            reads: image.reads,
            writes: image.writes,
            faults: image.faults,
            ..AddressSpace::default()
        };
        for page in &image.pages {
            let ppn = inner.next_phys_page;
            inner.next_phys_page += 1;
            space.page_table.insert(page.vpn, ppn);
            let mut bytes = page.bytes.clone();
            bytes.resize(self.page_size as usize, 0);
            space.pages.insert(ppn, bytes);
        }
        inner.spaces.insert(tenant, space);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm() -> MemoryManager {
        MemoryManager::new(1 << 20, 4096) // 1 MiB, 256 pages
    }

    #[test]
    fn write_read_roundtrip() {
        let m = mm();
        let t = TenantId::new(1);
        m.create_space(t, 64 * 1024).unwrap();
        m.write(t, 1000, b"vital").unwrap();
        let mut buf = [0u8; 5];
        m.read(t, 1000, &mut buf).unwrap();
        assert_eq!(&buf, b"vital");
    }

    #[test]
    fn cross_page_write() {
        let m = mm();
        let t = TenantId::new(1);
        m.create_space(t, 64 * 1024).unwrap();
        let data: Vec<u8> = (0..100).collect();
        m.write(t, 4096 - 50, &data).unwrap();
        let mut buf = vec![0u8; 100];
        m.read(t, 4096 - 50, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn tenants_are_isolated() {
        let m = mm();
        let a = TenantId::new(1);
        let b = TenantId::new(2);
        m.create_space(a, 64 * 1024).unwrap();
        m.create_space(b, 64 * 1024).unwrap();
        m.write(a, 0, b"secret").unwrap();
        let mut buf = [0u8; 6];
        // Tenant B reads the same *virtual* address and sees its own
        // (zeroed) memory, never tenant A's data.
        m.read(b, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 6]);
        // Physical addresses differ.
        let pa = m.translate(a, 0).unwrap();
        let pb = m.translate(b, 0).unwrap();
        assert_ne!(pa / 4096, pb / 4096);
    }

    #[test]
    fn quota_enforced_as_protection_fault() {
        let m = mm();
        let t = TenantId::new(1);
        m.create_space(t, 8192).unwrap();
        assert!(matches!(
            m.write(t, 8192, b"x"),
            Err(PeriphError::ProtectionFault { .. })
        ));
        // Straddling the quota boundary also faults, with no partial write.
        assert!(m.write(t, 8190, b"abcd").is_err());
        let mut buf = [0u8; 2];
        m.read(t, 8190, &mut buf).unwrap();
        assert_eq!(buf, [0, 0], "no partial write leaked");
        assert_eq!(m.stats(t).unwrap().faults, 2);
    }

    #[test]
    fn address_overflow_faults() {
        let m = mm();
        let t = TenantId::new(1);
        m.create_space(t, 8192).unwrap();
        assert!(m.write(t, u64::MAX - 1, b"abc").is_err());
    }

    #[test]
    fn capacity_accounting() {
        let m = mm();
        let t1 = TenantId::new(1);
        m.create_space(t1, 512 * 1024).unwrap();
        assert_eq!(m.free_bytes(), 512 * 1024);
        let t2 = TenantId::new(2);
        assert!(matches!(
            m.create_space(t2, 768 * 1024),
            Err(PeriphError::OutOfMemory { .. })
        ));
        m.destroy_space(t1).unwrap();
        assert_eq!(m.free_bytes(), 1 << 20);
        m.create_space(t2, 768 * 1024).unwrap();
    }

    #[test]
    fn double_create_rejected() {
        let m = mm();
        let t = TenantId::new(1);
        m.create_space(t, 4096).unwrap();
        assert_eq!(m.create_space(t, 4096), Err(PeriphError::SpaceExists(t)));
    }

    #[test]
    fn destroy_scrubs_for_next_tenant() {
        let m = mm();
        let t = TenantId::new(1);
        m.create_space(t, 4096).unwrap();
        m.write(t, 0, b"leak?").unwrap();
        m.destroy_space(t).unwrap();
        let t2 = TenantId::new(2);
        m.create_space(t2, 4096).unwrap();
        let mut buf = [0u8; 5];
        m.read(t2, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 5]);
    }

    #[test]
    fn unknown_tenant_errors() {
        let m = mm();
        let ghost = TenantId::new(9);
        assert_eq!(
            m.translate(ghost, 0),
            Err(PeriphError::UnknownTenant(ghost))
        );
        assert_eq!(
            m.destroy_space(ghost),
            Err(PeriphError::UnknownTenant(ghost))
        );
        assert!(m.stats(ghost).is_err());
    }

    #[test]
    fn export_restore_roundtrip_is_content_lossless() {
        let m = mm();
        let t = TenantId::new(1);
        m.create_space(t, 16 * 1024).unwrap();
        m.write(t, 100, b"checkpoint me").unwrap();
        m.write(t, 4096 - 3, b"straddle").unwrap();
        let image = m.export_space(t).unwrap();
        assert_eq!(image.quota_bytes, 16 * 1024);
        assert!(image.pages.windows(2).all(|w| w[0].vpn < w[1].vpn));

        // Migrate to a second board: contents and digest must survive.
        let other = mm();
        other.restore_space(t, &image).unwrap();
        let mut buf = [0u8; 13];
        other.read(t, 100, &mut buf).unwrap();
        assert_eq!(&buf, b"checkpoint me");
        let mut buf = [0u8; 8];
        other.read(t, 4096 - 3, &mut buf).unwrap();
        assert_eq!(&buf, b"straddle");
        let again = other.export_space(t).unwrap();
        assert_eq!(again.content_digest(), image.content_digest());
        assert_eq!(again.pages, image.pages);
        // The extra read above is visible in the stats but not the digest.
        assert_eq!(again.reads, image.reads + 2);
    }

    #[test]
    fn restore_rejects_mismatched_geometry_and_corrupt_images() {
        let m = mm();
        let t = TenantId::new(1);
        m.create_space(t, 8192).unwrap();
        m.write(t, 0, b"x").unwrap();
        let image = m.export_space(t).unwrap();

        let coarse = MemoryManager::new(1 << 20, 8192);
        assert!(matches!(
            coarse.restore_space(t, &image),
            Err(PeriphError::ImageMismatch { .. })
        ));

        let mut corrupt = image.clone();
        corrupt.pages[0].vpn = 1000; // beyond the 2-page quota
        let fresh = mm();
        assert!(matches!(
            fresh.restore_space(TenantId::new(2), &corrupt),
            Err(PeriphError::ProtectionFault { .. })
        ));

        // Restoring over a live space is refused.
        assert_eq!(m.restore_space(t, &image), Err(PeriphError::SpaceExists(t)));
    }

    #[test]
    fn concurrent_tenants_do_not_interfere() {
        use std::sync::Arc;
        let m = Arc::new(mm());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let t = TenantId::new(i);
                    m.create_space(t, 64 * 1024).unwrap();
                    let pattern = vec![i as u8 + 1; 128];
                    for k in 0..32 {
                        m.write(t, k * 128, &pattern).unwrap();
                    }
                    let mut buf = vec![0u8; 128];
                    for k in 0..32 {
                        m.read(t, k * 128, &mut buf).unwrap();
                        assert_eq!(buf, pattern);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.tenant_count(), 4);
    }
}
