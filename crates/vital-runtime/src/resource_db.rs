//! The resource database: status of every physical block (paper Fig. 6).
//!
//! The stack's one block table, [`ClusterView`] — the type the
//! simulator's policies read — plus the tenant → blocks index that
//! teardown releases by, behind a reader-writer lock. The view's slots
//! hold tenant ids. A [`SystemController`](crate::SystemController)
//! writes its table only while it holds its own state lock, so every
//! write is part of one controller transaction; the table's lock lets
//! monitors read it without waiting for one.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use vital_cluster::{ClusterView, FpgaHealth, Topology};
use vital_fabric::BlockAddr;
use vital_periph::TenantId;

/// The state of one physical block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BlockState {
    /// Available for allocation.
    #[default]
    Free,
    /// Occupied by a tenant's virtual block.
    Active(TenantId),
}

struct Table {
    view: ClusterView,
    tenants: BTreeMap<TenantId, Vec<BlockAddr>>,
}

impl Table {
    /// All-or-nothing: claims nothing unless every block is in range,
    /// listed once, vacant and on an Online device.
    fn claim(&mut self, tenant: TenantId, blocks: &[BlockAddr]) -> bool {
        let valid = blocks
            .iter()
            .enumerate()
            .all(|(i, b)| !blocks[..i].contains(b) && self.view.is_free(*b));
        if valid {
            self.hold(tenant, blocks);
        }
        valid
    }

    /// Adds `blocks` to `tenant`'s holdings without validation.
    fn hold(&mut self, tenant: TenantId, blocks: &[BlockAddr]) {
        if blocks.is_empty() {
            return;
        }
        for &b in blocks {
            self.view.occupy(b, tenant.raw());
        }
        self.tenants.entry(tenant).or_default().extend(blocks);
    }

    fn release(&mut self, tenant: TenantId) -> Vec<BlockAddr> {
        let blocks = self.tenants.remove(&tenant).unwrap_or_default();
        for &b in &blocks {
            self.view.vacate(b);
        }
        blocks
    }
}

/// Thread-safe bookkeeping of the cluster's physical blocks.
///
/// The invariant the database maintains is ViTAL's isolation guarantee:
/// **one physical block is never shared between tenants** (§3.4).
pub struct ResourceDatabase {
    table: RwLock<Table>,
}

impl fmt::Debug for ResourceDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let table = self.table.read();
        f.debug_struct("ResourceDatabase")
            .field("fpgas", &table.view.fpga_count())
            .field("tenants", &table.tenants.len())
            .finish()
    }
}

impl ResourceDatabase {
    /// Creates a database for `fpgas` devices of `blocks_per_fpga` blocks
    /// on a ring.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(fpgas: usize, blocks_per_fpga: usize) -> Self {
        let ring = Arc::new(Topology::ring(fpgas.max(1)));
        Self::over(&vec![blocks_per_fpga; fpgas], ring)
    }

    /// Creates a database over `layout` — one entry per FPGA giving its
    /// block count (paper §7 notes ViTAL extends to mixed clusters — only
    /// the blocks themselves must stay identical) — wired by `topology`,
    /// which the view hands to the placement policy.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is empty or any FPGA has zero blocks.
    pub(crate) fn over(layout: &[usize], topology: Arc<Topology>) -> Self {
        assert!(
            !layout.is_empty() && layout.iter().all(|&n| n > 0),
            "cluster must be non-empty"
        );
        ResourceDatabase {
            table: RwLock::new(Table {
                view: ClusterView::new(layout, topology),
                tenants: BTreeMap::new(),
            }),
        }
    }

    /// Runs `read` on the block table under one read guard: everything it
    /// reads is one snapshot.
    pub(crate) fn read<T>(&self, read: impl FnOnce(&ClusterView) -> T) -> T {
        read(&self.table.read().view)
    }

    /// Places `tenant` under one write guard: its holdings are released,
    /// `decide` picks blocks on the resulting view, and with `commit` the
    /// tenant's holdings become exactly those blocks. Without `commit`, or
    /// when `decide` refuses, the holdings are restored — a probe of what
    /// a placement would get, with nothing changed. Blocks on devices that
    /// are not Online are never free in the view, so only the tenant's
    /// Online holdings count as free for `decide`.
    pub(crate) fn place<E>(
        &self,
        tenant: TenantId,
        commit: bool,
        decide: impl FnOnce(&ClusterView) -> Result<Vec<BlockAddr>, E>,
    ) -> Result<Vec<BlockAddr>, E> {
        let mut table = self.table.write();
        let held = table.release(tenant);
        let decision = decide(&table.view);
        match &decision {
            Ok(blocks) if commit => {
                let claimed = table.claim(tenant, blocks);
                assert!(claimed, "a decision names only blocks free in its view");
            }
            _ => table.hold(tenant, &held),
        }
        decision
    }

    /// Number of FPGAs tracked.
    pub fn fpga_count(&self) -> usize {
        self.read(ClusterView::fpga_count)
    }

    /// Blocks per FPGA (the maximum, for heterogeneous layouts).
    pub fn blocks_per_fpga(&self) -> usize {
        self.read(|v| {
            (0..v.fpga_count())
                .map(|f| v.blocks_per_fpga_of(f))
                .max()
                .unwrap_or(0)
        })
    }

    /// Blocks of one specific FPGA.
    pub(crate) fn blocks_of(&self, fpga: usize) -> usize {
        self.read(|v| v.blocks_per_fpga_of(fpga))
    }

    /// The state of one block (`None` if out of range).
    pub fn state(&self, addr: BlockAddr) -> Option<BlockState> {
        self.read(|v| {
            let in_range =
                (addr.block.index() as usize) < v.blocks_per_fpga_of(addr.fpga.index() as usize);
            in_range.then(|| {
                v.occupant(addr)
                    .map_or(BlockState::Free, |t| BlockState::Active(TenantId::new(t)))
            })
        })
    }

    /// The health of one FPGA (`Offline` if out of range).
    pub fn health_of(&self, fpga: usize) -> FpgaHealth {
        self.read(|v| v.health_of(fpga))
    }

    /// Sets the health of one FPGA. Out-of-range indices are ignored.
    /// Blocks already held by tenants are untouched — eviction or
    /// migration is the controller's job, not the database's.
    pub fn set_health(&self, fpga: usize, health: FpgaHealth) {
        self.table.write().view.set_health(fpga, health);
    }

    /// Free block addresses of one FPGA (empty unless the device is
    /// [`Online`](FpgaHealth::Online)).
    pub fn free_blocks_of(&self, fpga: usize) -> Vec<BlockAddr> {
        self.read(|v| v.free_blocks_of(fpga))
    }

    /// Total free blocks.
    pub fn total_free(&self) -> usize {
        self.read(ClusterView::total_free)
    }

    /// Atomically claims `blocks` for `tenant`. Either all blocks are
    /// claimed or none are.
    ///
    /// Returns `false` (claiming nothing) if any block is out of range,
    /// already active, listed twice, or on a device that is not
    /// [`Online`](FpgaHealth::Online).
    pub fn claim(&self, tenant: TenantId, blocks: &[BlockAddr]) -> bool {
        self.table.write().claim(tenant, blocks)
    }

    /// Releases every block held by `tenant`, returning them.
    pub fn release(&self, tenant: TenantId) -> Vec<BlockAddr> {
        self.table.write().release(tenant)
    }

    /// The blocks currently held by `tenant`.
    pub fn holdings(&self, tenant: TenantId) -> Vec<BlockAddr> {
        self.table
            .read()
            .tenants
            .get(&tenant)
            .cloned()
            .unwrap_or_default()
    }

    /// Tenants holding at least one block on `fpga`, sorted: a scan of
    /// that device's slots.
    pub fn tenants_on(&self, fpga: usize) -> Vec<TenantId> {
        self.read(|v| v.owners_on(fpga).into_iter().map(TenantId::new).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_fabric::{FpgaId, PhysicalBlockId};

    fn addr(f: u32, b: u32) -> BlockAddr {
        BlockAddr::new(FpgaId::new(f), PhysicalBlockId::new(b))
    }

    #[test]
    fn claim_and_release_roundtrip() {
        let db = ResourceDatabase::new(2, 4);
        let t = TenantId::new(1);
        assert!(db.claim(t, &[addr(0, 0), addr(1, 3)]));
        assert_eq!(db.state(addr(0, 0)), Some(BlockState::Active(t)));
        assert_eq!(db.total_free(), 6);
        assert_eq!(db.holdings(t).len(), 2);
        let released = db.release(t);
        assert_eq!(released.len(), 2);
        assert_eq!(db.total_free(), 8);
    }

    #[test]
    fn claim_is_atomic() {
        let db = ResourceDatabase::new(1, 2);
        let a = TenantId::new(1);
        let b = TenantId::new(2);
        assert!(db.claim(a, &[addr(0, 1)]));
        // Second claim includes a busy block: nothing must change.
        assert!(!db.claim(b, &[addr(0, 0), addr(0, 1)]));
        assert_eq!(db.state(addr(0, 0)), Some(BlockState::Free));
        assert!(db.holdings(b).is_empty());
    }

    #[test]
    fn claim_rejects_duplicates_and_out_of_range() {
        let db = ResourceDatabase::new(1, 2);
        let t = TenantId::new(1);
        assert!(!db.claim(t, &[addr(0, 0), addr(0, 0)]));
        assert!(!db.claim(t, &[addr(5, 0)]));
        assert_eq!(db.total_free(), 2);
        assert_eq!(db.state(addr(0, 2)), None);
    }

    #[test]
    fn blocks_never_shared_between_tenants() {
        let db = ResourceDatabase::new(1, 1);
        assert!(db.claim(TenantId::new(1), &[addr(0, 0)]));
        assert!(!db.claim(TenantId::new(2), &[addr(0, 0)]));
    }

    #[test]
    fn heterogeneous_layout_is_ragged() {
        let db = ResourceDatabase::over(&[2, 5, 1], Arc::new(Topology::ring(3)));
        assert_eq!(db.fpga_count(), 3);
        assert_eq!(db.blocks_of(1), 5);
        assert_eq!(db.total_free(), 8);
        // Out-of-range block on the small FPGA is rejected.
        assert!(!db.claim(TenantId::new(1), &[addr(2, 1)]));
        assert!(db.claim(TenantId::new(1), &[addr(2, 0), addr(1, 4)]));
        assert_eq!(db.total_free(), 6);
    }

    #[test]
    fn release_unknown_tenant_is_empty() {
        let db = ResourceDatabase::new(1, 1);
        assert!(db.release(TenantId::new(9)).is_empty());
    }

    #[test]
    fn health_gates_allocation_but_not_release() {
        let db = ResourceDatabase::new(2, 4);
        let t = TenantId::new(1);
        assert!(db.claim(t, &[addr(1, 0), addr(1, 1)]));
        assert_eq!(db.health_of(1), FpgaHealth::Online);
        db.set_health(1, FpgaHealth::Draining);
        // No new allocations on a draining device...
        assert!(db.free_blocks_of(1).is_empty());
        assert_eq!(db.total_free(), 4);
        assert!(!db.claim(TenantId::new(2), &[addr(1, 2)]));
        // ...but existing holdings are intact and releasable.
        assert_eq!(db.holdings(t).len(), 2);
        assert_eq!(db.tenants_on(1), vec![t]);
        db.set_health(1, FpgaHealth::Offline);
        assert_eq!(db.release(t).len(), 2);
        // Recovery restores allocatability.
        db.set_health(1, FpgaHealth::Online);
        assert_eq!(db.total_free(), 8);
        assert!(db.claim(t, &[addr(1, 3)]));
    }

    /// A probe leaves every holding where it was — including blocks on a
    /// device that is not Online, which a committed placement gives up.
    #[test]
    fn probes_change_nothing_and_commits_move_every_block() {
        let db = ResourceDatabase::new(2, 4);
        let t = TenantId::new(1);
        assert!(db.claim(t, &[addr(0, 0), addr(1, 0)]));
        db.set_health(1, FpgaHealth::Draining);
        let to_first_free = |v: &ClusterView| -> Result<Vec<BlockAddr>, ()> {
            Ok(v.free_blocks_of(0)[..2].to_vec())
        };
        let probe = db.place(t, false, to_first_free);
        assert_eq!(
            probe,
            Ok(vec![addr(0, 0), addr(0, 1)]),
            "own Online block counts as free"
        );
        assert_eq!(db.holdings(t), vec![addr(0, 0), addr(1, 0)]);
        assert_eq!(
            db.place(t, true, |_| Err::<Vec<BlockAddr>, _>("full")),
            Err("full")
        );
        assert_eq!(db.holdings(t), vec![addr(0, 0), addr(1, 0)]);
        assert_eq!(db.place(t, true, to_first_free), probe);
        assert_eq!(db.holdings(t), vec![addr(0, 0), addr(0, 1)]);
        assert_eq!(db.read(|v| v.vacant_count_of(1)), 4);
        assert_eq!(db.total_free(), 2);
    }

    #[test]
    fn out_of_range_health_is_offline() {
        let db = ResourceDatabase::new(1, 1);
        assert_eq!(db.health_of(7), FpgaHealth::Offline);
        db.set_health(7, FpgaHealth::Online); // ignored, no panic
        assert_eq!(db.health_of(7), FpgaHealth::Offline);
    }
}
