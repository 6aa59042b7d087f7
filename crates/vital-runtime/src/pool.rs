//! The hardware-level tile allocator: deterministic, conserving shares.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Error returned when a grow request exceeds the free tile supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TilesUnavailable {
    /// Tiles the caller asked to add.
    pub requested: usize,
    /// Tiles currently free in the pool.
    pub free: usize,
}

impl fmt::Display for TilesUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requested {} tile(s) but only {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for TilesUnavailable {}

/// The shared pool of template tiles and who owns what.
///
/// All operations are deterministic — growing takes the lowest-numbered
/// free tiles, shrinking releases the tenant's highest-numbered tiles —
/// and conserving: free + Σ owned always equals the pool size. Replaying
/// the same operation sequence on a fresh pool yields identical
/// assignments (property-tested in `tests/pool_properties.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePool {
    total: usize,
    /// Free tile ids, ascending.
    free: Vec<u32>,
    /// Owned tile ids per tenant, each ascending. A share that shrank to
    /// zero stays, empty, until the tenant is released.
    owned: BTreeMap<u64, Vec<u32>>,
}

impl TilePool {
    /// A pool of `total` tiles, all free.
    pub fn new(total: usize) -> Self {
        TilePool {
            total,
            free: (0..total as u32).collect(),
            owned: BTreeMap::new(),
        }
    }

    /// Pool size.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Tiles currently unowned.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Tiles owned by `tenant` (empty slice if unknown).
    pub fn assignment(&self, tenant: u64) -> &[u32] {
        self.owned.get(&tenant).map_or(&[], Vec::as_slice)
    }

    /// Tenants currently holding at least one tile, ascending.
    pub fn tenants(&self) -> Vec<u64> {
        self.owned
            .iter()
            .filter(|(_, share)| !share.is_empty())
            .map(|(&tenant, _)| tenant)
            .collect()
    }

    /// Grow `tenant`'s share by `n` tiles, taking the lowest free ids.
    pub fn grow(&mut self, tenant: u64, n: usize) -> Result<Vec<u32>, TilesUnavailable> {
        self.check_free(n)?;
        let granted = self.free[..n].to_vec();
        self.give(tenant, n);
        Ok(granted)
    }

    /// Shrink `tenant`'s share by up to `n` tiles, releasing its
    /// highest-numbered tiles. Returns the released ids (ascending).
    pub fn shrink(&mut self, tenant: u64, n: usize) -> Vec<u32> {
        let share = self.assignment(tenant);
        let released = share[share.len().saturating_sub(n)..].to_vec();
        self.take_back(tenant, n);
        released
    }

    /// Move `tenant`'s share to exactly `target` tiles, growing or
    /// shrinking as needed. Returns how many tiles changed hands; moves
    /// nothing and allocates nothing when the share is already `target`.
    pub fn set_share(&mut self, tenant: u64, target: usize) -> Result<usize, TilesUnavailable> {
        let current = self.assignment(tenant).len();
        if target > current {
            self.check_free(target - current)?;
            self.give(tenant, target - current);
        } else {
            self.take_back(tenant, current - target);
        }
        Ok(current.abs_diff(target))
    }

    /// Release all of `tenant`'s tiles. Returns how many were freed.
    pub fn release(&mut self, tenant: u64) -> usize {
        let freed = self.shrink(tenant, usize::MAX).len();
        self.owned.remove(&tenant);
        freed
    }

    fn check_free(&self, n: usize) -> Result<(), TilesUnavailable> {
        if n > self.free.len() {
            return Err(TilesUnavailable {
                requested: n,
                free: self.free.len(),
            });
        }
        Ok(())
    }

    /// Moves the `n` lowest free tiles to `tenant` (`n` ≤ free). A share
    /// is sized for the whole pool when first created and kept, empty,
    /// when it shrinks to zero, so later moves never allocate.
    fn give(&mut self, tenant: u64, n: usize) {
        if n == 0 {
            return;
        }
        let total = self.total;
        let share = self
            .owned
            .entry(tenant)
            .or_insert_with(|| Vec::with_capacity(total));
        share.extend(self.free.drain(..n));
        share.sort_unstable();
    }

    /// Returns up to `n` of `tenant`'s highest tiles to the free list.
    fn take_back(&mut self, tenant: u64, n: usize) {
        let Some(share) = self.owned.get_mut(&tenant) else {
            return;
        };
        let keep = share.len().saturating_sub(n);
        for &id in &share[keep..] {
            let at = self.free.partition_point(|&f| f < id);
            self.free.insert(at, id);
        }
        share.truncate(keep);
    }

    /// Conservation invariant: free + Σ owned == total, no duplicates.
    pub fn is_conserving(&self) -> bool {
        let owned: usize = self.owned.values().map(Vec::len).sum();
        if owned + self.free.len() != self.total {
            return false;
        }
        let mut all: Vec<u32> = self.free.clone();
        all.extend(self.owned.values().flatten());
        all.sort_unstable();
        all.dedup();
        all.len() == self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_takes_lowest_free_shrink_releases_highest_owned() {
        let mut p = TilePool::new(8);
        assert_eq!(p.grow(1, 3).unwrap(), vec![0, 1, 2]);
        assert_eq!(p.grow(2, 2).unwrap(), vec![3, 4]);
        assert_eq!(p.shrink(1, 2), vec![1, 2]);
        // Freed tiles go back in order and are re-granted lowest-first.
        assert_eq!(p.grow(3, 3).unwrap(), vec![1, 2, 5]);
        assert!(p.is_conserving());
    }

    #[test]
    fn grow_past_free_supply_is_typed_and_leaves_pool_untouched() {
        let mut p = TilePool::new(4);
        p.grow(1, 3).unwrap();
        let err = p.grow(2, 2).unwrap_err();
        assert_eq!(
            err,
            TilesUnavailable {
                requested: 2,
                free: 1
            }
        );
        assert_eq!(p.free_count(), 1);
        assert!(p.is_conserving());
    }

    #[test]
    fn set_share_reaches_target_in_both_directions() {
        let mut p = TilePool::new(10);
        assert_eq!(p.set_share(7, 6), Ok(6));
        assert_eq!(p.assignment(7), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(p.set_share(7, 2), Ok(4));
        assert_eq!(p.assignment(7), &[0, 1]);
        assert_eq!(p.set_share(7, 2), Ok(0));
        assert_eq!(p.set_share(7, 0), Ok(2));
        assert!(p.tenants().is_empty(), "an empty share is not listed");
        assert_eq!(
            p.set_share(7, 11),
            Err(TilesUnavailable {
                requested: 11,
                free: 10
            })
        );
        assert!(p.is_conserving());
    }

    #[test]
    fn release_empties_the_tenant() {
        let mut p = TilePool::new(5);
        p.grow(9, 4).unwrap();
        assert_eq!(p.release(9), 4);
        assert_eq!(p.assignment(9), &[] as &[u32]);
        assert_eq!(p.free_count(), 5);
        assert!(p.tenants().is_empty());
    }
}
