//! Proportional-share arbitration of the shared DRAM bandwidth.
//!
//! The service region's DRAM interface is shared by every physical block of
//! an FPGA (paper Fig. 7, region 4). The arbiter divides the channel
//! bandwidth among tenants: each tenant receives its demand when the channel
//! is under-subscribed, and a proportional share of the capacity when it is
//! over-subscribed.

use std::collections::BTreeMap;
use std::fmt;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::{PeriphError, TenantId};

/// One tenant's granted share of the DRAM bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShareGrant {
    /// What the tenant asked for, in Gb/s.
    pub requested_gbps: f64,
    /// What it currently receives, in Gb/s.
    pub granted_gbps: f64,
}

/// The DRAM bandwidth arbiter of one FPGA's service region.
pub struct BandwidthArbiter {
    capacity_gbps: f64,
    demands: Mutex<BTreeMap<TenantId, f64>>,
}

impl fmt::Debug for BandwidthArbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BandwidthArbiter")
            .field("capacity_gbps", &self.capacity_gbps)
            .field("tenants", &self.demands.lock().len())
            .finish()
    }
}

impl BandwidthArbiter {
    /// Creates an arbiter over `capacity_gbps` of channel bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive and finite.
    pub fn new(capacity_gbps: f64) -> Self {
        assert!(
            capacity_gbps > 0.0 && capacity_gbps.is_finite(),
            "capacity must be positive, got {capacity_gbps}"
        );
        BandwidthArbiter {
            capacity_gbps,
            demands: Mutex::new(BTreeMap::new()),
        }
    }

    /// Registers (or updates) a tenant's bandwidth demand and returns its
    /// current grant.
    pub fn request(&self, tenant: TenantId, gbps: f64) -> ShareGrant {
        let mut demands = self.demands.lock();
        demands.insert(tenant, gbps.max(0.0));
        let granted = Self::grant_of(&demands, self.capacity_gbps, tenant);
        ShareGrant {
            requested_gbps: gbps,
            granted_gbps: granted,
        }
    }

    /// Removes a tenant, returning bandwidth to the others.
    ///
    /// # Errors
    ///
    /// Returns [`PeriphError::UnknownTenant`] if the tenant never requested.
    pub fn release(&self, tenant: TenantId) -> Result<(), PeriphError> {
        let mut demands = self.demands.lock();
        demands
            .remove(&tenant)
            .map(|_| ())
            .ok_or(PeriphError::UnknownTenant(tenant))
    }

    /// The current grant of one tenant.
    ///
    /// # Errors
    ///
    /// Returns [`PeriphError::UnknownTenant`] if the tenant never requested.
    pub fn grant(&self, tenant: TenantId) -> Result<ShareGrant, PeriphError> {
        let demands = self.demands.lock();
        let requested = *demands
            .get(&tenant)
            .ok_or(PeriphError::UnknownTenant(tenant))?;
        Ok(ShareGrant {
            requested_gbps: requested,
            granted_gbps: Self::grant_of(&demands, self.capacity_gbps, tenant),
        })
    }

    /// Aggregate demand across tenants in Gb/s.
    pub fn total_demand_gbps(&self) -> f64 {
        self.demands.lock().values().sum()
    }

    /// Max–min fair share: tenants demanding less than the fair share keep
    /// their demand; the remainder is split evenly among the rest.
    fn grant_of(demands: &BTreeMap<TenantId, f64>, capacity: f64, tenant: TenantId) -> f64 {
        let mut remaining = capacity;
        let mut pending: Vec<(TenantId, f64)> = demands.iter().map(|(&t, &d)| (t, d)).collect();
        pending.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut n = pending.len();
        for (t, d) in pending {
            let fair = remaining / n as f64;
            let grant = d.min(fair);
            if t == tenant {
                return grant;
            }
            remaining -= grant;
            n -= 1;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undersubscribed_grants_full_demand() {
        let a = BandwidthArbiter::new(100.0);
        let g = a.request(TenantId::new(1), 30.0);
        assert_eq!(g.granted_gbps, 30.0);
        let g2 = a.request(TenantId::new(2), 50.0);
        assert_eq!(g2.granted_gbps, 50.0);
    }

    #[test]
    fn oversubscribed_is_max_min_fair() {
        let a = BandwidthArbiter::new(90.0);
        a.request(TenantId::new(1), 10.0); // small demand: kept
        a.request(TenantId::new(2), 100.0); // big: split the rest
        a.request(TenantId::new(3), 100.0);
        assert_eq!(a.grant(TenantId::new(1)).unwrap().granted_gbps, 10.0);
        let g2 = a.grant(TenantId::new(2)).unwrap().granted_gbps;
        let g3 = a.grant(TenantId::new(3)).unwrap().granted_gbps;
        assert!((g2 - 40.0).abs() < 1e-9);
        assert!((g3 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn release_returns_bandwidth() {
        let a = BandwidthArbiter::new(60.0);
        a.request(TenantId::new(1), 60.0);
        a.request(TenantId::new(2), 60.0);
        assert!((a.grant(TenantId::new(1)).unwrap().granted_gbps - 30.0).abs() < 1e-9);
        a.release(TenantId::new(2)).unwrap();
        assert!((a.grant(TenantId::new(1)).unwrap().granted_gbps - 60.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_tenant_errors() {
        let a = BandwidthArbiter::new(10.0);
        assert!(a.grant(TenantId::new(1)).is_err());
        assert!(a.release(TenantId::new(1)).is_err());
    }

    #[test]
    fn grants_never_exceed_capacity() {
        let a = BandwidthArbiter::new(77.0);
        for i in 0..9 {
            a.request(TenantId::new(i), (i as f64 + 1.0) * 13.0);
        }
        let total: f64 = (0..9)
            .map(|i| a.grant(TenantId::new(i)).unwrap().granted_gbps)
            .sum();
        assert!(total <= 77.0 + 1e-6, "total granted {total}");
    }

    #[test]
    fn negative_demand_clamped() {
        let a = BandwidthArbiter::new(10.0);
        let g = a.request(TenantId::new(1), -5.0);
        assert_eq!(g.granted_gbps, 0.0);
    }
}
