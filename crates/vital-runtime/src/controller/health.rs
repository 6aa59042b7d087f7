//! Device health: failure, recovery, evacuation and defragmentation —
//! the operations that move tenants because the *cluster* changed, not
//! because a tenant asked.

use vital_periph::TenantId;

use super::placement::fpgas_of;
use super::{Migration, SystemController};
use crate::api::MigratePolicy;
use crate::FpgaHealth;

/// What [`SystemController::fail_fpga`] did to the affected tenants.
#[derive(Debug, Clone, Default)]
pub struct FailureReport {
    /// Tenants relocated onto surviving devices. A tenant whose DRAM
    /// lived on the failed board gets a fresh (zeroed) space on its new
    /// primary — the contents died with the board.
    pub migrated: Vec<Migration>,
    /// Tenants torn down because no surviving placement could hold them.
    pub torn_down: Vec<TenantId>,
}

/// What [`SystemController::evacuate`] managed to move.
#[derive(Debug, Clone, Default)]
pub struct EvacuationReport {
    /// Tenants live-migrated off the draining device. Their DRAM contents
    /// and channel state move with them byte-for-byte, so the drained
    /// board can be powered down afterwards.
    pub migrated: Vec<Migration>,
    /// Tenants left in place because no other placement currently fits;
    /// retry after capacity frees up.
    pub unmoved: Vec<TenantId>,
}

/// Monotonic failure/recovery counters of one controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureStats {
    /// Devices declared failed via [`SystemController::fail_fpga`].
    pub fpga_failures: u64,
    /// Devices brought back via [`SystemController::recover_fpga`].
    pub fpga_recoveries: u64,
    /// Evacuations started via [`SystemController::evacuate`].
    pub evacuations: u64,
    /// Tenants successfully relocated by failure handling or evacuation.
    pub tenants_migrated: u64,
    /// Tenants torn down because they could not be re-placed.
    pub tenants_torn_down: u64,
}

impl SystemController {
    /// Defragments the cluster by *live-migrating* spanning deployments
    /// onto fewer FPGAs when the current free space allows it — something
    /// only possible because bitstreams are relocatable: each move is a
    /// same-geometry migration ([`SystemController::migrate_with_policy`]:
    /// quiesce, checkpoint, partial reconfiguration at the new location,
    /// restore), never a recompilation. Channel contents and DRAM bytes survive every move.
    /// Returns one [`Migration`] per moved tenant, carrying the recomputed
    /// per-block partial-reconfiguration cost of the move.
    ///
    /// Fragmentation is the failure mode of fine-grained sharing (small
    /// deployments pepper the cluster until large requests must span);
    /// periodic defragmentation keeps the spanning penalty in check.
    ///
    /// A move is accepted only if it reduces the FPGAs spanned *and* does
    /// not increase the placement's ring-hop cost
    /// ([`Migration::hop_cost_after`] ≤ [`Migration::hop_cost_before`]).
    /// The tenant's DRAM moves with it to the new primary board, contents
    /// intact; handles returned by earlier `deploy` calls keep their
    /// original binding snapshot — query [`SystemController::resources`]
    /// for the live placement.
    pub fn defragment(&self) -> Vec<Migration> {
        let _dirty = self.mark_status_dirty();
        let mut span = self.telemetry.span("runtime.defragment");
        let mut migrated = Vec::new();
        loop {
            // Pick the most-spanning tenant that could use fewer FPGAs
            // *without paying more ring hops* — consolidation that spreads
            // a tenant's traffic further around the ring is a regression,
            // not an improvement.
            let candidates: Vec<(TenantId, usize, usize)> = {
                let tenants = self.tenants.lock();
                tenants
                    .iter()
                    .map(|(&t, state)| {
                        (
                            t,
                            state.handle.fpga_count(),
                            state.handle.placed().bindings.len(),
                        )
                    })
                    .filter(|&(_, fpgas, _)| fpgas > 1)
                    .collect()
            };
            let mut best_move: Option<(TenantId, usize, usize)> = None;
            for (tenant, current_fpgas, needed) in candidates {
                let current_hop = self.placement_hop_cost(&self.resources.holdings(tenant));
                // What could this tenant get if its own blocks were free?
                // Only blocks on Online devices participate.
                let Some(blocks) = self.probe(tenant, needed) else {
                    continue;
                };
                let (fpgas, hop) = (fpgas_of(&blocks), self.placement_hop_cost(&blocks));
                if fpgas < current_fpgas
                    && hop <= current_hop
                    && best_move.is_none_or(|(_, bf, bh)| (fpgas, hop) < (bf, bh))
                {
                    best_move = Some((tenant, fpgas, hop));
                }
            }
            let Some((tenant, _, _)) = best_move else {
                break;
            };
            // Suspending frees the tenant's own blocks, so the resume half
            // of the live migration sees exactly the view probed above and
            // lands on the same blocks.
            match self.migrate(tenant, MigratePolicy::SameGeometry) {
                Ok(m) => migrated.push(m),
                // A failed resume parks the tenant as suspended rather
                // than losing it; stop consolidating and let the operator
                // resume it explicitly.
                Err(_) => break,
            }
        }
        span.field("migrations", migrated.len());
        migrated
    }

    /// Declares an FPGA failed: the device goes
    /// [`Offline`](FpgaHealth::Offline) and every affected tenant is
    /// either *migrated* onto the surviving devices — relocatable
    /// bitstreams make this a partial reconfiguration, never a
    /// recompilation — or, when no surviving placement fits, torn down
    /// completely (blocks, DRAM, bandwidth share, vNIC).
    ///
    /// A migrated tenant whose DRAM lived on the failed board gets a
    /// fresh zeroed space of the same quota on its new primary FPGA: the
    /// contents died with the board. Tenants whose DRAM lives elsewhere
    /// keep it untouched.
    ///
    /// Idempotent: failing an already-offline device affects no one.
    pub fn fail_fpga(&self, fpga: usize) -> FailureReport {
        let _dirty = self.mark_status_dirty();
        let mut span = self.telemetry.span("runtime.fail_fpga");
        span.field("fpga", fpga);
        self.resources.set_health(fpga, FpgaHealth::Offline);
        let mut report = FailureReport::default();
        for tenant in self.affected_tenants(fpga) {
            match self.relocate_tenant(tenant, true) {
                Some(m) => report.migrated.push(m),
                None => {
                    let state = self.tenants.lock().remove(&tenant);
                    if let Some(state) = state {
                        // Best-effort: the board is gone, some steps may
                        // already be moot.
                        let _ = self.teardown(&state.handle);
                        report.torn_down.push(tenant);
                    }
                }
            }
        }
        let mut stats = self.failure_stats.lock();
        stats.fpga_failures += 1;
        stats.tenants_migrated += report.migrated.len() as u64;
        stats.tenants_torn_down += report.torn_down.len() as u64;
        span.field("migrated", report.migrated.len());
        span.field("torn_down", report.torn_down.len());
        self.telemetry.inc_counter("runtime.fpga_failures", 1);
        report
    }

    /// Returns a failed or draining FPGA to service
    /// ([`Online`](FpgaHealth::Online)): its blocks become allocatable
    /// again. Nothing is migrated back — the next deployments simply see
    /// the capacity.
    pub fn recover_fpga(&self, fpga: usize) {
        let _dirty = self.mark_status_dirty();
        self.resources.set_health(fpga, FpgaHealth::Online);
        self.failure_stats.lock().fpga_recoveries += 1;
    }

    /// Drains an FPGA for maintenance: the device goes
    /// [`Draining`](FpgaHealth::Draining) (no new allocations) and every
    /// tenant with blocks on it is **live-migrated** off
    /// ([`SystemController::migrate_with_policy`]): channels are quiesced, DRAM
    /// pages are exported, and everything is restored byte-for-byte on the
    /// surviving devices — the tenant's DRAM home moves *off* the draining
    /// board, so the board can subsequently be powered down without data
    /// loss. Tenants that cannot currently be re-placed stay put, fully
    /// running, and are listed in [`EvacuationReport::unmoved`]; call
    /// again once capacity frees up, or [`SystemController::recover_fpga`]
    /// to cancel the drain.
    pub fn evacuate(&self, fpga: usize) -> EvacuationReport {
        let _dirty = self.mark_status_dirty();
        let mut span = self.telemetry.span("runtime.evacuate");
        span.field("fpga", fpga);
        self.resources.set_health(fpga, FpgaHealth::Draining);
        let mut report = EvacuationReport::default();
        for tenant in self.resources.tenants_on(fpga) {
            // Pre-check that a placement on the surviving devices exists:
            // a live migration whose resume half cannot fit would park the
            // tenant suspended, and an evacuation must leave unmovable
            // tenants *running*.
            let needed = {
                let tenants = self.tenants.lock();
                match tenants.get(&tenant) {
                    Some(state) => state.handle.placed().bindings.len(),
                    None => continue,
                }
            };
            if self.probe(tenant, needed).is_none() {
                report.unmoved.push(tenant);
                continue;
            }
            match self.migrate(tenant, MigratePolicy::SameGeometry) {
                Ok(m) => report.migrated.push(m),
                Err(_) => report.unmoved.push(tenant),
            }
        }
        let mut stats = self.failure_stats.lock();
        stats.evacuations += 1;
        stats.tenants_migrated += report.migrated.len() as u64;
        span.field("migrated", report.migrated.len());
        span.field("unmoved", report.unmoved.len());
        report
    }

    /// The failure/recovery counters accumulated so far.
    pub fn failure_stats(&self) -> FailureStats {
        *self.failure_stats.lock()
    }

    /// Tenants touched by the failure of `fpga`: blocks on it, or DRAM
    /// homed on it.
    fn affected_tenants(&self, fpga: usize) -> Vec<TenantId> {
        let mut v = self.resources.tenants_on(fpga);
        let tenants = self.tenants.lock();
        for (&t, state) in tenants.iter() {
            if state.handle.primary_fpga() == fpga && !v.contains(&t) {
                v.push(t);
            }
        }
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::RuntimeConfig;
    use super::*;
    use std::time::Duration;

    #[test]
    fn defragment_consolidates_spanning_tenants() {
        // DSP-bound designs: 8 blocks (3700 DSPs) and 10 blocks (4700).
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        register_dsp_bound(&c, "eight", 3_700);
        register_dsp_bound(&c, "ten", 4_700);
        // One 8-block app per FPGA leaves 7 free everywhere.
        let fillers: Vec<_> = (0..4).map(|_| c.deploy("eight").unwrap()).collect();
        // The 10-block app must span (no FPGA has 10 free).
        let spanner = c.deploy("ten").unwrap();
        assert!(spanner.fpga_count() > 1);
        // Free one filler: a whole board opens up.
        c.undeploy(fillers[0].tenant()).unwrap();
        let migrated = c.defragment();
        assert_eq!(migrated.len(), 1);
        let m = &migrated[0];
        assert_eq!(m.tenant, spanner.tenant());
        assert!(m.fpgas_before > m.fpgas_after);
        assert_eq!(m.fpgas_after, 1);
        // The move charges 10 sequential per-block reconfigurations on the
        // target board, and the stored handle reflects the new cost.
        assert!(m.reconfig > Duration::ZERO);
        let live = c.tenants.lock().get(&m.tenant).unwrap().handle.clone();
        assert_eq!(live.reconfig_duration(), m.reconfig);
        assert!(
            live.reconfig_duration() > spanner.reconfig_duration(),
            "10 blocks on one ICAP take longer than the spanning split"
        );
        // The live placement now sits on a single FPGA.
        let holdings = c.resources().holdings(spanner.tenant());
        let mut fpgas: Vec<_> = holdings.iter().map(|b| b.fpga).collect();
        fpgas.sort_unstable();
        fpgas.dedup();
        assert_eq!(fpgas.len(), 1, "migrated onto one FPGA");
        // Idempotent: nothing left to do.
        assert!(c.defragment().is_empty());
        // Teardown still releases everything.
        c.undeploy(spanner.tenant()).unwrap();
        for f in fillers.into_iter().skip(1) {
            c.undeploy(f.tenant()).unwrap();
        }
    }

    #[test]
    fn fail_fpga_migrates_tenants_to_survivors() {
        let c = controller_with(&[("a", 8)]);
        let h = c.deploy("a").unwrap();
        let home = h.primary_fpga();
        let block_count = c.resources().holdings(h.tenant()).len();
        // DRAM contents on the board that will crash.
        c.memory_of(home).write(h.tenant(), 0, b"gone").unwrap();
        let report = c.fail_fpga(home);
        assert_eq!(report.migrated.len(), 1);
        assert!(report.torn_down.is_empty());
        let m = &report.migrated[0];
        assert_eq!(m.tenant, h.tenant());
        assert!(m.reconfig > Duration::ZERO);
        // The live placement avoids the failed board entirely.
        let holdings = c.resources().holdings(h.tenant());
        assert_eq!(holdings.len(), block_count);
        assert!(holdings.iter().all(|b| b.fpga.index() as usize != home));
        // DRAM moved to the new primary with the same quota, zeroed.
        let live = c.tenants.lock().get(&h.tenant()).unwrap().handle.clone();
        assert_ne!(live.primary_fpga(), home);
        let stats = c.memory_of(live.primary_fpga()).stats(h.tenant()).unwrap();
        assert_eq!(stats.quota_bytes, c.config().default_quota_bytes);
        let mut buf = [0u8; 4];
        c.memory_of(live.primary_fpga())
            .read(h.tenant(), 0, &mut buf)
            .unwrap();
        assert_eq!(buf, [0u8; 4], "crashed board's contents are lost");
        assert_eq!(c.failure_stats().fpga_failures, 1);
        assert_eq!(c.failure_stats().tenants_migrated, 1);
        // Undeploy still tears everything down cleanly.
        c.undeploy(h.tenant()).unwrap();
        assert_eq!(c.switch().nic_count(), 0);
        // Recovery restores the board's capacity.
        assert_eq!(c.resources().health_of(home), FpgaHealth::Offline);
        c.recover_fpga(home);
        assert_eq!(c.resources().health_of(home), FpgaHealth::Online);
        assert_eq!(c.resources().total_free(), 60);
    }

    #[test]
    fn fail_fpga_tears_down_unplaceable_tenants() {
        // A 10-block tenant on the only board big enough: when that board
        // dies there is nowhere to go.
        let c = SystemController::with_layout(RuntimeConfig::paper_cluster(), vec![15, 4]);
        register_dsp_bound(&c, "big", 4_700);
        let h = c.deploy("big").unwrap();
        assert_eq!(h.primary_fpga(), 0);
        let report = c.fail_fpga(0);
        assert!(report.migrated.is_empty());
        assert_eq!(report.torn_down, vec![h.tenant()]);
        assert!(c.live_tenants().is_empty());
        assert_eq!(c.switch().nic_count(), 0);
        assert_eq!(c.memory_of(0).tenant_count(), 0);
        assert_eq!(c.arbiter_of(0).total_demand_gbps(), 0.0);
        assert_eq!(c.failure_stats().tenants_torn_down, 1);
    }

    #[test]
    fn evacuate_drains_by_migration_without_dram_loss() {
        let c = controller_with(&[("a", 8)]);
        let h = c.deploy("a").unwrap();
        let home = h.primary_fpga();
        c.memory_of(home).write(h.tenant(), 0, b"kept").unwrap();
        let report = c.evacuate(home);
        assert_eq!(report.migrated.len(), 1);
        assert!(report.unmoved.is_empty());
        // Logic moved off, the board is empty and draining.
        let holdings = c.resources().holdings(h.tenant());
        assert!(holdings.iter().all(|b| b.fpga.index() as usize != home));
        assert!(c.resources().tenants_on(home).is_empty());
        assert_eq!(c.resources().health_of(home), FpgaHealth::Draining);
        // The DRAM home moved off the draining board with its contents —
        // the board could now be powered down without data loss.
        assert_eq!(c.memory_of(home).tenant_count(), 0);
        let new_home = holdings[0].fpga.index() as usize;
        assert_ne!(new_home, home);
        let mut buf = [0u8; 4];
        c.memory_of(new_home).read(h.tenant(), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"kept");
        // No new deployment lands on the draining board.
        let h2 = c.deploy("a").unwrap();
        assert!(c
            .resources()
            .holdings(h2.tenant())
            .iter()
            .all(|b| b.fpga.index() as usize != home));
        assert_eq!(c.failure_stats().evacuations, 1);
        c.undeploy(h.tenant()).unwrap();
        c.undeploy(h2.tenant()).unwrap();
        assert_eq!(c.switch().nic_count(), 0);
    }

    #[test]
    fn evacuate_reports_unmovable_tenants() {
        // Both boards nearly full: the tenant on the draining board has
        // nowhere to go and must stay, unharmed.
        let c = SystemController::with_layout(RuntimeConfig::paper_cluster(), vec![15, 15]);
        register_dsp_bound(&c, "twelve", 5_600);
        let a = c.deploy("twelve").unwrap(); // 12 blocks on board 0
        let b = c.deploy("twelve").unwrap(); // 12 blocks on board 1
        assert_ne!(a.primary_fpga(), b.primary_fpga());
        let report = c.evacuate(a.primary_fpga());
        assert!(report.migrated.is_empty());
        assert_eq!(report.unmoved, vec![a.tenant()]);
        // The tenant still runs where it was.
        assert_eq!(c.resources().holdings(a.tenant()).len(), 12);
        // Freeing the other board lets a retry finish the drain.
        c.undeploy(b.tenant()).unwrap();
        let retry = c.evacuate(a.primary_fpga());
        assert_eq!(retry.migrated.len(), 1);
        assert!(retry.unmoved.is_empty());
        c.undeploy(a.tenant()).unwrap();
    }

    #[test]
    fn defragment_never_increases_hop_cost() {
        // Regression test: consolidation must be judged on ring hops too,
        // not only on the number of FPGAs spanned. Run the consolidation
        // scenario and check the invariant on every reported move.
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        register_dsp_bound(&c, "eight", 3_700);
        register_dsp_bound(&c, "ten", 4_700);
        let fillers: Vec<_> = (0..4).map(|_| c.deploy("eight").unwrap()).collect();
        let spanners: Vec<_> = (0..2).map(|_| c.deploy("ten").ok()).collect();
        for f in &fillers {
            c.undeploy(f.tenant()).unwrap();
        }
        let migrated = c.defragment();
        assert!(!migrated.is_empty());
        for m in &migrated {
            assert!(
                m.hop_cost_after <= m.hop_cost_before,
                "defragmentation increased hop cost for {}: {} -> {}",
                m.tenant,
                m.hop_cost_before,
                m.hop_cost_after
            );
            assert!(m.fpgas_after < m.fpgas_before);
            // Consolidation preserved the tenant: still live, never parked.
            assert!(c.live_tenants().contains(&m.tenant));
        }
        assert!(c.suspended_tenants().is_empty());
        drop(spanners);
    }
}
