//! Device health: failure, recovery, evacuation and defragmentation —
//! the operations that move tenants because the *cluster* changed, not
//! because a tenant asked. Each is reached through
//! [`SystemController::execute`] and builds its wire summary where the
//! work happens.

use vital_periph::TenantId;

use super::placement::fpgas_of;
use super::{State, SystemController, Tenant};
use crate::api::{EvacuationSummary, FailureSummary, MigrationSummary};
use crate::FpgaHealth;

/// Monotonic failure/recovery counters of one controller, reported in
/// every [`ControlRequest::Status`](crate::ControlRequest::Status).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FailureStats {
    /// Devices declared failed.
    pub(crate) fpga_failures: u64,
    /// Devices brought back to service.
    pub(crate) fpga_recoveries: u64,
    /// Evacuations started.
    pub(crate) evacuations: u64,
    /// Tenants successfully relocated by failure handling or evacuation.
    pub(crate) tenants_migrated: u64,
    /// Tenants torn down because they could not be re-placed.
    pub(crate) tenants_torn_down: u64,
}

impl SystemController {
    /// Defragments the cluster by *live-migrating* spanning deployments
    /// onto fewer FPGAs when the current free space allows it — something
    /// only possible because bitstreams are relocatable: each move is a
    /// same-geometry live migration (quiesce, checkpoint, partial
    /// reconfiguration at the new location, restore), never a
    /// recompilation. Channel contents and DRAM bytes survive every move.
    /// Returns one [`MigrationSummary`] per moved tenant, carrying the
    /// recomputed per-block partial-reconfiguration cost of the move.
    ///
    /// Fragmentation is the failure mode of fine-grained sharing (small
    /// deployments pepper the cluster until large requests must span);
    /// periodic defragmentation keeps the spanning penalty in check.
    ///
    /// A move is accepted only if it reduces the FPGAs spanned *and* does
    /// not increase the placement's ring-hop cost
    /// ([`MigrationSummary::hop_cost_after`] ≤
    /// [`MigrationSummary::hop_cost_before`]).
    /// The tenant's DRAM moves with it to the new primary board, contents
    /// intact; handles returned by earlier `deploy` calls keep their
    /// original binding snapshot — query [`SystemController::resources`]
    /// for the live placement.
    pub(super) fn defragment(&self) -> Vec<MigrationSummary> {
        let mut span = self.telemetry.span("runtime.defragment");
        let mut state = self.write();
        let mut migrated = Vec::new();
        loop {
            // Pick the most-spanning tenant that could use fewer FPGAs
            // *without paying more ring hops* — consolidation that spreads
            // a tenant's traffic further around the ring is a regression,
            // not an improvement.
            let candidates: Vec<(TenantId, usize, usize)> = state
                .tenants
                .iter()
                .filter_map(|(&t, entry)| match entry {
                    Tenant::Fabric(live) => Some((
                        t,
                        live.handle.fpga_count(),
                        live.handle.placed().bindings.len(),
                    )),
                    _ => None,
                })
                .filter(|&(_, fpgas, _)| fpgas > 1)
                .collect();
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
            match self.migrate_in(&mut state, tenant) {
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
    /// Idempotent: failing an already-offline device affects no one and
    /// counts nothing.
    pub(super) fn fail_fpga(&self, fpga: usize) -> FailureSummary {
        let mut span = self.telemetry.span("runtime.fail_fpga");
        span.field("fpga", fpga);
        let mut state = self.write();
        let mut report = FailureSummary {
            fpga,
            migrated: Vec::new(),
            torn_down: Vec::new(),
        };
        if self.resources.health_of(fpga) == FpgaHealth::Offline {
            return report;
        }
        self.resources.set_health(fpga, FpgaHealth::Offline);
        for tenant in self.affected_tenants(&state, fpga) {
            match self.relocate_tenant(&mut state, tenant) {
                Some(m) => report.migrated.push(m),
                None => {
                    if let Some(Tenant::Fabric(live)) = state.tenants.remove(&tenant) {
                        // Best-effort: the board is gone, some steps may
                        // already be moot.
                        let _ = self.teardown(&live.handle);
                        report.torn_down.push(tenant.raw());
                    }
                }
            }
        }
        let stats = &mut state.failure_stats;
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
    /// the capacity. Recovering an Online device counts nothing.
    pub(super) fn recover_fpga(&self, fpga: usize) {
        let mut state = self.write();
        if self.resources.health_of(fpga) != FpgaHealth::Online {
            self.resources.set_health(fpga, FpgaHealth::Online);
            state.failure_stats.fpga_recoveries += 1;
        }
    }

    /// Drains an FPGA for maintenance: the device goes
    /// [`Draining`](FpgaHealth::Draining) (no new allocations) and every
    /// tenant with blocks on it is **live-migrated** off: channels are
    /// quiesced, DRAM pages are exported, and everything is restored
    /// byte-for-byte on the surviving devices — the tenant's DRAM home
    /// moves *off* the draining board, so the board can subsequently be
    /// powered down without data loss. Tenants that cannot currently be
    /// re-placed stay put, fully running, and are listed in
    /// [`EvacuationSummary::unmoved`]; evacuate again once capacity frees
    /// up, or recover the board to cancel the drain. An Offline device
    /// stays Offline: evacuating it moves and counts nothing.
    pub(super) fn evacuate(&self, fpga: usize) -> EvacuationSummary {
        let mut span = self.telemetry.span("runtime.evacuate");
        span.field("fpga", fpga);
        let mut state = self.write();
        let mut report = EvacuationSummary {
            fpga,
            migrated: Vec::new(),
            unmoved: Vec::new(),
        };
        if self.resources.health_of(fpga) == FpgaHealth::Offline {
            return report;
        }
        self.resources.set_health(fpga, FpgaHealth::Draining);
        for tenant in self.resources.tenants_on(fpga) {
            // Pre-check that a placement on the surviving devices exists:
            // a live migration whose resume half cannot fit would park the
            // tenant suspended, and an evacuation must leave unmovable
            // tenants *running*.
            let Ok(live) = state.fabric(tenant) else {
                continue;
            };
            if self
                .probe(tenant, live.handle.placed().bindings.len())
                .is_none()
            {
                report.unmoved.push(tenant.raw());
                continue;
            }
            match self.migrate_in(&mut state, tenant) {
                Ok(m) => report.migrated.push(m),
                Err(_) => report.unmoved.push(tenant.raw()),
            }
        }
        let stats = &mut state.failure_stats;
        stats.evacuations += 1;
        stats.tenants_migrated += report.migrated.len() as u64;
        span.field("migrated", report.migrated.len());
        span.field("unmoved", report.unmoved.len());
        report
    }

    /// Tenants touched by the failure of `fpga`: blocks on it, or DRAM
    /// homed on it.
    fn affected_tenants(&self, state: &State, fpga: usize) -> Vec<TenantId> {
        let mut v = self.resources.tenants_on(fpga);
        v.extend(
            state.ids(|t| matches!(t, Tenant::Fabric(live) if live.handle.primary_fpga() == fpga)),
        );
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::RuntimeConfig;
    use super::*;
    use crate::api::{duration_us, ControlRequest};
    use crate::RuntimeError;
    use vital_interface::ErrorCode;

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
        assert_eq!(m.tenant, spanner.tenant().raw());
        assert!(m.fpgas_before > m.fpgas_after);
        assert_eq!(m.fpgas_after, 1);
        // The move charges 10 sequential per-block reconfigurations on the
        // target board, and the stored handle reflects the new cost.
        assert!(m.reconfig_us > 0);
        let live = c
            .state
            .lock()
            .fabric(spanner.tenant())
            .unwrap()
            .handle
            .clone();
        assert_eq!(duration_us(live.reconfig_duration()), m.reconfig_us);
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
        assert_eq!(m.tenant, h.tenant().raw());
        assert!(m.reconfig_us > 0);
        // The live placement avoids the failed board entirely.
        let holdings = c.resources().holdings(h.tenant());
        assert_eq!(holdings.len(), block_count);
        assert!(holdings.iter().all(|b| b.fpga.index() as usize != home));
        // DRAM moved to the new primary with the same quota, zeroed.
        let live = c.state.lock().fabric(h.tenant()).unwrap().handle.clone();
        assert_ne!(live.primary_fpga(), home);
        let stats = c.memory_of(live.primary_fpga()).stats(h.tenant()).unwrap();
        assert_eq!(stats.quota_bytes, c.config().default_quota_bytes);
        let mut buf = [0u8; 4];
        c.memory_of(live.primary_fpga())
            .read(h.tenant(), 0, &mut buf)
            .unwrap();
        assert_eq!(buf, [0u8; 4], "crashed board's contents are lost");
        assert_eq!(status(&c).fpga_failures, 1);
        assert_eq!(status(&c).tenants_migrated, 1);
        // Failing or evacuating the dead board again changes nothing: it
        // stays Offline and nothing is counted twice.
        let report = c.fail_fpga(home);
        assert!(report.migrated.is_empty() && report.torn_down.is_empty());
        let report = c.evacuate(home);
        assert!(report.migrated.is_empty() && report.unmoved.is_empty());
        assert_eq!(c.resources().health_of(home), FpgaHealth::Offline);
        let after = status(&c);
        assert_eq!(after.fpgas[home].health, "Offline");
        assert_eq!((after.fpga_failures, after.evacuations), (1, 0));
        // A board the cluster does not have is refused, and the refusal
        // counts nothing and changes no board's health.
        let fpgas = c.resources().fpga_count();
        for fpga in [fpgas, fpgas + 95] {
            for req in [
                ControlRequest::Fail { fpga },
                ControlRequest::Recover { fpga },
                ControlRequest::Evacuate { fpga },
            ] {
                let what = format!("{req:?}");
                let code = c.execute(req).err().map(|e| e.code);
                assert_eq!(code, Some(ErrorCode::InvalidConfig), "{what}");
            }
        }
        assert_eq!(status(&c), after, "a refused request changed the cluster");
        // So a full cluster refuses a deploy as full: no drain will free
        // the dead board's blocks.
        let fillers: Vec<_> = std::iter::from_fn(|| c.deploy("a").ok()).collect();
        let err = c.deploy("a").unwrap_err();
        assert!(
            matches!(err, RuntimeError::InsufficientResources { .. }),
            "got {err}"
        );
        for f in fillers {
            c.undeploy(f.tenant()).unwrap();
        }
        // Undeploy still tears everything down cleanly.
        c.undeploy(h.tenant()).unwrap();
        assert_eq!(c.switch().nic_count(), 0);
        // Recovery restores the board's capacity, once.
        assert_eq!(c.resources().health_of(home), FpgaHealth::Offline);
        c.recover_fpga(home);
        c.recover_fpga(home);
        assert_eq!(c.resources().health_of(home), FpgaHealth::Online);
        assert_eq!(c.resources().total_free(), 60);
        assert_eq!(status(&c).fpga_recoveries, 1);
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
        assert_eq!(report.torn_down, vec![h.tenant().raw()]);
        assert!(live(&c).is_empty());
        assert_eq!(c.switch().nic_count(), 0);
        assert_eq!(c.memory_of(0).tenant_count(), 0);
        assert_eq!(c.arbiter_of(0).total_demand_gbps(), 0.0);
        assert_eq!(status(&c).tenants_torn_down, 1);
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
        assert_eq!(status(&c).evacuations, 1);
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
        assert_eq!(report.unmoved, vec![a.tenant().raw()]);
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
            assert!(status(&c).live_tenants.contains(&m.tenant));
        }
        assert!(parked(&c).is_empty());
        drop(spanners);
    }
}
