//! Checkpoint capsules: suspend and restore, live migration, and the
//! geometry-independent portable format (DESIGN.md §11, §17) — plus the
//! interface-clock model the quiesce protocol runs against.

use crate::checkpoint::{
    quiesce_all, ChannelCheckpoint, PlacementMeta, PortableCheckpoint, ScanState, TenantCheckpoint,
};
use vital_interface::Channel;
use vital_periph::TenantId;

use super::admission::TenantState;
use super::{DeployHandle, State, SystemController, Tenant};
use crate::api::{MigratePolicy, MigrationSummary, SuspendSummary};
use crate::RuntimeError;

impl TenantState {
    /// Advances the interface clock by `cycles` with the producers
    /// clock-gated: no flit is injected, in-flight flits keep propagating.
    fn settle(&mut self, cycles: u64) {
        self.clock = self.clock.saturating_add(cycles);
        for ch in &mut self.channels {
            ch.advance(self.clock);
        }
    }
}

impl SystemController {
    /// Advances a tenant's interface clock by `cycles` of *activity*: the
    /// producer of every channel injects whenever it holds a credit, flits
    /// propagate, and the consumer drains at a third of the producer rate
    /// (so FIFOs accumulate real occupancy). This is the software model's
    /// stand-in for the user logic running.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTenant`] for undeployed tenants.
    pub fn run_tenant(&self, tenant: TenantId, cycles: u64) -> Result<(), RuntimeError> {
        let mut state = self.write();
        let live = state.fabric(tenant)?;
        let start = live.clock;
        for now in start..start.saturating_add(cycles) {
            for ch in &mut live.channels {
                if ch.can_push(now) {
                    ch.push(now);
                }
                ch.advance(now);
                if now % 3 == 0 {
                    ch.pop(now);
                }
            }
        }
        live.clock = start.saturating_add(cycles);
        Ok(())
    }

    /// Advances a tenant's interface clock by `cycles` with the producers
    /// clock-gated: no flit is injected, in-flight flits keep propagating.
    /// This is how the quiesce protocol waits out an open serialization
    /// window before a retrying [`SystemController::suspend`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTenant`] for undeployed tenants.
    pub fn settle_tenant(&self, tenant: TenantId, cycles: u64) -> Result<(), RuntimeError> {
        self.write().fabric(tenant)?.settle(cycles);
        Ok(())
    }

    /// Receiver-FIFO occupancy of each live channel of a tenant, in plan
    /// order (monitoring; also what the round-trip tests compare).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTenant`] for undeployed tenants.
    pub fn channel_occupancy(&self, tenant: TenantId) -> Result<Vec<usize>, RuntimeError> {
        Ok(self
            .state
            .lock()
            .fabric(tenant)?
            .channels
            .iter()
            .map(|c| c.occupancy() + c.in_flight())
            .collect())
    }

    /// Suspends a deployed tenant: quiesces every channel at the tenant's
    /// current clock (refusing — with nothing touched — if any channel is
    /// still mid-serialization-window), exports its DRAM pages, captures
    /// placement and bandwidth metadata, frees every physical resource,
    /// and parks the resulting [`TenantCheckpoint`] for a later
    /// [`SystemController::resume`]. The capsule is also returned for
    /// inspection or external storage.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownTenant`] for undeployed tenants.
    /// * [`RuntimeError::Quiesce`] if a serialization window is open; call
    ///   [`SystemController::settle_tenant`] past the reported cycle and
    ///   retry — the failed attempt has no side effects.
    /// * [`RuntimeError::UnknownApp`] / [`RuntimeError::Periph`] if the
    ///   bitstream or DRAM space vanished out from under the tenant.
    pub fn suspend(&self, tenant: TenantId) -> Result<TenantCheckpoint, RuntimeError> {
        self.suspend_in(&mut self.write(), tenant)
    }

    /// [`SystemController::suspend`] inside the caller's transaction.
    fn suspend_in(
        &self,
        state: &mut State,
        tenant: TenantId,
    ) -> Result<TenantCheckpoint, RuntimeError> {
        let mut span = self.telemetry.span("runtime.suspend");
        span.field("tenant", tenant.raw());
        let live = state.fabric(tenant)?;
        let bitstream = self.bitstreams().get(&live.handle.placed().app)?;
        let plan = bitstream.channel_plan();
        let clock = live.clock;
        // Atomic: either every channel drains or none is touched.
        let snapshots = quiesce_all(&mut live.channels, clock).map_err(RuntimeError::Quiesce)?;
        let handle = live.handle.clone();
        let blocks: Vec<_> = handle.placed().addresses().collect();
        let memory = self.memory[handle.primary_fpga()]
            .export_space(tenant)
            .map_err(RuntimeError::Periph)?;
        let channels = plan
            .channels()
            .iter()
            .zip(snapshots)
            .map(|(pc, snapshot)| ChannelCheckpoint {
                from_block: pc.from_block,
                to_block: pc.to_block,
                snapshot,
            })
            .collect();
        let checkpoint = TenantCheckpoint {
            tenant,
            placement: PlacementMeta {
                app: handle.placed().app.clone(),
                needed_blocks: handle.placed().bindings.len(),
                clock,
                primary_fpga: handle.primary_fpga(),
                fpgas_spanned: handle.fpga_count(),
                hop_cost: self.placement_hop_cost(&blocks),
                requested_gbps: handle.bandwidth().requested_gbps,
            },
            channels,
            memory,
        };
        // The capsule now holds the truth (the DRAM bytes were exported
        // above), so the teardown is best-effort.
        let _ = self.teardown(&handle);
        span.field("flits", checkpoint.total_flits());
        span.field("dram_bytes", checkpoint.dram_bytes());
        self.telemetry.inc_counter("runtime.suspends", 1);
        state
            .tenants
            .insert(tenant, Tenant::Parked(checkpoint.clone()));
        Ok(checkpoint)
    }

    /// [`ControlRequest::Checkpoint`](crate::ControlRequest::Checkpoint):
    /// suspends the tenant and summarizes the parked capsule. The capsule
    /// is portable whenever its image (and thus scan interface) is still
    /// registered; the summary advertises that.
    pub(super) fn checkpoint(&self, tenant: TenantId) -> Result<SuspendSummary, RuntimeError> {
        let capsule = self.suspend(tenant)?;
        let summary = SuspendSummary::from(&capsule);
        Ok(match self.lift_portable(&capsule) {
            Ok(portable) => summary.with_portability(portable.scan_bits()),
            Err(_) => summary,
        })
    }

    /// Resumes a tenant from its parked checkpoint (see
    /// [`SystemController::suspend`]): re-placed with the
    /// communication-aware allocator, DRAM and channel contents restored
    /// byte-for-byte, same [`TenantId`]. On failure the capsule stays
    /// parked, so the resume can be retried once capacity frees up.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::NotSuspended`] if no checkpoint is parked.
    /// * [`RuntimeError::UnknownApp`] if the capsule's application is no
    ///   longer registered.
    /// * [`RuntimeError::InsufficientResources`] when no placement fits.
    /// * [`RuntimeError::Periph`] / [`RuntimeError::BandwidthUnavailable`]
    ///   for DRAM or bandwidth admission failures.
    pub fn resume(&self, tenant: TenantId) -> Result<DeployHandle, RuntimeError> {
        let mut state = self.write();
        let admitted = self.resume_in(&state, tenant)?;
        Ok(state.go_live(admitted))
    }

    /// Admits `tenant`'s parked capsule inside the caller's transaction;
    /// the capsule stays parked until the caller publishes the result.
    fn resume_in(&self, state: &State, tenant: TenantId) -> Result<TenantState, RuntimeError> {
        let capsule = state
            .parked(tenant)
            .ok_or(RuntimeError::NotSuspended(tenant))?;
        let bitstream = self.bitstreams().get(&capsule.placement.app)?;
        self.restore(state, capsule, &bitstream)
    }

    /// [`ControlRequest::Migrate`](crate::ControlRequest::Migrate):
    /// migrates `tenant` in one step — wait out any open serialization
    /// window (the migration machinery may stall the producer, unlike an
    /// explicit [`SystemController::suspend`], which reports it), suspend,
    /// and re-admit — on the same image under
    /// [`MigratePolicy::SameGeometry`], through the portable format and
    /// the build farm under [`MigratePolicy::Portable`] (same observable
    /// behaviour on one geometry; only logical state crosses, so the
    /// capsule survives a geometry change). Channel contents and DRAM
    /// bytes survive; the blocks (and possibly the primary FPGA) change.
    /// The summary records the policy that actually ran: `Auto` tries the
    /// same-geometry path first and resolves to the winner, never itself.
    ///
    /// Because the tenant's own blocks are freed before re-placement, the
    /// allocator sees them as candidates — a migration can therefore both
    /// consolidate (fewer FPGAs) and stay put (same blocks re-chosen).
    ///
    /// A same-geometry migration is one transaction. A portable one parks
    /// the tenant, resolves its image through the build farm without the
    /// lock, and re-admits it in a second transaction.
    ///
    /// # Errors
    ///
    /// Everything suspend and restore can return; under `Auto` the fast
    /// path's error is reported if the portable fallback cannot help
    /// either. If the restore half fails (e.g. the cluster shrank
    /// mid-flight), the checkpoint stays parked: the tenant is suspended,
    /// not lost — resume it once capacity returns.
    /// [`RuntimeError::UnknownTenant`] if the tenant was undeployed while
    /// it was in flight: it stays gone.
    pub(super) fn migrate(
        &self,
        tenant: TenantId,
        policy: MigratePolicy,
    ) -> Result<MigrationSummary, RuntimeError> {
        if policy == MigratePolicy::Portable {
            return self.migrate_portable(tenant);
        }
        // One statement, so the transaction ends before any fallback.
        let fast = self.migrate_in(&mut self.write(), tenant);
        match fast {
            Err(first) if policy == MigratePolicy::Auto => {
                // The fast path parks the capsule before re-admitting; if
                // it died after that point, retry the restore half through
                // the portable format. If it died earlier the tenant is
                // still live and the full portable migration runs. The
                // fallback's own error is less informative than the fast
                // path's, so `first` wins on a double failure.
                let parked = self.state.lock().parked(tenant).cloned();
                match parked {
                    Some(capsule) => self.readmit_portable(&capsule),
                    None => self.migrate_portable(tenant),
                }
                .map_err(|_| first)
            }
            fast => fast,
        }
    }

    /// A portable migration: suspend in one transaction, resolve the image
    /// through the build farm, re-admit in a second.
    fn migrate_portable(&self, tenant: TenantId) -> Result<MigrationSummary, RuntimeError> {
        let mut span = self.telemetry.span("runtime.migrate_portable");
        span.field("tenant", tenant.raw());
        let capsule = self.suspend_quiesced(&mut self.write(), tenant)?;
        let migration = self.readmit_portable(&capsule)?;
        span.field("fpgas_before", migration.fpgas_before);
        span.field("fpgas_after", migration.fpgas_after);
        self.telemetry.inc_counter("runtime.portable_migrations", 1);
        Ok(migration)
    }

    /// A same-geometry migration inside the caller's transaction. If the
    /// restore half fails the tenant stays parked.
    pub(super) fn migrate_in(
        &self,
        state: &mut State,
        tenant: TenantId,
    ) -> Result<MigrationSummary, RuntimeError> {
        let mut span = self.telemetry.span("runtime.migrate_live");
        span.field("tenant", tenant.raw());
        let capsule = self.suspend_quiesced(state, tenant)?;
        let admitted = self.resume_in(state, tenant)?;
        let migration = self.moved(&capsule, &state.go_live(admitted));
        span.field("fpgas_before", migration.fpgas_before);
        span.field("fpgas_after", migration.fpgas_after);
        self.telemetry.inc_counter("runtime.live_migrations", 1);
        Ok(migration)
    }

    /// Waits out any open serialization window of `tenant`'s channels,
    /// then suspends it.
    fn suspend_quiesced(
        &self,
        state: &mut State,
        tenant: TenantId,
    ) -> Result<TenantCheckpoint, RuntimeError> {
        let live = state.fabric(tenant)?;
        let ready = live
            .channels
            .iter()
            .map(Channel::quiesce_ready_at)
            .max()
            .unwrap_or(0);
        if live.clock < ready {
            live.settle(ready - live.clock);
        }
        self.suspend_in(state, tenant)
    }

    /// The record of a same-geometry move that parked `capsule` and came
    /// back as `handle`.
    fn moved(&self, capsule: &TenantCheckpoint, handle: &DeployHandle) -> MigrationSummary {
        let before = (capsule.placement.fpgas_spanned, capsule.placement.hop_cost);
        let blocks: Vec<_> = handle.placed().addresses().collect();
        self.migration_record(capsule.tenant, before, &blocks)
    }

    /// The restore half of a portable migration, from the capsule its
    /// suspend half parked; also the [`MigratePolicy::Auto`] fallback when
    /// the fast path parked a capsule and then failed to re-admit it. The
    /// image is resolved without the lock. A capsule that is no longer
    /// parked was discarded by an `Undeploy` in between, which was
    /// answered `Undeployed` — the tenant must not come back.
    fn readmit_portable(
        &self,
        parked: &TenantCheckpoint,
    ) -> Result<MigrationSummary, RuntimeError> {
        let still_parked = |state: &State| state.parked(parked.tenant) == Some(parked);
        let handle = self.restore_portable_if(&self.lift_portable(parked)?, still_parked)?;
        Ok(MigrationSummary {
            policy: MigratePolicy::Portable,
            ..self.moved(parked, &handle)
        })
    }

    /// Lifts the parked capsule of a suspended tenant into the versioned,
    /// geometry-independent [`PortableCheckpoint`] format (DESIGN.md §17):
    /// the logical state keyed by netlist digest plus the compiled image's
    /// scan-chain footprint. The tenant stays parked — exporting is
    /// read-only.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NotSuspended`] if the tenant has no parked
    /// checkpoint; [`RuntimeError::UnknownApp`] if its bitstream was
    /// removed while parked.
    pub fn portable_of(&self, tenant: TenantId) -> Result<PortableCheckpoint, RuntimeError> {
        let capsule = self.state.lock().parked(tenant).cloned();
        self.lift_portable(&capsule.ok_or(RuntimeError::NotSuspended(tenant))?)
    }

    /// Builds the portable form of a capsule: netlist digest and scan
    /// footprint come from the registered image, the geometry stamp from
    /// this controller.
    fn lift_portable(
        &self,
        capsule: &TenantCheckpoint,
    ) -> Result<PortableCheckpoint, RuntimeError> {
        let bitstream = self.bitstreams().get(&capsule.placement.app)?;
        let scan: Vec<ScanState> = bitstream
            .scan()
            .chains
            .iter()
            .map(|c| ScanState {
                virtual_block: c.virtual_block,
                ff_bits: c.ff_bits,
                bram_bits: c.bram_bits,
            })
            .collect();
        Ok(PortableCheckpoint::from_capsule(
            capsule,
            bitstream.digest().as_u64(),
            self.geometry.clone(),
            scan,
        ))
    }

    /// Restores a tenant from a [`PortableCheckpoint`], possibly exported
    /// on a controller with a *different* fabric geometry. The capsule's
    /// netlist digest is resolved against the local build farm —
    /// registered image, digest index, or a full recompile through the
    /// [`AppResolver`](crate::AppResolver) (cache-hit-or-recompile,
    /// DESIGN.md §17) — and the resolved image's scan interface must match
    /// the capsule chain for chain before any state moves.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] on a version or scan-interface
    /// mismatch, [`RuntimeError::UnknownApp`] if the digest cannot be
    /// resolved, plus everything resume can return. On failure the
    /// caller's capsule is untouched — restoring is idempotent-safe.
    pub fn restore_portable(
        &self,
        portable: &PortableCheckpoint,
    ) -> Result<DeployHandle, RuntimeError> {
        self.restore_portable_if(portable, |_| true)
    }

    /// [`SystemController::restore_portable`] in two halves. The farm half
    /// runs without the lock: it checks the version, resolves the image
    /// for the capsule's digest — compiling it if need be — and checks its
    /// scan interface. The transaction half admits the tenant if `still`
    /// holds by then, and answers [`RuntimeError::UnknownTenant`] if not.
    fn restore_portable_if(
        &self,
        portable: &PortableCheckpoint,
        still: impl FnOnce(&State) -> bool,
    ) -> Result<DeployHandle, RuntimeError> {
        portable
            .version
            .check("portable checkpoint")
            .map_err(RuntimeError::InvalidConfig)?;
        let mut span = self.telemetry.span("runtime.restore_portable");
        span.field("tenant", portable.tenant.raw());
        span.field("app", portable.placement.app.as_str());
        span.field("source_geometry", portable.source_geometry.as_str());
        let bitstream = self.farm.image_for_digest(
            &portable.placement.app,
            portable.app_digest,
            &self.telemetry,
        )?;
        let chains = &bitstream.scan().chains;
        let matches = chains.len() == portable.scan.len()
            && chains.iter().zip(&portable.scan).all(|(c, s)| {
                c.virtual_block == s.virtual_block
                    && c.ff_bits == s.ff_bits
                    && c.bram_bits == s.bram_bits
            });
        if !matches {
            return Err(RuntimeError::InvalidConfig(format!(
                "portable checkpoint of {:?} does not match the compiled image's scan interface",
                portable.placement.app
            )));
        }
        let mut state = self.write();
        if !still(&state) {
            return Err(RuntimeError::UnknownTenant(portable.tenant));
        }
        let admitted = self.restore(&state, &portable.to_capsule(), &bitstream)?;
        self.telemetry.inc_counter("runtime.portable_restores", 1);
        Ok(state.go_live(admitted))
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::RuntimeConfig;
    use super::*;
    use crate::api::{ControlRequest, ControlResponse};
    use vital_interface::{ChannelSpec, LinkClass};

    #[test]
    fn suspend_resume_roundtrip_is_lossless() {
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        register_chained(&c, "a", 40, 64); // 3 blocks, with channels
        let h = c.deploy("a").unwrap();
        let t = h.tenant();
        c.memory_of(h.primary_fpga())
            .write(t, 4096, b"survives")
            .unwrap();
        c.run_tenant(t, 64).unwrap();
        let occupancy = c.channel_occupancy(t).unwrap();
        assert!(
            occupancy.iter().sum::<usize>() > 0,
            "running the tenant must leave flits in flight"
        );
        let free_before = c.resources().total_free();

        let checkpoint = c.suspend(t).unwrap();
        assert_eq!(checkpoint.tenant, t);
        assert!(checkpoint.total_flits() > 0);
        assert!(checkpoint.dram_bytes() > 0);
        // Fully off the cluster: blocks, DRAM, bandwidth and NIC are free.
        assert!(live(&c).is_empty());
        assert_eq!(parked(&c), vec![t]);
        assert!(c.resources().total_free() > free_before);
        assert_eq!(c.memory_of(h.primary_fpga()).tenant_count(), 0);
        assert_eq!(c.switch().nic_count(), 0);
        assert!(matches!(
            c.run_tenant(t, 1),
            Err(RuntimeError::UnknownTenant(_))
        ));

        let h2 = c.resume(t).unwrap();
        assert_eq!(h2.tenant(), t, "tenant id survives the round trip");
        assert_eq!(live(&c), vec![t]);
        assert!(parked(&c).is_empty());
        // Channel occupancy is reproduced exactly, in plan order.
        assert_eq!(c.channel_occupancy(t).unwrap(), occupancy);
        // DRAM contents are reproduced byte-for-byte.
        let mut buf = [0u8; 8];
        c.memory_of(h2.primary_fpga())
            .read(t, 4096, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"survives");
        // The bandwidth share was re-requested at the checkpointed value.
        assert_eq!(
            h2.bandwidth().requested_gbps,
            checkpoint.placement.requested_gbps
        );
        // A fresh deployment must not collide with the resumed id.
        let other = c.deploy("a").unwrap();
        assert_ne!(other.tenant(), t);
        // And the tenant keeps running from where it stopped.
        c.run_tenant(t, 16).unwrap();
        c.undeploy(t).unwrap();
        c.undeploy(other.tenant()).unwrap();
    }

    #[test]
    fn suspend_mid_serialization_window_is_rejected_cleanly() {
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        register_chained(&c, "a", 40, 64); // 3 blocks, with channels
        let h = c.deploy("a").unwrap();
        let t = h.tenant();
        c.run_tenant(t, 8).unwrap();
        // Put one channel onto the inter-FPGA ring with a flit wider than
        // the link moves per cycle: the push opens a multi-cycle
        // serialization window that is still open at the current clock.
        {
            let spec = ChannelSpec::for_link(LinkClass::InterFpga, 512);
            assert!(
                spec.serialization_interval > 1,
                "512-bit flits must serialize over the 100 Gb/s ring"
            );
            let mut ch = Channel::new(spec);
            let mut state = c.state.lock();
            let live = state.fabric(t).unwrap();
            ch.push(live.clock);
            live.channels[0] = ch;
        }
        let err = c.suspend(t).unwrap_err();
        let RuntimeError::Quiesce(vital_interface::QuiesceError::MidSerialization {
            now,
            ready_at,
        }) = err
        else {
            panic!("expected a quiesce rejection, got {err}");
        };
        assert_eq!(now, 8);
        assert!(ready_at > now);
        // The rejection had no side effects: still deployed, still running.
        assert_eq!(live(&c), vec![t]);
        assert!(parked(&c).is_empty());
        assert!(c.channel_occupancy(t).is_ok());
        // Clock-gate the producers past the window and retry.
        c.settle_tenant(t, ready_at - now).unwrap();
        let checkpoint = c.suspend(t).unwrap();
        assert_eq!(checkpoint.tenant, t);
        assert!(checkpoint.total_flits() > 0);
    }

    #[test]
    fn migration_preserves_channel_and_dram_state() {
        // Free a board, then live-migrate a spanning tenant onto it — an
        // app whose channels carry real traffic.
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        register_dsp_bound(&c, "eight", 3_700);
        register_chained(&c, "nine", 130, 64); // 9 blocks, dozens of channels
        let fillers: Vec<_> = (0..4).map(|_| c.deploy("eight").unwrap()).collect();
        let spanner = c.deploy("nine").unwrap();
        assert!(spanner.fpga_count() > 1);
        let t = spanner.tenant();
        c.memory_of(spanner.primary_fpga())
            .write(t, 0, b"payload")
            .unwrap();
        c.run_tenant(t, 200).unwrap();
        let occupancy = c.channel_occupancy(t).unwrap();
        assert!(occupancy.iter().sum::<usize>() > 0);

        c.undeploy(fillers[0].tenant()).unwrap();
        let m = c.migrate(t, MigratePolicy::SameGeometry).unwrap();
        assert_eq!(m.tenant, t.raw());
        assert_eq!(m.fpgas_after, 1);
        assert!(m.hop_cost_after <= m.hop_cost_before);
        // The tenant is live (not parked) on the new placement with its
        // interface and DRAM state intact.
        assert!(live(&c).contains(&t));
        assert!(parked(&c).is_empty());
        assert_eq!(c.channel_occupancy(t).unwrap(), occupancy);
        let new_primary = SystemController::primary_of(&c.resources().holdings(t));
        let mut buf = [0u8; 7];
        c.memory_of(new_primary).read(t, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        c.run_tenant(t, 16).unwrap();
    }

    #[test]
    fn undeploy_discards_a_parked_capsule() {
        let c = controller_with(&[("a", 8)]);
        let t = c.deploy("a").unwrap().tenant();
        c.suspend(t).unwrap();
        let parked = |c: &SystemController| match c.execute(ControlRequest::Status) {
            ControlResponse::Status(s) => s.suspended_tenants,
            other => panic!("unexpected status answer: {other:?}"),
        };
        assert_eq!(parked(&c), vec![t.raw()]);

        let resp = c.execute(ControlRequest::undeploy(t));
        assert_eq!(resp, ControlResponse::Undeployed { tenant: t.raw() });
        assert!(parked(&c).is_empty(), "the capsule is gone");
        assert!(matches!(c.resume(t), Err(RuntimeError::NotSuspended(_))));
        // Gone for good: a second undeploy finds nothing to discard.
        assert!(matches!(c.undeploy(t), Err(RuntimeError::UnknownTenant(_))));
    }

    /// A portable migration parks the tenant's capsule while the build
    /// farm resolves its image (a same-geometry one is one transaction and
    /// has no such window). An `Undeploy` landing in that window is
    /// answered `Undeployed`, so the restore half must not bring the
    /// tenant back — nor overwrite a newer capsule parked in between.
    #[test]
    fn undeploy_between_the_halves_of_a_migration_keeps_the_tenant_gone() {
        let c = controller_with(&[("a", 8)]);
        let free = c.resources().total_free();
        let t = c.deploy("a").unwrap().tenant();
        let capsule = c.suspend(t).unwrap();
        c.undeploy(t).unwrap();
        let err = c.readmit_portable(&capsule).unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownTenant(_)), "got {err}");
        assert!(live(&c).is_empty());
        assert!(parked(&c).is_empty());
        assert_eq!(c.resources().total_free(), free);
        assert_eq!(c.switch().nic_count(), 0);

        let t = c.deploy("a").unwrap().tenant();
        let stale = c.suspend(t).unwrap();
        c.resume(t).unwrap();
        c.run_tenant(t, 5).unwrap();
        let newer = c.suspend(t).unwrap();
        let err = c.readmit_portable(&stale).unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownTenant(_)), "got {err}");
        assert_eq!(c.portable_of(t).unwrap(), c.lift_portable(&newer).unwrap());
    }

    /// The same property under real concurrency: a tenant is migrated
    /// back to back while an `Undeploy` lands at an arbitrary point. Once
    /// the `Undeploy` has succeeded the tenant is neither live nor parked
    /// and holds nothing.
    #[test]
    fn undeploy_racing_a_migration_never_leaves_the_tenant_live() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let c = controller_with(&[("a", 8)]);
        let free = c.resources().total_free();
        for policy in [MigratePolicy::SameGeometry, MigratePolicy::Auto]
            .into_iter()
            .cycle()
            .take(200)
        {
            let t = c.deploy("a").unwrap().tenant();
            let migrations = AtomicUsize::new(0);
            std::thread::scope(|s| {
                // Bounded, so a tenant that comes back after its undeploy
                // fails the asserts below instead of migrating forever.
                let migrator = s.spawn(|| {
                    for _ in 0..10_000 {
                        if c.migrate(t, policy).is_err() {
                            break;
                        }
                        migrations.fetch_add(1, Ordering::Relaxed);
                    }
                });
                while migrations.load(Ordering::Relaxed) == 0 && !migrator.is_finished() {
                    std::thread::yield_now();
                }
                // The tenant is live or parked at every instant, so the
                // `Undeploy` finds it wherever the migration is.
                c.undeploy(t).unwrap();
            });
            assert!(live(&c).is_empty());
            assert!(parked(&c).is_empty());
            assert_eq!(c.resources().total_free(), free);
            assert_eq!(c.switch().nic_count(), 0);
        }
    }
}
