//! Admission, teardown and relocation: everything that claims or releases
//! a fabric tenant's physical resources.
//!
//! Every path that puts a tenant on the cluster — a fresh deploy, a
//! capsule restore, the restore half of a migration — runs the one
//! transaction in [`SystemController::admit`]; every path that takes one
//! off runs [`SystemController::teardown`].

use std::sync::atomic::Ordering;
use std::time::Duration;

use vital_checkpoint::TenantCheckpoint;
use vital_compiler::{AppBitstream, PlacedBitstream};
use vital_fabric::BlockAddr;
use vital_interface::Channel;
use vital_periph::{ShareGrant, TenantId, VirtualNic};
use vital_telemetry::Span;

use super::placement::{fpgas_of, targets_for};
use super::SystemController;
use crate::{FpgaHealth, RuntimeError};

/// A live deployment returned by [`SystemController::deploy`].
#[derive(Debug, Clone)]
pub struct DeployHandle {
    tenant: TenantId,
    placed: PlacedBitstream,
    nic: VirtualNic,
    primary_fpga: usize,
    reconfig: Duration,
    bandwidth: ShareGrant,
}

impl DeployHandle {
    /// The tenant id owning this deployment.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The bound bitstream (which physical blocks are used).
    pub fn placed(&self) -> &PlacedBitstream {
        &self.placed
    }

    /// The tenant's virtual NIC.
    pub fn nic(&self) -> VirtualNic {
        self.nic
    }

    /// The FPGA hosting the majority of the blocks (and the tenant's DRAM).
    pub fn primary_fpga(&self) -> usize {
        self.primary_fpga
    }

    /// Distinct FPGAs the deployment spans.
    pub fn fpga_count(&self) -> usize {
        self.placed.fpga_count()
    }

    /// Modelled partial-reconfiguration time for this deployment.
    pub fn reconfig_duration(&self) -> Duration {
        self.reconfig
    }

    /// The DRAM bandwidth share granted at admission time. The live grant
    /// shifts as tenants come and go — query
    /// [`SystemController::arbiter_of`] for the current value.
    pub fn bandwidth(&self) -> ShareGrant {
        self.bandwidth
    }
}

/// One completed tenant relocation: the tenant's logic moved to a new set
/// of physical blocks by partial reconfiguration — never recompilation —
/// whether triggered by [`SystemController::defragment`],
/// [`SystemController::evacuate`], or [`SystemController::fail_fpga`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// The migrated tenant.
    pub tenant: TenantId,
    /// Distinct FPGAs spanned before the move.
    pub fpgas_before: usize,
    /// Distinct FPGAs spanned after the move.
    pub fpgas_after: usize,
    /// Modelled partial-reconfiguration time to program the new blocks —
    /// the downtime the move charges the tenant.
    pub reconfig: Duration,
    /// Total ring-hop cost of the placement before the move.
    pub hop_cost_before: usize,
    /// Total ring-hop cost of the placement after the move. Defragmentation
    /// never lets this exceed `hop_cost_before`.
    pub hop_cost_after: usize,
}

pub(super) struct TenantState {
    pub(super) handle: DeployHandle,
    /// Live latency-insensitive channels of the tenant's interface, one
    /// per planned channel, with link classes derived from the current
    /// placement. This is the state a suspend must not lose.
    pub(super) channels: Vec<Channel>,
    /// The tenant's interface clock in cycles; advances via
    /// [`SystemController::run_tenant`] / [`SystemController::settle_tenant`].
    pub(super) clock: u64,
}

/// What an admission builds the tenant's state from.
pub(super) enum AdmitFrom<'a> {
    /// A fresh deployment: an empty DRAM space of `quota_bytes`, the
    /// default bandwidth ask, idle channels, clock zero.
    Scratch { quota_bytes: u64 },
    /// A checkpoint capsule: its DRAM image, its bandwidth ask, its
    /// channel contents at its clock.
    Capsule(&'a TenantCheckpoint),
}

/// RAII rollback for a half-built deployment: every resource acquired so
/// far — claimed blocks, DRAM space, bandwidth share — is released on drop
/// unless [`TeardownGuard::commit`] disarms the guard. `deploy` is
/// transactional because every early return runs through this drop. (The
/// vNIC is created after the last early return, so the guard never holds
/// one.)
struct TeardownGuard<'a> {
    ctl: &'a SystemController,
    tenant: TenantId,
    blocks_claimed: bool,
    memory_fpga: Option<usize>,
    arbiter_fpga: Option<usize>,
    armed: bool,
}

impl<'a> TeardownGuard<'a> {
    fn new(ctl: &'a SystemController, tenant: TenantId) -> Self {
        TeardownGuard {
            ctl,
            tenant,
            blocks_claimed: false,
            memory_fpga: None,
            arbiter_fpga: None,
            armed: true,
        }
    }

    fn commit(mut self) {
        self.armed = false;
    }
}

impl Drop for TeardownGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Unwind in reverse acquisition order; each step is independent so
        // one failing never skips the rest.
        if let Some(f) = self.arbiter_fpga.take() {
            let _ = self.ctl.arbiters[f].release(self.tenant);
        }
        if let Some(f) = self.memory_fpga.take() {
            let _ = self.ctl.memory[f].destroy_space(self.tenant);
        }
        if self.blocks_claimed {
            self.ctl.resources.release(self.tenant);
        }
    }
}

impl SystemController {
    /// Deploys a registered application: allocates physical blocks with the
    /// communication-aware policy, binds the relocatable bitstream to them,
    /// provisions DRAM and a virtual NIC, and models the per-block partial
    /// reconfiguration.
    ///
    /// The deployment is **transactional**: an RAII guard unwinds every
    /// resource acquired so far (claimed blocks, DRAM space, bandwidth
    /// share) on any failure path, so a failed deploy leaves no trace.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownApp`] for unregistered names.
    /// * [`RuntimeError::InsufficientResources`] when the cluster is full.
    /// * [`RuntimeError::Periph`] if DRAM provisioning fails.
    /// * [`RuntimeError::BandwidthUnavailable`] when
    ///   [`RuntimeConfig::min_bandwidth_fraction`](super::RuntimeConfig::min_bandwidth_fraction)
    ///   gates admission and the arbiter cannot grant the floor.
    pub fn deploy(&self, name: &str) -> Result<DeployHandle, RuntimeError> {
        self.deploy_fresh(name, 0)
    }

    /// [`SystemController::deploy`] under an explicit DRAM quota (`0` =
    /// the configured default): the fabric half of
    /// [`ControlRequest::Deploy`](crate::ControlRequest::Deploy).
    pub(super) fn deploy_fresh(
        &self,
        name: &str,
        quota_bytes: u64,
    ) -> Result<DeployHandle, RuntimeError> {
        let _dirty = self.mark_status_dirty();
        let quota_bytes = if quota_bytes == 0 {
            self.config.default_quota_bytes
        } else {
            quota_bytes
        };
        let mut span = self.telemetry.span("runtime.deploy");
        span.field("app", name);
        self.farm.record_demand(name);
        let bitstream = self.bitstreams().get(name)?;
        let tenant = TenantId::new(self.next_tenant.fetch_add(1, Ordering::Relaxed));
        let (handle, hop_cost) = self.admit(
            tenant,
            &bitstream,
            AdmitFrom::Scratch { quota_bytes },
            &mut span,
        )?;
        span.field("tenant", tenant.raw());
        self.telemetry.inc_counter("runtime.deploys", 1);
        self.telemetry
            .record_hist("runtime.deploy_hop_cost", hop_cost as f64);
        Ok(handle)
    }

    /// Restores a tenant from a checkpoint capsule: re-places it with the
    /// communication-aware allocator (possibly on different blocks, FPGAs,
    /// or even a different compatible controller), restores its DRAM pages
    /// byte-for-byte, re-requests its bandwidth share, provisions a fresh
    /// vNIC, and rebuilds its channels — carrying over FIFO contents and
    /// delivery statistics, with link classes re-derived from the new
    /// placement. The tenant keeps its original [`TenantId`].
    ///
    /// Transactional like deploy: any failure unwinds every resource
    /// acquired so far and leaves a parked capsule parked. On success a
    /// checkpoint parked under the same id is discharged.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::TenantActive`] if the tenant is currently
    ///   deployed.
    /// * [`RuntimeError::UnknownApp`] if the capsule's application is not
    ///   registered here.
    /// * [`RuntimeError::InsufficientResources`] when no placement fits.
    /// * [`RuntimeError::Periph`] / [`RuntimeError::BandwidthUnavailable`]
    ///   for DRAM or bandwidth admission failures.
    pub(super) fn restore_capsule(
        &self,
        checkpoint: &TenantCheckpoint,
    ) -> Result<DeployHandle, RuntimeError> {
        let _dirty = self.mark_status_dirty();
        let tenant = checkpoint.tenant;
        if self.tenants.lock().contains_key(&tenant) {
            return Err(RuntimeError::TenantActive(tenant));
        }
        let mut span = self.telemetry.span("runtime.resume");
        span.field("tenant", tenant.raw());
        span.field("app", checkpoint.placement.app.as_str());
        let bitstream = self.bitstreams().get(&checkpoint.placement.app)?;
        let (handle, _) = self.admit(
            tenant,
            &bitstream,
            AdmitFrom::Capsule(checkpoint),
            &mut span,
        )?;
        // The id is back in circulation: future deploys must not collide.
        self.next_tenant
            .fetch_max(tenant.raw() + 1, Ordering::Relaxed);
        self.suspended.lock().remove(&tenant);
        self.telemetry.inc_counter("runtime.resumes", 1);
        Ok(handle)
    }

    /// The admission transaction: place → bind → DRAM and channels →
    /// bandwidth (gated on the configured floor) → vNIC → publish the
    /// tenant.
    /// Any early return drops the [`TeardownGuard`], which releases
    /// whatever was acquired up to that point. Returns the live handle
    /// and the placement's hop cost.
    fn admit(
        &self,
        tenant: TenantId,
        bitstream: &AppBitstream,
        from: AdmitFrom<'_>,
        span: &mut Span,
    ) -> Result<(DeployHandle, usize), RuntimeError> {
        let needed = bitstream.block_count();
        span.field("needed", needed);
        let mut guard = TeardownGuard::new(self, tenant);
        let blocks = self.place(tenant, needed)?;
        guard.blocks_claimed = true;
        // The §3.4 policy's round number equals the FPGAs admitted.
        let fpgas_used = fpgas_of(&blocks);
        let hop_cost = self.placement_hop_cost(&blocks);
        span.field("round", fpgas_used);
        span.field("fpgas_used", fpgas_used);
        span.field("hop_cost", hop_cost);

        let placed = bitstream
            .bind(&targets_for(&blocks))
            .map_err(RuntimeError::Relocation)?;

        let primary_fpga = Self::primary_of(&blocks);
        let memory = &self.memory[primary_fpga];
        let (share, channels, clock) = match from {
            AdmitFrom::Scratch { quota_bytes } => {
                memory
                    .create_space(tenant, quota_bytes)
                    .map_err(RuntimeError::Periph)?;
                let channels = Self::channels_for(bitstream.channel_plan(), &blocks);
                // A quarter of the channel: four blocks share one DIMM in
                // the paper's service region.
                (self.config.dram_gbps / 4.0, channels, 0)
            }
            AdmitFrom::Capsule(checkpoint) => {
                memory
                    .restore_space(tenant, &checkpoint.memory)
                    .map_err(RuntimeError::Periph)?;
                let (channels, clock) = Self::restored_channels(checkpoint, &blocks);
                (checkpoint.placement.requested_gbps, channels, clock)
            }
        };
        guard.memory_fpga = Some(primary_fpga);

        let grant = self.arbiters[primary_fpga].request(tenant, share);
        guard.arbiter_fpga = Some(primary_fpga);
        let floor = self.config.min_bandwidth_fraction * share;
        if grant.granted_gbps + 1e-9 < floor {
            return Err(RuntimeError::BandwidthUnavailable {
                fpga: primary_fpga,
                requested_gbps: share,
                granted_gbps: grant.granted_gbps,
            });
        }

        // Nothing below can fail: the vNIC needs no unwind.
        let handle = DeployHandle {
            tenant,
            placed,
            nic: self.switch.create_nic(tenant, 64),
            primary_fpga,
            reconfig: self.reconfig_of(&blocks),
            bandwidth: grant,
        };
        self.tenants.lock().insert(
            tenant,
            TenantState {
                handle: handle.clone(),
                channels,
                clock,
            },
        );
        guard.commit();
        Ok((handle, hop_cost))
    }

    /// The record of one completed move of `tenant` onto `blocks_after`.
    pub(super) fn migration_record(
        &self,
        tenant: TenantId,
        (fpgas_before, hop_cost_before): (usize, usize),
        fpgas_after: usize,
        reconfig: Duration,
        blocks_after: &[BlockAddr],
    ) -> Migration {
        Migration {
            tenant,
            fpgas_before,
            fpgas_after,
            reconfig,
            hop_cost_before,
            hop_cost_after: self.placement_hop_cost(blocks_after),
        }
    }

    /// Tears down a deployment: frees its blocks, scrubs its DRAM, removes
    /// its NIC and bandwidth share. A parked (checkpointed) tenant is torn
    /// down by discarding its capsule — it holds nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTenant`] if no such deployment
    /// exists (nothing is touched in that case). Any other error is
    /// reported only **after** the teardown has run to completion: every
    /// step — block release, DRAM scrub, bandwidth share, vNIC — is
    /// attempted regardless of earlier failures, so a failing step never
    /// leaks the later ones. The first failure encountered is returned;
    /// the tenant is gone either way.
    pub fn undeploy(&self, tenant: TenantId) -> Result<(), RuntimeError> {
        let _dirty = self.mark_status_dirty();
        let mut span = self.telemetry.span("runtime.undeploy");
        span.field("tenant", tenant.raw());
        let live = self.tenants.lock().remove(&tenant);
        let torn_down = match live {
            Some(state) => self.teardown(&state.handle),
            None if self.release_isa(tenant) => Ok(()),
            None if self.suspended.lock().remove(&tenant).is_some() => Ok(()),
            None => return Err(RuntimeError::UnknownTenant(tenant)),
        };
        self.telemetry.inc_counter("runtime.undeploys", 1);
        torn_down
    }

    /// Best-effort-complete teardown of a removed tenant's resources:
    /// every step runs; the first error is returned.
    pub(super) fn teardown(&self, handle: &DeployHandle) -> Result<(), RuntimeError> {
        let tenant = handle.tenant;
        self.resources.release(tenant);
        let fpga = handle.primary_fpga;
        let mem = self.memory[fpga]
            .destroy_space(tenant)
            .map_err(RuntimeError::Periph);
        let arb = self.arbiters[fpga]
            .release(tenant)
            .map_err(RuntimeError::Periph);
        let nic = self
            .switch
            .destroy_nic(handle.nic)
            .map_err(RuntimeError::Periph);
        mem.and(arb).and(nic)
    }

    /// Re-places one tenant using only Online devices (free blocks plus
    /// the tenant's own still-online blocks) and commits the move. With
    /// `board_dead`, a DRAM space homed on a non-Online board is moved to
    /// the new primary (contents lost — the board crashed); otherwise the
    /// DRAM stays where it is. Returns `None` if no placement fits or the
    /// new primary has no room for the DRAM space (the caller tears the
    /// tenant down).
    pub(super) fn relocate_tenant(&self, tenant: TenantId, board_dead: bool) -> Option<Migration> {
        let (needed, fpgas_before, old_primary) = {
            let tenants = self.tenants.lock();
            let state = tenants.get(&tenant)?;
            (
                state.handle.placed.bindings.len(),
                state.handle.fpga_count(),
                state.handle.primary_fpga,
            )
        };
        let hop_cost_before = self.placement_hop_cost(&self.resources.holdings(tenant));
        // Commit the block move first; everything below follows the
        // placement it settled on.
        let blocks = self.place(tenant, needed).ok()?;
        let new_primary = Self::primary_of(&blocks);

        // Move the DRAM home if its board died: quota carries over,
        // contents cannot.
        let dram_moves = board_dead && self.resources.health_of(old_primary) != FpgaHealth::Online;
        let mut grant = None;
        if dram_moves {
            let quota = self.memory[old_primary]
                .stats(tenant)
                .map(|s| s.quota_bytes)
                .unwrap_or(self.config.default_quota_bytes);
            let _ = self.memory[old_primary].destroy_space(tenant);
            if let Err(e) = self.memory[new_primary].create_space(tenant, quota) {
                // No room for the space: restore the old record so the
                // caller's teardown finds a consistent tenant (it releases
                // whatever blocks the tenant holds by then).
                debug_assert!(matches!(e, vital_periph::PeriphError::OutOfMemory { .. }));
                let _ = self.memory[old_primary].create_space(tenant, quota);
                return None;
            }
            let _ = self.arbiters[old_primary].release(tenant);
            grant = Some(self.arbiters[new_primary].request(tenant, self.config.dram_gbps / 4.0));
        }

        let reconfig = self.reconfig_of(&blocks);
        let mut tenants = self.tenants.lock();
        let state = tenants.get_mut(&tenant)?;
        state.handle.placed.bindings = targets_for(&blocks);
        state.handle.reconfig = reconfig;
        if dram_moves {
            state.handle.primary_fpga = new_primary;
            if let Some(g) = grant {
                state.handle.bandwidth = g;
            }
        }
        // The crash path gives the tenant fresh, empty channels on the new
        // placement: in-flight interface state died with the board (use
        // suspend/migrate_live for the state-preserving path).
        if let Ok(bitstream) = self.bitstreams().get(&state.handle.placed.app) {
            state.channels = Self::channels_for(bitstream.channel_plan(), &blocks);
        }
        Some(self.migration_record(
            tenant,
            (fpgas_before, hop_cost_before),
            fpgas_of(&blocks),
            reconfig,
            &blocks,
        ))
    }

    /// Live tenant ids, sorted.
    pub fn live_tenants(&self) -> Vec<TenantId> {
        let mut v: Vec<TenantId> = self.tenants.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::*;
    use super::super::RuntimeConfig;
    use super::*;
    use vital_cluster::Topology;
    use vital_compiler::{Compiler, CompilerConfig};
    use vital_netlist::hls::{AppSpec, Operator};

    /// 2 pods x 2 FPGAs of 4 blocks, with a 1-block app "one" and a "wide"
    /// app of 5..=8 blocks (returned) registered.
    fn pod_controller() -> (SystemController, usize) {
        let mut cfg = RuntimeConfig::paper_cluster();
        cfg.fpgas = 4;
        cfg.blocks_per_fpga = 4;
        let c = SystemController::new(cfg)
            .with_topology(Topology::pods(2, 2, 100.0, 25.0))
            .unwrap();
        let compiler = Compiler::new(CompilerConfig::default());
        let wide = (1..=40)
            .map(|i| {
                let mut spec = AppSpec::new("wide");
                spec.add_operator("m", Operator::MacArray { pes: i * 250 });
                compiler.compile(&spec).unwrap().into_bitstream()
            })
            .find(|b| b.block_count() > 4 && b.block_count() <= 8)
            .expect("some MAC size needs 5..=8 blocks");
        let width = wide.block_count();
        c.register(wide).unwrap();
        let mut one = AppSpec::new("one");
        one.add_operator("m", Operator::MacArray { pes: 8 });
        register_spec(&c, &one);
        (c, width)
    }

    #[test]
    fn pod_topology_controller_deploys_and_accounts_hops() {
        // A 5..=8-block app must span two FPGAs; the placement keeps the
        // span inside one pod (1 hop) rather than across the 3-hop pod
        // boundary.
        let (c, _) = pod_controller();
        let h = c.deploy("wide").unwrap();
        let holdings = c.resources().holdings(h.tenant());
        let mut fpgas: Vec<u32> = holdings.iter().map(|b| b.fpga.index()).collect();
        fpgas.sort_unstable();
        fpgas.dedup();
        assert_eq!(fpgas.len(), 2, "6 blocks on 4-block FPGAs must span");
        let pods: std::collections::BTreeSet<usize> = fpgas
            .iter()
            .map(|&f| c.topology().pod_of(f as usize))
            .collect();
        assert_eq!(pods.len(), 1, "span crossed a pod boundary: {fpgas:?}");
    }

    /// The controller runs the simulator's pod policy, which never spans
    /// pods: with enough free blocks in the cluster but not in any one pod,
    /// a deploy is refused rather than stretched across the uplinks.
    #[test]
    fn pod_topology_controller_refuses_a_cross_pod_span() {
        let (c, width) = pod_controller();
        let pods_of = |t: TenantId| -> Vec<usize> {
            let holdings = c.resources().holdings(t);
            holdings
                .iter()
                .map(|b| c.topology().pod_of(b.fpga.index() as usize))
                .collect()
        };
        let (pod0, pod1): (Vec<TenantId>, Vec<TenantId>) = (0..16)
            .map(|_| c.deploy("one").unwrap().tenant())
            .partition(|&t| pods_of(t) == [0]);
        // `width - 1` free blocks in pod 0 and one in pod 1.
        for &t in pod0[..width - 1].iter().chain(&pod1[..1]) {
            c.undeploy(t).unwrap();
        }
        let err = c.deploy("wide").unwrap_err();
        assert!(
            matches!(err, RuntimeError::InsufficientResources { needed, free }
                if needed == width && free == width),
            "got {err}"
        );
        assert_eq!(
            c.resources().total_free(),
            width,
            "the refusal held nothing"
        );
        // One more free block in pod 0 and the app fits there.
        c.undeploy(pod0[width - 1]).unwrap();
        let h = c.deploy("wide").unwrap();
        assert!(pods_of(h.tenant()).iter().all(|&p| p == 0));
    }

    #[test]
    fn deploy_and_undeploy_lifecycle() {
        let c = controller_with(&[("a", 8)]);
        let free_before = c.resources().total_free();
        let h = c.deploy("a").unwrap();
        assert!(c.resources().total_free() < free_before);
        assert_eq!(c.live_tenants(), vec![h.tenant()]);
        assert!(h.reconfig_duration() > Duration::ZERO);
        c.undeploy(h.tenant()).unwrap();
        assert_eq!(c.resources().total_free(), free_before);
        assert!(c.live_tenants().is_empty());
    }

    #[test]
    fn unknown_app_and_tenant_errors() {
        let c = controller_with(&[]);
        assert!(matches!(c.deploy("nope"), Err(RuntimeError::UnknownApp(_))));
        assert!(matches!(
            c.undeploy(TenantId::new(42)),
            Err(RuntimeError::UnknownTenant(_))
        ));
    }

    #[test]
    fn tenants_get_isolated_memory_and_nics() {
        let c = controller_with(&[("a", 8), ("b", 8)]);
        let ha = c.deploy("a").unwrap();
        let hb = c.deploy("b").unwrap();
        assert_ne!(ha.tenant(), hb.tenant());
        assert_ne!(ha.nic().mac, hb.nic().mac);
        // No block is shared.
        let blocks_a: Vec<_> = ha.placed().addresses().collect();
        let blocks_b: Vec<_> = hb.placed().addresses().collect();
        assert!(blocks_a.iter().all(|b| !blocks_b.contains(b)));
        // Memory writes do not interfere (same primary FPGA or not).
        let mm_a = c.memory_of(ha.primary_fpga());
        mm_a.write(ha.tenant(), 0, b"aaaa").unwrap();
        let mm_b = c.memory_of(hb.primary_fpga());
        let mut buf = [0u8; 4];
        mm_b.read(hb.tenant(), 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn cluster_exhaustion_is_reported() {
        let c = controller_with(&[("big", 500)]); // ~9+ blocks each
        let mut handles = Vec::new();
        loop {
            match c.deploy("big") {
                Ok(h) => handles.push(h),
                Err(RuntimeError::InsufficientResources { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(handles.len() < 100, "runaway deployment loop");
        }
        assert!(!handles.is_empty());
        // Free one and retry: should fit again.
        c.undeploy(handles.pop().unwrap().tenant()).unwrap();
        assert!(c.deploy("big").is_ok());
    }

    #[test]
    fn heterogeneous_cluster_deploys_across_mixed_devices() {
        // Two big boards and one small one; the same bitstreams deploy
        // everywhere because blocks are identical.
        let c = SystemController::with_layout(RuntimeConfig::paper_cluster(), vec![15, 15, 4]);
        let compiler = Compiler::new(CompilerConfig::default());
        let mut spec = AppSpec::new("het");
        spec.add_operator("m", Operator::MacArray { pes: 100 }); // ~2 blocks
        c.register(compiler.compile(&spec).unwrap().into_bitstream())
            .unwrap();
        let mut handles = Vec::new();
        while let Ok(h) = c.deploy("het") {
            handles.push(h);
        }
        // 34 blocks / 2 per deployment -> 17 instances, some on the small
        // board.
        assert!(handles.len() >= 16, "deployed {}", handles.len());
        let used_small = handles
            .iter()
            .any(|h| h.placed().addresses().any(|a| a.fpga.index() == 2));
        assert!(used_small, "the small board must participate");
    }

    #[test]
    fn undeploy_completes_teardown_when_memory_errors() {
        // Force the destroy_space failure by removing the space out of
        // band: undeploy must still release blocks, the bandwidth share
        // and the vNIC, then report the memory error.
        let c = controller_with(&[("a", 8)]);
        let free_before = c.resources().total_free();
        let h = c.deploy("a").unwrap();
        c.memory_of(h.primary_fpga())
            .destroy_space(h.tenant())
            .unwrap();
        let err = c.undeploy(h.tenant()).unwrap_err();
        assert!(matches!(err, RuntimeError::Periph(_)), "got {err}");
        // Nothing leaked despite the error.
        assert_eq!(c.resources().total_free(), free_before);
        assert_eq!(c.switch().nic_count(), 0);
        assert_eq!(c.arbiter_of(h.primary_fpga()).total_demand_gbps(), 0.0);
        assert!(c.live_tenants().is_empty());
        // The tenant is gone: a second undeploy is UnknownTenant.
        assert!(matches!(
            c.undeploy(h.tenant()),
            Err(RuntimeError::UnknownTenant(_))
        ));
    }

    #[test]
    fn deploy_rolls_back_when_bandwidth_floor_unmet() {
        // One 15-block FPGA; each deploy asks for a quarter of the
        // channel, so the fifth oversubscribes it and must be rejected
        // with nothing left behind.
        let mut config = RuntimeConfig::paper_cluster();
        config.min_bandwidth_fraction = 1.0;
        let c = SystemController::with_layout(config, vec![15]);
        let compiler = Compiler::new(CompilerConfig::default());
        let mut spec = AppSpec::new("one");
        spec.add_operator("m", Operator::MacArray { pes: 8 }); // 1 block
        c.register(compiler.compile(&spec).unwrap().into_bitstream())
            .unwrap();
        let handles: Vec<_> = (0..4).map(|_| c.deploy("one").unwrap()).collect();
        for h in &handles {
            assert!(
                (h.bandwidth().granted_gbps - h.bandwidth().requested_gbps).abs() < 1e-6,
                "undersubscribed grants meet demand: {:?}",
                h.bandwidth()
            );
        }
        let free = c.resources().total_free();
        let spaces = c.memory_of(0).tenant_count();
        let demand = c.arbiter_of(0).total_demand_gbps();
        let err = c.deploy("one").unwrap_err();
        assert!(
            matches!(err, RuntimeError::BandwidthUnavailable { fpga: 0, .. }),
            "got {err}"
        );
        // The rejected deploy left no trace.
        assert_eq!(c.resources().total_free(), free);
        assert_eq!(c.memory_of(0).tenant_count(), spaces);
        assert_eq!(c.arbiter_of(0).total_demand_gbps(), demand);
        assert_eq!(c.switch().nic_count(), 4);
        assert_eq!(c.live_tenants().len(), 4);
        // Freeing one tenant clears the floor again.
        c.undeploy(handles[0].tenant()).unwrap();
        assert!(c.deploy("one").is_ok());
    }

    #[test]
    fn deployments_can_span_fpgas_under_pressure() {
        let c = controller_with(&[("big", 560)]); // 10 blocks (DSP-bound)
        let mut spanned = false;
        let mut handles = Vec::new();
        while let Ok(h) = c.deploy("big") {
            spanned |= h.fpga_count() > 1;
            handles.push(h);
        }
        assert!(
            spanned,
            "10-block apps on 15-block FPGAs must eventually span"
        );
    }

    /// Everything an admission can leak, in one comparable value.
    #[derive(Debug, PartialEq)]
    struct Holdings {
        free_blocks: usize,
        dram_spaces: usize,
        dram_free_bytes: u64,
        share_demand_gbps: f64,
        nics: usize,
        live: Vec<TenantId>,
        parked: Vec<TenantId>,
    }

    fn holdings(c: &SystemController) -> Holdings {
        Holdings {
            free_blocks: c.resources().total_free(),
            dram_spaces: c.memory_of(0).tenant_count(),
            dram_free_bytes: c.memory_of(0).free_bytes(),
            share_demand_gbps: c.arbiter_of(0).total_demand_gbps(),
            nics: c.switch().nic_count(),
            live: c.live_tenants(),
            parked: c.suspended_tenants(),
        }
    }

    /// Tenant ids no admission in these tests hands out. Four of them,
    /// each asking for the whole channel, push the max-min fair share of a
    /// fifth tenant below the quarter channel an admission asks for.
    const OUTSIDERS: std::ops::Range<u64> = 9_000..9_004;

    /// The steps of [`SystemController::admit`] that can fail, in order.
    /// The other two cannot, even from inside the crate: `bind` rejects
    /// only a target list that does not cover the image's virtual blocks
    /// one to one on distinct addresses, and its targets are the
    /// `block_count()` distinct blocks `place` just claimed (its unwind —
    /// blocks only — is the one `Dram` exercises); `create_nic` returns a
    /// NIC, not a `Result`, and runs after the last early return. The
    /// floor gate is that last early return, and by then blocks, DRAM and
    /// the share are all held.
    #[derive(Debug, Clone, Copy)]
    enum FailAt {
        Claim,
        Dram,
        BandwidthFloor,
    }

    impl FailAt {
        /// Arranges for the next admission of `tenant` to fail here.
        fn inject(self, c: &SystemController, tenant: TenantId) {
            match self {
                // No free block left.
                FailAt::Claim => while c.deploy("one").is_ok() {},
                // The tenant's DRAM space already exists.
                FailAt::Dram => c.memory_of(0).create_space(tenant, 1 << 20).unwrap(),
                // The channel is spoken for, and the floor is the full ask.
                FailAt::BandwidthFloor => OUTSIDERS.for_each(|t| {
                    c.arbiter_of(0)
                        .request(TenantId::new(t), c.config().dram_gbps);
                }),
            }
        }

        fn lift(self, c: &SystemController, tenant: TenantId) {
            match self {
                FailAt::Claim => {
                    let filler = *c.live_tenants().last().unwrap();
                    c.undeploy(filler).unwrap();
                }
                FailAt::Dram => c.memory_of(0).destroy_space(tenant).unwrap(),
                FailAt::BandwidthFloor => OUTSIDERS.for_each(|t| {
                    c.arbiter_of(0).release(TenantId::new(t)).unwrap();
                }),
            }
        }

        fn matches(self, err: &RuntimeError) -> bool {
            match self {
                FailAt::Claim => matches!(err, RuntimeError::InsufficientResources { .. }),
                FailAt::Dram => matches!(err, RuntimeError::Periph(_)),
                FailAt::BandwidthFloor => matches!(err, RuntimeError::BandwidthUnavailable { .. }),
            }
        }
    }

    /// Fails each step of the admission transaction in turn, for both of
    /// its callers: the failed admission must hold nothing afterwards, a
    /// failed restore must leave its capsule parked, and the same
    /// admission must succeed once the fault is lifted.
    #[test]
    fn failed_admissions_conserve_every_resource_for_both_callers() {
        for step in [FailAt::Claim, FailAt::Dram, FailAt::BandwidthFloor] {
            for restoring in [false, true] {
                let case = format!("{step:?}, restoring: {restoring}");
                let mut config = RuntimeConfig::paper_cluster();
                config.min_bandwidth_fraction = 1.0;
                let c = SystemController::with_layout(config, vec![3]);
                let mut spec = AppSpec::new("one");
                spec.add_operator("m", Operator::MacArray { pes: 8 }); // 1 block
                register_spec(&c, &spec);

                // The id the admission under test runs as: a parked
                // tenant's, or the next one a deploy draws.
                let tenant = if restoring {
                    let t = c.deploy("one").unwrap().tenant();
                    c.suspend(t).unwrap();
                    t
                } else {
                    TenantId::new(c.next_tenant.load(Ordering::Relaxed))
                };
                let admit = || match restoring {
                    true => c.resume(tenant),
                    false => c.deploy("one"),
                };
                step.inject(&c, tenant);
                let before = holdings(&c);
                assert_eq!(before.parked, Vec::from_iter(restoring.then_some(tenant)));

                let err = admit().expect_err(&case);
                assert!(step.matches(&err), "{case}: {err}");
                assert_eq!(holdings(&c), before, "{case}");

                step.lift(&c, tenant);
                let handle = admit().unwrap_or_else(|e| panic!("{case}: {e}"));
                assert!(c.live_tenants().contains(&handle.tenant()), "{case}");
                assert!(c.suspended_tenants().is_empty(), "{case}");
            }
        }
    }
}
