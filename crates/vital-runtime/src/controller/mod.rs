//! The system controller: ViTAL's API surface toward the higher-level
//! cloud stack (hypervisor), paper Fig. 6.
//!
//! One [`SystemController`] type, its `impl` spread over this module's
//! children by seam: construction, accessors, dispatch and status here;
//! [`admission`] (place, admit, tear down, relocate); [`capsule`]
//! (suspend, restore, migrate, portable checkpoints); [`health`] (fail,
//! recover, evacuate, defragment); [`isa`] (the instruction-level
//! backend). The build farm lives beside the controller in
//! [`crate::farm`].
//!
//! # One lock
//!
//! Everything the controller decides on — the tenant table, the ISA tile
//! pool, the failure counters, the next tenant id and the cached `Status`
//! reply — is one [`State`] behind one mutex, and every public operation
//! is one transaction on it: it takes the lock through
//! [`SystemController::write`], which also drops the cached `Status`, and
//! holds it until its last write. A `Status` is served, or rebuilt,
//! under the same lock, so it is one snapshot by construction.
//!
//! * **Lock order:** state → block table ([`ResourceDatabase`]) →
//!   peripherals ([`MemoryManager`], [`BandwidthArbiter`],
//!   [`VirtualSwitch`]). The block table is written only while the state
//!   lock is held; its own lock lets monitors read it through
//!   [`SystemController::resources`]. The peripherals keep their locks
//!   because tenants read and write DRAM through them directly.
//! * **No farm work under the lock:** nothing that compiles, resolves an
//!   app or persists the farm runs while the state lock is held. A
//!   deploy resolves its bitstream before locking; a lookup of an image
//!   that is already registered ([`BitstreamDatabase::get`], an
//!   in-memory read) may run inside.
//! * **Split operations:** a portable migration, `Auto`'s portable
//!   fallback and [`SystemController::restore_portable`] may have to
//!   compile, so they split at the farm call. The tenant is `Parked` in
//!   between: an `Undeploy` in that window discards the capsule, and the
//!   restore half then answers [`RuntimeError::UnknownTenant`].

mod admission;
mod capsule;
mod health;
mod isa;
mod placement;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::checkpoint::TenantCheckpoint;
use crate::isa::TilePool;
use parking_lot::{Mutex, MutexGuard};
use vital_cluster::Topology;
use vital_compiler::{AppBitstream, Compiler};
use vital_fabric::{BlockAddr, FpgaId, PhysicalBlockId};
use vital_interface::ApiError;
use vital_netlist::hls::AppSpec;
use vital_periph::{BandwidthArbiter, MemoryManager, TenantId, VirtualSwitch};
use vital_telemetry::Telemetry;

use crate::api::{
    ControlRequest, ControlResponse, DeployBackend, DeploySummary, FpgaStatus, StatusSummary,
};
use crate::farm::{AppResolver, BuildFarm, CompileOutcome};
use crate::{BitstreamDatabase, FarmStats, ResourceDatabase, RuntimeError};

pub use admission::DeployHandle;

use admission::TenantState;
use health::FailureStats;
use placement::{policy_for, Policy};

/// Configuration of the runtime: cluster shape plus peripheral capacities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// FPGAs in the cluster.
    pub fpgas: usize,
    /// Physical blocks per FPGA.
    pub blocks_per_fpga: usize,
    /// Board DRAM per FPGA in bytes.
    pub dram_bytes_per_fpga: u64,
    /// DRAM page size in bytes.
    pub dram_page_bytes: u64,
    /// DRAM channel bandwidth per FPGA in Gb/s.
    pub dram_gbps: f64,
    /// Default DRAM quota granted per deployment, in bytes.
    pub default_quota_bytes: u64,
    /// ICAP throughput used to model partial-reconfiguration time, in Gb/s.
    pub icap_gbps: f64,
    /// Admission floor for the DRAM bandwidth share, as a fraction of the
    /// share a deployment requests (`dram_gbps / 4`). A deploy whose
    /// granted share falls below the floor is rolled back with
    /// [`RuntimeError::BandwidthUnavailable`]; `0.0` (the default) merely
    /// records the grant without gating admission.
    pub min_bandwidth_fraction: f64,
}

impl RuntimeConfig {
    /// The paper's platform: 4 FPGAs × 15 blocks; two DIMM sites of up to
    /// 128 GB each per board (§5.2) — modelled as 64 GiB of usable DRAM.
    pub fn paper_cluster() -> Self {
        RuntimeConfig {
            fpgas: 4,
            blocks_per_fpga: 15,
            dram_bytes_per_fpga: 64 << 30,
            dram_page_bytes: 2 << 20,
            dram_gbps: 153.6, // DDR4-2400 x72, two channels
            default_quota_bytes: 1 << 30,
            icap_gbps: 6.4,
            min_bandwidth_fraction: 0.0,
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::paper_cluster()
    }
}

/// The ViTAL system controller.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct SystemController {
    config: RuntimeConfig,
    /// Interconnect shape the placement policy and hop-cost accounting
    /// consult. Defaults to the paper's single ring over the cluster's
    /// FPGAs; [`SystemController::with_topology`] swaps in a pod graph.
    topology: Arc<Topology>,
    /// Picked from `topology` (see [`placement::policy_for`]).
    policy: Policy,
    memory: Vec<MemoryManager>,
    arbiters: Vec<BandwidthArbiter>,
    switch: VirtualSwitch,
    telemetry: Telemetry,
    /// The build farm: the bitstream database with its single-flight
    /// tables, demand profile, compile hook and persistence (DESIGN.md
    /// §14).
    farm: BuildFarm,
    /// Name of the device model this controller's fabric is built from,
    /// recorded in portable checkpoints as the source geometry. Purely
    /// descriptive — restore never branches on it (DESIGN.md §17).
    geometry: String,
    /// The controller's one lock (see the module docs).
    state: Mutex<State>,
    /// The block table. Written only under `state`; its own lock lets
    /// monitors read it without waiting for a transaction.
    resources: ResourceDatabase,
}

/// One tenant id's entry: exactly one of these per tenant.
enum Tenant {
    /// Deployed on the fabric: holds blocks, DRAM, a bandwidth share and
    /// a vNIC.
    Fabric(TenantState),
    /// Suspended: its checkpoint capsule, which holds nothing on the
    /// cluster.
    Parked(TenantCheckpoint),
    /// Deployed on the ISA backend, running `app` on a share of the tile
    /// pool.
    Isa { app: String },
}

/// Everything the controller decides on, behind its one lock.
struct State {
    tenants: BTreeMap<TenantId, Tenant>,
    /// The ISA backend's tile pool (DESIGN.md §16): a static accelerator
    /// template whose compute tiles are granted to tenants as elastic
    /// shares. `None` until [`SystemController::with_isa_backend`] runs;
    /// ISA requests against a disabled backend answer
    /// [`RuntimeError::IsaBackendDisabled`].
    isa_pool: Option<TilePool>,
    failure_stats: FailureStats,
    next_tenant: u64,
    /// The last `Status` reply; every write drops it. Shared, so that a
    /// reader copies it out after releasing the lock.
    status: Option<Arc<StatusSummary>>,
}

impl State {
    /// The live fabric tenant `tenant`.
    fn fabric(&mut self, tenant: TenantId) -> Result<&mut TenantState, RuntimeError> {
        match self.tenants.get_mut(&tenant) {
            Some(Tenant::Fabric(state)) => Ok(state),
            _ => Err(RuntimeError::UnknownTenant(tenant)),
        }
    }

    /// The parked capsule of `tenant`, if it is suspended.
    fn parked(&self, tenant: TenantId) -> Option<&TenantCheckpoint> {
        match self.tenants.get(&tenant) {
            Some(Tenant::Parked(capsule)) => Some(capsule),
            _ => None,
        }
    }

    /// Ids of the tenants `pick` selects, ascending.
    fn ids(&self, pick: impl Fn(&Tenant) -> bool) -> Vec<TenantId> {
        self.tenants
            .iter()
            .filter(|(_, t)| pick(t))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Publishes an admitted fabric tenant, replacing its parked capsule
    /// if it had one. Its id is never drawn again.
    fn go_live(&mut self, state: TenantState) -> DeployHandle {
        let handle = state.handle.clone();
        self.next_tenant = self.next_tenant.max(handle.tenant().raw() + 1);
        self.tenants.insert(handle.tenant(), Tenant::Fabric(state));
        handle
    }
}

impl fmt::Debug for SystemController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let live = self.state.lock().ids(|t| matches!(t, Tenant::Fabric(_)));
        f.debug_struct("SystemController")
            .field("config", &self.config)
            .field("registered_apps", &self.bitstreams().len())
            .field("live_tenants", &live.len())
            .finish()
    }
}

impl SystemController {
    /// Creates a controller over an idle homogeneous cluster.
    pub fn new(config: RuntimeConfig) -> Self {
        let layout = vec![config.blocks_per_fpga; config.fpgas];
        Self::with_layout(config, layout)
    }

    /// Creates a controller over a *heterogeneous* cluster: one entry per
    /// FPGA giving its block count. Because every block is identical, the
    /// same relocatable bitstreams deploy across mixed devices (paper §7).
    ///
    /// # Panics
    ///
    /// Panics if `layout` is empty or contains a zero.
    pub(crate) fn with_layout(config: RuntimeConfig, layout: Vec<usize>) -> Self {
        let fpgas = layout.len();
        let topology = Arc::new(Topology::ring(fpgas.max(1)));
        SystemController {
            resources: ResourceDatabase::over(&layout, topology.clone()),
            policy: policy_for(&topology),
            topology,
            memory: (0..fpgas)
                .map(|_| MemoryManager::new(config.dram_bytes_per_fpga, config.dram_page_bytes))
                .collect(),
            arbiters: (0..fpgas)
                .map(|_| BandwidthArbiter::new(config.dram_gbps))
                .collect(),
            switch: VirtualSwitch::new(),
            telemetry: Telemetry::disabled(),
            farm: BuildFarm::default(),
            geometry: "XCVU37P".to_string(),
            state: Mutex::new(State {
                tenants: BTreeMap::new(),
                isa_pool: None,
                failure_stats: FailureStats::default(),
                next_tenant: 1,
                status: None,
            }),
            config,
        }
    }

    /// Attaches a telemetry handle: deploys, undeploys, failures,
    /// evacuations and defragmentations then emit spans carrying
    /// allocation round, fpgas-used and ring-hop-cost fields. The default
    /// handle is disabled and costs nothing.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle (disabled unless set).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Names the device model behind this controller's fabric (default
    /// `"XCVU37P"`). The name is stamped into portable checkpoints as
    /// their source geometry; it does not change block counts — pass a
    /// matching layout for that.
    #[must_use]
    pub fn with_geometry(mut self, name: &str) -> Self {
        self.geometry = name.to_string();
        self
    }

    /// The device-model name stamped into portable checkpoints.
    pub fn geometry(&self) -> &str {
        &self.geometry
    }

    /// Swaps the default single-ring interconnect for an explicit
    /// [`Topology`] (e.g. [`Topology::pods`]): placement then runs the
    /// policy the simulator runs on that topology — [`PodScheduler`],
    /// which keeps every placement inside one pod, on a pod graph — and
    /// hop-cost accounting follows the graph's distances.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if the topology's FPGA
    /// count differs from the cluster layout's, or once a fabric tenant is
    /// deployed: the topology is set before the first deployment.
    ///
    /// [`PodScheduler`]: crate::PodScheduler
    pub fn with_topology(mut self, topology: Topology) -> Result<Self, RuntimeError> {
        let fpgas = self.resources.fpga_count();
        let layout: Vec<usize> = (0..fpgas).map(|f| self.resources.blocks_of(f)).collect();
        if topology.fpgas() != fpgas {
            return Err(RuntimeError::InvalidConfig(format!(
                "topology covers {} FPGAs but the cluster has {fpgas}",
                topology.fpgas(),
            )));
        }
        let live = self.state.get_mut().ids(|t| matches!(t, Tenant::Fabric(_)));
        if !live.is_empty() {
            return Err(RuntimeError::InvalidConfig(
                "the topology must be set before the first deployment".to_string(),
            ));
        }
        self.topology = Arc::new(topology);
        self.resources = ResourceDatabase::over(&layout, self.topology.clone());
        self.policy = policy_for(&self.topology);
        Ok(self)
    }

    /// The interconnect topology placement consults.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The resource database (read access for monitoring).
    pub fn resources(&self) -> &ResourceDatabase {
        &self.resources
    }

    /// The bitstream database.
    pub fn bitstreams(&self) -> &BitstreamDatabase {
        self.farm.db()
    }

    /// The DRAM manager of one FPGA.
    ///
    /// # Panics
    ///
    /// Panics if `fpga` is out of range.
    pub fn memory_of(&self, fpga: usize) -> &MemoryManager {
        &self.memory[fpga]
    }

    /// The DRAM bandwidth arbiter of one FPGA.
    ///
    /// # Panics
    ///
    /// Panics if `fpga` is out of range.
    pub fn arbiter_of(&self, fpga: usize) -> &BandwidthArbiter {
        &self.arbiters[fpga]
    }

    /// The cluster's virtual Ethernet switch.
    pub fn switch(&self) -> &VirtualSwitch {
        &self.switch
    }

    /// Registers a compiled application in the bitstream database.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::AppExists`] if the name is already taken.
    pub fn register(&self, bitstream: AppBitstream) -> Result<(), RuntimeError> {
        self.farm.register(bitstream)
    }

    /// Arms bitstream-database persistence on `path` (the build farm's
    /// across-restart cache, DESIGN.md §14.2). `path` holds a manifest
    /// naming one object file per image under `path.objects/`. If the
    /// manifest exists, it and every image it names are loaded
    /// immediately — a restarted daemon then serves deploys of previously
    /// compiled apps with **zero** place-and-route — and every
    /// subsequent mutation writes the new images once and rewrites the
    /// manifest, each atomically (temp file + rename). Save failures are
    /// counted in [`FarmStats::persist_errors`] but never fail the
    /// mutation that triggered them.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if the manifest or an
    /// image it names cannot be read, parsed or matched to its id, or
    /// if `path` holds the old one-file layout — a corrupt cache should
    /// be surfaced (and deleted by the operator), not silently rebuilt
    /// from scratch.
    pub fn with_persistence(
        mut self,
        path: impl Into<std::path::PathBuf>,
    ) -> Result<Self, RuntimeError> {
        self.farm.arm_persistence(path.into())?;
        Ok(self)
    }

    /// A snapshot of the build-farm counters.
    pub fn farm_stats(&self) -> FarmStats {
        self.farm.stats()
    }

    /// Compiles and registers `spec` under its name — unless a registered
    /// bitstream already carries the same content digest, in which case the
    /// cached images are reused verbatim and **no place-and-route runs**
    /// (only the cheap synthesis needed to compute the digest). This is
    /// the compile-cache fast path: a repeat deploy of an identical netlist
    /// goes straight to allocation.
    ///
    /// Concurrent calls for the same digest are **single-flight**: one
    /// caller leads the compile, the others block until it publishes and
    /// then serve the freshly cached image ([`CompileOutcome::shared`]).
    /// N identical requests cost exactly one place-and-route. If the
    /// leader's compile fails, the followers receive the same error; if
    /// the leader panics, the next waiter elects itself leader and
    /// retries.
    ///
    /// Registration is idempotent for byte-identical images (see
    /// `BitstreamDatabase::insert_or_get`), so replaying the same spec is
    /// harmless.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::Compile`] if synthesis or compilation fails.
    /// * [`RuntimeError::AppExists`] if the name is taken by a different
    ///   image.
    pub fn register_compiled(
        &self,
        compiler: &Compiler,
        spec: &AppSpec,
    ) -> Result<CompileOutcome, RuntimeError> {
        self.farm.register_compiled(compiler, spec)
    }

    /// Installs the compile hook behind [`ControlRequest::Prepare`]: asked
    /// to prepare an unregistered application, the controller calls the
    /// resolver to produce its bitstream (the `vitald` daemon installs one
    /// that compiles the named benchmark workload). Without a resolver,
    /// preparing an unknown name fails with [`RuntimeError::UnknownApp`].
    pub fn set_app_resolver(&self, resolver: AppResolver) {
        self.farm.set_resolver(resolver);
    }

    /// The speculative-compile hook (DESIGN.md §14): resolves and caches
    /// up to `limit` of the *most-demanded* applications that are not yet
    /// registered, ranked by the farm's exponentially decayed deploy and
    /// prepare counters. Call it from a maintenance loop (or after a warm
    /// restart) to pre-compile the footprints traffic will most likely ask
    /// for next; by the time the deploy arrives, its bitstream is a cache
    /// hit.
    ///
    /// Best-effort: names whose resolution fails — or that a concurrent
    /// [`ControlRequest::Prepare`] is already compiling — are skipped.
    /// Returns the names actually compiled and registered. A controller
    /// without a resolver compiles nothing.
    pub fn speculate_compile(&self, limit: usize) -> Vec<String> {
        self.farm.speculate(limit, &self.telemetry)
    }

    fn check_fpga(&self, fpga: usize) -> Result<(), RuntimeError> {
        if fpga < self.resources.fpga_count() {
            Ok(())
        } else {
            Err(RuntimeError::InvalidConfig(format!(
                "FPGA {fpga} is out of range (cluster has {})",
                self.resources.fpga_count()
            )))
        }
    }

    /// [`SystemController::execute`] with failures as the typed
    /// [`RuntimeError`] the operation returned.
    fn try_execute(&self, req: ControlRequest) -> Result<ControlResponse, RuntimeError> {
        let resumed = |h: DeployHandle| ControlResponse::Resumed(DeploySummary::from(&h));
        Ok(match req {
            ControlRequest::Deploy(r) => match (r.restore, r.backend) {
                (Some(capsule), _) => resumed(self.restore_capsule(&capsule)?),
                (None, DeployBackend::Isa) => ControlResponse::Deployed(self.deploy_isa(&r.app)?),
                (None, DeployBackend::Fabric) => ControlResponse::Deployed(DeploySummary::from(
                    &self.deploy_fresh(&r.app, r.quota_bytes)?,
                )),
            },
            ControlRequest::Undeploy { tenant } => {
                self.undeploy(TenantId::new(tenant))?;
                ControlResponse::Undeployed { tenant }
            }
            ControlRequest::Checkpoint { tenant } => {
                ControlResponse::Suspended(self.checkpoint(TenantId::new(tenant))?)
            }
            ControlRequest::Restore { tenant } => resumed(self.resume(TenantId::new(tenant))?),
            ControlRequest::Migrate { tenant, policy } => {
                ControlResponse::Migrated(self.migrate(TenantId::new(tenant), policy)?)
            }
            ControlRequest::Evacuate { fpga } => {
                self.check_fpga(fpga)?;
                ControlResponse::Evacuated(self.evacuate(fpga))
            }
            ControlRequest::Fail { fpga } => {
                self.check_fpga(fpga)?;
                ControlResponse::FpgaFailed(self.fail_fpga(fpga))
            }
            ControlRequest::Recover { fpga } => {
                self.check_fpga(fpga)?;
                self.recover_fpga(fpga);
                ControlResponse::Recovered { fpga }
            }
            ControlRequest::Defragment => ControlResponse::Defragmented {
                migrations: self.defragment(),
            },
            ControlRequest::Status => ControlResponse::Status(self.status_summary()),
            ControlRequest::Prepare { app } => ControlResponse::Prepared {
                cache_hit: self.farm.prepare(&app, &self.telemetry)?,
                app,
            },
            ControlRequest::Scale { tenant, tiles } => {
                ControlResponse::Scaled(self.scale_isa(tenant, tiles)?)
            }
        })
    }

    /// The control-plane entry point: every management operation the
    /// controller offers — deploy, undeploy, checkpoint, restore, migrate,
    /// evacuate, fail, recover, defragment, status, prepare, scale — is one
    /// [`ControlRequest`], dispatched here to the method that implements
    /// it and answered with the summary the wire carries. Failures come
    /// back as a [`ControlResponse::Err`] carrying the shared [`ApiError`]
    /// taxonomy — the exact value a remote `vitald` client would receive,
    /// so in-process and networked callers behave identically.
    ///
    /// The typed methods that stay public return what a [`ControlResponse`]
    /// cannot carry: a live [`DeployHandle`] with its vNIC and placed image
    /// ([`deploy`](Self::deploy), [`resume`](Self::resume),
    /// [`restore_portable`](Self::restore_portable)), a checkpoint capsule
    /// ([`suspend`](Self::suspend), [`portable_of`](Self::portable_of)),
    /// the data plane, or one ISA tenant's tile share
    /// ([`isa_tenant`](Self::isa_tenant)).
    pub fn execute(&self, req: ControlRequest) -> ControlResponse {
        self.try_execute(req)
            .unwrap_or_else(|e| ControlResponse::Err(ApiError::from(&e)))
    }

    /// Opens a transaction: takes the one lock and drops the cached
    /// `Status`, which the transaction may change. Every mutation runs
    /// under the guard this returns.
    fn write(&self) -> MutexGuard<'_, State> {
        let mut state = self.state.lock();
        state.status = None;
        state
    }

    /// The [`ControlRequest::Status`] snapshot: per-device health and
    /// block occupancy plus tenancy and failure counters, all read under
    /// the one lock. The reply is cached until the next write —
    /// rebuilding it walks every block in the cluster, which a
    /// `Status`-polling control plane does thousands of times between
    /// mutations. Only the cache's `Arc` is taken under the lock; the deep
    /// copy the reply owns is made after releasing it, so writers do not
    /// wait for it.
    fn status_summary(&self) -> StatusSummary {
        let cached = {
            let mut state = self.state.lock();
            match &state.status {
                Some(cached) => Arc::clone(cached),
                None => {
                    let summary = Arc::new(self.build_status_summary(&state));
                    state.status = Some(Arc::clone(&summary));
                    summary
                }
            }
        };
        StatusSummary::clone(&cached)
    }

    fn build_status_summary(&self, state: &State) -> StatusSummary {
        let fpgas: Vec<FpgaStatus> = self.resources.read(|view| {
            (0..view.fpga_count())
                .map(|f| FpgaStatus {
                    fpga: f,
                    health: format!("{:?}", view.health_of(f)),
                    blocks: (0..view.blocks_per_fpga_of(f))
                        .map(|b| {
                            let addr = BlockAddr::new(
                                FpgaId::new(f as u32),
                                PhysicalBlockId::new(b as u32),
                            );
                            view.occupant(addr).unwrap_or(0)
                        })
                        .collect(),
                    free: view.free_count_of(f),
                })
                .collect()
        });
        let raw = |ids: Vec<TenantId>| ids.iter().map(|t| t.raw()).collect();
        let stats = state.failure_stats;
        let (isa_tiles_total, isa_tiles_free) = state
            .isa_pool
            .as_ref()
            .map_or((0, 0), |pool| (pool.total(), pool.free_count()));
        StatusSummary {
            total_free: fpgas.iter().map(|s| s.free).sum(),
            fpgas,
            live_tenants: raw(state.ids(|t| matches!(t, Tenant::Fabric(_)))),
            suspended_tenants: raw(state.ids(|t| matches!(t, Tenant::Parked(_)))),
            fpga_failures: stats.fpga_failures,
            fpga_recoveries: stats.fpga_recoveries,
            evacuations: stats.evacuations,
            tenants_migrated: stats.tenants_migrated,
            tenants_torn_down: stats.tenants_torn_down,
            // Tenants scaled to zero tiles are still deployed, so the ids
            // come from the tenant table, not the pool's owners.
            isa_tenants: raw(state.ids(|t| matches!(t, Tenant::Isa { .. }))),
            isa_tiles_total,
            isa_tiles_free,
        }
    }
}

/// Fixtures shared by the unit tests of this module's children.
#[cfg(test)]
mod test_support {
    use super::*;
    use vital_compiler::CompilerConfig;
    use vital_netlist::hls::Operator;

    /// `c`'s `Status` snapshot, the one reader of its tenant lists and
    /// failure counters.
    pub(super) fn status(c: &SystemController) -> StatusSummary {
        match c.execute(ControlRequest::Status) {
            ControlResponse::Status(s) => s,
            other => panic!("Status answers a status, not {other:?}"),
        }
    }

    /// `c`'s live fabric tenants, from its `Status`.
    pub(super) fn live(c: &SystemController) -> Vec<TenantId> {
        status(c)
            .live_tenants
            .into_iter()
            .map(TenantId::new)
            .collect()
    }

    /// `c`'s parked tenants, from its `Status`.
    pub(super) fn parked(c: &SystemController) -> Vec<TenantId> {
        status(c)
            .suspended_tenants
            .into_iter()
            .map(TenantId::new)
            .collect()
    }

    /// Compiles and registers `spec` on `c`.
    pub(super) fn register_spec(c: &SystemController, spec: &AppSpec) {
        let compiler = Compiler::new(CompilerConfig::default());
        c.register(compiler.compile(spec).unwrap().into_bitstream())
            .unwrap();
    }

    /// A paper-cluster controller with one MAC-array app per entry.
    pub(super) fn controller_with(names_and_pes: &[(&str, u32)]) -> SystemController {
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        for &(name, pes) in names_and_pes {
            let mut spec = AppSpec::new(name);
            spec.add_operator("m", Operator::MacArray { pes });
            register_spec(&c, &spec);
        }
        c
    }

    /// Registers a DSP-bound design; 3 700 DSPs fill 8 blocks, 4 700 fill
    /// 10, 5 600 fill 12.
    pub(super) fn register_dsp_bound(c: &SystemController, name: &str, dsps: u32) {
        let mut spec = AppSpec::new(name);
        spec.add_operator(
            "x",
            Operator::Custom {
                slices: 200,
                dsps,
                brams: 0,
            },
        );
        register_spec(c, &spec);
    }

    /// A chain of operators with `width`-bit edges: cuts between blocks
    /// become real channels, so the deployment exercises the interface.
    pub(super) fn chained_spec(name: &str, pipelines: u32, width: u32) -> AppSpec {
        let mut s = AppSpec::new(name);
        let buf = s.add_operator("w", Operator::Buffer { kb: 720, banks: 4 });
        let mac = s.add_operator("mac", Operator::MacArray { pes: 64 });
        s.add_edge(buf, mac, width).unwrap();
        let mut prev = mac;
        for i in 0..pipelines {
            let p = s.add_operator(format!("p{i}"), Operator::Pipeline { slices: 200 });
            s.add_edge(prev, p, width).unwrap();
            prev = p;
        }
        s.add_input("ifm", mac, 128).unwrap();
        s.add_output("ofm", prev, 128).unwrap();
        s
    }

    pub(super) fn register_chained(c: &SystemController, name: &str, pipelines: u32, width: u32) {
        register_spec(c, &chained_spec(name, pipelines, width));
    }
}

#[cfg(test)]
impl SystemController {
    /// The configuration.
    pub(crate) fn config(&self) -> &RuntimeConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    /// The topology matches the cluster and is set before the first
    /// deployment (the block table is rebuilt for it).
    #[test]
    fn topology_must_match_cluster_size() {
        let c = controller_with(&[("a", 8)]);
        let fpgas = c.resources().fpga_count();
        let err = SystemController::new(RuntimeConfig::paper_cluster())
            .with_topology(Topology::ring(fpgas + 1))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)));
        let c = c.with_topology(Topology::ring(fpgas)).unwrap();
        assert_eq!(c.topology().fpgas(), fpgas);
        c.deploy("a").unwrap();
        let err = c.with_topology(Topology::ring(fpgas)).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)));
    }

    /// Writers change every part of `Status` while a reader polls it:
    /// two threads deploy, checkpoint, restore and undeploy fabric
    /// tenants, a third deploys, scales and undeploys ISA tenants. Every
    /// reply must be one snapshot: its block rows name exactly its live
    /// tenants, its three tenant lists are disjoint, `total_free` is the
    /// sum of its rows, and no Offline board or tile pool shows more free
    /// than it has. 64 FPGAs make each rebuild long enough for a write to
    /// land inside it.
    #[test]
    fn status_block_rows_are_one_snapshot_under_writes() {
        use std::collections::BTreeSet;
        use std::sync::atomic::{AtomicBool, Ordering};
        let c = SystemController::with_layout(RuntimeConfig::paper_cluster(), vec![15; 64])
            .with_isa_backend(16);
        let mut spec = AppSpec::new("a");
        spec.add_operator("m", vital_netlist::hls::Operator::MacArray { pes: 8 });
        register_spec(&c, &spec);
        let stop = AtomicBool::new(false);
        let (polls, mut torn, mut first_torn) = (2_000, 0, None);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let t = c.deploy("a").unwrap().tenant();
                        c.suspend(t).unwrap();
                        c.resume(t).unwrap();
                        c.undeploy(t).unwrap();
                    }
                });
            }
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let req = ControlRequest::Deploy(crate::DeployRequest::isa("vgg-S"));
                    let ControlResponse::Deployed(d) = c.execute(req) else {
                        panic!("the pool is never exhausted by one tenant");
                    };
                    let t = TenantId::new(d.tenant);
                    assert!(c.execute(ControlRequest::scale(t, 3)).is_ok());
                    c.undeploy(t).unwrap();
                }
            });
            for _ in 0..polls {
                let ControlResponse::Status(s) = c.execute(ControlRequest::Status) else {
                    panic!("Status answers a status");
                };
                let owners: BTreeSet<u64> = s
                    .fpgas
                    .iter()
                    .flat_map(|f| f.blocks.iter().copied())
                    .filter(|&t| t != 0)
                    .collect();
                let [live, parked, isa] = [&s.live_tenants, &s.suspended_tenants, &s.isa_tenants]
                    .map(|ids| ids.iter().copied().collect::<BTreeSet<u64>>());
                let broken = [
                    (owners != live, "block owners differ from live_tenants"),
                    (!live.is_disjoint(&parked), "a tenant is live and parked"),
                    (!live.is_disjoint(&isa), "a tenant is live and ISA"),
                    (!parked.is_disjoint(&isa), "a tenant is parked and ISA"),
                    (
                        s.total_free != s.fpgas.iter().map(|f| f.free).sum::<usize>(),
                        "total_free is not the sum of the rows",
                    ),
                    (
                        s.fpgas.iter().any(|f| f.health == "Offline" && f.free != 0),
                        "an Offline board has free blocks",
                    ),
                    (
                        s.isa_tiles_free > s.isa_tiles_total,
                        "more free tiles than tiles",
                    ),
                ]
                .into_iter()
                .find(|&(broken, _)| broken);
                if let Some((_, why)) = broken {
                    torn += 1;
                    first_torn.get_or_insert(why);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(
            torn, 0,
            "{torn} of {polls} Status replies torn; the first: {first_torn:?}"
        );
    }

    /// A compile never runs under the controller's lock: while a
    /// `Prepare` is parked inside the app resolver, `Status`, a `Deploy`
    /// of a registered app, `Checkpoint` and `Undeploy` all answer.
    #[test]
    fn a_compile_never_holds_the_controller_lock() {
        use std::sync::{mpsc, Arc, Barrier};
        use std::time::Duration;
        let c = controller_with(&[("a", 8)]);
        let (entered, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let (e, r) = (entered.clone(), release.clone());
        c.set_app_resolver(Box::new(move |name| {
            e.wait();
            r.wait();
            Err(RuntimeError::UnknownApp(name.to_string()))
        }));
        std::thread::scope(|s| {
            let prepare = s.spawn(|| c.execute(ControlRequest::Prepare { app: "cold".into() }));
            entered.wait();
            // The compile is parked until `release`: each request gets one
            // second to answer, and a late one releases the compile before
            // failing so the test ends either way.
            let answer = |req: ControlRequest| {
                let what = format!("{req:?}");
                let (tx, rx) = mpsc::channel();
                let c = &c;
                s.spawn(move || tx.send(c.execute(req)).ok());
                rx.recv_timeout(Duration::from_secs(1)).unwrap_or_else(|_| {
                    release.wait();
                    panic!("{what} waited on a compile");
                })
            };
            assert!(matches!(
                answer(ControlRequest::Status),
                ControlResponse::Status(_)
            ));
            let ControlResponse::Deployed(d) = answer(ControlRequest::deploy("a")) else {
                panic!("a registered app deploys");
            };
            let t = TenantId::new(d.tenant);
            assert!(matches!(
                answer(ControlRequest::checkpoint(t)),
                ControlResponse::Suspended(_)
            ));
            assert!(matches!(
                answer(ControlRequest::undeploy(t)),
                ControlResponse::Undeployed { .. }
            ));
            release.wait();
            assert!(!prepare.join().unwrap().is_ok(), "the resolver refused");
        });
    }

    #[test]
    fn register_compiled_reuses_cached_images() {
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        let compiler = Compiler::new(vital_compiler::CompilerConfig::default());
        let spec_named = |name: &str| {
            let mut spec = AppSpec::new(name);
            spec.add_operator("m", vital_netlist::hls::Operator::MacArray { pes: 8 });
            spec
        };
        let cold = c.register_compiled(&compiler, &spec_named("orig")).unwrap();
        assert!(!cold.cache_hit);
        assert!(cold.timings.is_some());
        // Identical netlist under another name: cached images, zero P&R.
        let warm = c.register_compiled(&compiler, &spec_named("copy")).unwrap();
        assert!(warm.cache_hit);
        assert!(warm.timings.is_none());
        assert_eq!(warm.digest, cold.digest);
        assert_eq!(c.bitstreams().get("copy").unwrap().digest(), cold.digest);
        // Replaying a spec is idempotent, and both names deploy.
        let replay = c.register_compiled(&compiler, &spec_named("copy")).unwrap();
        assert!(replay.cache_hit);
        let h = c.deploy("copy").unwrap();
        c.undeploy(h.tenant()).unwrap();
        let stats = c.bitstreams().cache_stats();
        assert!(stats.hits >= 2 && stats.misses >= 1, "stats {stats:?}");
    }

    #[test]
    fn controller_ops_emit_spans_with_allocation_fields() {
        use vital_telemetry::FieldValue;
        let tel = Telemetry::recording();
        let c = SystemController::new(RuntimeConfig::paper_cluster()).with_telemetry(tel.clone());
        let mut spec = AppSpec::new("a");
        spec.add_operator("m", vital_netlist::hls::Operator::MacArray { pes: 8 });
        register_spec(&c, &spec);
        let h = c.deploy("a").unwrap();
        c.evacuate(h.primary_fpga());
        c.defragment();
        c.fail_fpga(h.primary_fpga());
        c.undeploy(h.tenant()).ok();

        let recs = tel.records();
        let deploy = recs.iter().find(|r| r.name == "runtime.deploy").unwrap();
        let keys: Vec<&str> = deploy.fields.iter().map(|(k, _)| *k).collect();
        for key in ["app", "needed", "round", "fpgas_used", "hop_cost", "tenant"] {
            assert!(keys.contains(&key), "deploy span missing {key}: {keys:?}");
        }
        assert_eq!(
            deploy
                .fields
                .iter()
                .find(|(k, _)| *k == "hop_cost")
                .unwrap()
                .1,
            FieldValue::U64(0),
            "single-FPGA deploy has zero hop cost"
        );
        for op in [
            "runtime.evacuate",
            "runtime.defragment",
            "runtime.fail_fpga",
            "runtime.undeploy",
        ] {
            assert!(recs.iter().any(|r| r.name == op), "missing span {op}");
        }
        assert_eq!(tel.metrics().counters["runtime.deploys"], 1);
    }
}
