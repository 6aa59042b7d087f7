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

mod admission;
mod capsule;
mod health;
mod isa;
mod placement;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use std::collections::HashMap;
use vital_checkpoint::TenantCheckpoint;
use vital_cluster::Topology;
use vital_compiler::{AppBitstream, Compiler};
use vital_fabric::{BlockAddr, FpgaId, PhysicalBlockId};
use vital_interface::ApiError;
use vital_netlist::hls::AppSpec;
use vital_periph::{BandwidthArbiter, MemoryManager, TenantId, VirtualSwitch};
use vital_telemetry::Telemetry;

use crate::api::{
    ControlRequest, ControlResponse, DeployBackend, DeploySummary, EvacuationSummary,
    FailureSummary, FpgaStatus, MigrationSummary, StatusSummary,
};
use crate::farm::{AppResolver, BuildFarm, CompileOutcome};
use crate::{BitstreamDatabase, FarmStats, FpgaHealth, ResourceDatabase, RuntimeError};

pub use admission::{DeployHandle, Migration};
pub use health::{EvacuationReport, FailureReport, FailureStats};

use admission::TenantState;
use isa::IsaBackendState;
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
    resources: ResourceDatabase,
    /// Interconnect shape the placement policy and hop-cost accounting
    /// consult. Defaults to the paper's single ring over the cluster's
    /// FPGAs; [`SystemController::with_topology`] swaps in a pod graph.
    topology: Arc<Topology>,
    /// Picked from `topology` (see [`placement::policy_for`]).
    policy: Policy,
    memory: Vec<MemoryManager>,
    arbiters: Vec<BandwidthArbiter>,
    switch: VirtualSwitch,
    tenants: Mutex<HashMap<TenantId, TenantState>>,
    /// Parked checkpoints of suspended tenants, keyed by tenant id.
    suspended: Mutex<HashMap<TenantId, TenantCheckpoint>>,
    next_tenant: AtomicU64,
    failure_stats: Mutex<FailureStats>,
    telemetry: Telemetry,
    /// The build farm: the bitstream database with its single-flight
    /// tables, demand profile, compile hook and persistence (DESIGN.md
    /// §14).
    farm: BuildFarm,
    /// Bumped at the *end* of every mutation that feeds
    /// [`ControlRequest::Status`] (via [`StatusDirty`] drop guards, so
    /// early error returns bump too).
    status_gen: AtomicU64,
    /// Memoized snapshot keyed by the generation it was built at. The
    /// control plane is read-mostly — thousands of `Status` polls per
    /// mutation — so serving a clone of the cached summary instead of
    /// re-walking every block turns `Status` from the most expensive
    /// read into the cheapest.
    status_cache: Mutex<Option<(u64, StatusSummary)>>,
    /// The ISA deployment backend (DESIGN.md §16): a static accelerator
    /// template whose compute tiles are granted to tenants as elastic
    /// shares. `None` until [`SystemController::with_isa_backend`] runs;
    /// ISA requests against a disabled backend answer
    /// [`RuntimeError::IsaBackendDisabled`].
    isa: Mutex<Option<IsaBackendState>>,
    /// Name of the device model this controller's fabric is built from,
    /// recorded in portable checkpoints as the source geometry. Purely
    /// descriptive — restore never branches on it (DESIGN.md §17).
    geometry: String,
}

/// Drop guard that marks the status snapshot stale. Bumping on drop —
/// after the mutation finished — means a concurrent `status_summary`
/// that observed partial state can never be served past this point: its
/// cache entry is keyed to the pre-bump generation.
struct StatusDirty<'a>(&'a AtomicU64);

impl Drop for StatusDirty<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

impl fmt::Debug for SystemController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemController")
            .field("config", &self.config)
            .field("registered_apps", &self.bitstreams().len())
            .field("live_tenants", &self.tenants.lock().len())
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
    pub fn with_layout(config: RuntimeConfig, layout: Vec<usize>) -> Self {
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
            tenants: Mutex::new(HashMap::new()),
            suspended: Mutex::new(HashMap::new()),
            next_tenant: AtomicU64::new(1),
            failure_stats: Mutex::new(FailureStats::default()),
            telemetry: Telemetry::disabled(),
            farm: BuildFarm::default(),
            status_gen: AtomicU64::new(0),
            status_cache: Mutex::new(None),
            isa: Mutex::new(None),
            geometry: "XCVU37P".to_string(),
            config,
        }
    }

    /// Attaches a telemetry handle: `deploy`/`undeploy`/`fail_fpga`/
    /// `evacuate`/`defragment` then emit spans carrying allocation round,
    /// fpgas-used and ring-hop-cost fields. The default handle is disabled
    /// and costs nothing.
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
        if topology.len() != fpgas {
            return Err(RuntimeError::InvalidConfig(format!(
                "topology covers {} FPGAs but the cluster has {fpgas}",
                topology.len(),
            )));
        }
        if !self.tenants.get_mut().is_empty() {
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

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
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
    /// across-restart cache, DESIGN.md §14). If the file exists its
    /// contents are loaded immediately — a restarted daemon then serves
    /// deploys of previously compiled apps with **zero** place-and-route —
    /// and every subsequent mutation of the database re-saves it
    /// atomically (temp file + rename). Save failures are counted in
    /// [`FarmStats::persist_errors`] but never fail the mutation that
    /// triggered them.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if the file exists but
    /// cannot be read or parsed — a corrupt cache should be surfaced (and
    /// deleted by the operator), not silently rebuilt from scratch.
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
    /// [`BitstreamDatabase::insert_or_get`]), so replaying the same spec is
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

    /// The unified control-plane entry point: every management operation
    /// the controller offers, dispatched from one typed
    /// [`ControlRequest`] to the method that implements it.
    ///
    /// # Errors
    ///
    /// The union of what the individual operations return, as a typed
    /// [`RuntimeError`]. Use [`SystemController::execute`] to get failures
    /// as a [`ControlResponse::Err`] value instead (the wire shape).
    pub fn try_execute(&self, req: ControlRequest) -> Result<ControlResponse, RuntimeError> {
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
                let (m, ran) = self.migrate_with_policy(TenantId::new(tenant), policy)?;
                ControlResponse::Migrated(MigrationSummary::from(&m).with_policy(ran))
            }
            ControlRequest::Evacuate { fpga } => {
                self.check_fpga(fpga)?;
                let report = self.evacuate(fpga);
                ControlResponse::Evacuated(EvacuationSummary::from_report(fpga, &report))
            }
            ControlRequest::Fail { fpga } => {
                self.check_fpga(fpga)?;
                let report = self.fail_fpga(fpga);
                ControlResponse::FpgaFailed(FailureSummary::from_report(fpga, &report))
            }
            ControlRequest::Recover { fpga } => {
                self.check_fpga(fpga)?;
                self.recover_fpga(fpga);
                ControlResponse::Recovered { fpga }
            }
            ControlRequest::Defragment => ControlResponse::Defragmented {
                migrations: self
                    .defragment()
                    .iter()
                    .map(MigrationSummary::from)
                    .collect(),
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

    /// Like [`SystemController::try_execute`], but failures come back as a
    /// [`ControlResponse::Err`] carrying the shared [`ApiError`] taxonomy
    /// — the exact value a remote `vitald` client would receive, so
    /// in-process and networked callers behave identically.
    pub fn execute(&self, req: ControlRequest) -> ControlResponse {
        self.try_execute(req)
            .unwrap_or_else(|e| ControlResponse::Err(ApiError::from(&e)))
    }

    /// Arms a [`StatusDirty`] guard; hold it across any mutation the
    /// status snapshot must observe.
    fn mark_status_dirty(&self) -> StatusDirty<'_> {
        StatusDirty(&self.status_gen)
    }

    /// The [`ControlRequest::Status`] snapshot: per-device health and
    /// block occupancy plus tenancy and failure counters. Served from a
    /// generation-stamped cache — rebuilding the snapshot walks every
    /// block in the cluster, which a `Status`-polling control plane does
    /// thousands of times between mutations.
    fn status_summary(&self) -> StatusSummary {
        let generation = self.status_gen.load(Ordering::Acquire);
        {
            let cache = self.status_cache.lock();
            if let Some((cached_gen, cached)) = cache.as_ref() {
                if *cached_gen == generation {
                    return cached.clone();
                }
            }
        }
        let summary = self.build_status_summary();
        *self.status_cache.lock() = Some((generation, summary.clone()));
        summary
    }

    fn build_status_summary(&self) -> StatusSummary {
        // Every block row and free count from one guard, so the reply's
        // `total_free` is the sum of its rows under any concurrent write.
        let fpgas: Vec<FpgaStatus> = self.resources.read(|view| {
            (0..view.fpga_count())
                .map(|f| FpgaStatus {
                    fpga: f,
                    health: match view.health_of(f) {
                        FpgaHealth::Online => "Online",
                        FpgaHealth::Draining => "Draining",
                        FpgaHealth::Offline => "Offline",
                    }
                    .to_string(),
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
        let stats = self.failure_stats();
        let (isa_tenants, isa_tiles_total, isa_tiles_free) = self.isa_status();
        StatusSummary {
            total_free: fpgas.iter().map(|s| s.free).sum(),
            fpgas,
            live_tenants: self.live_tenants().iter().map(|t| t.raw()).collect(),
            suspended_tenants: self.suspended_tenants().iter().map(|t| t.raw()).collect(),
            fpga_failures: stats.fpga_failures,
            fpga_recoveries: stats.fpga_recoveries,
            evacuations: stats.evacuations,
            tenants_migrated: stats.tenants_migrated,
            tenants_torn_down: stats.tenants_torn_down,
            isa_tenants,
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
        assert_eq!(c.topology().len(), fpgas);
        c.deploy("a").unwrap();
        let err = c.with_topology(Topology::ring(fpgas)).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)));
    }

    /// Writers deploy and undeploy while a reader polls `Status` across
    /// 300 generations of the snapshot: every reply's `total_free` must be
    /// the sum of its per-FPGA `free`, i.e. one reply's block rows are one
    /// snapshot. 64 FPGAs make each rebuild long enough for a write to
    /// land inside it.
    #[test]
    fn status_block_rows_are_one_snapshot_under_writes() {
        use std::sync::atomic::AtomicBool;
        let c = SystemController::with_layout(RuntimeConfig::paper_cluster(), vec![15; 64]);
        let mut spec = AppSpec::new("a");
        spec.add_operator("m", vital_netlist::hls::Operator::MacArray { pes: 8 });
        register_spec(&c, &spec);
        let stop = AtomicBool::new(false);
        let (mut generations, mut last, mut torn) = (0, u64::MAX, 0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let t = c.deploy("a").unwrap().tenant();
                        c.undeploy(t).unwrap();
                    }
                });
            }
            while generations < 300 {
                let gen = c.status_gen.load(Ordering::Acquire);
                generations += usize::from(gen != last);
                last = gen;
                let ControlResponse::Status(s) = c.execute(ControlRequest::Status) else {
                    panic!("Status answers a status");
                };
                torn += usize::from(s.total_free != s.fpgas.iter().map(|f| f.free).sum::<usize>());
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(
            torn, 0,
            "{torn} torn Status replies over {generations} generations"
        );
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
