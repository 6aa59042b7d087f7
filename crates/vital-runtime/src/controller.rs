//! The system controller: ViTAL's API surface toward the higher-level
//! cloud stack (hypervisor), paper Fig. 6.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use std::collections::HashMap;
use vital_checkpoint::{
    quiesce_all, ChannelCheckpoint, PlacementMeta, PortableCheckpoint, ScanState, TenantCheckpoint,
};
use vital_cluster::Topology;
use vital_compiler::{
    AppBitstream, Compiler, NetlistDigest, PlacedBitstream, RelocationTarget, StageTimings,
    BLOCK_CONFIG_BITS,
};
use vital_fabric::FpgaId;
use vital_interface::{ApiError, Channel, ChannelPlan, ChannelSpec, LinkClass};
use vital_isa::{IsaProgram, IsaTemplate, TilePool, TILE_SWITCH_S};
use vital_netlist::hls::AppSpec;
use vital_periph::{
    BandwidthArbiter, MemoryManager, ShareGrant, TenantId, VirtualNic, VirtualSwitch,
};
use vital_telemetry::Telemetry;

use crate::api::{
    ControlRequest, ControlResponse, DeployBackend, DeployRequest, DeploySummary,
    EvacuationSummary, FailureSummary, FpgaStatus, MigratePolicy, MigrationSummary, ScaleSummary,
    StatusSummary, SuspendSummary,
};
use crate::farm::{BuildFarm, FlightResult, FlightRole};
use crate::{
    allocate_blocks_on, AllocationOutcome, BitstreamDatabase, FarmStats, FpgaHealth,
    ResourceDatabase, RuntimeError,
};

/// A pluggable compiler hook for [`ControlRequest::Prepare`]: given an
/// application name the controller has never seen, produce (usually
/// compile) its bitstream. Installed with
/// [`SystemController::set_app_resolver`]; a controller without one
/// answers `Prepare` for unknown names with [`RuntimeError::UnknownApp`].
pub type AppResolver = Box<dyn Fn(&str) -> Result<AppBitstream, RuntimeError> + Send + Sync>;

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

/// What [`SystemController::register_compiled`] did for a spec.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// Content digest of the spec's compile input.
    pub digest: NetlistDigest,
    /// `true` if a cached image was reused and no place-and-route ran.
    pub cache_hit: bool,
    /// `true` if this request blocked on another request's in-flight
    /// compile of the same digest (single-flight follower) instead of
    /// compiling itself; such outcomes are also cache hits.
    pub shared: bool,
    /// Stage timings of the compile that ran; `None` on a cache hit.
    pub timings: Option<StageTimings>,
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

struct TenantState {
    handle: DeployHandle,
    /// Live latency-insensitive channels of the tenant's interface, one
    /// per planned channel, with link classes derived from the current
    /// placement. This is the state a suspend must not lose.
    channels: Vec<Channel>,
    /// The tenant's interface clock in cycles; advances via
    /// [`SystemController::run_tenant`] / [`SystemController::settle_tenant`].
    clock: u64,
}

/// RAII rollback for a half-built deployment: every resource acquired so
/// far — claimed blocks, DRAM space, bandwidth share, vNIC — is released
/// on drop unless [`TeardownGuard::commit`] disarms the guard. `deploy` is
/// transactional because every early return runs through this drop.
struct TeardownGuard<'a> {
    ctl: &'a SystemController,
    tenant: TenantId,
    blocks_claimed: bool,
    memory_fpga: Option<usize>,
    arbiter_fpga: Option<usize>,
    nic: Option<VirtualNic>,
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
            nic: None,
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
        if let Some(nic) = self.nic.take() {
            let _ = self.ctl.switch.destroy_nic(nic);
        }
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

/// How many times [`SystemController::place`] plans one placement before
/// giving up: each further attempt means yet another concurrent request
/// took a planned block in the microseconds between plan and claim.
const PLACE_ATTEMPTS: usize = 8;

/// The ViTAL system controller.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct SystemController {
    config: RuntimeConfig,
    resources: ResourceDatabase,
    bitstreams: BitstreamDatabase,
    /// Interconnect shape the allocator and hop-cost accounting consult.
    /// Defaults to the paper's single ring over the cluster's FPGAs;
    /// [`SystemController::with_topology`] swaps in a pod graph.
    topology: Arc<Topology>,
    memory: Vec<MemoryManager>,
    arbiters: Vec<BandwidthArbiter>,
    switch: VirtualSwitch,
    tenants: Mutex<HashMap<TenantId, TenantState>>,
    /// Parked checkpoints of suspended tenants, keyed by tenant id.
    suspended: Mutex<HashMap<TenantId, TenantCheckpoint>>,
    next_tenant: AtomicU64,
    failure_stats: Mutex<FailureStats>,
    telemetry: Telemetry,
    /// Optional compile hook for [`ControlRequest::Prepare`]. Stored
    /// behind an `Arc` so a prepare can run the resolver *outside* the
    /// lock — concurrent prepares of different apps compile in parallel,
    /// and same-app prepares dedupe through the farm's single-flight
    /// table instead of serializing on this mutex.
    resolver: Mutex<Option<Arc<AppResolver>>>,
    /// The build-farm layer: single-flight tables, demand profile,
    /// persistence path, and counters (DESIGN.md §14).
    farm: BuildFarm,
    /// Bumped at the *end* of every mutation that feeds
    /// [`SystemController::status_summary`] (via [`StatusDirty`] drop
    /// guards, so early error returns bump too).
    status_gen: AtomicU64,
    /// Memoized snapshot keyed by the generation it was built at. The
    /// control plane is read-mostly — thousands of `Status` polls per
    /// mutation — so serving a clone of the cached summary instead of
    /// re-walking every block turns `Status` from the most expensive
    /// read into the cheapest.
    status_cache: Mutex<Option<(u64, StatusSummary)>>,
    /// The ISA deployment backend (DESIGN.md §16): a static accelerator
    /// template whose compute tiles are granted to tenants as elastic
    /// shares. `None` until [`SystemController::enable_isa`] runs; ISA
    /// requests against a disabled backend answer
    /// [`RuntimeError::IsaBackendDisabled`].
    isa: Mutex<Option<IsaBackendState>>,
    /// Name of the device model this controller's fabric is built from,
    /// recorded in portable checkpoints as the source geometry. Purely
    /// descriptive — restore never branches on it (DESIGN.md §17).
    geometry: String,
}

/// Live state of the ISA backend: the template, who owns which tiles,
/// and each tenant's compiled instruction stream.
struct IsaBackendState {
    template: IsaTemplate,
    pool: TilePool,
    tenants: HashMap<TenantId, IsaTenantState>,
}

struct IsaTenantState {
    app: String,
    program: IsaProgram,
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
            .field("registered_apps", &self.bitstreams.len())
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
        SystemController {
            resources: ResourceDatabase::with_layout(layout),
            bitstreams: BitstreamDatabase::new(),
            topology: Arc::new(Topology::ring(fpgas)),
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
            resolver: Mutex::new(None),
            farm: BuildFarm::default(),
            status_gen: AtomicU64::new(0),
            status_cache: Mutex::new(None),
            isa: Mutex::new(None),
            geometry: "XCVU37P".to_string(),
            config,
        }
    }

    /// Non-panicking variant of [`SystemController::with_layout`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if `layout` is empty or
    /// contains a zero-block FPGA.
    pub fn try_with_layout(
        config: RuntimeConfig,
        layout: Vec<usize>,
    ) -> Result<Self, RuntimeError> {
        if layout.is_empty() {
            return Err(RuntimeError::InvalidConfig(
                "cluster layout is empty".to_string(),
            ));
        }
        if let Some(f) = layout.iter().position(|&n| n == 0) {
            return Err(RuntimeError::InvalidConfig(format!(
                "FPGA {f} has zero blocks"
            )));
        }
        Ok(Self::with_layout(config, layout))
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

    /// Enables the ISA deployment backend with a template of `tiles`
    /// compute tiles (builder form of [`SystemController::enable_isa`]).
    #[must_use]
    pub fn with_isa_backend(self, tiles: usize) -> Self {
        self.enable_isa(tiles);
        self
    }

    /// Enables (or resizes an empty) ISA backend: a static accelerator
    /// template of `tiles` compute tiles, shared elastically between
    /// ISA tenants. Idempotent while no ISA tenants are live; with live
    /// tenants the existing pool is kept.
    pub fn enable_isa(&self, tiles: usize) {
        let _dirty = self.mark_status_dirty();
        let mut isa = self.isa.lock();
        match isa.as_ref() {
            Some(state) if !state.tenants.is_empty() => {}
            _ => {
                *isa = Some(IsaBackendState {
                    template: IsaTemplate::new(tiles),
                    pool: TilePool::new(tiles),
                    tenants: HashMap::new(),
                });
            }
        }
    }

    /// `true` once [`SystemController::enable_isa`] has run.
    pub fn isa_enabled(&self) -> bool {
        self.isa.lock().is_some()
    }

    /// Swaps the default single-ring interconnect for an explicit
    /// [`Topology`] (e.g. [`Topology::pods`]): the §3.4 allocator and all
    /// hop-cost accounting then follow the graph's distances, so spans
    /// prefer nearby devices in the *actual* interconnect.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if the topology's FPGA
    /// count differs from the cluster layout's.
    pub fn with_topology(mut self, topology: Topology) -> Result<Self, RuntimeError> {
        if topology.len() != self.resources.fpga_count() {
            return Err(RuntimeError::InvalidConfig(format!(
                "topology covers {} FPGAs but the cluster has {}",
                topology.len(),
                self.resources.fpga_count()
            )));
        }
        self.topology = Arc::new(topology);
        Ok(self)
    }

    /// The interconnect topology the allocator consults.
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
        &self.bitstreams
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
        self.bitstreams.insert(bitstream)?;
        self.persist_bitstreams();
        Ok(())
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
        let path = path.into();
        match std::fs::read_to_string(&path) {
            Ok(json) => {
                let db = BitstreamDatabase::from_json(&json).map_err(|e| {
                    RuntimeError::InvalidConfig(format!("persisted {}: {e}", path.display()))
                })?;
                self.farm
                    .counters
                    .persist_loaded
                    .store(db.len() as u64, Ordering::Relaxed);
                self.bitstreams = db;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(RuntimeError::InvalidConfig(format!(
                    "cannot read persisted bitstream database {}: {e}",
                    path.display()
                )));
            }
        }
        let sidecar = Self::demand_sidecar(&path);
        match std::fs::read_to_string(&sidecar) {
            Ok(json) => {
                let snapshot: crate::farm::DemandSnapshot =
                    serde_json::from_str(&json).map_err(|e| {
                        RuntimeError::InvalidConfig(format!(
                            "persisted demand profile {} is corrupt: {e}",
                            sidecar.display()
                        ))
                    })?;
                snapshot
                    .format_version
                    .check("demand profile")
                    .map_err(|e| {
                        RuntimeError::InvalidConfig(format!("persisted {}: {e}", sidecar.display()))
                    })?;
                let apps = self.farm.demand.restore(snapshot);
                self.farm
                    .counters
                    .demand_loaded
                    .store(apps as u64, Ordering::Relaxed);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(RuntimeError::InvalidConfig(format!(
                    "cannot read persisted demand profile {}: {e}",
                    sidecar.display()
                )));
            }
        }
        self.farm.persist_path = Some(path);
        Ok(self)
    }

    /// The demand profile's sidecar file: the persistence path with
    /// `.demand` appended (not substituted), so `cache.json` pairs with
    /// `cache.json.demand`.
    fn demand_sidecar(path: &std::path::Path) -> std::path::PathBuf {
        let mut os = path.as_os_str().to_os_string();
        os.push(".demand");
        std::path::PathBuf::from(os)
    }

    /// Best-effort save of the demand profile to its sidecar (no-op when
    /// persistence is off). Same discipline as the bitstream database:
    /// temp file + rename under the shared persist lock. Without this a
    /// restarted `vitald --persist --speculate-ms` came up with a warm
    /// bitstream cache but a **cold** demand ranking, so speculation sat
    /// idle until traffic re-taught it what was hot.
    fn persist_demand(&self) {
        let Some(path) = self.farm.persist_path.as_ref() else {
            return;
        };
        let sidecar = Self::demand_sidecar(path);
        let _serialized = self
            .farm
            .persist_lock
            .lock()
            .expect("persist mutex poisoned");
        let saved = serde_json::to_string(&self.farm.demand.snapshot())
            .ok()
            .and_then(|json| {
                let tmp = sidecar.with_extension("tmp");
                std::fs::write(&tmp, json).ok()?;
                std::fs::rename(&tmp, &sidecar).ok()
            });
        match saved {
            Some(()) => {
                self.farm
                    .counters
                    .demand_saves
                    .fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.farm
                    .counters
                    .persist_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A snapshot of the build-farm counters.
    pub fn farm_stats(&self) -> FarmStats {
        self.farm.counters.snapshot()
    }

    /// Best-effort save of the bitstream database to the persistence path
    /// (no-op when persistence is off). Writes a sibling temp file and
    /// renames it over the target so readers never observe a torn file.
    /// Saves are serialized: the snapshot, the temp write, and the rename
    /// all happen under one lock, so concurrent mutators can neither tear
    /// the shared temp file nor publish an older snapshot over a newer one.
    fn persist_bitstreams(&self) {
        let Some(path) = self.farm.persist_path.as_ref() else {
            return;
        };
        let _serialized = self
            .farm
            .persist_lock
            .lock()
            .expect("persist mutex poisoned");
        let saved = self.bitstreams.to_json().ok().and_then(|json| {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, json).ok()?;
            std::fs::rename(&tmp, path).ok()
        });
        match saved {
            Some(()) => {
                self.farm
                    .counters
                    .persist_saves
                    .fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.farm
                    .counters
                    .persist_errors
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
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
        let digest = compiler.digest_of(spec).map_err(RuntimeError::Compile)?;
        let mut shared = false;
        loop {
            if let Some(cached) = self.bitstreams.get_by_digest(digest) {
                self.bitstreams.insert_or_get(cached.renamed(spec.name()))?;
                self.persist_bitstreams();
                return Ok(CompileOutcome {
                    digest,
                    cache_hit: true,
                    shared,
                    timings: None,
                });
            }
            match self.farm.by_digest.join(digest) {
                FlightRole::Leader(flight) => {
                    // A previous leader may have cached the digest between
                    // this caller's probe and its election; re-check before
                    // paying for a compile.
                    if self.bitstreams.contains_digest(digest) {
                        flight.publish(Ok(()));
                        continue;
                    }
                    self.farm.counters.compiles.fetch_add(1, Ordering::Relaxed);
                    let compiled = match compiler.compile(spec) {
                        Ok(c) => c,
                        Err(e) => {
                            let err = RuntimeError::Compile(e);
                            flight.publish(Err(err.clone()));
                            return Err(err);
                        }
                    };
                    let timings = compiled.timings().clone();
                    if let Err(e) = self.bitstreams.insert_or_get(compiled.into_bitstream()) {
                        flight.publish(Err(e.clone()));
                        return Err(e);
                    }
                    flight.publish(Ok(()));
                    self.persist_bitstreams();
                    return Ok(CompileOutcome {
                        digest,
                        cache_hit: false,
                        shared,
                        timings: Some(timings),
                    });
                }
                FlightRole::Follower(flight) => {
                    self.farm
                        .counters
                        .single_flight_waits
                        .fetch_add(1, Ordering::Relaxed);
                    shared = true;
                    match flight.wait() {
                        // Leader cached the image: loop and serve the hit.
                        FlightResult::Done(Ok(())) => {}
                        FlightResult::Done(Err(e)) => return Err(e),
                        // Leader unwound; loop to elect a new leader.
                        FlightResult::Aborted => {}
                    }
                }
            }
        }
    }

    /// Deploys a registered application: allocates physical blocks with the
    /// communication-aware policy, binds the relocatable bitstream to them,
    /// provisions DRAM and a virtual NIC, and models the per-block partial
    /// reconfiguration.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::UnknownApp`] for unregistered names.
    /// * [`RuntimeError::InsufficientResources`] when the cluster is full.
    /// * [`RuntimeError::Periph`] if DRAM provisioning fails.
    pub fn deploy(&self, name: &str) -> Result<DeployHandle, RuntimeError> {
        self.deploy_with_quota(name, self.config.default_quota_bytes)
    }

    /// Like [`SystemController::deploy`] with an explicit DRAM quota.
    ///
    /// The deployment is **transactional**: an RAII guard unwinds every
    /// resource acquired so far (claimed blocks, DRAM space, bandwidth
    /// share, vNIC) on any failure path, so a failed deploy leaves no
    /// trace.
    ///
    /// # Errors
    ///
    /// Same as [`SystemController::deploy`], plus
    /// [`RuntimeError::BandwidthUnavailable`] when
    /// [`RuntimeConfig::min_bandwidth_fraction`] gates admission and the
    /// arbiter cannot grant the floor.
    ///
    /// This is a thin shim over the unified entry point
    /// ([`SystemController::try_execute`] with a
    /// [`ControlRequest::Deploy`]); prefer building a [`DeployRequest`]
    /// when you already speak the request API.
    pub fn deploy_with_quota(
        &self,
        name: &str,
        quota_bytes: u64,
    ) -> Result<DeployHandle, RuntimeError> {
        let req = DeployRequest::app(name).with_quota_bytes(quota_bytes);
        match self.try_execute(ControlRequest::Deploy(req))? {
            ControlResponse::Deployed(s) => Ok(self
                .handle_of(TenantId::new(s.tenant))
                .expect("freshly deployed tenant has a live handle")),
            other => unreachable!("deploy answered with {other:?}"),
        }
    }

    /// The deploy implementation behind [`ControlRequest::Deploy`] (fresh
    /// placements; restores go through
    /// [`SystemController::do_resume_from`]).
    fn do_deploy(&self, name: &str, quota_bytes: u64) -> Result<DeployHandle, RuntimeError> {
        let _dirty = self.mark_status_dirty();
        let quota_bytes = if quota_bytes == 0 {
            self.config.default_quota_bytes
        } else {
            quota_bytes
        };
        let mut span = self.telemetry.span("runtime.deploy");
        span.field("app", name);
        // Every deploy attempt feeds the build farm's demand profile, so
        // speculative compiles chase what traffic actually asks for —
        // including apps that are not registered yet.
        if self.farm.demand.record(name) {
            self.persist_demand();
        }
        let bitstream = self.bitstreams.get(name)?;
        let needed = bitstream.block_count();
        span.field("needed", needed);

        let tenant = TenantId::new(self.next_tenant.fetch_add(1, Ordering::Relaxed));
        let mut guard = TeardownGuard::new(self, tenant);
        let alloc = self.place(tenant, needed)?;
        guard.blocks_claimed = true;
        // The §3.4 policy's round number equals the FPGAs admitted.
        span.field("round", alloc.fpgas_used);
        span.field("fpgas_used", alloc.fpgas_used);
        span.field("hop_cost", alloc.hop_cost);

        let targets: Vec<RelocationTarget> = alloc
            .blocks
            .iter()
            .enumerate()
            .map(|(vb, &addr)| RelocationTarget {
                virtual_block: vb as u32,
                addr,
            })
            .collect();
        let placed = bitstream.bind(&targets).map_err(RuntimeError::Relocation)?;

        let primary_fpga = Self::primary_of(&alloc.blocks);
        self.memory[primary_fpga]
            .create_space(tenant, quota_bytes)
            .map_err(RuntimeError::Periph)?;
        guard.memory_fpga = Some(primary_fpga);

        // Request a quarter of the channel (four blocks share one DIMM in
        // the paper's service region) and gate on the configured floor.
        let share = self.config.dram_gbps / 4.0;
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

        let nic = self.switch.create_nic(tenant, 64);
        guard.nic = Some(nic);

        let reconfig = self.reconfig_of(&alloc.blocks);
        let handle = DeployHandle {
            tenant,
            placed,
            nic,
            primary_fpga,
            reconfig,
            bandwidth: grant,
        };
        let channels = Self::channels_for(bitstream.channel_plan(), &alloc.blocks);
        self.tenants.lock().insert(
            tenant,
            TenantState {
                handle: handle.clone(),
                channels,
                clock: 0,
            },
        );
        guard.commit();
        span.field("tenant", tenant.raw());
        self.telemetry.inc_counter("runtime.deploys", 1);
        self.telemetry
            .record_hist("runtime.deploy_hop_cost", alloc.hop_cost as f64);
        Ok(handle)
    }

    /// Plans `needed` blocks for `tenant` with the §3.4 allocator and makes
    /// them its holdings. Blocks the tenant already holds on Online
    /// devices count as free for the plan and are released by the commit
    /// (a tenant being deployed or restored holds none).
    ///
    /// Plan and claim are two steps under two lock acquisitions, so a
    /// concurrent request can take a planned block in between. That lost
    /// claim is not the cluster being full: the old holdings are restored
    /// and the plan is made again over the new free lists. On failure the
    /// allocator's verdict tells a genuinely full cluster
    /// ([`RuntimeError::InsufficientResources`]) apart from capacity
    /// parked on a [`Draining`](FpgaHealth::Draining) device
    /// ([`RuntimeError::Draining`], a typed retry-after rejection).
    fn place(&self, tenant: TenantId, needed: usize) -> Result<AllocationOutcome, RuntimeError> {
        for _ in 0..PLACE_ATTEMPTS {
            let (free_lists, held) = self.free_lists_for(tenant);
            let Some(alloc) = allocate_blocks_on(&self.topology, &free_lists, needed) else {
                break;
            };
            self.resources.release(tenant);
            if self.resources.claim(tenant, &alloc.blocks) {
                return Ok(alloc);
            }
            self.telemetry.inc_counter("runtime.claim_replans", 1);
            let _ = self.resources.claim(tenant, &held);
        }
        let draining = (0..self.resources.fpga_count()).find(|&f| {
            self.resources.health_of(f) == FpgaHealth::Draining
                && self.resources.idle_count_of(f) >= needed
        });
        Err(match draining {
            Some(fpga) => RuntimeError::Draining { fpga, needed },
            None => RuntimeError::InsufficientResources {
                needed,
                free: self.resources.total_free(),
            },
        })
    }

    /// What the allocator may give `tenant`: every device's free blocks
    /// plus the blocks the tenant itself holds on Online devices (also
    /// returned on their own).
    fn free_lists_for(
        &self,
        tenant: TenantId,
    ) -> (
        Vec<Vec<vital_fabric::BlockAddr>>,
        Vec<vital_fabric::BlockAddr>,
    ) {
        let mut free_lists: Vec<_> = (0..self.resources.fpga_count())
            .map(|f| self.resources.free_blocks_of(f))
            .collect();
        let mut held = self.resources.holdings(tenant);
        held.retain(|b| self.resources.health_of(b.fpga.index() as usize) == FpgaHealth::Online);
        for b in &held {
            free_lists[b.fpga.index() as usize].push(*b);
        }
        if !held.is_empty() {
            for l in &mut free_lists {
                l.sort();
            }
        }
        (free_lists, held)
    }

    /// Primary FPGA = the one hosting the most blocks (lowest index wins
    /// ties).
    fn primary_of(blocks: &[vital_fabric::BlockAddr]) -> usize {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for b in blocks {
            *counts.entry(b.fpga.index() as usize).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(f, n)| (n, std::cmp::Reverse(f)))
            .map(|(f, _)| f)
            .unwrap_or(0)
    }

    /// Per-block partial reconfiguration over the FPGA-local ICAPs
    /// (parallel across FPGAs, sequential within one).
    fn reconfig_of(&self, blocks: &[vital_fabric::BlockAddr]) -> Duration {
        let per_block = BLOCK_CONFIG_BITS as f64 / (self.config.icap_gbps * 1.0e9);
        let mut per_fpga: HashMap<u32, u32> = HashMap::new();
        for b in blocks {
            *per_fpga.entry(b.fpga.index()).or_insert(0) += 1;
        }
        let worst = per_fpga.values().copied().max().unwrap_or(0);
        Duration::from_secs_f64(per_block * f64::from(worst))
    }

    /// The link class a channel between two virtual blocks rides on under
    /// a placement: same FPGA → on-chip, different FPGAs → the ring. (The
    /// finer intra/inter-die distinction is the interface planner's
    /// concern; the runtime channel model keys on the FPGA boundary, which
    /// is what changes under migration.)
    fn link_class_of(blocks: &[vital_fabric::BlockAddr], from: u32, to: u32) -> LinkClass {
        match (blocks.get(from as usize), blocks.get(to as usize)) {
            (Some(a), Some(b)) if a.fpga != b.fpga => LinkClass::InterFpga,
            _ => LinkClass::IntraDie,
        }
    }

    /// Builds idle live channels for a placement from the application's
    /// channel plan.
    fn channels_for(plan: &ChannelPlan, blocks: &[vital_fabric::BlockAddr]) -> Vec<Channel> {
        plan.channels()
            .iter()
            .map(|pc| {
                let link = Self::link_class_of(blocks, pc.from_block, pc.to_block);
                Channel::new(ChannelSpec::for_link(link, pc.width_bits.max(1)))
            })
            .collect()
    }

    /// Total ring-hop distance from every spanned FPGA to the placement's
    /// primary (0 for single-FPGA placements).
    fn placement_hop_cost(&self, blocks: &[vital_fabric::BlockAddr]) -> usize {
        if blocks.is_empty() {
            return 0;
        }
        let primary = Self::primary_of(blocks) as u32;
        let mut fpgas: Vec<u32> = blocks.iter().map(|b| b.fpga.index()).collect();
        fpgas.sort_unstable();
        fpgas.dedup();
        fpgas
            .into_iter()
            .filter(|&f| f != primary)
            .map(|f| self.topology.hops(FpgaId::new(primary), FpgaId::new(f)))
            .sum()
    }

    /// Tears down a deployment: frees its blocks, scrubs its DRAM, removes
    /// its NIC and bandwidth share.
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
        // ISA tenants hold template tiles, not blocks/DRAM/vNICs: release
        // the share back to the pool and the teardown is complete.
        {
            let mut isa = self.isa.lock();
            if let Some(state) = isa.as_mut() {
                if state.tenants.remove(&tenant).is_some() {
                    state.pool.release(tenant.raw());
                    self.telemetry.inc_counter("runtime.undeploys", 1);
                    return Ok(());
                }
            }
        }
        let state = self
            .tenants
            .lock()
            .remove(&tenant)
            .ok_or(RuntimeError::UnknownTenant(tenant))?;
        self.telemetry.inc_counter("runtime.undeploys", 1);
        self.teardown(&state.handle)
    }

    /// The deploy implementation behind an ISA-backend
    /// [`ControlRequest::Deploy`]: compile the app name to an instruction
    /// stream and grant tiles from the shared pool — no bitstream, no
    /// reconfiguration, no per-tenant DRAM/vNIC plumbing (the template
    /// owns the memory system).
    ///
    /// Admission is elastic: the tenant asks for its variant's natural
    /// tile count but accepts any non-zero share; later `Scale` requests
    /// (or co-tenant departures) grow it. Only an empty pool refuses,
    /// with the retryable [`RuntimeError::IsaTilesUnavailable`].
    fn do_deploy_isa(&self, name: &str) -> Result<DeploySummary, RuntimeError> {
        let _dirty = self.mark_status_dirty();
        let mut span = self.telemetry.span("runtime.isa_deploy");
        span.field("app", name);
        let program =
            IsaProgram::for_app(name).map_err(|_| RuntimeError::UnknownApp(name.to_string()))?;
        let mut isa = self.isa.lock();
        let state = isa.as_mut().ok_or(RuntimeError::IsaBackendDisabled)?;
        let want = program.natural_tiles().max(1);
        let free = state.pool.free_count();
        let grant = want.min(free);
        if grant == 0 {
            return Err(RuntimeError::IsaTilesUnavailable {
                requested: want,
                free,
            });
        }
        let tenant = TenantId::new(self.next_tenant.fetch_add(1, Ordering::Relaxed));
        state
            .pool
            .grow(tenant.raw(), grant)
            .expect("grant is bounded by the free count");
        state.tenants.insert(
            tenant,
            IsaTenantState {
                app: name.to_string(),
                program,
            },
        );
        span.field("tenant", tenant.raw());
        span.field("tiles", grant);
        self.telemetry.inc_counter("runtime.isa_deploys", 1);
        Ok(DeploySummary {
            tenant: tenant.raw(),
            app: name.to_string(),
            blocks: grant,
            fpgas: 1,
            primary_fpga: 0,
            // Stream-pointer switches, not partial reconfiguration:
            // micro-seconds for the whole share.
            reconfig_us: switch_us(grant),
            granted_gbps: 0.0,
        })
    }

    /// The ISA template in force, if the backend is enabled.
    pub fn isa_template(&self) -> Option<IsaTemplate> {
        self.isa.lock().as_ref().map(|s| s.template)
    }

    /// App name and current tile share of an ISA tenant, if one exists.
    pub fn isa_tenant(&self, tenant: TenantId) -> Option<(String, usize)> {
        let isa = self.isa.lock();
        let s = isa.as_ref()?;
        let t = s.tenants.get(&tenant)?;
        Some((t.app.clone(), s.pool.assignment(tenant.raw()).len()))
    }

    /// The compiled instruction stream of an ISA tenant.
    pub fn isa_program(&self, tenant: TenantId) -> Option<IsaProgram> {
        self.isa
            .lock()
            .as_ref()?
            .tenants
            .get(&tenant)
            .map(|t| t.program.clone())
    }

    /// The [`ControlRequest::Scale`] implementation: move an ISA tenant
    /// to exactly `tiles` tiles. Growth beyond the free supply answers
    /// the retryable [`RuntimeError::IsaTilesUnavailable`]; scaling to
    /// zero parks the tenant (still deployed, no tiles) until a later
    /// scale-up.
    fn scale_isa(&self, tenant_raw: u64, tiles: u32) -> Result<ScaleSummary, RuntimeError> {
        let _dirty = self.mark_status_dirty();
        let tenant = TenantId::new(tenant_raw);
        let mut span = self.telemetry.span("runtime.isa_scale");
        span.field("tenant", tenant_raw);
        span.field("tiles", tiles as usize);
        let mut isa = self.isa.lock();
        let state = isa.as_mut().ok_or(RuntimeError::IsaBackendDisabled)?;
        if !state.tenants.contains_key(&tenant) {
            return Err(RuntimeError::UnknownTenant(tenant));
        }
        let before = state.pool.assignment(tenant_raw).len();
        let change = state
            .pool
            .set_share(tenant_raw, tiles as usize)
            .map_err(|e| RuntimeError::IsaTilesUnavailable {
                requested: e.requested,
                free: e.free,
            })?;
        self.telemetry.inc_counter("runtime.isa_scales", 1);
        Ok(ScaleSummary {
            tenant: tenant_raw,
            tiles_before: before as u32,
            tiles_after: tiles,
            realloc_us: switch_us(change.moved()),
        })
    }

    /// Best-effort-complete teardown of a removed tenant's resources:
    /// every step runs; the first error is returned.
    fn teardown(&self, handle: &DeployHandle) -> Result<(), RuntimeError> {
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

    /// Defragments the cluster by *live-migrating* spanning deployments
    /// onto fewer FPGAs when the current free space allows it — something
    /// only possible because bitstreams are relocatable: each move is a
    /// [`SystemController::migrate_live`] (quiesce, checkpoint, partial
    /// reconfiguration at the new location, restore), never a
    /// recompilation. Channel contents and DRAM bytes survive every move.
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
                let (free_lists, _) = self.free_lists_for(tenant);
                if let Some(alloc) = allocate_blocks_on(&self.topology, &free_lists, needed) {
                    if alloc.fpgas_used < current_fpgas
                        && alloc.hop_cost <= current_hop
                        && best_move
                            .is_none_or(|(_, bf, bh)| (alloc.fpgas_used, alloc.hop_cost) < (bf, bh))
                    {
                        best_move = Some((tenant, alloc.fpgas_used, alloc.hop_cost));
                    }
                }
            }
            let Some((tenant, _, _)) = best_move else {
                break;
            };
            // Suspending frees the tenant's own blocks, so the resume half
            // of the live migration sees exactly the hypothetical free
            // lists evaluated above and lands on the same allocation.
            match self.migrate_live(tenant) {
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
    /// ([`SystemController::migrate_live`]): channels are quiesced, DRAM
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
                    Some(state) => state.handle.placed.bindings.len(),
                    None => continue,
                }
            };
            let (free_lists, _) = self.free_lists_for(tenant);
            if allocate_blocks_on(&self.topology, &free_lists, needed).is_none() {
                report.unmoved.push(tenant);
                continue;
            }
            match self.migrate_live(tenant) {
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
            if state.handle.primary_fpga == fpga && !v.contains(&t) {
                v.push(t);
            }
        }
        v.sort_unstable();
        v
    }

    /// Re-places one tenant using only Online devices (free blocks plus
    /// the tenant's own still-online blocks) and commits the move. With
    /// `board_dead`, a DRAM space homed on a non-Online board is moved to
    /// the new primary (contents lost — the board crashed); otherwise the
    /// DRAM stays where it is. Returns `None` if no placement fits or the
    /// new primary has no room for the DRAM space (the caller tears the
    /// tenant down).
    fn relocate_tenant(&self, tenant: TenantId, board_dead: bool) -> Option<Migration> {
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
        let alloc = self.place(tenant, needed).ok()?;
        let new_primary = Self::primary_of(&alloc.blocks);

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

        let reconfig = self.reconfig_of(&alloc.blocks);
        let mut tenants = self.tenants.lock();
        let state = tenants.get_mut(&tenant)?;
        state.handle.placed.bindings = alloc
            .blocks
            .iter()
            .enumerate()
            .map(|(vb, &addr)| RelocationTarget {
                virtual_block: vb as u32,
                addr,
            })
            .collect();
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
        if let Ok(bitstream) = self.bitstreams.get(&state.handle.placed.app) {
            state.channels = Self::channels_for(bitstream.channel_plan(), &alloc.blocks);
        }
        Some(Migration {
            tenant,
            fpgas_before,
            fpgas_after: alloc.fpgas_used,
            reconfig,
            hop_cost_before,
            hop_cost_after: self.placement_hop_cost(&alloc.blocks),
        })
    }

    /// Live tenant ids, sorted.
    pub fn live_tenants(&self) -> Vec<TenantId> {
        let mut v: Vec<TenantId> = self.tenants.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

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
        let _dirty = self.mark_status_dirty();
        let mut tenants = self.tenants.lock();
        let state = tenants
            .get_mut(&tenant)
            .ok_or(RuntimeError::UnknownTenant(tenant))?;
        let start = state.clock;
        for now in start..start.saturating_add(cycles) {
            for ch in &mut state.channels {
                if ch.can_push(now) {
                    ch.push(now);
                }
                ch.advance(now);
                if now % 3 == 0 {
                    ch.pop(now);
                }
            }
        }
        state.clock = start.saturating_add(cycles);
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
        let _dirty = self.mark_status_dirty();
        let mut tenants = self.tenants.lock();
        let state = tenants
            .get_mut(&tenant)
            .ok_or(RuntimeError::UnknownTenant(tenant))?;
        state.clock = state.clock.saturating_add(cycles);
        let now = state.clock;
        for ch in &mut state.channels {
            ch.advance(now);
        }
        Ok(())
    }

    /// Receiver-FIFO occupancy of each live channel of a tenant, in plan
    /// order (monitoring; also what the round-trip tests compare).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTenant`] for undeployed tenants.
    pub fn channel_occupancy(&self, tenant: TenantId) -> Result<Vec<usize>, RuntimeError> {
        let tenants = self.tenants.lock();
        let state = tenants
            .get(&tenant)
            .ok_or(RuntimeError::UnknownTenant(tenant))?;
        Ok(state
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
        let _dirty = self.mark_status_dirty();
        let mut span = self.telemetry.span("runtime.suspend");
        span.field("tenant", tenant.raw());
        let mut tenants = self.tenants.lock();
        let state = tenants
            .get_mut(&tenant)
            .ok_or(RuntimeError::UnknownTenant(tenant))?;
        let bitstream = self.bitstreams.get(&state.handle.placed.app)?;
        let plan = bitstream.channel_plan();
        let clock = state.clock;
        // Atomic: either every channel drains or none is touched.
        let snapshots = quiesce_all(&mut state.channels, clock).map_err(RuntimeError::Quiesce)?;
        let handle = state.handle.clone();
        let blocks: Vec<_> = handle.placed.addresses().collect();
        let memory = self.memory[handle.primary_fpga]
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
                app: handle.placed.app.clone(),
                needed_blocks: handle.placed.bindings.len(),
                clock,
                primary_fpga: handle.primary_fpga,
                fpgas_spanned: handle.fpga_count(),
                hop_cost: self.placement_hop_cost(&blocks),
                requested_gbps: handle.bandwidth.requested_gbps,
            },
            channels,
            memory,
        };
        tenants.remove(&tenant);
        drop(tenants);
        // Free every physical resource; the capsule now holds the truth,
        // so each step is best-effort (the DRAM bytes were exported above).
        self.resources.release(tenant);
        let _ = self.memory[handle.primary_fpga].destroy_space(tenant);
        let _ = self.arbiters[handle.primary_fpga].release(tenant);
        let _ = self.switch.destroy_nic(handle.nic);
        span.field("flits", checkpoint.total_flits());
        span.field("dram_bytes", checkpoint.dram_bytes());
        self.telemetry.inc_counter("runtime.suspends", 1);
        self.suspended.lock().insert(tenant, checkpoint.clone());
        Ok(checkpoint)
    }

    /// Resumes a tenant from its parked checkpoint (see
    /// [`SystemController::suspend`]). On failure the capsule stays
    /// parked, so the resume can be retried once capacity frees up.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::NotSuspended`] if no checkpoint is parked.
    /// * Everything [`SystemController::resume_from`] can return.
    pub fn resume(&self, tenant: TenantId) -> Result<DeployHandle, RuntimeError> {
        let checkpoint = self
            .suspended
            .lock()
            .get(&tenant)
            .cloned()
            .ok_or(RuntimeError::NotSuspended(tenant))?;
        self.resume_from(&checkpoint)
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
    /// acquired so far. On success a checkpoint parked under the same id
    /// is discharged.
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
    ///
    /// This is a thin shim over the unified entry point
    /// ([`SystemController::try_execute`] with a
    /// [`ControlRequest::Deploy`] whose [`DeployRequest::restore`] is
    /// set); prefer the request API when you already hold a capsule as a
    /// value.
    pub fn resume_from(&self, checkpoint: &TenantCheckpoint) -> Result<DeployHandle, RuntimeError> {
        let req = DeployRequest::restore(checkpoint.clone());
        match self.try_execute(ControlRequest::Deploy(req))? {
            ControlResponse::Resumed(s) => Ok(self
                .handle_of(TenantId::new(s.tenant))
                .expect("freshly resumed tenant has a live handle")),
            other => unreachable!("restore answered with {other:?}"),
        }
    }

    /// The restore implementation behind a [`ControlRequest::Deploy`]
    /// carrying a checkpoint capsule.
    fn do_resume_from(&self, checkpoint: &TenantCheckpoint) -> Result<DeployHandle, RuntimeError> {
        let _dirty = self.mark_status_dirty();
        let tenant = checkpoint.tenant;
        if self.tenants.lock().contains_key(&tenant) {
            return Err(RuntimeError::TenantActive(tenant));
        }
        let mut span = self.telemetry.span("runtime.resume");
        span.field("tenant", tenant.raw());
        span.field("app", checkpoint.placement.app.as_str());
        let bitstream = self.bitstreams.get(&checkpoint.placement.app)?;
        let needed = bitstream.block_count();

        let mut guard = TeardownGuard::new(self, tenant);
        let alloc = self.place(tenant, needed)?;
        guard.blocks_claimed = true;
        span.field("fpgas_used", alloc.fpgas_used);
        span.field("hop_cost", alloc.hop_cost);

        let targets: Vec<RelocationTarget> = alloc
            .blocks
            .iter()
            .enumerate()
            .map(|(vb, &addr)| RelocationTarget {
                virtual_block: vb as u32,
                addr,
            })
            .collect();
        let placed = bitstream.bind(&targets).map_err(RuntimeError::Relocation)?;

        let primary_fpga = Self::primary_of(&alloc.blocks);
        self.memory[primary_fpga]
            .restore_space(tenant, &checkpoint.memory)
            .map_err(RuntimeError::Periph)?;
        guard.memory_fpga = Some(primary_fpga);

        let share = checkpoint.placement.requested_gbps;
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

        let nic = self.switch.create_nic(tenant, 64);
        guard.nic = Some(nic);

        // Continue the interface timeline past the longest drain so every
        // restored flit keeps its age.
        let clock = checkpoint.placement.clock
            + checkpoint
                .channels
                .iter()
                .map(|c| c.snapshot.drain_cycles)
                .max()
                .unwrap_or(0);
        let channels: Vec<Channel> = checkpoint
            .channels
            .iter()
            .map(|cc| {
                let link = Self::link_class_of(&alloc.blocks, cc.from_block, cc.to_block);
                if link == cc.snapshot.spec.link {
                    Channel::restore(&cc.snapshot, clock)
                } else {
                    // The placement changed the boundary the channel
                    // crosses: re-derive the spec, transplant the state.
                    let mut snap = cc.snapshot.clone();
                    snap.spec = ChannelSpec::for_link(link, snap.spec.width_bits.max(1));
                    Channel::restore(&snap, clock)
                }
            })
            .collect();

        let reconfig = self.reconfig_of(&alloc.blocks);
        let handle = DeployHandle {
            tenant,
            placed,
            nic,
            primary_fpga,
            reconfig,
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
        // The id is back in circulation: future deploys must not collide.
        self.next_tenant
            .fetch_max(tenant.raw() + 1, Ordering::Relaxed);
        self.suspended.lock().remove(&tenant);
        self.telemetry.inc_counter("runtime.resumes", 1);
        Ok(handle)
    }

    /// Live migration: suspend + resume in one step. The tenant's channel
    /// contents and DRAM bytes survive; the blocks (and possibly the
    /// primary FPGA) change. An open serialization window is waited out
    /// automatically — the migration machinery may stall the producer,
    /// unlike an explicit [`SystemController::suspend`], which reports it.
    ///
    /// Because the tenant's own blocks are freed before re-placement, the
    /// allocator sees them as candidates — a migration can therefore both
    /// consolidate (fewer FPGAs) and stay put (same blocks re-chosen).
    ///
    /// # Errors
    ///
    /// Everything suspend and resume can return. If the resume half fails
    /// (e.g. the cluster shrank mid-flight), the checkpoint stays parked:
    /// the tenant is suspended, not lost — resume it once capacity
    /// returns.
    pub fn migrate_live(&self, tenant: TenantId) -> Result<Migration, RuntimeError> {
        let _dirty = self.mark_status_dirty();
        let mut span = self.telemetry.span("runtime.migrate_live");
        span.field("tenant", tenant.raw());
        // Wait out any open serialization window.
        let (ready, clock) = {
            let tenants = self.tenants.lock();
            let state = tenants
                .get(&tenant)
                .ok_or(RuntimeError::UnknownTenant(tenant))?;
            (
                state
                    .channels
                    .iter()
                    .map(Channel::quiesce_ready_at)
                    .max()
                    .unwrap_or(0),
                state.clock,
            )
        };
        if clock < ready {
            self.settle_tenant(tenant, ready - clock)?;
        }
        let checkpoint = self.suspend(tenant)?;
        let handle = self.resume_from(&checkpoint)?;
        let blocks: Vec<_> = handle.placed.addresses().collect();
        let migration = Migration {
            tenant,
            fpgas_before: checkpoint.placement.fpgas_spanned,
            fpgas_after: handle.fpga_count(),
            reconfig: handle.reconfig,
            hop_cost_before: checkpoint.placement.hop_cost,
            hop_cost_after: self.placement_hop_cost(&blocks),
        };
        span.field("fpgas_before", migration.fpgas_before);
        span.field("fpgas_after", migration.fpgas_after);
        self.telemetry.inc_counter("runtime.live_migrations", 1);
        Ok(migration)
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
        let capsule = self
            .checkpoint_of(tenant)
            .ok_or(RuntimeError::NotSuspended(tenant))?;
        self.lift_portable(&capsule)
    }

    /// Builds the portable form of a capsule: netlist digest and scan
    /// footprint come from the registered image, the geometry stamp from
    /// this controller.
    fn lift_portable(
        &self,
        capsule: &TenantCheckpoint,
    ) -> Result<PortableCheckpoint, RuntimeError> {
        let bitstream = self.bitstreams.get(&capsule.placement.app)?;
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
    /// [`AppResolver`] (cache-hit-or-recompile, DESIGN.md §17) — and the
    /// resolved image's scan interface must match the capsule chain for
    /// chain before any state moves.
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
        portable
            .version
            .check("portable checkpoint")
            .map_err(RuntimeError::InvalidConfig)?;
        let mut span = self.telemetry.span("runtime.restore_portable");
        span.field("tenant", portable.tenant.raw());
        span.field("app", portable.placement.app.as_str());
        span.field("source_geometry", portable.source_geometry.as_str());
        let bitstream = self.bitstream_for_digest(&portable.placement.app, portable.app_digest)?;
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
        let capsule = portable.to_capsule();
        let handle = self.do_resume_from(&capsule)?;
        self.telemetry.inc_counter("runtime.portable_restores", 1);
        Ok(handle)
    }

    /// Resolves an app image whose netlist digest must equal `digest`:
    /// by name, by the digest index (re-registering under the capsule's
    /// name), or by recompiling through [`SystemController::prepare`]'s
    /// single-flight path.
    fn bitstream_for_digest(&self, app: &str, digest: u64) -> Result<AppBitstream, RuntimeError> {
        let verify = |bs: AppBitstream| {
            if bs.digest().as_u64() == digest {
                Ok(bs)
            } else {
                Err(RuntimeError::InvalidConfig(format!(
                    "app {app:?} resolves to netlist digest {:016x}, capsule expects {digest:016x}",
                    bs.digest().as_u64()
                )))
            }
        };
        if let Ok(bs) = self.bitstreams.get(app) {
            return verify(bs);
        }
        if let Some(bs) = self
            .bitstreams
            .get_by_digest(NetlistDigest::from_raw(digest))
        {
            let bs = self.bitstreams.insert_or_get(bs.renamed(app))?;
            self.persist_bitstreams();
            return Ok(bs);
        }
        self.prepare(app)?;
        verify(self.bitstreams.get(app)?)
    }

    /// Suspends, lifts, and restores `tenant` through the portable format
    /// on this controller — the slow-path half of
    /// [`ControlRequest::Migrate`] with [`MigratePolicy::Portable`].
    /// Identical observable behaviour to [`SystemController::migrate_live`]
    /// on the same geometry; unlike it, the capsule survives a geometry
    /// change because only logical state crosses.
    ///
    /// # Errors
    ///
    /// Everything suspend and [`SystemController::restore_portable`] can
    /// return; on a restore failure the checkpoint stays parked.
    pub fn migrate_portable(&self, tenant: TenantId) -> Result<Migration, RuntimeError> {
        let _dirty = self.mark_status_dirty();
        let mut span = self.telemetry.span("runtime.migrate_portable");
        span.field("tenant", tenant.raw());
        let (ready, clock) = {
            let tenants = self.tenants.lock();
            let state = tenants
                .get(&tenant)
                .ok_or(RuntimeError::UnknownTenant(tenant))?;
            (
                state
                    .channels
                    .iter()
                    .map(Channel::quiesce_ready_at)
                    .max()
                    .unwrap_or(0),
                state.clock,
            )
        };
        if clock < ready {
            self.settle_tenant(tenant, ready - clock)?;
        }
        let checkpoint = self.suspend(tenant)?;
        let migration = self.finish_portable_restore(&checkpoint)?;
        span.field("fpgas_before", migration.fpgas_before);
        span.field("fpgas_after", migration.fpgas_after);
        self.telemetry.inc_counter("runtime.portable_migrations", 1);
        Ok(migration)
    }

    /// The restore half of a portable migration, also used as the
    /// [`MigratePolicy::Auto`] fallback when the fast path parked a
    /// capsule and then failed to re-admit it.
    fn finish_portable_restore(
        &self,
        checkpoint: &TenantCheckpoint,
    ) -> Result<Migration, RuntimeError> {
        let portable = self.lift_portable(checkpoint)?;
        let handle = self.restore_portable(&portable)?;
        let blocks: Vec<_> = handle.placed.addresses().collect();
        Ok(Migration {
            tenant: checkpoint.tenant,
            fpgas_before: checkpoint.placement.fpgas_spanned,
            fpgas_after: handle.fpga_count(),
            reconfig: handle.reconfig,
            hop_cost_before: checkpoint.placement.hop_cost,
            hop_cost_after: self.placement_hop_cost(&blocks),
        })
    }

    /// Dispatches a migration by [`MigratePolicy`], returning the
    /// migration record together with the policy that actually ran
    /// (`Auto` resolves to the winner, never itself).
    ///
    /// # Errors
    ///
    /// Whatever the selected path returns; under `Auto` the fast path's
    /// error is reported if the portable fallback cannot help either.
    pub fn migrate_with_policy(
        &self,
        tenant: TenantId,
        policy: MigratePolicy,
    ) -> Result<(Migration, MigratePolicy), RuntimeError> {
        match policy {
            MigratePolicy::SameGeometry => self
                .migrate_live(tenant)
                .map(|m| (m, MigratePolicy::SameGeometry)),
            MigratePolicy::Portable => self
                .migrate_portable(tenant)
                .map(|m| (m, MigratePolicy::Portable)),
            MigratePolicy::Auto => match self.migrate_live(tenant) {
                Ok(m) => Ok((m, MigratePolicy::SameGeometry)),
                Err(first) => {
                    // The fast path parks the capsule before re-admitting;
                    // if it died after that point, retry the restore half
                    // through the portable format. If it died earlier the
                    // tenant is still live and the full portable migration
                    // runs. The fallback's own error is less informative
                    // than the fast path's, so `first` wins on a double
                    // failure.
                    let fallback = match self.checkpoint_of(tenant) {
                        Some(cp) => self.finish_portable_restore(&cp),
                        None => self.migrate_portable(tenant),
                    };
                    fallback
                        .map(|m| (m, MigratePolicy::Portable))
                        .map_err(|_| first)
                }
            },
        }
    }

    /// Tenants currently parked in suspended state, sorted.
    pub fn suspended_tenants(&self) -> Vec<TenantId> {
        let mut v: Vec<TenantId> = self.suspended.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The parked checkpoint of a suspended tenant, if any.
    pub fn checkpoint_of(&self, tenant: TenantId) -> Option<TenantCheckpoint> {
        self.suspended.lock().get(&tenant).cloned()
    }

    /// A clone of the live [`DeployHandle`] of `tenant`, or `None` if the
    /// tenant is not currently deployed. The snapshot reflects the
    /// placement at admission time; query
    /// [`SystemController::resources`] for the live one.
    pub fn handle_of(&self, tenant: TenantId) -> Option<DeployHandle> {
        self.tenants.lock().get(&tenant).map(|s| s.handle.clone())
    }

    /// Installs the compile hook behind [`ControlRequest::Prepare`]: asked
    /// to prepare an unregistered application, the controller calls the
    /// resolver to produce its bitstream (the `vitald` daemon installs one
    /// that compiles the named benchmark workload). Without a resolver,
    /// preparing an unknown name fails with [`RuntimeError::UnknownApp`].
    pub fn set_app_resolver(&self, resolver: AppResolver) {
        *self.resolver.lock() = Some(Arc::new(resolver));
    }

    /// [`ControlRequest::Prepare`]: ensure the named app is registered,
    /// resolving (compiling) it if needed.
    ///
    /// The resolver runs *outside* the resolver lock, so prepares of
    /// different apps compile in parallel; prepares of the **same** app
    /// dedupe through the farm's name-keyed single-flight table — the
    /// followers report `cache_hit: true` once the leader publishes.
    fn prepare(&self, app: &str) -> Result<ControlResponse, RuntimeError> {
        if self.farm.demand.record(app) {
            self.persist_demand();
        }
        loop {
            if self.bitstreams.get(app).is_ok() {
                return Ok(ControlResponse::Prepared {
                    app: app.to_string(),
                    cache_hit: true,
                });
            }
            match self.farm.by_name.join(app.to_string()) {
                FlightRole::Leader(flight) => {
                    if self.bitstreams.get(app).is_ok() {
                        flight.publish(Ok(()));
                        continue;
                    }
                    let mut span = self.telemetry.span("runtime.prepare");
                    span.field("app", app);
                    let resolve = self.resolver.lock().clone();
                    let Some(resolve) = resolve else {
                        let err = RuntimeError::UnknownApp(app.to_string());
                        flight.publish(Err(err.clone()));
                        return Err(err);
                    };
                    self.farm.counters.compiles.fetch_add(1, Ordering::Relaxed);
                    let registered = resolve(app).and_then(|bitstream| {
                        self.bitstreams.insert_or_get(bitstream.renamed(app))
                    });
                    match registered {
                        Ok(_) => {
                            flight.publish(Ok(()));
                            self.persist_bitstreams();
                            return Ok(ControlResponse::Prepared {
                                app: app.to_string(),
                                cache_hit: false,
                            });
                        }
                        Err(e) => {
                            flight.publish(Err(e.clone()));
                            return Err(e);
                        }
                    }
                }
                FlightRole::Follower(flight) => {
                    self.farm
                        .counters
                        .single_flight_waits
                        .fetch_add(1, Ordering::Relaxed);
                    match flight.wait() {
                        FlightResult::Done(Ok(())) => {}
                        FlightResult::Done(Err(e)) => return Err(e),
                        FlightResult::Aborted => {}
                    }
                }
            }
        }
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
        let resolve = self.resolver.lock().clone();
        let Some(resolve) = resolve else {
            // Still checkpoint the demand ranking: a daemon ticking
            // without a resolver should not lose demand history across a
            // restart.
            self.persist_demand();
            return Vec::new();
        };
        let candidates = self
            .farm
            .demand
            .top(limit, |name| self.bitstreams.get(name).is_err());
        let mut compiled = Vec::new();
        for name in candidates {
            // Speculation shares the prepare path's name-keyed flights:
            // if a demand-driven prepare (or another speculation round)
            // already leads a compile of this app, don't duplicate the
            // P&R — the leader's publish caches it just the same.
            let FlightRole::Leader(flight) = self.farm.by_name.join(name.clone()) else {
                continue;
            };
            if self.bitstreams.get(&name).is_ok() {
                flight.publish(Ok(()));
                continue;
            }
            let mut span = self.telemetry.span("runtime.speculate");
            span.field("app", name.as_str());
            self.farm.counters.compiles.fetch_add(1, Ordering::Relaxed);
            let registered = resolve(&name)
                .and_then(|bitstream| self.bitstreams.insert_or_get(bitstream.renamed(&name)));
            let ok = registered.is_ok();
            span.field("ok", ok);
            flight.publish(registered.map(|_| ()));
            if ok {
                self.farm
                    .counters
                    .speculative_compiles
                    .fetch_add(1, Ordering::Relaxed);
                compiled.push(name);
            }
        }
        if !compiled.is_empty() {
            self.persist_bitstreams();
        }
        // The speculation tick doubles as the demand profile's checkpoint:
        // even a round that compiled nothing persists the ranking, so a
        // restart never loses more than one tick of demand history.
        self.persist_demand();
        compiled
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
    /// [`ControlRequest`]. The legacy methods (`deploy`,
    /// `deploy_with_quota`, `resume_from`, …) are thin shims over this.
    ///
    /// # Errors
    ///
    /// The union of what the individual operations return, as a typed
    /// [`RuntimeError`]. Use [`SystemController::execute`] to get failures
    /// as a [`ControlResponse::Err`] value instead (the wire shape).
    pub fn try_execute(&self, req: ControlRequest) -> Result<ControlResponse, RuntimeError> {
        match req {
            ControlRequest::Deploy(r) => match (r.restore, r.backend) {
                (Some(cp), _) => {
                    let handle = self.do_resume_from(&cp)?;
                    Ok(ControlResponse::Resumed(DeploySummary::from(&handle)))
                }
                (None, DeployBackend::Isa) => {
                    Ok(ControlResponse::Deployed(self.do_deploy_isa(&r.app)?))
                }
                (None, DeployBackend::Fabric) => {
                    let handle = self.do_deploy(&r.app, r.quota_bytes)?;
                    Ok(ControlResponse::Deployed(DeploySummary::from(&handle)))
                }
            },
            ControlRequest::Undeploy { tenant } => {
                self.undeploy(TenantId::new(tenant))?;
                Ok(ControlResponse::Undeployed { tenant })
            }
            ControlRequest::Checkpoint { tenant } => {
                let cp = self.suspend(TenantId::new(tenant))?;
                let mut summary = SuspendSummary::from(&cp);
                // The capsule is portable whenever its image (and thus
                // scan interface) is still registered; advertise that.
                if let Ok(portable) = self.lift_portable(&cp) {
                    summary = summary.with_portability(portable.scan_bits());
                }
                Ok(ControlResponse::Suspended(summary))
            }
            ControlRequest::Restore { tenant } => {
                let handle = self.resume(TenantId::new(tenant))?;
                Ok(ControlResponse::Resumed(DeploySummary::from(&handle)))
            }
            ControlRequest::Migrate { tenant, policy } => {
                let (m, ran) = self.migrate_with_policy(TenantId::new(tenant), policy)?;
                Ok(ControlResponse::Migrated(
                    MigrationSummary::from(&m).with_policy(ran),
                ))
            }
            ControlRequest::Evacuate { fpga } => {
                self.check_fpga(fpga)?;
                let report = self.evacuate(fpga);
                Ok(ControlResponse::Evacuated(EvacuationSummary::from_report(
                    fpga, &report,
                )))
            }
            ControlRequest::Fail { fpga } => {
                self.check_fpga(fpga)?;
                let report = self.fail_fpga(fpga);
                Ok(ControlResponse::FpgaFailed(FailureSummary::from_report(
                    fpga, &report,
                )))
            }
            ControlRequest::Recover { fpga } => {
                self.check_fpga(fpga)?;
                self.recover_fpga(fpga);
                Ok(ControlResponse::Recovered { fpga })
            }
            ControlRequest::Defragment => {
                let migrations = self
                    .defragment()
                    .iter()
                    .map(MigrationSummary::from)
                    .collect();
                Ok(ControlResponse::Defragmented { migrations })
            }
            ControlRequest::Status => Ok(ControlResponse::Status(self.status_summary())),
            ControlRequest::Prepare { app } => self.prepare(&app),
            ControlRequest::Scale { tenant, tiles } => {
                Ok(ControlResponse::Scaled(self.scale_isa(tenant, tiles)?))
            }
        }
    }

    /// Like [`SystemController::try_execute`], but failures come back as a
    /// [`ControlResponse::Err`] carrying the shared [`ApiError`] taxonomy
    /// — the exact value a remote `vitald` client would receive, so
    /// in-process and networked callers behave identically.
    pub fn execute(&self, req: ControlRequest) -> ControlResponse {
        self.try_execute(req)
            .unwrap_or_else(|e| ControlResponse::Err(ApiError::from(&e)))
    }

    /// Executes a batch admitted as **one allocator round**: the requests
    /// run back-to-back under a single `runtime.admission_round` telemetry
    /// span (the `vitald` service batches compatible deploys this way).
    /// Each request still answers individually — one response per request,
    /// in order.
    pub fn execute_many(&self, reqs: Vec<ControlRequest>) -> Vec<ControlResponse> {
        self.execute_round(reqs, 1)
    }

    /// Like [`SystemController::execute_many`], annotated with how many
    /// admission-queue shards contributed requests to the round. A
    /// sharded `vitald` sweeps compatible deploys from every shard into
    /// one allocator round so sharding does not fragment batching; the
    /// `shards_spanned` field makes those cross-shard rounds visible in
    /// telemetry (`runtime.cross_shard_rounds`).
    pub fn execute_round(
        &self,
        reqs: Vec<ControlRequest>,
        shards_spanned: usize,
    ) -> Vec<ControlResponse> {
        let mut span = self.telemetry.span("runtime.admission_round");
        span.field("batch", reqs.len());
        span.field("shards", shards_spanned);
        self.telemetry.inc_counter("runtime.admission_rounds", 1);
        if shards_spanned > 1 {
            self.telemetry.inc_counter("runtime.cross_shard_rounds", 1);
        }
        reqs.into_iter().map(|r| self.execute(r)).collect()
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
    pub fn status_summary(&self) -> StatusSummary {
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
        let free_counts = self.resources.free_counts();
        let fpgas = (0..self.resources.fpga_count())
            .map(|f| {
                let health = match self.resources.health_of(f) {
                    FpgaHealth::Online => "Online",
                    FpgaHealth::Draining => "Draining",
                    FpgaHealth::Offline => "Offline",
                };
                let blocks = (0..self.resources.blocks_of(f))
                    .map(|b| {
                        let addr = vital_fabric::BlockAddr::new(
                            FpgaId::new(f as u32),
                            vital_fabric::PhysicalBlockId::new(b as u32),
                        );
                        match self.resources.state(addr) {
                            Some(crate::BlockState::Active(t)) => t.raw(),
                            _ => 0,
                        }
                    })
                    .collect();
                FpgaStatus {
                    fpga: f,
                    health: health.to_string(),
                    blocks,
                    free: free_counts[f],
                }
            })
            .collect();
        let stats = self.failure_stats();
        // Tenants scaled to zero tiles are still deployed, so list from
        // the tenant table, not the pool's owners.
        let (isa_tenants, isa_tiles_total, isa_tiles_free) = {
            let isa = self.isa.lock();
            match isa.as_ref() {
                Some(s) => {
                    let mut ids: Vec<u64> = s.tenants.keys().map(|t| t.raw()).collect();
                    ids.sort_unstable();
                    (ids, s.pool.total(), s.pool.free_count())
                }
                None => (Vec::new(), 0, 0),
            }
        };
        StatusSummary {
            fpgas,
            total_free: self.resources.total_free(),
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

/// Modelled time to switch `tiles` tiles to a new instruction stream, in
/// whole microseconds.
fn switch_us(tiles: usize) -> u64 {
    (tiles as f64 * TILE_SWITCH_S * 1.0e6).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_compiler::{Compiler, CompilerConfig};
    use vital_netlist::hls::{AppSpec, Operator};

    fn controller_with(names_and_pes: &[(&str, u32)]) -> SystemController {
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        let compiler = Compiler::new(CompilerConfig::default());
        for &(name, pes) in names_and_pes {
            let mut spec = AppSpec::new(name);
            spec.add_operator("m", Operator::MacArray { pes });
            c.register(compiler.compile(&spec).unwrap().into_bitstream())
                .unwrap();
        }
        c
    }

    #[test]
    fn topology_must_match_cluster_size() {
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        let fpgas = c.resources().fpga_count();
        let err = SystemController::new(RuntimeConfig::paper_cluster())
            .with_topology(Topology::ring(fpgas + 1))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)));
        let c = c.with_topology(Topology::ring(fpgas)).unwrap();
        assert_eq!(c.topology().len(), fpgas);
    }

    #[test]
    fn pod_topology_controller_deploys_and_accounts_hops() {
        // 2 pods x 2 FPGAs, 4 blocks each. A 6-block app must span two
        // FPGAs; the allocator should keep the span inside one pod (1 hop)
        // rather than across the 3-hop pod boundary.
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
        c.register(wide).unwrap();
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
    fn defragment_consolidates_spanning_tenants() {
        // DSP-bound designs: 8 blocks (3700 DSPs) and 10 blocks (4700).
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        let compiler = Compiler::new(CompilerConfig::default());
        for (name, dsps) in [("eight", 3_700u32), ("ten", 4_700u32)] {
            let mut spec = AppSpec::new(name);
            spec.add_operator(
                "x",
                Operator::Custom {
                    slices: 200,
                    dsps,
                    brams: 0,
                },
            );
            c.register(compiler.compile(&spec).unwrap().into_bitstream())
                .unwrap();
        }
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
    fn register_compiled_reuses_cached_images() {
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        let compiler = Compiler::new(CompilerConfig::default());
        let spec_named = |name: &str| {
            let mut spec = AppSpec::new(name);
            spec.add_operator("m", Operator::MacArray { pes: 8 });
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
        let compiler = Compiler::new(CompilerConfig::default());
        let mut spec = AppSpec::new("big");
        spec.add_operator(
            "x",
            Operator::Custom {
                slices: 200,
                dsps: 4_700,
                brams: 0,
            },
        );
        c.register(compiler.compile(&spec).unwrap().into_bitstream())
            .unwrap();
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
        let compiler = Compiler::new(CompilerConfig::default());
        for (name, dsps) in [("twelve", 5_600u32), ("eight", 3_700u32)] {
            let mut spec = AppSpec::new(name);
            spec.add_operator(
                "x",
                Operator::Custom {
                    slices: 200,
                    dsps,
                    brams: 0,
                },
            );
            c.register(compiler.compile(&spec).unwrap().into_bitstream())
                .unwrap();
        }
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
    fn try_with_layout_rejects_degenerate_clusters() {
        let cfg = RuntimeConfig::paper_cluster();
        assert!(matches!(
            SystemController::try_with_layout(cfg, vec![]),
            Err(RuntimeError::InvalidConfig(_))
        ));
        assert!(matches!(
            SystemController::try_with_layout(cfg, vec![15, 0, 15]),
            Err(RuntimeError::InvalidConfig(_))
        ));
        assert!(SystemController::try_with_layout(cfg, vec![15, 15]).is_ok());
    }

    #[test]
    fn controller_ops_emit_spans_with_allocation_fields() {
        use vital_telemetry::{FieldValue, Telemetry};
        let tel = Telemetry::recording();
        let c = SystemController::new(RuntimeConfig::paper_cluster()).with_telemetry(tel.clone());
        let compiler = Compiler::new(CompilerConfig::default());
        let mut spec = AppSpec::new("a");
        spec.add_operator("m", Operator::MacArray { pes: 8 });
        c.register(compiler.compile(&spec).unwrap().into_bitstream())
            .unwrap();
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

    /// A chain of operators with `width`-bit edges: cuts between blocks
    /// become real channels, so the deployment exercises the interface.
    fn chained_spec(name: &str, pipelines: u32, width: u32) -> AppSpec {
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

    fn register_chained(c: &SystemController, name: &str, pipelines: u32, width: u32) {
        let compiler = Compiler::new(CompilerConfig::default());
        c.register(
            compiler
                .compile(&chained_spec(name, pipelines, width))
                .unwrap()
                .into_bitstream(),
        )
        .unwrap();
    }

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
        assert!(c.live_tenants().is_empty());
        assert_eq!(c.suspended_tenants(), vec![t]);
        assert!(c.resources().total_free() > free_before);
        assert_eq!(c.memory_of(h.primary_fpga()).tenant_count(), 0);
        assert_eq!(c.switch().nic_count(), 0);
        assert!(matches!(
            c.run_tenant(t, 1),
            Err(RuntimeError::UnknownTenant(_))
        ));

        let h2 = c.resume(t).unwrap();
        assert_eq!(h2.tenant(), t, "tenant id survives the round trip");
        assert_eq!(c.live_tenants(), vec![t]);
        assert!(c.suspended_tenants().is_empty());
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
            let mut tenants = c.tenants.lock();
            let state = tenants.get_mut(&t).unwrap();
            ch.push(state.clock);
            state.channels[0] = ch;
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
        assert_eq!(c.live_tenants(), vec![t]);
        assert!(c.suspended_tenants().is_empty());
        assert!(c.channel_occupancy(t).is_ok());
        // Clock-gate the producers past the window and retry.
        c.settle_tenant(t, ready_at - now).unwrap();
        let checkpoint = c.suspend(t).unwrap();
        assert_eq!(checkpoint.tenant, t);
        assert!(checkpoint.total_flits() > 0);
    }

    #[test]
    fn migrate_live_preserves_channel_and_dram_state() {
        // Same shape as the defragment test — free a board, then live-
        // migrate the spanning tenant onto it — but with an app whose
        // channels carry real traffic.
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        let compiler = Compiler::new(CompilerConfig::default());
        let mut spec = AppSpec::new("eight");
        spec.add_operator(
            "x",
            Operator::Custom {
                slices: 200,
                dsps: 3_700,
                brams: 0,
            },
        );
        c.register(compiler.compile(&spec).unwrap().into_bitstream())
            .unwrap();
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
        let m = c.migrate_live(t).unwrap();
        assert_eq!(m.tenant, t);
        assert_eq!(m.fpgas_after, 1);
        assert!(m.hop_cost_after <= m.hop_cost_before);
        // The tenant is live (not parked) on the new placement with its
        // interface and DRAM state intact.
        assert!(c.live_tenants().contains(&t));
        assert!(c.suspended_tenants().is_empty());
        assert_eq!(c.channel_occupancy(t).unwrap(), occupancy);
        let new_primary = SystemController::primary_of(&c.resources().holdings(t));
        let mut buf = [0u8; 7];
        c.memory_of(new_primary).read(t, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
        c.run_tenant(t, 16).unwrap();
    }

    #[test]
    fn defragment_never_increases_hop_cost() {
        // Regression test: consolidation must be judged on ring hops too,
        // not only on the number of FPGAs spanned. Run the consolidation
        // scenario and check the invariant on every reported move.
        let c = SystemController::new(RuntimeConfig::paper_cluster());
        let compiler = Compiler::new(CompilerConfig::default());
        for (name, dsps) in [("eight", 3_700u32), ("ten", 4_700u32)] {
            let mut spec = AppSpec::new(name);
            spec.add_operator(
                "x",
                Operator::Custom {
                    slices: 200,
                    dsps,
                    brams: 0,
                },
            );
            c.register(compiler.compile(&spec).unwrap().into_bitstream())
                .unwrap();
        }
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
