//! The unified control-plane request API.
//!
//! Every management operation the [`SystemController`] performs — deploy,
//! undeploy, checkpoint, restore, migrate, evacuate, fail/recover,
//! defragment, status — is expressible as one typed [`ControlRequest`],
//! answered by one typed [`ControlResponse`]. The enums (and the summary
//! DTOs they carry) implement `Serialize`/`Deserialize`, so the same value
//! travels the `vitald` wire protocol (DESIGN.md §12) and the in-process
//! [`SystemController::execute`] path unchanged.
//!
//! Tenants cross this boundary as raw `u64` ids rather than
//! [`TenantId`] handles: the wire has no notion of a live handle, and a
//! stale id is answered with a typed
//! [`ErrorCode::UnknownTenant`](vital_interface::ErrorCode::UnknownTenant)
//! rather than a panic.
//!
//! [`SystemController`]: crate::SystemController
//! [`SystemController::execute`]: crate::SystemController::execute
//! [`TenantId`]: vital_periph::TenantId

use std::time::Duration;

use serde::{Deserialize, Serialize};
use vital_interface::{ApiError, FormatVersion};
use vital_periph::TenantId;

use crate::controller::{EvacuationReport, FailureReport, Migration};
use crate::{DeployHandle, TenantCheckpoint};

/// Which execution substrate a deployment lands on.
///
/// The controller runs two backends side by side: ViTAL's spatial
/// virtualization (tenants own physical blocks, programmed by partial
/// reconfiguration) and the `vital-isa` instruction-level backend (tenants
/// own compute tiles of a static accelerator template, switched by
/// instruction-stream pointer). The request picks per deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeployBackend {
    /// Spatial: compile/relocate a bitstream onto physical blocks.
    Fabric,
    /// Instruction-level: grant tiles from the shared ISA template pool.
    Isa,
}

/// A deployment request: which app to place and under what memory quota,
/// or — when [`restore`](DeployRequest::restore) is set — which parked
/// checkpoint capsule to re-admit.
///
/// ```
/// use vital_runtime::DeployRequest;
///
/// let r = DeployRequest::app("lenet").with_quota_bytes(64 << 20);
/// assert_eq!(r.quota_bytes, 64 << 20);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployRequest {
    /// Name of the registered application bitstream. Ignored when
    /// [`restore`](DeployRequest::restore) is set (the capsule names its
    /// own app).
    pub app: String,
    /// DRAM quota in bytes; `0` means the controller's configured default.
    pub quota_bytes: u64,
    /// When set, re-admit this checkpoint capsule instead of performing a
    /// fresh placement.
    pub restore: Option<TenantCheckpoint>,
    /// Which backend places the app. Fabric (ViTAL spatial) unless the
    /// request opts into the ISA template pool.
    pub backend: DeployBackend,
}

impl DeployRequest {
    /// A fresh deployment of the named app under the default DRAM quota.
    pub fn app(name: impl Into<String>) -> Self {
        DeployRequest {
            app: name.into(),
            quota_bytes: 0,
            restore: None,
            backend: DeployBackend::Fabric,
        }
    }

    /// A deployment of the named DNN suite variant onto the ISA backend's
    /// shared tile pool (no bitstream, no reconfiguration).
    pub fn isa(name: impl Into<String>) -> Self {
        DeployRequest {
            app: name.into(),
            quota_bytes: 0,
            restore: None,
            backend: DeployBackend::Isa,
        }
    }

    /// A lossless re-admission of a parked checkpoint capsule.
    pub fn restore(checkpoint: TenantCheckpoint) -> Self {
        DeployRequest {
            app: checkpoint.placement.app.clone(),
            quota_bytes: 0,
            restore: Some(checkpoint),
            backend: DeployBackend::Fabric,
        }
    }

    /// Override the DRAM quota (`0` keeps the controller default).
    #[must_use]
    pub fn with_quota_bytes(mut self, quota_bytes: u64) -> Self {
        self.quota_bytes = quota_bytes;
        self
    }

    /// Override the target backend (builder style).
    #[must_use]
    pub fn with_backend(mut self, backend: DeployBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// How a [`ControlRequest::Migrate`] is allowed to move the tenant.
///
/// `SameGeometry` is the PR 4 fast path: the parked capsule rebinds the
/// *same* compiled image to new blocks, so it only works between identical
/// device geometries. `Portable` lifts the capsule into the
/// geometry-independent [`PortableCheckpoint`](vital_checkpoint::PortableCheckpoint)
/// format and restores through recompile-or-cache-hit, so the target may be
/// a different device model. `Auto` tries the fast path and falls back to
/// the portable one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigratePolicy {
    /// Rebind the existing image — identical geometries only (fast path).
    #[default]
    SameGeometry,
    /// Go through the portable capsule and the build farm (works across
    /// device geometries).
    Portable,
    /// Try [`MigratePolicy::SameGeometry`] first, fall back to
    /// [`MigratePolicy::Portable`].
    Auto,
}

/// One control-plane operation, covering the controller's whole management
/// surface. Constructed directly or via the convenience constructors
/// ([`ControlRequest::deploy`] etc.), and executed by
/// [`SystemController::execute`](crate::SystemController::execute) or
/// submitted to a `vitald` service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ControlRequest {
    /// Place an application (or restore a checkpoint capsule).
    Deploy(DeployRequest),
    /// Tear a tenant down and scrub its state.
    Undeploy {
        /// Raw id of the tenant to remove.
        tenant: u64,
    },
    /// Quiesce a tenant and park its checkpoint capsule.
    Checkpoint {
        /// Raw id of the tenant to checkpoint.
        tenant: u64,
    },
    /// Re-admit a previously checkpointed tenant from its parked capsule.
    Restore {
        /// Raw id of the parked tenant.
        tenant: u64,
    },
    /// Live-migrate a tenant to a better placement (checkpoint + restore),
    /// under the given policy.
    Migrate {
        /// Raw id of the tenant to move.
        tenant: u64,
        /// How the move is allowed to happen.
        policy: MigratePolicy,
    },
    /// Drain a device by live-migrating its tenants elsewhere.
    Evacuate {
        /// Device to drain.
        fpga: usize,
    },
    /// Declare a device failed and rescue its tenants.
    Fail {
        /// Device that failed.
        fpga: usize,
    },
    /// Bring a failed or drained device back online.
    Recover {
        /// Device to restore.
        fpga: usize,
    },
    /// Compact fragmented placements cluster-wide.
    Defragment,
    /// Snapshot cluster health, occupancy and tenancy.
    Status,
    /// Ensure the named app's bitstream is registered, compiling it via
    /// the controller's app resolver if necessary.
    Prepare {
        /// Application name to resolve.
        app: String,
    },
    /// Elastically resize an ISA tenant's compute-tile share. The change
    /// takes effect at the next quantum boundary at micro-second cost —
    /// no reconfiguration, unlike resizing a fabric tenant.
    Scale {
        /// Raw id of the ISA tenant to resize.
        tenant: u64,
        /// Target tile share.
        tiles: u32,
    },
}

impl ControlRequest {
    /// Deploy the named app under the default quota.
    pub fn deploy(app: impl Into<String>) -> Self {
        ControlRequest::Deploy(DeployRequest::app(app))
    }

    /// Undeploy the tenant.
    pub fn undeploy(tenant: TenantId) -> Self {
        ControlRequest::Undeploy {
            tenant: tenant.raw(),
        }
    }

    /// Checkpoint the tenant (quiesce + park its capsule).
    pub fn checkpoint(tenant: TenantId) -> Self {
        ControlRequest::Checkpoint {
            tenant: tenant.raw(),
        }
    }

    /// Restore the parked tenant from its capsule.
    pub fn restore(tenant: TenantId) -> Self {
        ControlRequest::Restore {
            tenant: tenant.raw(),
        }
    }

    /// Live-migrate the tenant on the identical-geometry fast path.
    pub fn migrate(tenant: TenantId) -> Self {
        Self::migrate_with(tenant, MigratePolicy::SameGeometry)
    }

    /// Live-migrate the tenant under an explicit [`MigratePolicy`].
    pub fn migrate_with(tenant: TenantId, policy: MigratePolicy) -> Self {
        ControlRequest::Migrate {
            tenant: tenant.raw(),
            policy,
        }
    }

    /// Resize an ISA tenant's tile share.
    pub fn scale(tenant: TenantId, tiles: u32) -> Self {
        ControlRequest::Scale {
            tenant: tenant.raw(),
            tiles,
        }
    }

    /// The stable endpoint name of this request, used for per-endpoint
    /// telemetry (latency histograms are keyed
    /// `service.latency_us.<endpoint>`).
    pub fn endpoint(&self) -> &'static str {
        match self {
            ControlRequest::Deploy(r) if r.restore.is_some() => "restore",
            ControlRequest::Deploy(_) => "deploy",
            ControlRequest::Undeploy { .. } => "undeploy",
            ControlRequest::Checkpoint { .. } => "checkpoint",
            ControlRequest::Restore { .. } => "restore",
            ControlRequest::Migrate { .. } => "migrate",
            ControlRequest::Evacuate { .. } => "evacuate",
            ControlRequest::Fail { .. } => "fail",
            ControlRequest::Recover { .. } => "recover",
            ControlRequest::Defragment => "defrag",
            ControlRequest::Status => "status",
            ControlRequest::Prepare { .. } => "prepare",
            ControlRequest::Scale { .. } => "scale",
        }
    }
}

/// What one successful deployment (or resume) produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploySummary {
    /// Raw id of the admitted tenant.
    pub tenant: u64,
    /// Name of the deployed application.
    pub app: String,
    /// Physical blocks the placement uses.
    pub blocks: usize,
    /// Distinct FPGAs the placement spans.
    pub fpgas: usize,
    /// The FPGA hosting the majority of the blocks (and the DRAM).
    pub primary_fpga: usize,
    /// Modelled partial-reconfiguration time, in microseconds.
    pub reconfig_us: u64,
    /// DRAM bandwidth share granted at admission, in Gb/s.
    pub granted_gbps: f64,
}

impl From<&DeployHandle> for DeploySummary {
    fn from(h: &DeployHandle) -> Self {
        DeploySummary {
            tenant: h.tenant().raw(),
            app: h.placed().app.clone(),
            blocks: h.placed().bindings.len(),
            fpgas: h.fpga_count(),
            primary_fpga: h.primary_fpga(),
            reconfig_us: duration_us(h.reconfig_duration()),
            granted_gbps: h.bandwidth().granted_gbps,
        }
    }
}

/// What one elastic tile-share change did (ISA backend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScaleSummary {
    /// Raw id of the resized tenant.
    pub tenant: u64,
    /// Tile share before the change.
    pub tiles_before: u32,
    /// Tile share after the change.
    pub tiles_after: u32,
    /// Modelled stream-switch time of the change, in microseconds —
    /// compare [`DeploySummary::reconfig_us`] on the fabric backend,
    /// which is milliseconds for the same capacity delta.
    pub realloc_us: u64,
}

/// What checkpointing (suspending) a tenant captured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuspendSummary {
    /// Raw id of the suspended tenant.
    pub tenant: u64,
    /// Channels whose state was captured.
    pub channels: usize,
    /// In-flight flits drained into the capsule.
    pub flits: usize,
    /// DRAM bytes exported into the capsule.
    pub dram_bytes: u64,
    /// Format version a portable export of this capsule would carry.
    pub capsule_version: FormatVersion,
    /// `true` if the capsule can be lifted into the geometry-independent
    /// portable format (the compiled image exposes a scan interface).
    pub portable: bool,
    /// State bits the scan interface captures (0 when not portable).
    pub scan_bits: u64,
}

impl SuspendSummary {
    /// Marks the capsule as portable, recording its scan-state footprint
    /// (builder style, used by the controller's checkpoint path).
    #[must_use]
    pub fn with_portability(mut self, scan_bits: u64) -> Self {
        self.portable = true;
        self.scan_bits = scan_bits;
        self
    }
}

impl From<&TenantCheckpoint> for SuspendSummary {
    fn from(cp: &TenantCheckpoint) -> Self {
        SuspendSummary {
            tenant: cp.tenant.raw(),
            channels: cp.channels.len(),
            flits: cp.channels.iter().map(|c| c.snapshot.occupancy()).sum(),
            dram_bytes: cp.memory.pages.len() as u64 * cp.memory.page_size,
            capsule_version: FormatVersion::CURRENT,
            portable: false,
            scan_bits: 0,
        }
    }
}

/// One completed relocation, as reported over the control plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationSummary {
    /// Raw id of the migrated tenant.
    pub tenant: u64,
    /// Distinct FPGAs spanned before the move.
    pub fpgas_before: usize,
    /// Distinct FPGAs spanned after the move.
    pub fpgas_after: usize,
    /// Partial-reconfiguration downtime the move charged, in microseconds.
    pub reconfig_us: u64,
    /// Ring-hop cost before the move.
    pub hop_cost_before: usize,
    /// Ring-hop cost after the move.
    pub hop_cost_after: usize,
    /// Which migration path actually ran (under [`MigratePolicy::Auto`]
    /// this records the winner, never `Auto` itself).
    pub policy: MigratePolicy,
}

impl MigrationSummary {
    /// Records which migration path produced this summary (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: MigratePolicy) -> Self {
        self.policy = policy;
        self
    }
}

impl From<&Migration> for MigrationSummary {
    fn from(m: &Migration) -> Self {
        MigrationSummary {
            tenant: m.tenant.raw(),
            fpgas_before: m.fpgas_before,
            fpgas_after: m.fpgas_after,
            reconfig_us: duration_us(m.reconfig),
            hop_cost_before: m.hop_cost_before,
            hop_cost_after: m.hop_cost_after,
            policy: MigratePolicy::SameGeometry,
        }
    }
}

/// What an evacuation managed to move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvacuationSummary {
    /// The drained device.
    pub fpga: usize,
    /// Tenants live-migrated off it.
    pub migrated: Vec<MigrationSummary>,
    /// Raw ids of tenants left in place for lack of capacity.
    pub unmoved: Vec<u64>,
}

impl EvacuationSummary {
    pub(crate) fn from_report(fpga: usize, r: &EvacuationReport) -> Self {
        EvacuationSummary {
            fpga,
            migrated: r.migrated.iter().map(MigrationSummary::from).collect(),
            unmoved: r.unmoved.iter().map(|t| t.raw()).collect(),
        }
    }
}

/// What declaring a device failed did to the affected tenants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureSummary {
    /// The failed device.
    pub fpga: usize,
    /// Tenants rescued onto surviving devices.
    pub migrated: Vec<MigrationSummary>,
    /// Raw ids of tenants torn down because no placement could hold them.
    pub torn_down: Vec<u64>,
}

impl FailureSummary {
    pub(crate) fn from_report(fpga: usize, r: &FailureReport) -> Self {
        FailureSummary {
            fpga,
            migrated: r.migrated.iter().map(MigrationSummary::from).collect(),
            torn_down: r.torn_down.iter().map(|t| t.raw()).collect(),
        }
    }
}

/// Health and occupancy of one device, from a [`ControlRequest::Status`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FpgaStatus {
    /// Device index.
    pub fpga: usize,
    /// Health as a stable string: `"Online"`, `"Draining"` or `"Offline"`.
    pub health: String,
    /// Per-block occupancy: `0` for a free block, otherwise the raw id of
    /// the owning tenant. Clients render the occupancy map from this.
    pub blocks: Vec<u64>,
    /// Free (allocatable) blocks on this device right now.
    pub free: usize,
}

/// A cluster-wide snapshot: per-device occupancy plus tenancy and the
/// failure/recovery counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusSummary {
    /// One entry per device, in index order.
    pub fpgas: Vec<FpgaStatus>,
    /// Free blocks across all online devices.
    pub total_free: usize,
    /// Raw ids of currently deployed tenants, ascending.
    pub live_tenants: Vec<u64>,
    /// Raw ids of suspended (parked) tenants, ascending.
    pub suspended_tenants: Vec<u64>,
    /// Devices declared failed so far.
    pub fpga_failures: u64,
    /// Devices brought back so far.
    pub fpga_recoveries: u64,
    /// Evacuations started so far.
    pub evacuations: u64,
    /// Tenants relocated by failure handling or evacuation.
    pub tenants_migrated: u64,
    /// Tenants torn down because they could not be re-placed.
    pub tenants_torn_down: u64,
    /// Raw ids of tenants on the ISA backend, ascending (empty when the
    /// backend is disabled).
    pub isa_tenants: Vec<u64>,
    /// Compute tiles in the ISA template pool (0 when disabled).
    pub isa_tiles_total: usize,
    /// Free compute tiles in the ISA template pool right now.
    pub isa_tiles_free: usize,
}

/// The typed answer to one [`ControlRequest`]. Failures are a value, not a
/// transport error: [`ControlResponse::Err`] carries the shared
/// [`ApiError`] taxonomy so remote and in-process callers see identical
/// codes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ControlResponse {
    /// A fresh deployment was admitted.
    Deployed(DeploySummary),
    /// The tenant was torn down.
    Undeployed {
        /// Raw id of the removed tenant.
        tenant: u64,
    },
    /// The tenant was quiesced and its capsule parked.
    Suspended(SuspendSummary),
    /// A suspended tenant (or capsule) was re-admitted.
    Resumed(DeploySummary),
    /// The tenant was live-migrated.
    Migrated(MigrationSummary),
    /// The device was drained.
    Evacuated(EvacuationSummary),
    /// The device was declared failed and its tenants handled.
    FpgaFailed(FailureSummary),
    /// The device is back online.
    Recovered {
        /// The restored device.
        fpga: usize,
    },
    /// Cluster-wide compaction ran.
    Defragmented {
        /// Relocations performed, possibly empty.
        migrations: Vec<MigrationSummary>,
    },
    /// The requested snapshot.
    Status(StatusSummary),
    /// The app's bitstream is registered and ready to deploy.
    Prepared {
        /// The resolved application name.
        app: String,
        /// `true` if the bitstream was already registered.
        cache_hit: bool,
    },
    /// An ISA tenant's tile share was resized.
    Scaled(ScaleSummary),
    /// The request failed; the [`ApiError`] carries a stable
    /// machine-readable code plus a human-readable message.
    Err(ApiError),
}

impl ControlResponse {
    /// The error, if this response is one.
    pub fn err(&self) -> Option<&ApiError> {
        match self {
            ControlResponse::Err(e) => Some(e),
            _ => None,
        }
    }

    /// `true` unless this response is [`ControlResponse::Err`].
    pub fn is_ok(&self) -> bool {
        self.err().is_none()
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_interface::ErrorCode;

    #[test]
    fn deploy_request_builder() {
        let r = DeployRequest::app("lenet").with_quota_bytes(1 << 20);
        assert_eq!(r.app, "lenet");
        assert_eq!(r.quota_bytes, 1 << 20);
        assert!(r.restore.is_none());
    }

    #[test]
    fn endpoint_names_are_stable() {
        assert_eq!(ControlRequest::deploy("a").endpoint(), "deploy");
        assert_eq!(ControlRequest::Status.endpoint(), "status");
        assert_eq!(ControlRequest::Defragment.endpoint(), "defrag");
        assert_eq!(
            ControlRequest::undeploy(TenantId::new(3)).endpoint(),
            "undeploy"
        );
        assert_eq!(
            ControlRequest::scale(TenantId::new(3), 8).endpoint(),
            "scale"
        );
    }

    #[test]
    fn isa_deploy_and_scale_round_trip_through_json() {
        let reqs = vec![
            ControlRequest::Deploy(DeployRequest::isa("lenet-M")),
            ControlRequest::Scale {
                tenant: 5,
                tiles: 9,
            },
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).expect("serialize");
            let back: ControlRequest = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, req);
        }
        let resp = ControlResponse::Scaled(ScaleSummary {
            tenant: 5,
            tiles_before: 4,
            tiles_after: 9,
            realloc_us: 50,
        });
        let json = serde_json::to_string(&resp).expect("serialize");
        let back: ControlResponse = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, resp);
        assert_eq!(
            DeployRequest::app("x").backend,
            DeployBackend::Fabric,
            "fabric stays the default backend"
        );
        assert_eq!(DeployRequest::isa("x").backend, DeployBackend::Isa);
    }

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            ControlRequest::deploy("mlp"),
            ControlRequest::Undeploy { tenant: 7 },
            ControlRequest::Evacuate { fpga: 2 },
            ControlRequest::Defragment,
            ControlRequest::Status,
            ControlRequest::Prepare { app: "aes".into() },
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).expect("serialize");
            let back: ControlRequest = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip_through_json() {
        let resps = vec![
            ControlResponse::Deployed(DeploySummary {
                tenant: 1,
                app: "mlp".into(),
                blocks: 4,
                fpgas: 1,
                primary_fpga: 0,
                reconfig_us: 120,
                granted_gbps: 12.5,
            }),
            ControlResponse::Undeployed { tenant: 1 },
            ControlResponse::Defragmented { migrations: vec![] },
            ControlResponse::Err(ApiError::new(ErrorCode::Overloaded, "queue full")),
        ];
        for resp in resps {
            let json = serde_json::to_string(&resp).expect("serialize");
            let back: ControlResponse = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, resp);
            assert_eq!(back.is_ok(), back.err().is_none());
        }
    }

    #[test]
    fn checkpoint_surface_round_trips_through_json() {
        let reqs = vec![
            ControlRequest::checkpoint(TenantId::new(3)),
            ControlRequest::restore(TenantId::new(3)),
            ControlRequest::migrate(TenantId::new(3)),
            ControlRequest::migrate_with(TenantId::new(3), MigratePolicy::Portable),
            ControlRequest::migrate_with(TenantId::new(3), MigratePolicy::Auto),
        ];
        for req in reqs {
            let json = serde_json::to_string(&req).expect("serialize");
            let back: ControlRequest = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, req);
        }
        assert_eq!(
            ControlRequest::migrate(TenantId::new(3)),
            ControlRequest::Migrate {
                tenant: 3,
                policy: MigratePolicy::SameGeometry
            }
        );
        assert_eq!(
            ControlRequest::checkpoint(TenantId::new(3)).endpoint(),
            "checkpoint"
        );
        assert_eq!(
            ControlRequest::restore(TenantId::new(3)).endpoint(),
            "restore"
        );
        assert_eq!(
            ControlRequest::migrate(TenantId::new(3)).endpoint(),
            "migrate"
        );
    }

    #[test]
    fn new_summaries_round_trip_with_portability_fields() {
        let s = SuspendSummary {
            tenant: 8,
            channels: 2,
            flits: 5,
            dram_bytes: 1 << 20,
            capsule_version: FormatVersion::CURRENT,
            portable: false,
            scan_bits: 0,
        }
        .with_portability(12_288);
        let json = serde_json::to_string(&s).unwrap();
        let back: SuspendSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert!(back.portable);
        assert_eq!(back.scan_bits, 12_288);

        let m = MigrationSummary {
            tenant: 8,
            fpgas_before: 1,
            fpgas_after: 1,
            reconfig_us: 90,
            hop_cost_before: 0,
            hop_cost_after: 0,
            policy: MigratePolicy::SameGeometry,
        }
        .with_policy(MigratePolicy::Portable);
        let json = serde_json::to_string(&m).unwrap();
        let back: MigrationSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.policy, MigratePolicy::Portable);
    }
}
