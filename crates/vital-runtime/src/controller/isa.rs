//! The ISA deployment backend (DESIGN.md §16): a static accelerator
//! template whose compute tiles are granted to tenants as elastic shares.
//! ISA tenants hold tiles, not blocks/DRAM/vNICs — the template owns the
//! memory system — so admission and teardown here are pool bookkeeping.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use vital_isa::{IsaProgram, TilePool, TILE_SWITCH_S};
use vital_periph::TenantId;

use super::SystemController;
use crate::api::{DeploySummary, ScaleSummary};
use crate::RuntimeError;

/// Live state of the ISA backend: who owns which tiles, and which app
/// each tenant runs.
pub(super) struct IsaBackendState {
    pool: TilePool,
    tenants: HashMap<TenantId, String>,
}

/// Modelled time to switch `tiles` tiles to a new instruction stream, in
/// whole microseconds.
fn switch_us(tiles: usize) -> u64 {
    (tiles as f64 * TILE_SWITCH_S * 1.0e6).round() as u64
}

impl SystemController {
    /// Enables the ISA deployment backend with a template of `tiles`
    /// compute tiles, shared elastically between ISA tenants. With live
    /// ISA tenants the existing pool is kept.
    #[must_use]
    pub fn with_isa_backend(mut self, tiles: usize) -> Self {
        let isa = self.isa.get_mut();
        if isa.as_ref().is_none_or(|state| state.tenants.is_empty()) {
            *isa = Some(IsaBackendState {
                pool: TilePool::new(tiles),
                tenants: HashMap::new(),
            });
        }
        self
    }

    /// `true` once [`SystemController::with_isa_backend`] has run.
    pub fn isa_enabled(&self) -> bool {
        self.isa.lock().is_some()
    }

    /// The ISA half of [`ControlRequest::Deploy`](crate::ControlRequest::Deploy):
    /// compile the app name to an instruction stream and grant tiles from
    /// the shared pool — no bitstream, no reconfiguration, no per-tenant
    /// DRAM/vNIC plumbing.
    ///
    /// Admission is elastic: the tenant asks for its variant's natural
    /// tile count but accepts any non-zero share; later `Scale` requests
    /// (or co-tenant departures) grow it. Only an empty pool refuses,
    /// with the retryable [`RuntimeError::IsaTilesUnavailable`].
    pub(super) fn deploy_isa(&self, name: &str) -> Result<DeploySummary, RuntimeError> {
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
        state.tenants.insert(tenant, name.to_string());
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

    /// Removes an ISA tenant, returning its tiles to the pool; `false` if
    /// `tenant` is not one.
    pub(super) fn release_isa(&self, tenant: TenantId) -> bool {
        let mut isa = self.isa.lock();
        let Some(state) = isa.as_mut() else {
            return false;
        };
        let known = state.tenants.remove(&tenant).is_some();
        if known {
            state.pool.release(tenant.raw());
        }
        known
    }

    /// App name and current tile share of an ISA tenant, if one exists.
    pub fn isa_tenant(&self, tenant: TenantId) -> Option<(String, usize)> {
        let isa = self.isa.lock();
        let s = isa.as_ref()?;
        let app = s.tenants.get(&tenant)?;
        Some((app.clone(), s.pool.assignment(tenant.raw()).len()))
    }

    /// [`ControlRequest::Scale`](crate::ControlRequest::Scale): move an
    /// ISA tenant to exactly `tiles` tiles. Growth beyond the free supply
    /// answers the retryable [`RuntimeError::IsaTilesUnavailable`];
    /// scaling to zero parks the tenant (still deployed, no tiles) until a
    /// later scale-up.
    pub(super) fn scale_isa(
        &self,
        tenant_raw: u64,
        tiles: u32,
    ) -> Result<ScaleSummary, RuntimeError> {
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

    /// `(tenant ids ascending, tiles total, tiles free)` for the status
    /// snapshot; all zero while the backend is disabled. Tenants scaled to
    /// zero tiles are still deployed, so the ids come from the tenant
    /// table, not the pool's owners.
    pub(super) fn isa_status(&self) -> (Vec<u64>, usize, usize) {
        match self.isa.lock().as_ref() {
            Some(s) => {
                let mut ids: Vec<u64> = s.tenants.keys().map(|t| t.raw()).collect();
                ids.sort_unstable();
                (ids, s.pool.total(), s.pool.free_count())
            }
            None => (Vec::new(), 0, 0),
        }
    }
}
