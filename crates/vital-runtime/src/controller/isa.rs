//! The ISA deployment backend (DESIGN.md §16): a static accelerator
//! template whose compute tiles are granted to tenants as elastic shares.
//! ISA tenants hold tiles, not blocks/DRAM/vNICs — the template owns the
//! memory system — so admission and teardown here are pool bookkeeping.

use crate::isa::{IsaProgram, TilePool, TILE_SWITCH_S};
use vital_periph::TenantId;

use super::{SystemController, Tenant};
use crate::api::{DeploySummary, ScaleSummary};
use crate::RuntimeError;

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
        let state = self.state.get_mut();
        if state.ids(|t| matches!(t, Tenant::Isa { .. })).is_empty() {
            state.isa_pool = Some(TilePool::new(tiles));
        }
        self
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
        let mut span = self.telemetry.span("runtime.isa_deploy");
        span.field("app", name);
        let program =
            IsaProgram::for_app(name).map_err(|_| RuntimeError::UnknownApp(name.to_string()))?;
        let mut guard = self.write();
        let state = &mut *guard;
        let pool = state
            .isa_pool
            .as_mut()
            .ok_or(RuntimeError::IsaBackendDisabled)?;
        let want = program.natural_tiles().max(1);
        let free = pool.free_count();
        let grant = want.min(free);
        if grant == 0 {
            return Err(RuntimeError::IsaTilesUnavailable {
                requested: want,
                free,
            });
        }
        let tenant = TenantId::new(state.next_tenant);
        state.next_tenant += 1;
        pool.grow(tenant.raw(), grant)
            .expect("grant is bounded by the free count");
        state.tenants.insert(
            tenant,
            Tenant::Isa {
                app: name.to_string(),
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

    /// App name and current tile share of an ISA tenant, if one exists.
    pub fn isa_tenant(&self, tenant: TenantId) -> Option<(String, usize)> {
        let state = self.state.lock();
        match (state.tenants.get(&tenant), &state.isa_pool) {
            (Some(Tenant::Isa { app }), Some(pool)) => {
                Some((app.clone(), pool.assignment(tenant.raw()).len()))
            }
            _ => None,
        }
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
        let tenant = TenantId::new(tenant_raw);
        let mut span = self.telemetry.span("runtime.isa_scale");
        span.field("tenant", tenant_raw);
        span.field("tiles", tiles as usize);
        let mut guard = self.write();
        let state = &mut *guard;
        let pool = state
            .isa_pool
            .as_mut()
            .ok_or(RuntimeError::IsaBackendDisabled)?;
        if !matches!(state.tenants.get(&tenant), Some(Tenant::Isa { .. })) {
            return Err(RuntimeError::UnknownTenant(tenant));
        }
        let before = pool.assignment(tenant_raw).len();
        let moved = pool.set_share(tenant_raw, tiles as usize).map_err(|e| {
            RuntimeError::IsaTilesUnavailable {
                requested: e.requested,
                free: e.free,
            }
        })?;
        self.telemetry.inc_counter("runtime.isa_scales", 1);
        Ok(ScaleSummary {
            tenant: tenant_raw,
            tiles_before: before as u32,
            tiles_after: tiles,
            realloc_us: switch_us(moved),
        })
    }
}
