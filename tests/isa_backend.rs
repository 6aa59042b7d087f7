//! End-to-end tests of the instruction-level (ISA) deployment backend:
//! deploy / scale / undeploy against the shared tile pool, typed error
//! behaviour, coexistence with fabric tenants, and the `scale` request
//! round-tripping over the `vitald` wire protocol.

use std::sync::Arc;

use vital::compiler::{Compiler, CompilerConfig};
use vital::interface::ErrorCode;
use vital::netlist::hls::{AppSpec, Operator};
use vital::periph::TenantId;
use vital::runtime::{
    ControlRequest, ControlResponse, DeployRequest, RuntimeConfig, SystemController,
};
use vital::service::{RemoteClient, ServiceConfig, ServiceServer, Vitald, WireFormat};

fn isa_controller(tiles: usize) -> SystemController {
    SystemController::new(RuntimeConfig::paper_cluster()).with_isa_backend(tiles)
}

/// Deploying to the pool grants the app's natural share in microseconds,
/// `scale` moves tiles at 10 µs each, and undeploy returns every tile.
#[test]
fn isa_deploy_scale_undeploy_lifecycle() {
    let c = isa_controller(60);

    // vgg-L compiles to a 10-layer instruction stream -> 10 tiles.
    let resp = c.execute(ControlRequest::Deploy(DeployRequest::isa("vgg-L")));
    let ControlResponse::Deployed(s) = resp else {
        panic!("ISA deploy failed: {resp:?}");
    };
    assert_eq!(s.app, "vgg-L");
    assert_eq!(s.blocks, 10, "natural share of a 10-layer stream");
    assert_eq!(s.fpgas, 1);
    assert_eq!(
        s.reconfig_us, 100,
        "10 stream switches at 10 us each, not milliseconds of PR"
    );
    let tenant = TenantId::new(s.tenant);
    assert_eq!(c.isa_tenant(tenant), Some(("vgg-L".to_string(), 10)));

    // Grow to 20 tiles: ten tiles change hands, 100 us.
    let resp = c.execute(ControlRequest::Scale {
        tenant: tenant.raw(),
        tiles: 20,
    });
    let ControlResponse::Scaled(sc) = resp else {
        panic!("scale failed: {resp:?}");
    };
    assert_eq!((sc.tiles_before, sc.tiles_after), (10, 20));
    assert_eq!(sc.realloc_us, 100);

    // Shrink to 4: sixteen moved.
    let resp = c.execute(ControlRequest::Scale {
        tenant: tenant.raw(),
        tiles: 4,
    });
    let ControlResponse::Scaled(sc) = resp else {
        panic!("scale failed: {resp:?}");
    };
    assert_eq!((sc.tiles_before, sc.tiles_after), (20, 4));
    assert_eq!(sc.realloc_us, 160);

    // The status snapshot exposes the pool.
    let ControlResponse::Status(st) = c.execute(ControlRequest::Status) else {
        panic!("status failed");
    };
    assert_eq!(st.isa_tiles_total, 60);
    assert_eq!(st.isa_tiles_free, 56);
    assert!(st.isa_tenants.contains(&tenant.raw()));

    // Undeploy releases every tile.
    let resp = c.execute(ControlRequest::undeploy(tenant));
    assert!(matches!(resp, ControlResponse::Undeployed { .. }));
    let ControlResponse::Status(st) = c.execute(ControlRequest::Status) else {
        panic!("status failed");
    };
    assert_eq!(st.isa_tiles_free, 60);
    assert!(st.isa_tenants.is_empty());
    assert_eq!(c.isa_tenant(tenant), None);
}

/// An empty pool answers `IsaTilesUnavailable` (retryable — capacity
/// returns when a neighbour scales down), and over-growing a share is
/// refused without changing it.
#[test]
fn pool_exhaustion_is_typed_and_retryable() {
    let c = isa_controller(4);

    // vgg-L wants 10 but the pool only has 4: admitted degraded.
    let ControlResponse::Deployed(s) =
        c.execute(ControlRequest::Deploy(DeployRequest::isa("vgg-L")))
    else {
        panic!("first deploy must be admitted");
    };
    assert_eq!(s.blocks, 4, "grant is capped by the free supply");
    let tenant = TenantId::new(s.tenant);

    // Nothing left for a second tenant.
    match c.execute(ControlRequest::Deploy(DeployRequest::isa("alexnet-L"))) {
        ControlResponse::Err(e) => {
            assert_eq!(e.code, ErrorCode::IsaTilesUnavailable);
            assert!(e.is_retryable(), "tile shortage is transient");
            assert!(e.retry_after_ms.is_some());
        }
        other => panic!("exhausted pool must refuse: {other:?}"),
    }

    // Growing past the pool is refused and the share is untouched.
    match c.execute(ControlRequest::Scale {
        tenant: tenant.raw(),
        tiles: 50,
    }) {
        ControlResponse::Err(e) => assert_eq!(e.code, ErrorCode::IsaTilesUnavailable),
        other => panic!("over-grow must refuse: {other:?}"),
    }
    assert_eq!(c.isa_tenant(tenant), Some(("vgg-L".to_string(), 4)));

    // Scaling a tenant nobody deployed is a different, non-retryable error.
    match c.execute(ControlRequest::Scale {
        tenant: 9999,
        tiles: 1,
    }) {
        ControlResponse::Err(e) => assert_eq!(e.code, ErrorCode::UnknownTenant),
        other => panic!("unknown tenant must refuse: {other:?}"),
    }
}

/// Without `enable_isa`, ISA deploys and scales answer the dedicated
/// `IsaBackendDisabled` code instead of a generic failure.
#[test]
fn disabled_backend_is_a_typed_error() {
    let c = SystemController::new(RuntimeConfig::paper_cluster());
    let ControlResponse::Status(status) = c.execute(ControlRequest::Status) else {
        panic!("Status answers a status");
    };
    assert_eq!(status.isa_tiles_total, 0, "no ISA template");
    match c.execute(ControlRequest::Deploy(DeployRequest::isa("lenet-S"))) {
        ControlResponse::Err(e) => {
            assert_eq!(e.code, ErrorCode::IsaBackendDisabled);
            assert!(!e.is_retryable(), "retrying cannot enable the backend");
        }
        other => panic!("disabled backend must refuse: {other:?}"),
    }
}

/// Fabric and ISA tenants coexist on one controller: ids come from the
/// same space, undeploy routes each teardown to the right backend, and
/// the fabric's blocks are untouched by ISA traffic.
#[test]
fn fabric_and_isa_tenants_coexist() {
    let c = isa_controller(60);
    let free_blocks = total_free(&c);

    let mut spec = AppSpec::new("fabric-app");
    spec.add_operator("m", Operator::MacArray { pes: 8 });
    let bs = Compiler::new(CompilerConfig::default())
        .compile(&spec)
        .expect("compile")
        .into_bitstream();
    c.register(bs).expect("register");

    let ControlResponse::Deployed(fab) = c.execute(ControlRequest::deploy("fabric-app")) else {
        panic!("fabric deploy failed");
    };
    let ControlResponse::Deployed(isa) =
        c.execute(ControlRequest::Deploy(DeployRequest::isa("lstm-M")))
    else {
        panic!("isa deploy failed");
    };
    assert_ne!(fab.tenant, isa.tenant, "tenant ids share one space");
    assert!(
        total_free(&c) < free_blocks,
        "the fabric tenant holds physical blocks"
    );

    // Tear both down — each through its own backend.
    assert!(matches!(
        c.execute(ControlRequest::undeploy(TenantId::new(isa.tenant))),
        ControlResponse::Undeployed { .. }
    ));
    assert!(matches!(
        c.execute(ControlRequest::undeploy(TenantId::new(fab.tenant))),
        ControlResponse::Undeployed { .. }
    ));
    assert_eq!(total_free(&c), free_blocks, "no leaked blocks");
    let ControlResponse::Status(st) = c.execute(ControlRequest::Status) else {
        panic!("status failed");
    };
    assert_eq!(st.isa_tiles_free, 60);
}

/// The elastic-share request end-to-end over the service wire protocol:
/// deploy to the pool, `scale` it twice, and undeploy — through a real
/// TCP server, in both wire formats.
#[test]
fn scale_round_trips_over_the_service_wire() {
    let controller = Arc::new(isa_controller(60));
    let vitald = Vitald::spawn(Arc::clone(&controller), ServiceConfig::default());
    let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();

    for format in [WireFormat::Json, WireFormat::Binary] {
        let remote = RemoteClient::connect_with(&addr, format).expect("connect");
        let resp = remote
            .call(ControlRequest::Deploy(DeployRequest::isa("cifar10-M")))
            .expect("wire deploy");
        let ControlResponse::Deployed(s) = resp else {
            panic!("wire ISA deploy failed: {resp:?}");
        };
        let tenant = TenantId::new(s.tenant);
        let before = s.blocks as u32;

        let resp = remote
            .call(ControlRequest::Scale {
                tenant: tenant.raw(),
                tiles: before + 6,
            })
            .expect("wire scale");
        let ControlResponse::Scaled(sc) = resp else {
            panic!("wire scale failed: {resp:?}");
        };
        assert_eq!(sc.tenant, tenant.raw());
        assert_eq!(sc.tiles_before, before);
        assert_eq!(sc.tiles_after, before + 6);
        assert_eq!(sc.realloc_us, 60, "six tile switches at 10 us");

        let resp = remote
            .call(ControlRequest::Scale {
                tenant: tenant.raw(),
                tiles: 1,
            })
            .expect("wire scale");
        assert!(matches!(resp, ControlResponse::Scaled(_)));

        let ControlResponse::Status(st) = remote.call(ControlRequest::Status).expect("wire status")
        else {
            panic!("wire status failed");
        };
        assert!(st.isa_tenants.contains(&tenant.raw()));
        assert_eq!(st.isa_tiles_free, st.isa_tiles_total - 1);

        assert!(matches!(
            remote
                .call(ControlRequest::undeploy(tenant))
                .expect("wire undeploy"),
            ControlResponse::Undeployed { .. }
        ));
    }

    server.stop();
    vitald.shutdown();
}

fn total_free(c: &SystemController) -> usize {
    match c.execute(ControlRequest::Status) {
        ControlResponse::Status(s) => s.total_free,
        other => panic!("Status answers a status, not {other:?}"),
    }
}
