//! Acceptance for compiler-assisted portable checkpoints (DESIGN.md §17):
//! on the *same* geometry the portable path must be bit-identical to the
//! direct capsule path of the checkpoint subsystem, and across *different*
//! fabric geometries the logical state — DRAM contents, channel
//! occupancy, bandwidth request, quiesce invariants — must survive the
//! migration intact.

use proptest::prelude::*;
use vital::compiler::{Compiler, CompilerConfig};
use vital::fabric::DeviceModel;
use vital::netlist::hls::{AppSpec, Operator};
use vital::prelude::*;
use vital::runtime::{
    ControlRequest, ControlResponse, DeployRequest, MigratePolicy, RuntimeConfig,
};

/// A chained accelerator cut across several virtual blocks, so the plan
/// carries real inter-block channels for the quiesce protocol to drain.
fn chained_spec(width: u32) -> AppSpec {
    chained_spec_named("rt", width)
}

fn chained_spec_named(name: &str, width: u32) -> AppSpec {
    let mut s = AppSpec::new(name);
    let buf = s.add_operator("w", Operator::Buffer { kb: 720, banks: 4 });
    let mac = s.add_operator("mac", Operator::MacArray { pes: 64 });
    s.add_edge(buf, mac, width).unwrap();
    let mut prev = mac;
    for i in 0..40 {
        let p = s.add_operator(format!("p{i}"), Operator::Pipeline { slices: 200 });
        s.add_edge(prev, p, width).unwrap();
        prev = p;
    }
    s.add_input("ifm", mac, 128).unwrap();
    s.add_output("ofm", prev, 128).unwrap();
    s
}

fn suspend_settled(c: &SystemController, t: TenantId) -> TenantCheckpoint {
    match c.suspend(t) {
        Ok(capsule) => capsule,
        Err(vital::runtime::RuntimeError::Quiesce(
            vital::interface::QuiesceError::MidSerialization { now, ready_at },
        )) => {
            c.settle_tenant(t, ready_at - now).unwrap();
            c.suspend(t).unwrap()
        }
        Err(e) => panic!("suspend failed: {e}"),
    }
}

/// A controller with the chained app registered, compiled for the given
/// device geometry.
fn controller_on(device: &DeviceModel, width: u32) -> SystemController {
    let controller =
        SystemController::new(RuntimeConfig::paper_cluster()).with_geometry(device.name());
    let bitstream = Compiler::for_device(device, 60, CompilerConfig::default())
        .compile(&chained_spec(width))
        .unwrap()
        .into_bitstream();
    controller.register(bitstream).unwrap();
    controller
}

proptest! {
    // Each case compiles and deploys full stacks on three controllers;
    // keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same geometry: restoring through the portable format must produce
    /// a tenant whose next capsule is **bit-identical** to the one a
    /// direct restore of the raw capsule produces — same digest, same
    /// bytes.
    #[test]
    fn portable_restore_is_bit_identical_to_capsule_restore(
        width in prop_oneof![Just(32u32), Just(64u32), Just(128u32)],
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        vaddr in 0u64..65_536,
        cycles in 1u64..96,
    ) {
        let device = DeviceModel::xcvu37p();
        let source = controller_on(&device, width);
        let handle = source.deploy("rt").unwrap();
        let tenant = handle.tenant();
        source
            .memory_of(handle.primary_fpga())
            .write(tenant, vaddr, &payload)
            .unwrap();
        source.run_tenant(tenant, cycles).unwrap();
        let capsule = suspend_settled(&source, tenant);
        let portable = source.portable_of(tenant).unwrap();

        // Twin A re-admits the raw capsule; twin B the portable form.
        let twin_a = controller_on(&device, width);
        let twin_b = controller_on(&device, width);
        let readmitted =
            twin_a.execute(ControlRequest::Deploy(DeployRequest::restore(capsule)));
        prop_assert!(readmitted.is_ok(), "{:?}", readmitted);
        twin_b.restore_portable(&portable).unwrap();

        let recheck_a = suspend_settled(&twin_a, tenant);
        let recheck_b = suspend_settled(&twin_b, tenant);
        prop_assert_eq!(recheck_a.digest(), recheck_b.digest());
        prop_assert_eq!(&recheck_a, &recheck_b, "capsules must match byte for byte");
    }

    /// Cross geometry: a tenant checkpointed on the default column layout
    /// restores onto the interleaved XCVU37P-ALT layout with its DRAM
    /// contents, channel occupancy, bandwidth request, and quiesce
    /// invariants intact.
    #[test]
    fn portable_checkpoint_crosses_fabric_geometries(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        vaddr in 0u64..65_536,
        cycles in 1u64..96,
    ) {
        let source = controller_on(&DeviceModel::xcvu37p(), 64);
        let handle = source.deploy("rt").unwrap();
        let tenant = handle.tenant();
        source
            .memory_of(handle.primary_fpga())
            .write(tenant, vaddr, &payload)
            .unwrap();
        source.run_tenant(tenant, cycles).unwrap();
        let capsule = suspend_settled(&source, tenant);
        let flits = capsule.total_flits();
        let dram_digest = capsule.memory.content_digest();
        let portable = source.portable_of(tenant).unwrap();
        prop_assert_eq!(portable.source_geometry.as_str(), "XCVU37P");

        let target = controller_on(&DeviceModel::xcvu37p_alt(), 64);
        let restored = target.restore_portable(&portable).unwrap();
        prop_assert_eq!(restored.tenant(), tenant);
        prop_assert!(target.live_tenants().contains(&tenant));

        // DRAM pages crossed with their contents.
        let mut read_back = vec![0u8; payload.len()];
        target
            .memory_of(restored.primary_fpga())
            .read(tenant, vaddr, &mut read_back)
            .unwrap();
        prop_assert_eq!(&read_back, &payload, "DRAM contents must cross geometries");

        // Channel state crossed flit for flit.
        let occupancy = target.channel_occupancy(tenant).unwrap();
        prop_assert_eq!(occupancy.iter().sum::<usize>(), flits);

        // Quiesce invariants hold on the new fabric: the tenant can be
        // checkpointed again and the capsule covers the same state.
        let recheck = suspend_settled(&target, tenant);
        prop_assert_eq!(recheck.total_flits(), flits);
        prop_assert_eq!(recheck.memory.content_digest(), dram_digest);
        prop_assert_eq!(
            recheck.placement.requested_gbps.to_bits(),
            capsule.placement.requested_gbps.to_bits()
        );
    }
}

/// The recompile-or-cache-hit path: a target controller that has never
/// seen the app resolves the capsule's netlist digest through its build
/// farm resolver (a full recompile for its own geometry) before
/// restoring.
#[test]
fn restore_recompiles_through_the_build_farm_when_the_image_is_unknown() {
    let source = controller_on(&DeviceModel::xcvu37p(), 64);
    let handle = source.deploy("rt").unwrap();
    let tenant = handle.tenant();
    source.run_tenant(tenant, 32).unwrap();
    suspend_settled(&source, tenant);
    let portable = source.portable_of(tenant).unwrap();

    // Empty target on the alternate geometry: no bitstream registered,
    // only a resolver that can compile the workload for its own fabric.
    let target = SystemController::new(RuntimeConfig::paper_cluster()).with_geometry("XCVU37P-ALT");
    target.set_app_resolver(Box::new(|name: &str| {
        let device = DeviceModel::xcvu37p_alt();
        Compiler::for_device(&device, 60, CompilerConfig::default())
            .compile(&chained_spec_named(name, 64))
            .map(vital::compiler::CompiledApp::into_bitstream)
            .map_err(Into::into)
    }));
    let restored = target.restore_portable(&portable).unwrap();
    assert_eq!(restored.tenant(), tenant);
    assert!(
        target.bitstreams().get("rt").is_ok(),
        "the recompiled image is registered under the capsule's name"
    );
}

/// `Migrate` with an explicit portable policy, driven through the
/// request API: the summary records which path ran.
#[test]
fn migrate_policies_run_and_report_the_winning_path() {
    let controller = controller_on(&DeviceModel::xcvu37p(), 64);
    let handle = controller.deploy("rt").unwrap();
    let tenant = handle.tenant();
    controller.run_tenant(tenant, 16).unwrap();

    let resp = controller.execute(ControlRequest::migrate_with(
        tenant,
        MigratePolicy::Portable,
    ));
    let ControlResponse::Migrated(m) = resp else {
        panic!("portable migration failed: {resp:?}");
    };
    assert_eq!(m.policy, MigratePolicy::Portable);

    let resp = controller.execute(ControlRequest::migrate_with(tenant, MigratePolicy::Auto));
    let ControlResponse::Migrated(m) = resp else {
        panic!("auto migration failed: {resp:?}");
    };
    assert_eq!(
        m.policy,
        MigratePolicy::SameGeometry,
        "auto resolves to the fast path when it works"
    );
    controller.undeploy(tenant).unwrap();
}

/// `Checkpoint` through the request API advertises portability, and the
/// portable capsule's JSON survives the export/import file format.
#[test]
fn checkpoint_response_advertises_portability_and_json_round_trips() {
    let controller = controller_on(&DeviceModel::xcvu37p(), 64);
    let handle = controller.deploy("rt").unwrap();
    let tenant = handle.tenant();
    controller.run_tenant(tenant, 16).unwrap();
    controller
        .settle_tenant(tenant, 1_024)
        .expect("settle past any serialization window");

    let resp = controller.execute(ControlRequest::checkpoint(tenant));
    let ControlResponse::Suspended(s) = resp else {
        panic!("checkpoint failed: {resp:?}");
    };
    assert!(s.portable, "registered image exposes a scan interface");
    assert!(s.scan_bits > 0, "scan chains cover registers and BRAM");

    let portable = controller.portable_of(tenant).unwrap();
    assert_eq!(portable.scan_bits(), s.scan_bits);
    let json = portable.to_json().unwrap();
    let back = vital::checkpoint::PortableCheckpoint::from_json(&json).unwrap();
    assert_eq!(back.digest(), portable.digest());
}
