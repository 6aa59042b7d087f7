//! Protection and isolation across the stack (paper §3.4): exclusive
//! physical blocks, private DRAM with a monitoring MMU, per-tenant NICs,
//! and scrubbing on teardown.

use vital::periph::PeriphError;
use vital::prelude::*;

fn small_app(name: &str) -> AppSpec {
    let mut spec = AppSpec::new(name);
    let m = spec.add_operator("m", Operator::MacArray { pes: 8 });
    spec.add_input("i", m, 64).unwrap();
    spec.add_output("o", m, 64).unwrap();
    spec
}

/// A paper-cluster controller with one small app per name registered.
fn controller_with(names: &[&str]) -> SystemController {
    let controller = SystemController::new(RuntimeConfig::paper_cluster());
    for name in names {
        register(&controller, name);
    }
    controller
}

fn register(controller: &SystemController, name: &str) {
    let compiler = Compiler::new(CompilerConfig::default());
    let bitstream = compiler.compile(&small_app(name)).unwrap().into_bitstream();
    controller.register(bitstream).unwrap();
}

/// Undeploys `tenant`, which must exist.
fn undeploy(controller: &SystemController, tenant: TenantId) {
    let resp = controller.execute(ControlRequest::undeploy(tenant));
    assert_eq!(
        resp,
        ControlResponse::Undeployed {
            tenant: tenant.raw()
        }
    );
}

#[test]
fn physical_blocks_are_never_shared() {
    let c = controller_with(&["a", "b"]);
    let ha = c.deploy("a").unwrap();
    let hb = c.deploy("b").unwrap();
    let a_blocks: Vec<_> = ha.placed().addresses().collect();
    let b_blocks: Vec<_> = hb.placed().addresses().collect();
    for b in &b_blocks {
        assert!(!a_blocks.contains(b), "block {b} double-booked");
    }
}

#[test]
fn dram_is_private_and_monitored() {
    let c = controller_with(&["a", "b"]);
    let ha = c.deploy("a").unwrap();
    let hb = c.deploy("b").unwrap();

    let mm_a = c.memory_of(ha.primary_fpga());
    mm_a.write(ha.tenant(), 0x2000, b"tenant-a-secret").unwrap();

    // Tenant B reading the same virtual address sees zeros, whether or not
    // it shares the physical board.
    let mm_b = c.memory_of(hb.primary_fpga());
    let mut buf = [0u8; 15];
    mm_b.read(hb.tenant(), 0x2000, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 15]);

    // Tenant B cannot use tenant A's id on a board where A has no space —
    // and within a board the quota monitor blocks out-of-range access.
    let quota = c.config().default_quota_bytes;
    assert!(matches!(
        mm_a.read(ha.tenant(), quota, &mut buf),
        Err(PeriphError::ProtectionFault { .. })
    ));
    let faults = mm_a.stats(ha.tenant()).unwrap().faults;
    assert_eq!(faults, 1, "the monitor records the blocked access");
}

#[test]
fn teardown_scrubs_dram() {
    let c = controller_with(&["a"]);
    let ha = c.deploy("a").unwrap();
    let fpga = ha.primary_fpga();
    c.memory_of(fpga).write(ha.tenant(), 0, b"residue").unwrap();
    undeploy(&c, ha.tenant());

    // The next tenant on the same board must never observe the residue.
    register(&c, "b");
    let hb = c.deploy("b").unwrap();
    let mut buf = [0u8; 7];
    c.memory_of(hb.primary_fpga())
        .read(hb.tenant(), 0, &mut buf)
        .unwrap();
    assert_eq!(buf, [0u8; 7]);
}

#[test]
fn ethernet_frames_are_tenant_private() {
    let c = controller_with(&["a", "b", "c"]);
    let ha = c.deploy("a").unwrap();
    let hb = c.deploy("b").unwrap();
    let hc = c.deploy("c").unwrap();

    let sw = c.switch();
    sw.send(ha.nic(), hb.nic().mac, b"for-b".to_vec()).unwrap();
    // Only B receives; C sees nothing.
    assert!(sw.recv(hc.nic()).unwrap().is_none());
    let frame = sw.recv(hb.nic()).unwrap().unwrap();
    assert_eq!(frame.payload, b"for-b");
    // A forged handle (wrong tenant) is rejected.
    let forged = vital::periph::VirtualNic {
        mac: hb.nic().mac,
        tenant: hc.tenant(),
    };
    assert!(sw.recv(forged).is_err());
}

#[test]
fn undeploy_releases_every_resource_class() {
    let c = controller_with(&["a"]);
    let free_before = c.resources().total_free();
    let dram_before = c.memory_of(0).free_bytes();
    let h = c.deploy("a").unwrap();
    undeploy(&c, h.tenant());
    assert_eq!(c.resources().total_free(), free_before);
    assert_eq!(c.memory_of(0).free_bytes(), dram_before);
    // NIC is gone.
    assert!(c.switch().counters(h.nic().mac).is_err());
}
