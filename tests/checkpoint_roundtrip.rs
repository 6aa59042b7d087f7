//! Property-based acceptance for the checkpoint subsystem: suspending a
//! deployed tenant and resuming it must be lossless for *any* reachable
//! tenant state — channel occupancy, DRAM contents, and the bandwidth
//! grant all survive the round trip, and a second capsule taken right
//! after the resume captures the identical state.

use proptest::prelude::*;
use vital::compiler::{Compiler, CompilerConfig};
use vital::netlist::hls::{AppSpec, Operator};
use vital::prelude::*;
use vital::runtime::RuntimeConfig;

/// A chained accelerator (buffer → MAC array → pipeline stages) whose
/// primitive graph is cut across several virtual blocks, so the compiled
/// plan carries real inter-block channels for the quiesce protocol to
/// drain. Single-operator specs compile to one block and zero channels.
fn chained_spec(width: u32) -> AppSpec {
    let mut s = AppSpec::new("rt");
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

/// Suspends, settling the tenant past its serialization window first if
/// the quiesce protocol reports one still open (wide cut channels ride
/// multi-cycle inter-FPGA serialization). Settling only advances wire
/// flits into FIFOs; the flit census is unchanged.
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

proptest! {
    // Each case compiles + deploys a full stack, so keep the case count
    // modest; the state space is driven by (width, payload, vaddr, cycles).
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn suspend_resume_preserves_occupancy_dram_and_bandwidth(
        width in prop_oneof![Just(32u32), Just(64u32), Just(128u32)],
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        vaddr in 0u64..65_536,
        cycles in 1u64..128,
    ) {
        let controller = SystemController::new(RuntimeConfig::paper_cluster());
        let bitstream = Compiler::new(CompilerConfig::default())
            .compile(&chained_spec(width))
            .unwrap()
            .into_bitstream();
        controller.register(bitstream).unwrap();

        let handle = controller.deploy("rt").unwrap();
        let tenant = handle.tenant();
        let home = handle.primary_fpga();
        controller.memory_of(home).write(tenant, vaddr, &payload).unwrap();
        controller.run_tenant(tenant, cycles).unwrap();

        let bw_before = handle.bandwidth();

        // Save. The tenant's resources are fully released...
        let capsule = suspend_settled(&controller, tenant);
        let occ_before: Vec<usize> =
            capsule.channels.iter().map(|ch| ch.snapshot.occupancy()).collect();
        let ControlResponse::Status(status) = controller.execute(ControlRequest::Status) else {
            panic!("Status answers a status");
        };
        prop_assert!(!status.live_tenants.contains(&tenant.raw()));
        prop_assert_eq!(status.suspended_tenants, vec![tenant.raw()]);
        let dram_digest = capsule.memory.content_digest();
        let flits = capsule.total_flits();

        // ...and restore brings back the identical tenant.
        let resumed = controller.resume(tenant).unwrap();
        prop_assert_eq!(resumed.tenant(), tenant);
        let occ_after = controller.channel_occupancy(tenant).unwrap();
        prop_assert_eq!(&occ_after, &occ_before, "channel occupancy must survive");
        prop_assert_eq!(occ_after.iter().sum::<usize>(), flits);

        let new_home = resumed.primary_fpga();
        let mut read_back = vec![0u8; payload.len()];
        controller
            .memory_of(new_home)
            .read(tenant, vaddr, &mut read_back)
            .unwrap();
        prop_assert_eq!(&read_back, &payload, "DRAM contents must survive");

        let bw_after = resumed.bandwidth();
        prop_assert_eq!(bw_after.requested_gbps, bw_before.requested_gbps);
        prop_assert_eq!(bw_after.granted_gbps, bw_before.granted_gbps);

        // A second capsule taken immediately after the resume captures the
        // same content: identical flit census and DRAM digest (the clock
        // advances across the round trip, so full digests may differ, but
        // the *state* they cover must not).
        let recheck = suspend_settled(&controller, tenant);
        prop_assert_eq!(recheck.total_flits(), flits);
        prop_assert_eq!(recheck.memory.content_digest(), dram_digest);
        prop_assert_eq!(
            recheck.placement.requested_gbps.to_bits(),
            capsule.placement.requested_gbps.to_bits()
        );
        let occs = |c: &TenantCheckpoint| -> Vec<usize> {
            c.channels.iter().map(|ch| ch.snapshot.occupancy()).collect()
        };
        prop_assert_eq!(occs(&recheck), occs(&capsule));
    }
}

/// The digest itself round-trips through serde and is content-sensitive —
/// the cheap non-property sanity check next to the proptest.
#[test]
fn capsule_digest_is_stable_across_serde() {
    let controller = SystemController::new(RuntimeConfig::paper_cluster());
    let bitstream = Compiler::new(CompilerConfig::default())
        .compile(&chained_spec(64))
        .unwrap()
        .into_bitstream();
    controller.register(bitstream).unwrap();
    let handle = controller.deploy("rt").unwrap();
    let tenant = handle.tenant();
    controller.run_tenant(tenant, 32).unwrap();
    let capsule = suspend_settled(&controller, tenant);

    let json = serde_json::to_string(&capsule).unwrap();
    let back: TenantCheckpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(back.digest(), capsule.digest());
    assert_eq!(back, capsule);
}
