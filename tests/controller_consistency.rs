//! Property test: any interleaving of deploy / undeploy / suspend /
//! resume / ISA deploy / fail / recover / evacuate / defragment leaves the
//! system controller consistent — every control operation goes through
//! `execute` and answers its own variant (a board out of range is
//! refused with `InvalidConfig`), after every step one `Status` reply is a
//! consistent snapshot, and once every FPGA is recovered and every
//! surviving tenant undeployed, no blocks, DRAM spaces, NICs, bandwidth
//! shares or tiles remain.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vital::compiler::{AppBitstream, Compiler, CompilerConfig};
use vital::interface::ErrorCode;
use vital::netlist::hls::{AppSpec, Operator};
use vital::periph::TenantId;
use vital::runtime::{
    ControlRequest, ControlResponse, DeployRequest, RuntimeConfig, StatusSummary, SystemController,
};

const NAMES: [&str; 3] = ["small", "medium", "large"];

/// Compiled once for the whole test binary: compilation is the expensive
/// part and the bitstreams are immutable, so every proptest case reuses
/// the same images on a fresh controller.
fn bitstreams() -> &'static Vec<AppBitstream> {
    static CACHE: OnceLock<Vec<AppBitstream>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let compiler = Compiler::new(CompilerConfig::default());
        let ops = [
            Operator::MacArray { pes: 8 },
            Operator::Custom {
                slices: 2000,
                dsps: 1800,
                brams: 64,
            },
            Operator::Custom {
                slices: 4000,
                dsps: 3700,
                brams: 128,
            },
        ];
        NAMES
            .iter()
            .zip(ops)
            .map(|(name, op)| {
                let mut spec = AppSpec::new(*name);
                spec.add_operator("m", op);
                compiler.compile(&spec).unwrap().into_bitstream()
            })
            .collect()
    })
}

#[derive(Debug, Clone)]
enum Op {
    Deploy(usize),
    Undeploy(usize),
    Suspend(usize),
    Resume(usize),
    DeployIsa,
    Fail(usize),
    Recover(usize),
    Evacuate(usize),
    Defrag,
}

/// Board indices run two past the cluster, so refusals are drawn too.
fn op_strategy(fpgas: usize) -> impl Strategy<Value = Op> {
    // The vendored proptest picks arms uniformly; deploys are listed
    // twice so runs actually fill the cluster before faults land.
    prop_oneof![
        (0..NAMES.len()).prop_map(Op::Deploy),
        (0..NAMES.len()).prop_map(Op::Deploy),
        (0..16usize).prop_map(Op::Undeploy),
        (0..16usize).prop_map(Op::Suspend),
        (0..16usize).prop_map(Op::Resume),
        Just(Op::DeployIsa),
        (0..fpgas + 2).prop_map(Op::Fail),
        (0..fpgas + 2).prop_map(Op::Recover),
        (0..fpgas + 2).prop_map(Op::Evacuate),
        Just(Op::Defrag),
    ]
}

fn status(c: &SystemController) -> StatusSummary {
    match c.execute(ControlRequest::Status) {
        ControlResponse::Status(s) => s,
        other => panic!("Status answered {other:?}"),
    }
}

/// A board operation's reply: the success variant on a board the cluster
/// has, `InvalidConfig` on one it does not.
fn check_board_reply(
    reply: &ControlResponse,
    in_range: bool,
    succeeded: bool,
) -> Result<(), TestCaseError> {
    if in_range {
        prop_assert!(succeeded, "an in-range board operation answered {reply:?}");
    } else {
        let code = reply.err().map(|e| e.code);
        prop_assert_eq!(code, Some(ErrorCode::InvalidConfig), "{:?}", reply);
    }
    Ok(())
}

/// What one `Status` reply must satisfy on its own: its block rows name
/// exactly its live tenants, its three tenant lists are disjoint, its
/// `total_free` is the sum of its rows, and an Offline board shows no
/// free block.
fn check_snapshot(s: &StatusSummary) -> Result<(), TestCaseError> {
    let owners: BTreeSet<u64> = s
        .fpgas
        .iter()
        .flat_map(|f| f.blocks.iter().copied())
        .filter(|&t| t != 0)
        .collect();
    let set = |ids: &[u64]| ids.iter().copied().collect::<BTreeSet<u64>>();
    let (live, parked, isa) = (
        set(&s.live_tenants),
        set(&s.suspended_tenants),
        set(&s.isa_tenants),
    );
    prop_assert_eq!(&owners, &live, "block owners are the live tenants");
    prop_assert!(
        live.is_disjoint(&parked) && live.is_disjoint(&isa) && parked.is_disjoint(&isa),
        "tenant lists overlap: live {live:?}, parked {parked:?}, isa {isa:?}"
    );
    prop_assert_eq!(s.total_free, s.fpgas.iter().map(|f| f.free).sum::<usize>());
    for f in s.fpgas.iter().filter(|f| f.health == "Offline") {
        prop_assert_eq!(f.free, 0, "Offline fpga{} shows free blocks", f.fpga);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_interleaving_leaves_the_controller_consistent(
        ops in proptest::collection::vec(op_strategy(RuntimeConfig::paper_cluster().fpgas), 1..30)
    ) {
        let c = SystemController::new(RuntimeConfig::paper_cluster()).with_isa_backend(8);
        for bs in bitstreams() {
            c.register(bs.clone()).unwrap();
        }
        let fpgas = c.resources().fpga_count();
        let total_blocks = status(&c).total_free;
        let free_bytes: Vec<u64> = (0..fpgas).map(|f| c.memory_of(f).free_bytes()).collect();

        // Every tenant ever admitted, on either backend, live or parked.
        let mut deployed: Vec<TenantId> = Vec::new();
        let pick = |deployed: &[TenantId], i: usize| deployed.get(i % deployed.len().max(1)).copied();
        for op in ops {
            match op {
                Op::Deploy(i) => {
                    // May legitimately fail (cluster full / boards down).
                    if let Ok(h) = c.deploy(NAMES[i]) {
                        deployed.push(h.tenant());
                    }
                }
                Op::Undeploy(i) => {
                    if !deployed.is_empty() {
                        let t = deployed.remove(i % deployed.len());
                        // The tenant may already be gone (torn down by a
                        // failure); only UnknownTenant is acceptable then.
                        let reply = c.execute(ControlRequest::undeploy(t));
                        let code = reply.err().map(|e| e.code);
                        prop_assert!(
                            reply == ControlResponse::Undeployed { tenant: t.raw() }
                                || code == Some(ErrorCode::UnknownTenant),
                            "undeploy {} answered {:?}", t, reply
                        );
                    }
                }
                // Both may fail: the tenant may be parked, live, on the
                // ISA backend or gone.
                Op::Suspend(i) => {
                    if let Some(t) = pick(&deployed, i) {
                        let _ = c.suspend(t);
                    }
                }
                Op::Resume(i) => {
                    if let Some(t) = pick(&deployed, i) {
                        let _ = c.resume(t);
                    }
                }
                Op::DeployIsa => {
                    let req = ControlRequest::Deploy(DeployRequest::isa("vgg-S"));
                    if let ControlResponse::Deployed(d) = c.execute(req) {
                        deployed.push(TenantId::new(d.tenant));
                    }
                }
                Op::Fail(fpga) => {
                    let reply = c.execute(ControlRequest::Fail { fpga });
                    let ok = matches!(&reply, ControlResponse::FpgaFailed(r) if r.fpga == fpga);
                    check_board_reply(&reply, fpga < fpgas, ok)?;
                }
                Op::Recover(fpga) => {
                    let reply = c.execute(ControlRequest::Recover { fpga });
                    let ok = reply == ControlResponse::Recovered { fpga };
                    check_board_reply(&reply, fpga < fpgas, ok)?;
                }
                Op::Evacuate(fpga) => {
                    let reply = c.execute(ControlRequest::Evacuate { fpga });
                    let ok = matches!(&reply, ControlResponse::Evacuated(r) if r.fpga == fpga);
                    check_board_reply(&reply, fpga < fpgas, ok)?;
                }
                Op::Defrag => {
                    let reply = c.execute(ControlRequest::Defragment);
                    let ok = matches!(reply, ControlResponse::Defragmented { .. });
                    prop_assert!(ok, "Defragment answered {:?}", reply);
                }
            }
            check_snapshot(&status(&c))?;
        }

        // Drain: bring every board back and tear every survivor down.
        for fpga in 0..fpgas {
            let reply = c.execute(ControlRequest::Recover { fpga });
            prop_assert_eq!(reply, ControlResponse::Recovered { fpga });
        }
        let survivors = status(&c);
        for t in [survivors.live_tenants, survivors.suspended_tenants, survivors.isa_tenants]
            .concat()
        {
            let reply = c.execute(ControlRequest::Undeploy { tenant: t });
            prop_assert_eq!(reply, ControlResponse::Undeployed { tenant: t }, "survivor {}", t);
        }
        let drained = status(&c);
        prop_assert_eq!(drained.isa_tiles_free, drained.isa_tiles_total, "leaked tiles");

        // Nothing may leak.
        prop_assert_eq!(status(&c).total_free, total_blocks, "leaked blocks");
        for (f, &bytes) in free_bytes.iter().enumerate() {
            prop_assert_eq!(c.memory_of(f).tenant_count(), 0, "leaked DRAM space on fpga{}", f);
            prop_assert_eq!(
                c.memory_of(f).free_bytes(),
                bytes,
                "leaked DRAM bytes on fpga{}",
                f
            );
            prop_assert!(
                c.arbiter_of(f).total_demand_gbps().abs() < 1e-9,
                "leaked bandwidth share on fpga{}",
                f
            );
        }
        prop_assert_eq!(c.switch().nic_count(), 0, "leaked vNIC");
    }
}
