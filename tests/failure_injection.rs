//! Failure injection and recovery across the stack: the simulator's fault
//! plans (evict → retry → complete), the controller's health states
//! (fail/recover/evacuate), and the no-leak teardown contract.

use vital::cluster::{ClusterConfig, ClusterSim};
use vital::prelude::*;
use vital::runtime::{FpgaHealth, StatusSummary};

fn app(name: &str, pes: u32) -> AppSpec {
    let mut spec = AppSpec::new(name);
    let m = spec.add_operator("m", Operator::MacArray { pes });
    spec.add_input("i", m, 64).unwrap();
    spec.add_output("o", m, 64).unwrap();
    spec
}

/// A paper-cluster controller with every spec compiled and registered.
fn controller_with(specs: &[AppSpec]) -> SystemController {
    let compiler = Compiler::new(CompilerConfig::default());
    let controller = SystemController::new(RuntimeConfig::paper_cluster());
    for spec in specs {
        let bitstream = compiler.compile(spec).unwrap().into_bitstream();
        controller.register(bitstream).unwrap();
    }
    controller
}

fn status(c: &SystemController) -> StatusSummary {
    match c.execute(ControlRequest::Status) {
        ControlResponse::Status(s) => s,
        other => panic!("Status answers a status, not {other:?}"),
    }
}

/// Undeploys `tenant`, which must exist.
fn undeploy(c: &SystemController, tenant: TenantId) {
    let resp = c.execute(ControlRequest::undeploy(tenant));
    assert_eq!(
        resp,
        ControlResponse::Undeployed {
            tenant: tenant.raw()
        }
    );
}

/// Acceptance: a single-FPGA failure mid-workload evicts the instances on
/// the dead board, and with an unbounded retry policy every request still
/// completes. The report prices the lost work: interruptions are counted
/// and goodput drops below 1.
#[test]
fn injected_failure_evicts_then_completes_everything() {
    let reqs: Vec<AppRequest> = (0..24)
        .map(|i| AppRequest::new(i, format!("app{i}"), 5, 2.0e9).arriving_at(i as f64 * 0.25))
        .collect();
    let total = reqs.len();
    let plan = FaultPlan::new().fpga_crash(1, 3.0).fpga_recover(1, 9.0);

    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let report = sim.run_with_plan(&mut VitalScheduler::new(), reqs, &plan);

    assert_eq!(report.completed(), total, "unbounded retry completes all");
    assert_eq!(report.failed_count(), 0);
    assert!(
        report.interrupted_jobs > 0,
        "the crash lands mid-run and must evict someone"
    );
    assert!(report.outcomes.iter().any(|o| o.restarts > 0));
    assert!(
        report.goodput_fraction() < 1.0,
        "evicted work must show up as lost goodput"
    );
    assert!(report.wasted_block_s > 0.0);
}

/// A bounded retry budget gives up: the report carries the terminal
/// failures instead of pretending they completed.
#[test]
fn bounded_retry_reports_terminal_failures() {
    // One FPGA: crashing it permanently strands the request.
    let sim = ClusterSim::new(ClusterConfig {
        fpgas: 1,
        ..ClusterConfig::paper_cluster()
    });
    let reqs = vec![AppRequest::new(0, "big", 10, 20.0e9).arriving_at(0.0)];
    let plan = FaultPlan::new()
        .fpga_crash(0, 1.0)
        .with_retry(RetryPolicy::bounded(1));

    let report = sim.run_with_plan(&mut VitalScheduler::new(), reqs, &plan);
    assert_eq!(report.completed(), 0);
    assert_eq!(report.failed_count(), 1);
    assert_eq!(report.failed[0].attempts, 1);
}

/// Acceptance: `Fail` migrates every tenant that still fits onto the
/// survivors (no holdings remain on the dead board), and `Recover`
/// returns the capacity.
#[test]
fn controller_failure_migrates_tenants_off_the_dead_board() {
    let specs: Vec<AppSpec> = (0..4).map(|i| app(&format!("app{i}"), 8)).collect();
    let c = controller_with(&specs);
    let handles: Vec<DeployHandle> = (0..4)
        .map(|i| c.deploy(&format!("app{i}")).unwrap())
        .collect();
    let victim_fpga = handles[0].primary_fpga();
    let db = c.resources();

    let ControlResponse::FpgaFailed(report) = c.execute(ControlRequest::Fail { fpga: victim_fpga })
    else {
        panic!("an in-range board fails");
    };
    assert!(
        report.torn_down.is_empty(),
        "plenty of free capacity: everyone migrates"
    );
    assert_eq!(db.health_of(victim_fpga), FpgaHealth::Offline);
    for h in &handles {
        let holdings = db.holdings(h.tenant());
        assert!(!holdings.is_empty(), "tenant still deployed");
        assert!(
            holdings
                .iter()
                .all(|b| b.fpga.index() as usize != victim_fpga),
            "no blocks may remain on the dead board"
        );
    }
    assert_eq!(status(&c).fpga_failures, 1);

    let recovered = c.execute(ControlRequest::Recover { fpga: victim_fpga });
    assert_eq!(recovered, ControlResponse::Recovered { fpga: victim_fpga });
    assert_eq!(db.health_of(victim_fpga), FpgaHealth::Online);
    assert_eq!(status(&c).fpga_recoveries, 1);

    for h in handles {
        undeploy(&c, h.tenant());
    }
}

/// Acceptance: `Evacuate` empties a draining FPGA by live migration and no
/// tenant loses its DRAM contents — the image travels with the tenant.
#[test]
fn evacuation_empties_the_board_and_keeps_dram_contents() {
    let c = controller_with(&[app("keeper", 8)]);
    let h = c.deploy("keeper").unwrap();
    let home = h.primary_fpga();
    c.memory_of(home)
        .write(h.tenant(), 0x100, b"survives the drain")
        .unwrap();

    // Evacuate every FPGA the tenant has logic on.
    let db = c.resources();
    let logic_fpgas: Vec<usize> = db
        .holdings(h.tenant())
        .iter()
        .map(|b| b.fpga.index() as usize)
        .collect();
    for f in logic_fpgas {
        let ControlResponse::Evacuated(report) = c.execute(ControlRequest::Evacuate { fpga: f })
        else {
            panic!("an in-range board evacuates");
        };
        assert!(report.unmoved.is_empty(), "one small tenant always fits");
        assert!(db.tenants_on(f).is_empty(), "the board must end up empty");
    }

    // Evacuation is a live migration through the checkpoint path: the DRAM
    // image moves with the tenant to its new home, so the drained board
    // could be powered down without data loss.
    assert_eq!(c.memory_of(home).tenant_count(), 0);
    let new_home = db.holdings(h.tenant())[0].fpga.index() as usize;
    assert_ne!(new_home, home, "the tenant must have left its home board");
    let mut buf = [0u8; 18];
    c.memory_of(new_home)
        .read(h.tenant(), 0x100, &mut buf)
        .unwrap();
    assert_eq!(&buf, b"survives the drain");
    undeploy(&c, h.tenant());
}

/// Acceptance: a teardown that hits an error mid-way still completes every
/// other step — no leaked blocks, NICs, or bandwidth shares.
#[test]
fn forced_teardown_error_leaks_nothing() {
    let c = controller_with(&[app("leaky", 8)]);
    let h = c.deploy("leaky").unwrap();
    let held = c.resources().holdings(h.tenant()).len();
    let free_before = status(&c).total_free + held;

    // Sabotage: destroy the DRAM space out-of-band so undeploy's memory
    // step fails.
    c.memory_of(h.primary_fpga())
        .destroy_space(h.tenant())
        .unwrap();

    let err = c.execute(ControlRequest::undeploy(h.tenant()));
    assert!(!err.is_ok(), "the memory step's failure must surface");

    // ... but everything else was still torn down.
    assert_eq!(status(&c).total_free, free_before);
    assert_eq!(c.switch().nic_count(), 0);
    let fpga = h.primary_fpga();
    assert!(c.arbiter_of(fpga).total_demand_gbps() < 1e-9);
    assert!(status(&c).live_tenants.is_empty());
}
