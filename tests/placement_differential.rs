//! `vitald` and `ClusterSim` pick the same blocks.
//!
//! The controller places through the simulator's own [`Scheduler`]
//! policies, one request at a time, on the same block-table type. This
//! test holds the two to it decision by decision: a wrapper policy copies
//! every `ClusterSim` decision onto a live [`SystemController`], which
//! deploys a synthetic design of the same block count, and the blocks the
//! controller then holds must be the decision's blocks, in order. A
//! seeded Table 3 trace runs on the paper's 4-FPGA ring (`VitalScheduler`)
//! and on 4 pods of 16 FPGAs (`PodScheduler`).

use std::sync::OnceLock;

use vital::cluster::{
    ClusterConfig, ClusterSim, ClusterView, Deployment, PendingRequest, Scheduler, Topology,
};
use vital::compiler::{AppBitstream, Compiler, CompilerConfig};
use vital::fabric::BlockAddr;
use vital::netlist::hls::{AppSpec, Operator};
use vital::periph::TenantId;
use vital::runtime::{
    ControlRequest, ControlResponse, PodScheduler, RuntimeConfig, SystemController, VitalScheduler,
};
use vital::workloads::{generate_workload_set, SizingModel, WorkloadComposition, WorkloadParams};

/// Block counts the Table 3 sizing model asks for.
const MAX_BLOCKS: usize = 11;

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

/// One compiled design per block count `1..=MAX_BLOCKS`, named
/// `synthetic-<blocks>`. The operator sizes were found by a sweep; the
/// block count each one compiles to is checked.
fn designs() -> &'static [AppBitstream] {
    static DESIGNS: OnceLock<Vec<AppBitstream>> = OnceLock::new();
    DESIGNS.get_or_init(|| {
        let compiler = Compiler::new(CompilerConfig::default());
        let dsp_bound = |dsps| Operator::Custom {
            slices: 200,
            dsps,
            brams: 0,
        };
        let mac = |pes| Operator::MacArray { pes };
        let operators = [
            mac(100),
            mac(600),
            mac(1_100),
            mac(1_500),
            dsp_bound(2_200),
            mac(2_100),
            mac(3_200),
            mac(4_000),
            mac(3_700),
            mac(4_700),
            mac(5_000),
        ];
        operators
            .into_iter()
            .zip(1..=MAX_BLOCKS)
            .map(|(op, blocks)| {
                let mut spec = AppSpec::new(format!("synthetic-{blocks}"));
                spec.add_operator("x", op);
                let bitstream = compiler.compile(&spec).unwrap().into_bitstream();
                assert_eq!(
                    bitstream.block_count(),
                    blocks,
                    "{} changed size",
                    spec.name()
                );
                bitstream
            })
            .collect()
    })
}

/// Copies every decision of `policy` onto `controller` and checks that
/// the controller places it on the same blocks.
struct Mirror<'a, S> {
    policy: S,
    controller: &'a SystemController,
    /// The controller's tenant and blocks for every decision still running.
    live: Vec<(TenantId, Vec<BlockAddr>)>,
    decisions: usize,
    spanning: usize,
}

impl<S: Scheduler> Scheduler for Mirror<'_, S> {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        // Only decisions occupy blocks, so a decision whose blocks the
        // view shows free has finished since the last call.
        let controller = self.controller;
        self.live.retain(|(tenant, blocks)| {
            let finished = view.is_free(blocks[0]);
            if finished {
                undeploy(controller, *tenant);
            }
            !finished
        });
        let decisions = self.policy.schedule(view, pending);
        for d in &decisions {
            let k = self.decisions;
            let need = d.blocks.len();
            let handle = controller
                .deploy(&format!("synthetic-{need}"))
                .unwrap_or_else(|e| {
                    panic!(
                        "decision {k} ({} of {need} blocks): controller refused: {e}",
                        d.request
                    )
                });
            let held = controller.resources().holdings(handle.tenant());
            assert_eq!(
                held, d.blocks,
                "decision {k} ({} of {need} blocks): controller (left) and simulator (right) differ",
                d.request
            );
            self.spanning += usize::from(handle.fpga_count() > 1);
            self.live.push((handle.tenant(), held));
            self.decisions += 1;
        }
        decisions
    }
}

/// Runs a seeded Table 3 trace (set 7: a third each of small, medium and
/// large designs) through `sim` under `policy`, mirrored onto `controller`.
/// `sim_blocks` is the simulator's block count; the controller must manage
/// exactly as many, all free before the trace and again after the drain.
fn run_mirrored<S: Scheduler>(
    sim: &ClusterSim,
    sim_blocks: usize,
    controller: &SystemController,
    policy: S,
    params: WorkloadParams,
) {
    for design in designs() {
        controller.register(design.clone()).unwrap();
    }
    assert_eq!(
        total_free(controller),
        sim_blocks,
        "controller and simulator clusters differ in size"
    );
    let requests = generate_workload_set(
        &WorkloadComposition::table3()[6],
        &params,
        &SizingModel::default(),
    );
    assert!(requests
        .iter()
        .all(|r| r.blocks_needed as usize <= MAX_BLOCKS));
    let mut mirror = Mirror {
        policy,
        controller,
        live: Vec::new(),
        decisions: 0,
        spanning: 0,
    };
    let report = sim.run(&mut mirror, requests);
    assert_eq!(report.completed(), params.requests);
    assert_eq!(
        mirror.decisions, params.requests,
        "one decision per request"
    );
    assert!(mirror.spanning > 0, "the trace exercises multi-FPGA spans");
    for (tenant, _) in mirror.live {
        undeploy(controller, tenant);
    }
    assert_eq!(total_free(controller), sim_blocks);
}

fn total_free(controller: &SystemController) -> usize {
    match controller.execute(ControlRequest::Status) {
        ControlResponse::Status(status) => status.total_free,
        other => panic!("Status answers a status, got {other:?}"),
    }
}

#[test]
fn controller_places_like_the_simulator_on_the_paper_ring() {
    let config = ClusterConfig::paper_cluster();
    let sim = ClusterSim::new(config);
    let controller = SystemController::new(RuntimeConfig::paper_cluster());
    let params = WorkloadParams {
        requests: 200,
        mean_interarrival_s: 0.2,
        mean_service_s: 2.0,
        seed: 28,
    };
    run_mirrored(
        &sim,
        config.total_blocks(),
        &controller,
        VitalScheduler::new(),
        params,
    );
}

#[test]
fn controller_places_like_the_simulator_on_pods() {
    let topology = || Topology::pods(4, 16, 100.0, 25.0);
    let config = ClusterConfig {
        fpgas: 64,
        ..ClusterConfig::paper_cluster()
    };
    let sim = ClusterSim::new(config).with_topology(topology()).unwrap();
    let controller = SystemController::new(RuntimeConfig {
        fpgas: 64,
        ..RuntimeConfig::paper_cluster()
    })
    .with_topology(topology())
    .unwrap();
    let params = WorkloadParams {
        requests: 600,
        mean_interarrival_s: 0.012,
        mean_service_s: 2.0,
        seed: 28,
    };
    run_mirrored(
        &sim,
        config.total_blocks(),
        &controller,
        PodScheduler::new(),
        params,
    );
}
