//! `cluster_sim`: the three simulators that produce every paper figure,
//! run as one pass of fixed work. Host time may move; simulated results
//! may not, so every pass of a run must serialize to the same bytes.
//!
//! (a) `ClusterSim`, 1024 FPGAs in 32 pods under the `PodScheduler`,
//!     Table-3 set 7 at 70 % load;
//! (b) the paper's 4-FPGA ring under the `VitalScheduler`;
//! (c) `IsaSim` over the paper's tile pool on bursty multi-tenant jobs;
//! (d) `NetworkSim` built from `lenet-L`'s compiled channel plan.
//!
//! At the seed commit (a) does not repeat byte for byte under a
//! `FaultPlan` on this topology, so the gated pass runs it without faults
//! and the traced pass reports, as a count of its own, whether two faulted
//! runs agree ([`faulted_runs_agree`]).
//!
//! The sizes below were tuned once so that a pass takes about two seconds
//! on the two-core host the benchmark was written on, and are frozen.

use std::time::Instant;

use vital::cluster::{
    AppRequest, ClusterConfig, ClusterSim, ClusterView, Deployment, FaultPlan, PendingRequest,
    Scheduler, SimReport, Topology,
};
use vital::interface::{network_from_plan, BlockModel, LinkClass, NetworkSim};
use vital::isa::{IsaJob, IsaReport, IsaSim, IsaTemplate};
use vital::runtime::{PodScheduler, VitalScheduler};
use vital::workloads::{
    bursty_tenant_arrivals, generate_workload_set, SizingModel, TenantTrafficConfig,
    WorkloadComposition, WorkloadParams,
};

use crate::spans::Recorder;
use crate::stack;
use crate::stats;

/// (a): pods × FPGAs per pod.
const PODS: (usize, usize) = (32, 32);
/// (a): requests.
const POD_REQUESTS: usize = 25_000;
/// (a): crash/recover pairs.
const FAULTS: usize = 8;
/// (b): requests on the paper's ring.
const RING_REQUESTS: usize = 30_000;
/// (c): jobs, approximately (the arrival process decides the exact count).
const ISA_JOBS: f64 = 70_000.0;
/// (d): cycles.
const NET_CYCLES: u64 = 400_000;
/// Offered load of (a) and (b), as a share of block capacity.
const LOAD: f64 = 0.7;
/// Mean service time of a generated job, seconds.
const MEAN_SERVICE_S: f64 = 2.0;
/// Mean blocks per request of Table-3 set 7.
const MEAN_BLOCKS: f64 = 4.0;

/// Everything a pass consumes, generated once per run from the seed.
pub struct Inputs {
    pod_sim: ClusterSim,
    pod_requests: Vec<AppRequest>,
    pod_faults: FaultPlan,
    ring_sim: ClusterSim,
    ring_requests: Vec<AppRequest>,
    isa_jobs: Vec<IsaJob>,
    net: NetworkSim,
    /// Host seconds spent generating workload sets and traces.
    pub gen_s: f64,
    /// Host seconds spent building the 1024-FPGA topology.
    pub topology_build_s: f64,
}

/// A Table-3 set-7 workload at [`LOAD`] of a cluster of `blocks` blocks.
fn workload(requests: usize, blocks: usize, seed: u64) -> Vec<AppRequest> {
    let capacity_per_s = blocks as f64 / (MEAN_BLOCKS * MEAN_SERVICE_S);
    let params = WorkloadParams {
        requests,
        mean_interarrival_s: 1.0 / (LOAD * capacity_per_s),
        mean_service_s: MEAN_SERVICE_S,
        seed,
    };
    generate_workload_set(
        &WorkloadComposition::table3()[6],
        &params,
        &SizingModel::default(),
    )
}

/// Generates the inputs of a run.
pub fn inputs(seed: u64) -> Inputs {
    let pod_config = ClusterConfig {
        fpgas: PODS.0 * PODS.1,
        ..ClusterConfig::paper_cluster()
    };
    let ring_config = ClusterConfig::paper_cluster();

    let t = Instant::now();
    let pod_requests = workload(POD_REQUESTS, pod_config.total_blocks(), seed);
    let ring_requests = workload(RING_REQUESTS, ring_config.total_blocks(), seed ^ 0xb);
    let traffic = TenantTrafficConfig {
        seed,
        ..TenantTrafficConfig::default()
    };
    // The default process yields 343 jobs over its 30 s horizon.
    let traffic = TenantTrafficConfig {
        horizon_s: traffic.horizon_s * ISA_JOBS / 343.0,
        ..traffic
    };
    let isa_jobs: Vec<IsaJob> = bursty_tenant_arrivals(&traffic)
        .iter()
        .enumerate()
        .map(|(i, a)| IsaJob::new(i as u64, a.tenant, &a.app, a.work_ops, a.arrival_s))
        .collect();
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let topology = Topology::pods(PODS.0, PODS.1, 100.0, 25.0);
    let topology_build_s = t.elapsed().as_secs_f64();
    let pod_sim = ClusterSim::new(pod_config)
        .with_topology(topology)
        .expect("pod topology matches the layout");

    // Eight seeded devices crash at evenly spaced times of the arrival
    // span and come back a second later.
    let span_s = pod_requests.last().map_or(1.0, |r| r.arrival_s);
    let mut pod_faults = FaultPlan::new().with_portable_checkpoints();
    let mut device = seed;
    for k in 0..FAULTS {
        device = device
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let fpga = (device >> 33) as u32 % (PODS.0 * PODS.1) as u32;
        let at_s = span_s * (k + 1) as f64 / (FAULTS + 2) as f64;
        pod_faults = pod_faults
            .fpga_crash(fpga, at_s)
            .fpga_recover(fpga, at_s + 1.0);
    }

    let lenet = stack::compiler()
        .compile(
            stack::app_specs()
                .iter()
                .find(|s| s.name() == "lenet-L")
                .expect("lenet-L is in the suite"),
        )
        .expect("lenet-L compiles");
    // Neighbouring virtual blocks share a die, the rest cross dies: the
    // mapping does not matter to the simulator's cost, only to its result.
    let (net, _) = network_from_plan(
        lenet.bitstream().channel_plan(),
        |from, to| {
            if from.abs_diff(to) <= 1 {
                LinkClass::IntraDie
            } else {
                LinkClass::InterDie
            }
        },
        u64::MAX,
        BlockModel::Decoupled,
    );

    Inputs {
        pod_sim,
        pod_requests,
        pod_faults,
        ring_sim: ClusterSim::new(ring_config),
        ring_requests,
        isa_jobs,
        net,
        gen_s,
        topology_build_s,
    }
}

/// Wraps a policy and times every `schedule` call, as `fig_scale` does.
struct Timed<S> {
    inner: S,
    calls: Vec<(Instant, Instant)>,
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        let start = Instant::now();
        let out = self.inner.schedule(view, pending);
        self.calls.push((start, Instant::now()));
        out
    }

    fn quantum_s(&self) -> Option<f64> {
        self.inner.quantum_s()
    }
}

/// Runs (a) twice under the fault plan (eight crash/recover pairs with
/// portable checkpoints) and says whether the two reports are identical.
pub fn faulted_runs_agree(inputs: &Inputs) -> bool {
    let run = || {
        inputs.pod_sim.run_with_plan(
            &mut PodScheduler::new(),
            inputs.pod_requests.clone(),
            &inputs.pod_faults,
        )
    };
    run() == run()
}

/// The simulated results of one pass: what must not move.
#[derive(Debug, Clone, PartialEq)]
pub struct Reports {
    pod: SimReport,
    ring: SimReport,
    isa: IsaReport,
    /// Cycles and firings of (d).
    net: (u64, u64),
}

impl Reports {
    /// (a): simulated average response time, seconds.
    pub fn response_s(&self) -> f64 {
        self.pod.avg_response_s()
    }

    /// (a): simulated block utilization.
    pub fn utilization(&self) -> f64 {
        self.pod.block_utilization
    }

    /// (c): simulated mean response time, seconds.
    pub fn isa_mean_response_s(&self) -> f64 {
        self.isa.mean_response_s()
    }

    /// Digests of the serialized reports of (a), (b), (c), (d).
    pub fn digests(&self) -> [u64; 4] {
        let json = |r: &SimReport| serde_json::to_string(r).expect("reports serialize");
        let isa = serde_json::to_string(&self.isa).expect("reports serialize");
        [
            stats::fnv48(json(&self.pod).as_bytes()),
            stats::fnv48(json(&self.ring).as_bytes()),
            stats::fnv48(isa.as_bytes()),
            stats::fnv48(format!("{} {}", self.net.0, self.net.1).as_bytes()),
        ]
    }
}

/// What one pass measured and produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Host seconds of (a), (b), (c), (d).
    pub host_s: [f64; 4],
    /// (a): host seconds inside `schedule` and the number of calls (traced
    /// passes only).
    pub sched: Option<(f64, usize)>,
    /// Output checks that did not hold.
    pub broken: Vec<String>,
}

impl Pass {
    /// Host seconds of the whole pass.
    pub fn total_s(&self) -> f64 {
        self.host_s.iter().sum()
    }

    /// Host seconds of the slowest of the four simulators.
    pub fn slowest_s(&self) -> f64 {
        self.host_s.iter().copied().fold(0.0, f64::max)
    }

    /// Median host seconds of the four simulators.
    pub fn typical_s(&self) -> f64 {
        stats::median(&self.host_s)
    }
}

/// Simulated requests, jobs and cycles of one pass, for the rates.
pub struct Work {
    /// Requests of (a) and (b) plus jobs of (c).
    pub requests: usize,
    /// Jobs of (c).
    pub isa_jobs: usize,
    /// Cycles of (d).
    pub net_cycles: u64,
}

/// The fixed work of a pass over `inputs`.
pub fn work(inputs: &Inputs) -> Work {
    Work {
        requests: inputs.pod_requests.len() + inputs.ring_requests.len() + inputs.isa_jobs.len(),
        isa_jobs: inputs.isa_jobs.len(),
        net_cycles: NET_CYCLES,
    }
}

/// Runs (a)–(d) once and returns the timings and the simulated results
/// apart, so that a caller can compare the results and drop them: a run
/// of many passes must not hold every report. With `rec`, each
/// simulator's `run` and every `schedule` call of (a) is recorded as a
/// span under id `id`.
pub fn pass(inputs: &Inputs, id: u64, rec: Option<&mut Recorder>) -> (Pass, Reports) {
    let mut broken = Vec::new();
    let mut ran = [(Instant::now(), Instant::now()); 4];

    // (a) Untraced, the policy runs bare: the timing wrapper costs two
    // clock reads per call and would perturb the number being gated.
    let mut bare = PodScheduler::new();
    let mut timed = Timed {
        inner: PodScheduler::new(),
        calls: Vec::new(),
    };
    let policy: &mut dyn Scheduler = if rec.is_some() { &mut timed } else { &mut bare };
    let t = Instant::now();
    let pod_report = inputs.pod_sim.run(policy, inputs.pod_requests.clone());
    ran[0] = (t, Instant::now());
    if pod_report.completed() != inputs.pod_requests.len() {
        broken.push(format!(
            "(a) completed {} of {} requests",
            pod_report.completed(),
            inputs.pod_requests.len()
        ));
    }

    // (b)
    let t = Instant::now();
    let ring_report = inputs
        .ring_sim
        .run(&mut VitalScheduler::new(), inputs.ring_requests.clone());
    ran[1] = (t, Instant::now());
    if ring_report.completed() != inputs.ring_requests.len() {
        broken.push(format!(
            "(b) completed {} of {} requests",
            ring_report.completed(),
            inputs.ring_requests.len()
        ));
    }

    // (c) The report carries one host measurement of its own; it must not
    // reach the digest.
    let t = Instant::now();
    let mut isa_report = IsaSim::new(IsaTemplate::paper_pool()).run(&inputs.isa_jobs);
    ran[2] = (t, Instant::now());
    isa_report.sched_wall_ns = 0;
    if isa_report.completed() != inputs.isa_jobs.len() {
        broken.push(format!(
            "(c) completed {} of {} jobs",
            isa_report.completed(),
            inputs.isa_jobs.len()
        ));
    }

    // (d)
    let mut net = inputs.net.clone();
    let t = Instant::now();
    let net_stats = net.run(NET_CYCLES);
    ran[3] = (t, Instant::now());
    if net_stats.deadlocked {
        broken.push("(d) the interface network deadlocked".to_string());
    }

    let sched = rec.is_some().then(|| {
        let total: f64 = timed
            .calls
            .iter()
            .map(|(a, b)| (*b - *a).as_secs_f64())
            .sum();
        (total, timed.calls.len())
    });
    if let Some(rec) = rec {
        let names = [
            "cluster.sim.run",
            "cluster.ring.run",
            "isa.sim.run",
            "interface.netsim.run",
        ];
        for (name, (start, end)) in names.into_iter().zip(ran) {
            rec.push(name, "cluster_sim.pass", id, start, end);
        }
        for (start, end) in timed.calls {
            rec.push("cluster.sim.schedule", "cluster.sim.run", id, start, end);
        }
    }

    let reports = Reports {
        pod: pod_report,
        ring: ring_report,
        isa: isa_report,
        net: (net_stats.cycles, net_stats.firings),
    };
    (
        Pass {
            host_s: ran.map(|(start, end)| (end - start).as_secs_f64()),
            sched,
            broken,
        },
        reports,
    )
}
