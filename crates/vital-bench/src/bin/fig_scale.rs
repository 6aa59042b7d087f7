//! Cluster-scale sweep: 4 → 64 → 1024 FPGAs (DESIGN.md §15).
//!
//! The paper evaluates a 4-FPGA ring; this report stresses the pod
//! generalization of the simulator on datacenter-shaped topologies
//! ([`Topology::pods`]): rings of FPGAs joined through per-pod switches
//! and a switch mesh, with slower uplinks than intra-pod cables. Each
//! point runs a seeded Table-3 workload at ~70 % of the point's block
//! capacity and reports:
//!
//! * **goodput** — completed deploys per simulated second,
//! * **fragmentation** — the fraction of deploys that had to span FPGAs.
//!
//! Every point must complete its whole workload. Everything printed is
//! simulated, so the output is deterministic; the scheduler's host cost
//! is the benchmark's `cluster.sim.sched_self_s`.
//!
//! [`Topology::pods`]: vital::cluster::Topology::pods

use vital::cluster::{ClusterConfig, ClusterSim, Topology};
use vital::runtime::{PodScheduler, VitalScheduler};
use vital::workloads::{generate_workload_set, SizingModel, WorkloadComposition, WorkloadParams};

/// Mean service time the workload generator draws around (seconds).
const MEAN_SERVICE_S: f64 = 2.0;
/// Mean blocks per request in the mixed Table-3 set (set 7), used to
/// convert block capacity into an offered-load interarrival time.
const MEAN_BLOCKS_PER_REQ: f64 = 4.0;
/// Offered load as a fraction of the point's block capacity.
const LOAD_FRACTION: f64 = 0.7;

/// One swept cluster size.
struct Point {
    /// FPGAs in the cluster.
    fpgas: usize,
    /// Pods (1 = the paper's plain ring).
    pods: usize,
    /// Requests to generate for this point.
    requests: usize,
}

/// Results of one point, already reduced to the reported figures.
struct PointResult {
    fpgas: usize,
    req_per_s: f64,
    spanning_frac: f64,
    avg_wait_s: f64,
    utilization: f64,
    deploys_per_day: f64,
}

fn run_point(point: &Point) -> PointResult {
    let pod_size = point.fpgas / point.pods;
    let mut config = ClusterConfig::paper_cluster();
    config.fpgas = point.fpgas;

    let total_blocks = point.fpgas * config.blocks_per_fpga;
    // Offered load: LOAD_FRACTION of the block capacity, converted to a
    // request rate through the mean footprint and service time.
    let capacity_req_per_s = total_blocks as f64 / (MEAN_BLOCKS_PER_REQ * MEAN_SERVICE_S);
    let params = WorkloadParams {
        requests: point.requests,
        mean_interarrival_s: 1.0 / (LOAD_FRACTION * capacity_req_per_s),
        mean_service_s: MEAN_SERVICE_S,
        seed: 0x5ca1e + point.fpgas as u64,
    };
    // Set 7 of Table 3: the mixed small/medium/large composition.
    let composition = WorkloadComposition::table3()[6];
    let reqs = generate_workload_set(&composition, &params, &SizingModel::default());

    let sim = if point.pods == 1 {
        ClusterSim::new(config)
    } else {
        ClusterSim::new(config)
            .with_topology(Topology::pods(point.pods, pod_size, 100.0, 25.0))
            .expect("pod topology matches the layout")
    };

    let report = if point.pods == 1 {
        sim.run(&mut VitalScheduler::new(), reqs)
    } else {
        sim.run(&mut PodScheduler::new(), reqs)
    };

    assert_eq!(
        report.completed(),
        point.requests,
        "{}-FPGA point dropped requests ({} failed)",
        point.fpgas,
        report.failed.len()
    );
    let completed = report.completed() as f64;
    let req_per_s = completed / report.makespan_s.max(1e-12);
    PointResult {
        fpgas: point.fpgas,
        req_per_s,
        spanning_frac: report.spanning_fraction(),
        avg_wait_s: report.avg_wait_s(),
        utilization: report.block_utilization,
        deploys_per_day: req_per_s * 86_400.0,
    }
}

fn main() {
    println!("== cluster-scale sweep ==\n");
    // {paper ring, 4 pods x 16, 32 pods x 32}. Request counts keep the
    // sweep affordable while still pushing the 1024-point past a
    // million deploys per simulated day (the rate, not the count, is the
    // claim: ~0.7 x 7680 blocks / 8 block-seconds ~ 672 req/s ~ 58M/day).
    for (fpgas, pods, requests) in [(4, 1, 2_000), (64, 4, 8_000), (1024, 32, 20_000)] {
        let r = run_point(&Point {
            fpgas,
            pods,
            requests,
        });
        println!(
            "{:>5} FPGAs ({:>2} pod(s)): {:>8.1} req/s goodput, spanning {:>5.1}%, \
             wait {:>6.3}s, util {:>4.1}%, {:>5.1}M deploys/day",
            r.fpgas,
            pods,
            r.req_per_s,
            r.spanning_frac * 100.0,
            r.avg_wait_s,
            r.utilization * 100.0,
            r.deploys_per_day / 1e6,
        );
    }
}
