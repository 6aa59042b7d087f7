//! Reproducibility contract of the cluster simulator *and* its telemetry:
//! the same requests, the same [`FaultPlan`], and the same seed must
//! produce a byte-identical [`SimReport`] and byte-identical telemetry
//! exports across runs. The sim path records through sim-time handles
//! ([`vital::telemetry::Telemetry::sim`]) and never reads the wall clock,
//! so the trace — not just the aggregate report — is stable.

use vital::baselines::AmorphOsHighThroughput;
use vital::cluster::{
    AppRequest, ClusterConfig, ClusterSim, FaultPlan, RetryPolicy, Scheduler, SimReport, Topology,
};
use vital::prelude::*;
use vital::runtime::PodScheduler;
use vital::telemetry::Telemetry;
use vital::workloads::{generate_workload_set, SizingModel, WorkloadComposition, WorkloadParams};

/// One full seeded run: fresh sim, fresh sim-time telemetry handle, and a
/// fault plan that exercises eviction, requeue, and recovery.
fn run_once(seed: u64) -> (SimReport, String, String) {
    let params = WorkloadParams {
        requests: 40,
        mean_interarrival_s: 0.3,
        mean_service_s: 1.5,
        seed,
    };
    let requests = generate_workload_set(
        &WorkloadComposition::table3()[0],
        &params,
        &SizingModel::default(),
    );
    let plan = FaultPlan::new()
        .fpga_crash(1, 2.0)
        .fpga_recover(1, 6.0)
        .with_retry(RetryPolicy::bounded(4).with_backoff(0.25, 2.0));

    let telemetry = Telemetry::sim();
    let sim = ClusterSim::new(ClusterConfig::paper_cluster()).with_telemetry(telemetry.clone());
    let report = sim.run_with_plan(&mut VitalScheduler::new(), requests, &plan);
    (
        report,
        telemetry.export_jsonl(),
        telemetry.export_chrome_trace(),
    )
}

/// Acceptance for the PR: identical inputs give a byte-identical report
/// *and* byte-identical telemetry traces (JSONL and Chrome trace).
#[test]
fn identical_runs_are_byte_identical() {
    let (report_a, jsonl_a, chrome_a) = run_once(7);
    let (report_b, jsonl_b, chrome_b) = run_once(7);

    let json_a = serde_json::to_string(&report_a).expect("report serializes");
    let json_b = serde_json::to_string(&report_b).expect("report serializes");
    assert_eq!(json_a, json_b, "SimReport must be byte-identical");
    assert_eq!(report_a, report_b);

    assert!(
        jsonl_a.contains("sim.arrival") && jsonl_a.contains("sim.placement"),
        "the trace must actually contain the sim timeline"
    );
    assert!(
        jsonl_a.contains("sim.eviction") || jsonl_a.contains("sim.requeue"),
        "the fault plan must leave its mark on the trace"
    );
    assert_eq!(jsonl_a, jsonl_b, "telemetry JSONL must be byte-identical");
    assert_eq!(chrome_a, chrome_b, "Chrome trace must be byte-identical");
}

/// One seeded run in preemptive time-slice mode: the workload is sized to
/// oversubscribe the paper cluster so quantum expiries, swap-outs, and
/// swap-ins all land on the timeline.
fn run_once_sliced(seed: u64) -> (SimReport, String, String) {
    let params = WorkloadParams {
        requests: 40,
        mean_interarrival_s: 0.05,
        mean_service_s: 2.0,
        seed,
    };
    let requests = generate_workload_set(
        &WorkloadComposition::table3()[0],
        &params,
        &SizingModel::default(),
    );

    let telemetry = Telemetry::sim();
    let sim = ClusterSim::new(ClusterConfig::paper_cluster()).with_telemetry(telemetry.clone());
    let report = sim.run(&mut VitalScheduler::time_sliced(0.4), requests);
    (
        report,
        telemetry.export_jsonl(),
        telemetry.export_chrome_trace(),
    )
}

/// Preemption must not cost determinism: quantum expiries interleave with
/// arrivals and completions in the same event queue, and swap state lives
/// in a table indexed by request — so a time-sliced run is as reproducible
/// as a plain one.
#[test]
fn preemptive_runs_are_byte_identical() {
    let (report_a, jsonl_a, chrome_a) = run_once_sliced(11);
    let (report_b, jsonl_b, chrome_b) = run_once_sliced(11);

    assert!(
        report_a.preemptions > 0,
        "the oversubscribed workload must actually trigger swaps"
    );
    assert!(
        jsonl_a.contains("sim.preempt") && jsonl_a.contains("sim.swap_in"),
        "preemption events must ride the sim timeline"
    );

    let json_a = serde_json::to_string(&report_a).expect("report serializes");
    let json_b = serde_json::to_string(&report_b).expect("report serializes");
    assert_eq!(json_a, json_b, "SimReport must be byte-identical");
    assert_eq!(report_a, report_b);
    assert_eq!(jsonl_a, jsonl_b, "telemetry JSONL must be byte-identical");
    assert_eq!(chrome_a, chrome_b, "Chrome trace must be byte-identical");
}

/// Changing only the seed must change the trace — otherwise the
/// byte-identity assertion above would pass vacuously.
#[test]
fn different_seeds_diverge() {
    let (_, jsonl_a, _) = run_once(7);
    let (_, jsonl_b, _) = run_once(8);
    assert_ne!(jsonl_a, jsonl_b, "seeds must steer the timeline");
}

/// A Table-3 set-7 workload offered at 70 % of the block capacity of
/// `fpgas` paper-sized devices (mean request: 4 blocks for 2 s).
fn loaded_workload(requests: usize, fpgas: usize, seed: u64) -> Vec<AppRequest> {
    let capacity_per_s = (fpgas * 15) as f64 / (4.0 * 2.0);
    let params = WorkloadParams {
        requests,
        mean_interarrival_s: 1.0 / (0.7 * capacity_per_s),
        mean_service_s: 2.0,
        seed,
    };
    generate_workload_set(
        &WorkloadComposition::table3()[6],
        &params,
        &SizingModel::default(),
    )
}

/// Runs `sim` twice from scratch and requires equal reports, equal
/// serialized bytes and an equal sim-time trace; returns the first run's
/// report and trace.
fn assert_repeats<S: Scheduler>(
    sim: &ClusterSim,
    policy: impl Fn() -> S,
    requests: &[AppRequest],
    plan: &FaultPlan,
) -> (SimReport, String) {
    let once = || {
        let telemetry = Telemetry::sim();
        let report = sim.clone().with_telemetry(telemetry.clone()).run_with_plan(
            &mut policy(),
            requests.to_vec(),
            plan,
        );
        (report, telemetry.export_jsonl())
    };
    let (report_a, jsonl_a) = once();
    let (report_b, jsonl_b) = once();
    assert_eq!(report_a, report_b, "SimReport must repeat");
    assert_eq!(
        serde_json::to_string(&report_a).expect("report serializes"),
        serde_json::to_string(&report_b).expect("report serializes"),
        "serialized SimReport must be byte-identical"
    );
    assert_eq!(jsonl_a, jsonl_b, "telemetry JSONL must be byte-identical");
    (report_a, jsonl_a)
}

/// A crash evicts every instance on the device at once. The victims
/// re-enter the pending queue in ascending instance id — not in the order
/// of a hash table, which differed from run to run and steered every
/// later placement. Six crashes on an 8 × 8 pod cluster at 70 % load,
/// plus an uplink cut, under both fates an eviction can have.
#[test]
fn faulted_pod_runs_are_byte_identical() {
    let config = ClusterConfig {
        fpgas: 64,
        ..ClusterConfig::paper_cluster()
    };
    let sim = ClusterSim::new(config)
        .with_topology(Topology::pods(8, 8, config.ring_gbps, 25.0))
        .expect("64-FPGA topology fits the 64-FPGA layout");
    let requests = loaded_workload(1_500, 64, 3);
    let span_s = requests.last().expect("non-empty workload").arrival_s;
    // One crash per pod on pods 0–5, spread over the arrival span, each
    // repaired a second later; link 8 is FPGA 0's uplink to its pod switch.
    let faults = (0..6u32).fold(FaultPlan::new(), |plan, k| {
        let at_s = span_s * f64::from(k + 1) / 8.0;
        plan.fpga_crash(k * 8 + k, at_s)
            .fpga_recover(k * 8 + k, at_s + 1.0)
    });
    let faults = faults
        .ring_link_down(8, span_s * 0.3)
        .ring_link_up(8, span_s * 0.6);

    let checkpointed = faults.clone().with_portable_checkpoints();
    let (report, jsonl) = assert_repeats(&sim, PodScheduler::new, &requests, &checkpointed);
    assert!(
        report.interrupted_jobs > 6,
        "crashes must evict several instances at once, got {}",
        report.interrupted_jobs
    );
    assert!(jsonl.contains("sim.checkpoint") && jsonl.contains("sim.resume"));
    assert!(jsonl.contains("sim.link_down") && jsonl.contains("sim.link_up"));

    let retried = faults.with_retry(RetryPolicy::bounded(3).with_backoff(0.25, 2.0));
    let (report, jsonl) = assert_repeats(&sim, PodScheduler::new, &requests, &retried);
    assert!(report.interrupted_jobs > 6);
    assert!(
        jsonl.contains("sim.requeue"),
        "backoff must defer re-queues"
    );
}

/// The baselines' path: a full-device deployment pauses every co-runner
/// on the FPGA and re-arms their completions, also in ascending instance
/// id; a crash then evicts the co-runners together.
#[test]
fn full_device_runs_with_co_runners_are_byte_identical() {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let requests = loaded_workload(300, 4, 5);
    let span_s = requests.last().expect("non-empty workload").arrival_s;
    // Each FPGA crashes once, a fifth of the span apart.
    let plan = (0..4u32).fold(FaultPlan::new(), |plan, f| {
        let at_s = span_s * f64::from(f + 1) / 5.0;
        plan.fpga_crash(f, at_s).fpga_recover(f, at_s + 1.0)
    });
    let (report, _) = assert_repeats(&sim, AmorphOsHighThroughput::new, &requests, &plan);
    assert!(
        report.peak_concurrency > 4,
        "FPGAs must be shared for the pause path to run, got {}",
        report.peak_concurrency
    );
    assert!(report.interrupted_jobs > 2, "{}", report.interrupted_jobs);
    assert_eq!(report.completed() + report.failed_count(), 300);
}
