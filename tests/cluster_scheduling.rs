//! System-layer integration on the cluster simulator: ViTAL's policy vs the
//! per-device baseline and both AmorphOS modes, on Table 3 workload sets.

use std::sync::Arc;

use vital::baselines::{AmorphOsHighThroughput, AmorphOsLowLatency, IsaElastic, PerDeviceBaseline};
use vital::cluster::{
    ClusterConfig, ClusterSim, ClusterView, Deployment, FpgaHealth, PendingRequest, ReconfigKind,
    RequestId, Topology,
};
use vital::fabric::{BlockAddr, FpgaId, PhysicalBlockId};
use vital::prelude::*;
use vital::runtime::PodScheduler;
use vital::workloads::{SizingModel, WorkloadParams};

fn workload(set_index: usize, requests: usize, seed: u64) -> Vec<AppRequest> {
    let comps = WorkloadComposition::table3();
    generate_workload_set(
        &comps[set_index - 1],
        &WorkloadParams {
            requests,
            mean_interarrival_s: 0.4,
            mean_service_s: 2.0,
            seed,
        },
        &SizingModel::default(),
    )
}

#[test]
fn every_policy_completes_every_request() {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let reqs = workload(7, 40, 1);
    for report in [
        sim.run(&mut VitalScheduler::new(), reqs.clone()),
        sim.run(&mut PerDeviceBaseline::new(), reqs.clone()),
        sim.run(&mut AmorphOsHighThroughput::new(), reqs.clone()),
        sim.run(&mut AmorphOsLowLatency::new(), reqs.clone()),
    ] {
        assert_eq!(report.completed(), 40, "policy {}", report.policy);
    }
}

#[test]
fn vital_beats_the_baseline_on_every_composition() {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    for set in 1..=10 {
        let reqs = workload(set, 40, set as u64);
        let vital = sim.run(&mut VitalScheduler::new(), reqs.clone());
        let base = sim.run(&mut PerDeviceBaseline::new(), reqs);
        assert!(
            vital.avg_response_s() < base.avg_response_s(),
            "set {set}: vital {} vs baseline {}",
            vital.avg_response_s(),
            base.avg_response_s()
        );
    }
}

#[test]
fn only_vital_spans_fpgas() {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let reqs = workload(3, 40, 3); // all-large: spanning matters most
    let vital = sim.run(&mut VitalScheduler::new(), reqs.clone());
    let ht = sim.run(&mut AmorphOsHighThroughput::new(), reqs.clone());
    let base = sim.run(&mut PerDeviceBaseline::new(), reqs);
    assert_eq!(ht.spanning_fraction(), 0.0);
    assert_eq!(base.spanning_fraction(), 0.0);
    assert!(
        vital.spanning_fraction() > 0.0,
        "ViTAL should span on the all-large set"
    );
}

#[test]
fn vital_improves_concurrency_over_the_baseline() {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    // Small-heavy set under saturation: concurrency only differentiates
    // policies when requests queue. With slack arrivals the measured ratio
    // degenerates to a coin-flip on the workload RNG (~1.2-1.7x depending
    // on seed); under load it is a stable 3.4-4.1x for every seed tested.
    let reqs = generate_workload_set(
        &WorkloadComposition::table3()[9],
        &WorkloadParams {
            requests: 50,
            mean_interarrival_s: 0.1,
            mean_service_s: 2.0,
            seed: 4,
        },
        &SizingModel::default(),
    );
    let vital = sim.run(&mut VitalScheduler::new(), reqs.clone());
    let base = sim.run(&mut PerDeviceBaseline::new(), reqs);
    // Paper §5.5: 2.3x more concurrent applications than the baseline.
    assert!(
        vital.avg_concurrency > 1.5 * base.avg_concurrency,
        "vital {} vs baseline {}",
        vital.avg_concurrency,
        base.avg_concurrency
    );
}

#[test]
fn utilization_ordering_matches_fig2() {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    // Utilization only ranks systems under saturation: with slack, the
    // faster system drains its queue and sits idle between arrivals.
    let reqs = generate_workload_set(
        &WorkloadComposition::table3()[6],
        &WorkloadParams {
            requests: 50,
            mean_interarrival_s: 0.08,
            mean_service_s: 2.0,
            seed: 5,
        },
        &SizingModel::default(),
    );
    let vital = sim.run(&mut VitalScheduler::new(), reqs.clone());
    let ht = sim.run(&mut AmorphOsHighThroughput::new(), reqs.clone());
    let base = sim.run(&mut PerDeviceBaseline::new(), reqs);
    // Effective utilization: ViTAL >= AmorphOS-HT > baseline.
    assert!(ht.effective_utilization > base.effective_utilization);
    assert!(vital.effective_utilization >= ht.effective_utilization * 0.95);
}

#[test]
fn interface_overhead_is_negligible() {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let reqs = workload(3, 40, 6);
    let vital = sim.run(&mut VitalScheduler::new(), reqs);
    // Paper §5.5: < 0.03 % of execution time.
    assert!(
        vital.max_interface_overhead() < 3.0e-4,
        "overhead {}",
        vital.max_interface_overhead()
    );
}

/// Records every deployment the wrapped policy makes, so a test can see
/// *where* each stint of a request landed, and counts the calls.
struct Recording<S> {
    inner: S,
    placements: Vec<Deployment>,
    calls: usize,
}

impl<S> Recording<S> {
    fn new(inner: S) -> Self {
        Recording {
            inner,
            placements: Vec::new(),
            calls: 0,
        }
    }
}

impl<S: Scheduler> Scheduler for Recording<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        self.calls += 1;
        let decisions = self.inner.schedule(view, pending);
        self.placements.extend(decisions.iter().cloned());
        decisions
    }
}

#[test]
fn checkpointed_tenant_resumes_in_another_pod() {
    // 2 pods x 2 FPGAs. A whole-FPGA job lands in pod 0; at t = 2 s the
    // entire pod crashes. With portable checkpoints in the fault plan the
    // job resumes in pod 1 with its first 2 s of progress intact — the
    // cross-pod counterpart of `SystemController::migrate_portable`.
    let pods = Topology::pods(2, 2, 100.0, 25.0);
    let sim = ClusterSim::new(ClusterConfig::paper_cluster())
        .with_topology(pods.clone())
        .expect("2 x 2 pods cover the 4-FPGA paper cluster");
    let reqs = vec![AppRequest::new(0, "svc", 15, 10.0e9)];
    // FPGA 1 (the idle half of pod 0) drops first, so the eviction at
    // t = 2 s finds no free blocks anywhere in pod 0.
    let pod_down = FaultPlan::new().fpga_crash(1, 1.9).fpga_crash(0, 2.0);

    let restart = sim.run_with_plan(&mut VitalScheduler::new(), reqs.clone(), &pod_down);
    let mut policy = Recording::new(VitalScheduler::new());
    let resumed = sim.run_with_plan(
        &mut policy,
        reqs,
        &pod_down.clone().with_portable_checkpoints(),
    );

    assert_eq!(resumed.completed(), 1);
    let outcome = &resumed.outcomes[0];
    assert_eq!(outcome.restarts, 1, "the pod failure evicted the tenant");

    // The two stints ran in different pods.
    let pods_of = |d: &Deployment| {
        let mut pods: Vec<usize> = d
            .blocks
            .iter()
            .map(|b| pods.pod_of(b.fpga.index() as usize))
            .collect();
        pods.sort_unstable();
        pods.dedup();
        pods
    };
    assert_eq!(policy.placements.len(), 2, "initial placement plus resume");
    assert_eq!(pods_of(&policy.placements[0]), vec![0]);
    assert_eq!(
        pods_of(&policy.placements[1]),
        vec![1],
        "the checkpointed tenant resumed in the surviving pod"
    );

    // Progress crossed the pod boundary: the resumed run finishes well
    // before the restart-from-scratch run and wastes nothing.
    assert!(
        outcome.completion_s < restart.outcomes[0].completion_s - 1.0,
        "resume {} vs restart {}",
        outcome.completion_s,
        restart.outcomes[0].completion_s
    );
    assert_eq!(resumed.wasted_block_s, 0.0);
    assert!(restart.wasted_block_s > 0.0);
}

/// 64-bit FNV-1a folded to 48 bits, as `cluster_sim` prints its
/// `report_digest`s.
fn fnv48(bytes: &[u8]) -> u64 {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (h ^ (h >> 48)) & 0xffff_ffff_ffff
}

/// A Table 3 set-7 trace offered at 70 % of `blocks` blocks' capacity
/// (2 s mean service, 4 blocks per request on average): the queue stays
/// long, so every capacity change re-runs the policy over it.
fn loaded(requests: usize, blocks: usize, seed: u64) -> Vec<AppRequest> {
    generate_workload_set(
        &WorkloadComposition::table3()[6],
        &WorkloadParams {
            requests,
            mean_interarrival_s: 8.0 / (0.7 * blocks as f64),
            mean_service_s: 2.0,
            seed,
        },
        &SizingModel::default(),
    )
}

/// Runs `requests` under `policy` and returns the report's digest and the
/// number of policy calls.
fn digest_and_calls<S: Scheduler>(
    sim: &ClusterSim,
    policy: S,
    requests: Vec<AppRequest>,
) -> (u64, usize) {
    let mut recording = Recording::new(policy);
    let report = sim.run(&mut recording, requests);
    let json = serde_json::to_string(&report).expect("reports serialize");
    (fnv48(json.as_bytes()), recording.calls)
}

/// Two seeded runs pinned by their report digest and their policy-call
/// count: the `cluster_sim` benchmark's 4-FPGA ring run under
/// `VitalScheduler` at seed 1 (its ring trace uses seed `1 ^ 0xb`), and a
/// 4 × 16-pod run under `PodScheduler`. The
/// digests are what the simulator decides and must not move; the call
/// counts are the simulator's work, and a change that saves calls states
/// its new count here.
#[test]
fn pinned_runs_keep_their_digests_and_call_counts() {
    let ring = ClusterSim::new(ClusterConfig::paper_cluster());
    let (digest, calls) = digest_and_calls(&ring, VitalScheduler::new(), loaded(30_000, 60, 10));
    assert_eq!(digest, 72_617_326_576_680, "the ring run's report moved");
    assert_eq!(calls, 54_162, "ring policy calls");

    let pods = ClusterSim::new(ClusterConfig {
        fpgas: 64,
        ..ClusterConfig::paper_cluster()
    })
    .with_topology(Topology::pods(4, 16, 100.0, 25.0))
    .expect("4 x 16 pods cover 64 FPGAs");
    let (digest, calls) = digest_and_calls(&pods, PodScheduler::new(), loaded(3_000, 960, 1));
    assert_eq!(digest, 195_897_343_365_436, "the pod run's report moved");
    assert_eq!(calls, 3_912, "pod policy calls");
}

/// A seeded 64-bit LCG; `below(n)` draws from its high bits.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

/// A random block table on `topology`, `blocks` blocks per FPGA: a random
/// share of the blocks owned, and about one FPGA in eight draining or
/// offline.
fn random_view(rng: &mut Lcg, topology: &Topology, blocks: usize) -> ClusterView {
    let fpgas = topology.fpgas();
    let mut view = ClusterView::new(&vec![blocks; fpgas], Arc::new(topology.clone()));
    let load = rng.below(101);
    for f in 0..fpgas {
        for b in 0..blocks {
            if rng.below(100) < load {
                let addr = BlockAddr::new(FpgaId::new(f as u32), PhysicalBlockId::new(b as u32));
                view.occupy(addr, f as u64);
            }
        }
        match rng.below(16) {
            0 => view.set_health(f, FpgaHealth::Offline),
            1 => view.set_health(f, FpgaHealth::Draining),
            _ => {}
        }
    }
    view
}

/// A random queue of 1–40 requests of 1–16 blocks, oldest first; the view
/// reads time 0, so about half of them have waited past the starvation
/// guard's 10 s.
fn random_queue(rng: &mut Lcg) -> Vec<PendingRequest> {
    let mut age = rng.below(30) as f64;
    (0..1 + rng.below(40))
        .map(|i| {
            age = (age - rng.below(3) as f64).max(0.0);
            PendingRequest {
                id: RequestId(i),
                blocks_needed: 1 + rng.below(16) as u32,
                arrived_s: -age,
            }
        })
        .collect()
}

/// The simulator calls a policy once per capacity change, so one pass must
/// place everything it would place: with the first call's decisions
/// applied to the view and taken off the queue, a second call places
/// nothing. Checked for every policy the workspace ships, on seeded random
/// views and queues over a ring and over pods.
#[test]
fn one_pass_is_complete() {
    let policies: Vec<Box<dyn Scheduler>> = vec![
        Box::new(VitalScheduler::new()),
        Box::new(VitalScheduler::fifo()),
        Box::new(VitalScheduler::time_sliced(0.5)),
        Box::new(VitalScheduler::new().with_reconfig(ReconfigKind::FullDevice)),
        Box::new(PodScheduler::new()),
        Box::new(PerDeviceBaseline::new()),
        Box::new(AmorphOsLowLatency::new()),
        Box::new(AmorphOsHighThroughput::new()),
        Box::new(IsaElastic::new()),
    ];
    let shapes = [
        (Topology::ring(4), 15),
        (Topology::ring(6), 8),
        (Topology::pods(3, 4, 100.0, 25.0), 6),
    ];
    let mut placed = 0;
    for mut policy in policies {
        for (topology, blocks) in &shapes {
            for seed in 0..150 {
                let mut rng = Lcg(seed);
                let mut view = random_view(&mut rng, topology, *blocks);
                let mut queue = random_queue(&mut rng);
                let first = policy.schedule(&view, &queue);
                for d in &first {
                    for &b in &d.blocks {
                        assert!(view.is_free(b), "{}: {b} is not free", policy.name());
                        view.occupy(b, u64::MAX);
                    }
                    queue.retain(|p| p.id != d.request);
                }
                placed += first.len();
                let second = policy.schedule(&view, &queue);
                assert!(
                    second.is_empty(),
                    "{} on {} FPGAs, seed {seed}: a second pass placed {:?}",
                    policy.name(),
                    topology.fpgas(),
                    second.iter().map(|d| d.request).collect::<Vec<_>>()
                );
            }
        }
    }
    assert!(placed > 1_000, "the random cases place little ({placed})");
}
