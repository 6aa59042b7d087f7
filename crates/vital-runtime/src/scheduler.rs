//! ViTAL's policy adapted to the cluster simulator's [`Scheduler`] trait.

use std::ops::Range;

use vital_cluster::{ClusterView, Deployment, PendingRequest, ReconfigKind, Scheduler};
use vital_fabric::BlockAddr;

use crate::allocate_blocks_on;

/// The ViTAL runtime policy for the discrete-event simulator:
/// communication-aware multi-round allocation, per-block partial
/// reconfiguration, optional backfilling of later requests when the head of
/// the queue cannot be placed yet.
///
/// Backfilling carries a starvation risk: a large request at the head of
/// the queue can wait forever while a stream of small later arrivals keeps
/// grabbing every block the moment it frees. The scheduler therefore
/// *reserves* capacity for the oldest unplaceable request once it has
/// waited [`VitalScheduler::starvation_age_s`] seconds: backfill candidates
/// are only granted blocks the reservation does not need.
/// In preemptive mode ([`VitalScheduler::time_sliced`]) the policy also
/// declares a scheduling quantum: the simulator swaps a running tenant out
/// whenever its quantum expires while demand is queued. Because the runtime
/// suspends tenants through the checkpoint path (channels quiesced, DRAM
/// exported), the swap preserves all progress, and the cluster can admit
/// more tenants than physically fit — each swap-in just pays the partial-
/// reconfiguration cost again.
#[derive(Debug, Clone)]
pub struct VitalScheduler {
    backfill: bool,
    reconfig: ReconfigKind,
    starvation_age_s: f64,
    quantum_s: Option<f64>,
}

/// Default wait (seconds) before an unplaceable request earns a capacity
/// reservation against backfill.
const DEFAULT_STARVATION_AGE_S: f64 = 10.0;

impl VitalScheduler {
    /// Creates the scheduler with backfilling enabled (the default).
    pub fn new() -> Self {
        VitalScheduler {
            backfill: true,
            reconfig: ReconfigKind::PartialPerBlock,
            starvation_age_s: DEFAULT_STARVATION_AGE_S,
            quantum_s: None,
        }
    }

    /// Strict FIFO: when the head of the queue cannot be placed, later
    /// requests wait too.
    pub fn fifo() -> Self {
        VitalScheduler {
            backfill: false,
            reconfig: ReconfigKind::PartialPerBlock,
            starvation_age_s: DEFAULT_STARVATION_AGE_S,
            quantum_s: None,
        }
    }

    /// Preemptive time-sliced mode for oversubscribed clusters: identical
    /// allocation policy to [`VitalScheduler::new`] (backfill plus the
    /// starvation guard), but the policy additionally declares `quantum_s`
    /// as its scheduling quantum. The simulator then swaps a running
    /// tenant out at each quantum expiry while demand is queued; the
    /// tenant's progress is preserved (the runtime's suspend/resume path
    /// checkpoints channels and DRAM at the quiesce boundary) and every
    /// swap-in is charged the per-block partial-reconfiguration cost. A
    /// non-positive or non-finite `quantum_s` disables preemption.
    pub fn time_sliced(quantum_s: f64) -> Self {
        VitalScheduler {
            backfill: true,
            reconfig: ReconfigKind::PartialPerBlock,
            starvation_age_s: DEFAULT_STARVATION_AGE_S,
            quantum_s: Some(quantum_s).filter(|q| q.is_finite() && *q > 0.0),
        }
    }

    /// The declared time-slice quantum, if preemptive mode is enabled.
    pub fn quantum(&self) -> Option<f64> {
        self.quantum_s
    }

    /// Sets the age (seconds) at which an unplaceable request earns a
    /// capacity reservation against backfill. `f64::INFINITY` disables the
    /// guard (the pre-fix behaviour).
    #[must_use]
    pub fn with_starvation_age(mut self, age_s: f64) -> Self {
        self.starvation_age_s = age_s.max(0.0);
        self
    }

    /// The configured starvation-guard age in seconds.
    pub fn starvation_age_s(&self) -> f64 {
        self.starvation_age_s
    }

    /// Ablation variant: same allocation policy but programming the fabric
    /// with whole-device bitstreams instead of per-block partial
    /// reconfiguration — quantifies how much of ViTAL's win comes from
    /// non-disruptive deployment (DESIGN.md ablation #4).
    #[must_use]
    pub fn with_reconfig(mut self, reconfig: ReconfigKind) -> Self {
        self.reconfig = reconfig;
        self
    }

    /// Whether backfilling is enabled.
    pub fn backfills(&self) -> bool {
        self.backfill
    }
}

impl Default for VitalScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for VitalScheduler {
    fn name(&self) -> &str {
        if self.quantum_s.is_some() {
            return "vital-timeslice";
        }
        match (self.backfill, self.reconfig) {
            (true, ReconfigKind::PartialPerBlock) => "vital",
            (false, ReconfigKind::PartialPerBlock) => "vital-fifo",
            (true, ReconfigKind::FullDevice) => "vital-fullreconfig",
            (false, ReconfigKind::FullDevice) => "vital-fifo-fullreconfig",
            // The ViTAL policy never emits instruction-switch deployments
            // (that is the `vital-baselines` IsaElastic policy), but the
            // knob exists for ablations.
            (true, ReconfigKind::Instruction) => "vital-instr",
            (false, ReconfigKind::Instruction) => "vital-fifo-instr",
        }
    }

    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        let mut free_lists: Vec<_> = (0..view.fpga_count())
            .map(|f| view.free_blocks_of(f))
            .collect();
        let mut free_total: usize = free_lists.iter().map(Vec::len).sum();
        let mut out = Vec::new();
        // Blocks promised to the oldest sufficiently-aged unplaceable
        // request. The allocator only needs block *counts*, so a
        // count-based reservation is enough to guarantee the aged request
        // goes next once capacity accrues.
        let mut reserved: usize = 0;
        for p in pending {
            let need = p.request.blocks_needed as usize;
            // Skip candidates that would eat into the reservation.
            let fits_beside_reservation = free_total >= reserved + need;
            let alloc = if fits_beside_reservation {
                allocate_blocks_on(view.topology(), &free_lists, need)
            } else {
                None
            };
            match alloc {
                Some(alloc) => {
                    // Remove the granted blocks from the local free lists,
                    // keeping them in index order: each later decision of
                    // this pass is then the one a fresh call would make on
                    // the view with this grant applied (the controller
                    // places one request at a time and gets the same
                    // blocks).
                    for b in &alloc.blocks {
                        let list = &mut free_lists[b.fpga.index() as usize];
                        if let Some(pos) = list.iter().position(|x| x == b) {
                            list.remove(pos);
                        }
                    }
                    free_total -= alloc.blocks.len();
                    out.push(Deployment {
                        request: p.request.id,
                        blocks: alloc.blocks,
                        reconfig: self.reconfig,
                    });
                }
                None if self.backfill => {
                    // Starvation guard: the first aged request that cannot
                    // be placed reserves its block count against backfill.
                    if reserved == 0 && view.now_s() - p.arrived_s >= self.starvation_age_s {
                        reserved = need;
                    }
                    continue;
                }
                None => break,
            }
        }
        out
    }

    fn quantum_s(&self) -> Option<f64> {
        self.quantum_s
    }
}

/// Free-block state of one pod, materialized lazily inside a scheduling
/// sweep: `free_lists[i]` holds the free blocks of FPGA `members.start + i`.
struct PodState {
    members: Range<usize>,
    free_lists: Vec<Vec<BlockAddr>>,
}

/// The pod-sharded variant of the ViTAL policy for datacenter-scale
/// topologies ([`Topology::pods`]): one scheduling sweep batches all
/// pending requests across pods, so per-request allocation cost is
/// O(pods + pod size) instead of O(cluster).
///
/// The sweep consults the thin global layer first — per-pod free-block
/// counts, which the view keeps current ([`ClusterView::pod_free_counts`])
/// — then routes each request to the *best-fit pod* (smallest sufficient
/// free count, ties to the lowest pod index) and only materializes that
/// pod's per-FPGA free lists, caching them for the rest of the sweep.
/// Inside the pod the policy mirrors the single-ring allocator: best-fit
/// single FPGA, else span from the largest member outward in hop order.
///
/// Requests never span pods (a cross-pod span would ride the slow
/// uplinks); demand that fits no single pod waits, guarded against
/// starvation by the same count-based reservation as [`VitalScheduler`].
///
/// On a single-ring topology the whole cluster is one pod and the policy
/// degenerates to a plain best-fit — use [`VitalScheduler`] there; this
/// policy exists for the multi-pod scale regime.
///
/// [`Topology::pods`]: vital_cluster::Topology::pods
#[derive(Debug, Clone)]
pub struct PodScheduler {
    reconfig: ReconfigKind,
    starvation_age_s: f64,
}

impl PodScheduler {
    /// Creates the pod scheduler (per-block partial reconfiguration, the
    /// default starvation guard).
    pub fn new() -> Self {
        PodScheduler {
            reconfig: ReconfigKind::PartialPerBlock,
            starvation_age_s: DEFAULT_STARVATION_AGE_S,
        }
    }

    /// Sets the age (seconds) at which an unplaceable request earns a
    /// capacity reservation against backfill.
    #[must_use]
    pub fn with_starvation_age(mut self, age_s: f64) -> Self {
        self.starvation_age_s = age_s.max(0.0);
        self
    }
}

impl Default for PodScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for PodScheduler {
    fn name(&self) -> &str {
        "vital-pod"
    }

    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        let topology = view.topology();
        let mut pod_free = view.pod_free_counts().to_vec();
        let mut free_total: usize = pod_free.iter().sum();
        let mut pods: Vec<Option<PodState>> = (0..pod_free.len()).map(|_| None).collect();
        let mut out = Vec::new();
        let mut reserved: usize = 0;
        for p in pending {
            let need = p.request.blocks_needed as usize;
            if need == 0 {
                continue;
            }
            // Thin global layer: best-fit pod by free count, leaving the
            // starvation reservation untouched.
            let pod = if free_total >= reserved + need {
                (0..pod_free.len())
                    .filter(|&g| pod_free[g] >= need)
                    .min_by_key(|&g| (pod_free[g], g))
            } else {
                None
            };
            let Some(pod) = pod else {
                if reserved == 0 && view.now_s() - p.arrived_s >= self.starvation_age_s {
                    reserved = need;
                }
                continue;
            };
            let state = pods[pod].get_or_insert_with(|| {
                let members = topology.pod_members(pod);
                let free_lists = members.clone().map(|f| view.free_blocks_of(f)).collect();
                PodState {
                    members,
                    free_lists,
                }
            });
            // Best-fit single FPGA within the pod.
            let single = state
                .free_lists
                .iter()
                .enumerate()
                .filter(|(_, free)| free.len() >= need)
                .min_by_key(|(i, free)| (free.len(), *i))
                .map(|(i, _)| i);
            let order: Vec<usize> = match single {
                Some(i) => vec![i],
                None => {
                    // Span inside the pod: the largest member anchors the
                    // placement, partners join nearest-first.
                    let Some(primary) = state
                        .free_lists
                        .iter()
                        .enumerate()
                        .filter(|(_, free)| !free.is_empty())
                        .max_by_key(|(i, free)| (free.len(), std::cmp::Reverse(*i)))
                        .map(|(i, _)| i)
                    else {
                        continue;
                    };
                    let anchor = vital_fabric::FpgaId::new((state.members.start + primary) as u32);
                    let mut rest: Vec<usize> = (0..state.members.len())
                        .filter(|&i| i != primary && !state.free_lists[i].is_empty())
                        .collect();
                    rest.sort_by_key(|&i| {
                        (
                            topology.hops(
                                anchor,
                                vital_fabric::FpgaId::new((state.members.start + i) as u32),
                            ),
                            i,
                        )
                    });
                    std::iter::once(primary).chain(rest).collect()
                }
            };
            let mut blocks = Vec::with_capacity(need);
            for &i in &order {
                let list = &mut state.free_lists[i];
                let take = list.len().min(need - blocks.len());
                blocks.extend(list.drain(..take));
                if blocks.len() == need {
                    break;
                }
            }
            debug_assert_eq!(blocks.len(), need, "pod free count promised capacity");
            if blocks.len() < need {
                // The pod summary and the lists disagree (should not
                // happen); put nothing back and skip the request.
                continue;
            }
            pod_free[pod] -= need;
            free_total -= need;
            out.push(Deployment {
                request: p.request.id,
                blocks,
                reconfig: self.reconfig,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vital_cluster::{AppRequest, ClusterConfig, ClusterSim};

    fn workload() -> Vec<AppRequest> {
        (0..20)
            .map(|i| {
                let blocks = [1u32, 4, 7, 10][i as usize % 4];
                AppRequest::new(i, format!("app{i}"), blocks, 1.5e9).arriving_at(i as f64 * 0.2)
            })
            .collect()
    }

    #[test]
    fn all_requests_complete() {
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let report = sim.run(&mut VitalScheduler::new(), workload());
        assert_eq!(report.completed(), 20);
        assert!(report.block_utilization > 0.0);
    }

    #[test]
    fn backfill_is_no_worse_than_fifo() {
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let bf = sim.run(&mut VitalScheduler::new(), workload());
        let fifo = sim.run(&mut VitalScheduler::fifo(), workload());
        assert!(bf.avg_response_s() <= fifo.avg_response_s() * 1.05);
    }

    #[test]
    fn starvation_guard_bounds_large_request_wait() {
        // 2 FPGAs x 4 blocks. A whole-cluster (8-block) request arrives
        // just after the first of a long stream of 4-block jobs. Without
        // the guard, backfill re-grabs every freed FPGA for the stream and
        // the big request waits until the stream dries up; with the guard,
        // it earns a reservation after `starvation_age_s` and runs as soon
        // as the in-flight jobs drain.
        let sim = ClusterSim::heterogeneous(ClusterConfig::paper_cluster(), vec![4, 4]);
        let mut reqs: Vec<AppRequest> = (0..20)
            .map(|i| AppRequest::new(i, format!("small{i}"), 4, 2.0e9).arriving_at(i as f64))
            .collect();
        reqs.push(AppRequest::new(99, "big", 8, 2.0e9).arriving_at(0.5));

        let starved = sim.run(
            &mut VitalScheduler::new().with_starvation_age(f64::INFINITY),
            reqs.clone(),
        );
        let guarded = sim.run(&mut VitalScheduler::new().with_starvation_age(3.0), reqs);

        let wait_of = |r: &vital_cluster::SimReport| {
            r.outcomes
                .iter()
                .find(|o| o.name == "big")
                .expect("big request completes")
                .wait_s()
        };
        let starved_wait = wait_of(&starved);
        let guarded_wait = wait_of(&guarded);
        assert!(
            starved_wait > 15.0,
            "without the guard the big request should starve behind the \
             stream (waited {starved_wait:.1}s)"
        );
        assert!(
            guarded_wait < 10.0,
            "the guard should bound the wait to roughly starvation_age + \
             one service time (waited {guarded_wait:.1}s)"
        );
        // Everything still completes under the guard.
        assert_eq!(guarded.completed(), 21);
    }

    #[test]
    fn time_slice_mode_oversubscribes_the_cluster() {
        // 9 tenants x 10 blocks = 90 blocks of simultaneous demand on the
        // 60-block paper cluster: 1.5x physical capacity. The preemptive
        // mode must admit everyone by rotating tenants through the fabric,
        // complete all requests, and throw no work away (swaps preserve
        // progress via the checkpoint path).
        let reqs: Vec<AppRequest> = (0..9)
            .map(|i| AppRequest::new(i, format!("t{i}"), 10, 3.0e9))
            .collect();
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let mut policy = VitalScheduler::time_sliced(0.5);
        assert_eq!(policy.name(), "vital-timeslice");
        assert_eq!(policy.quantum(), Some(0.5));
        let sliced = sim.run(&mut policy, reqs.clone());
        let fifo = sim.run(&mut VitalScheduler::fifo(), reqs);

        assert_eq!(sliced.completed(), 9);
        assert!(sliced.preemptions > 0, "no preemptions recorded");
        assert_eq!(sliced.interrupted_jobs, 0);
        assert_eq!(sliced.wasted_block_s, 0.0);
        assert!((sliced.goodput_fraction() - 1.0).abs() < 1e-12);
        assert!(sliced.swap_reconfig_s > 0.0);
        // Time-slicing grants every tenant the fabric early: the worst
        // admission wait stays within a few quanta, while the
        // non-preemptive run makes the overflow tenants wait for a full
        // service time.
        let worst_wait = |r: &vital_cluster::SimReport| {
            r.outcomes
                .iter()
                .map(vital_cluster::RequestOutcome::wait_s)
                .fold(0.0, f64::max)
        };
        assert!(
            worst_wait(&sliced) < 2.0,
            "sliced worst wait {}",
            worst_wait(&sliced)
        );
        assert!(
            worst_wait(&fifo) > worst_wait(&sliced),
            "fifo {} vs sliced {}",
            worst_wait(&fifo),
            worst_wait(&sliced)
        );
    }

    #[test]
    fn zero_quantum_disables_preemption() {
        let policy = VitalScheduler::time_sliced(0.0);
        assert_eq!(policy.quantum(), None);
        assert_eq!(policy.name(), "vital");
    }

    /// Delegates to an inner policy while recording the FPGAs of every
    /// deployment, so tests can check placement shape after a run.
    struct RecordingScheduler<S> {
        inner: S,
        placements: Vec<Vec<usize>>,
    }

    impl<S: Scheduler> Scheduler for RecordingScheduler<S> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
            let out = self.inner.schedule(view, pending);
            for d in &out {
                self.placements
                    .push(d.blocks.iter().map(|b| b.fpga.index() as usize).collect());
            }
            out
        }
    }

    #[test]
    fn pod_scheduler_completes_and_stays_inside_pods() {
        // 4 pods x 4 FPGAs x 4 blocks (64 blocks). Mixed sizes, including
        // 6-block requests that must span FPGAs inside a pod.
        let topo = vital_cluster::Topology::pods(4, 4, 100.0, 25.0);
        let sim = ClusterSim::heterogeneous(ClusterConfig::paper_cluster(), vec![4; 16])
            .with_topology(topo)
            .expect("16-FPGA layout matches the pod topology");
        let reqs: Vec<AppRequest> = (0..24)
            .map(|i| {
                let blocks = [1u32, 3, 6, 4][i as usize % 4];
                AppRequest::new(i, format!("app{i}"), blocks, 1.5e9).arriving_at(i as f64 * 0.1)
            })
            .collect();
        let mut policy = RecordingScheduler {
            inner: PodScheduler::new(),
            placements: Vec::new(),
        };
        let report = sim.run(&mut policy, reqs);
        assert_eq!(report.completed(), 24);
        assert!(report.spanning_fraction() > 0.0, "6-block requests span");
        // No placement ever crosses a pod boundary.
        let topo = vital_cluster::Topology::pods(4, 4, 100.0, 25.0);
        assert!(!policy.placements.is_empty());
        for fpgas in &policy.placements {
            let pods: std::collections::BTreeSet<usize> =
                fpgas.iter().map(|&f| topo.pod_of(f)).collect();
            assert_eq!(pods.len(), 1, "placement {fpgas:?} spans pods {pods:?}");
        }
    }

    #[test]
    fn pod_scheduler_guards_against_starvation() {
        // One pod of 2 FPGAs x 4 blocks; a whole-pod request behind a
        // stream of pod-half jobs must still run once aged.
        let topo = vital_cluster::Topology::pods(1, 2, 100.0, 25.0);
        let sim = ClusterSim::heterogeneous(ClusterConfig::paper_cluster(), vec![4, 4])
            .with_topology(topo)
            .expect("layout matches");
        let mut reqs: Vec<AppRequest> = (0..20)
            .map(|i| AppRequest::new(i, format!("small{i}"), 4, 2.0e9).arriving_at(i as f64))
            .collect();
        reqs.push(AppRequest::new(99, "big", 8, 2.0e9).arriving_at(0.5));
        let report = sim.run(&mut PodScheduler::new().with_starvation_age(3.0), reqs);
        assert_eq!(report.completed(), 21);
        let big = report
            .outcomes
            .iter()
            .find(|o| o.name == "big")
            .expect("big request completes");
        assert!(big.wait_s() < 10.0, "big waited {:.1}s", big.wait_s());
    }

    #[test]
    fn spanning_occurs_under_fragmentation() {
        // Saturate with 10-block apps (15-block FPGAs) so later requests
        // must span the leftovers.
        let reqs: Vec<AppRequest> = (0..12)
            .map(|i| AppRequest::new(i, format!("big{i}"), 10, 2.0e9).arriving_at(0.0))
            .collect();
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let report = sim.run(&mut VitalScheduler::new(), reqs);
        assert_eq!(report.completed(), 12);
        assert!(
            report.spanning_fraction() > 0.0,
            "expected some multi-FPGA deployments"
        );
    }
}
