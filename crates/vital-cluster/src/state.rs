//! Cluster configuration, observable state, and the scheduling interface.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use vital_fabric::{BlockAddr, FpgaId, PhysicalBlockId};

use crate::{AppRequest, RequestId, Topology};

/// Static parameters of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of FPGAs on the ring.
    pub fpgas: usize,
    /// Physical blocks per FPGA user region.
    pub blocks_per_fpga: usize,
    /// Ring bandwidth in Gb/s (each direction).
    pub ring_gbps: f64,
    /// Partial reconfiguration time for one block, in seconds (ICAP-limited).
    pub per_block_reconfig_s: f64,
    /// Full-device reconfiguration time in seconds.
    pub full_reconfig_s: f64,
    /// One-way inter-FPGA latency in seconds (interface latency overhead).
    pub inter_fpga_latency_s: f64,
}

impl ClusterConfig {
    /// The paper's platform: 4 FPGAs, 15 blocks each, 100 Gb/s ring.
    /// Reconfiguration times follow from the ~79 Mb per-block partial
    /// bitstream and the ~1.3 Gb full bitstream over a ~6.4 Gb/s ICAP.
    pub fn paper_cluster() -> Self {
        ClusterConfig {
            fpgas: 4,
            blocks_per_fpga: 15,
            ring_gbps: 100.0,
            per_block_reconfig_s: 0.0123,
            full_reconfig_s: 0.203,
            inter_fpga_latency_s: 520.0e-9,
        }
    }

    /// Total physical blocks in the cluster.
    pub fn total_blocks(&self) -> usize {
        self.fpgas * self.blocks_per_fpga
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::paper_cluster()
    }
}

/// How a deployment programs the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReconfigKind {
    /// ViTAL-style: each allocated block is programmed individually with
    /// partial reconfiguration; co-running applications are unaffected.
    PartialPerBlock,
    /// Whole-device programming (the existing-cloud baseline, and AmorphOS
    /// high-throughput images): co-running applications on the device are
    /// paused for the duration.
    FullDevice,
    /// ISA-level virtualization (the `vital-isa` backend): the fabric holds
    /// a static accelerator template, so "programming" a block means
    /// pointing its compute tile at the tenant's instruction stream —
    /// micro-seconds per tile, no reconfiguration, no co-runner impact.
    Instruction,
}

/// A running application instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

/// A scheduling decision: deploy `request` onto `blocks`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Deployment {
    /// The pending request being served.
    pub request: RequestId,
    /// The physical blocks allocated (must be free; may exceed the
    /// request's need, e.g. the baseline allocates a whole FPGA).
    pub blocks: Vec<BlockAddr>,
    /// How the fabric is programmed.
    pub reconfig: ReconfigKind,
}

/// A request waiting in the scheduler's queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingRequest {
    /// The request.
    pub request: AppRequest,
    /// When it arrived (seconds).
    pub arrived_s: f64,
}

/// One scripted fault-injection event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// An FPGA crashes: it goes offline, everything touching it is evicted.
    FpgaCrash {
        /// The crashing FPGA.
        fpga: u32,
        /// When it crashes (seconds).
        at_s: f64,
    },
    /// A crashed FPGA returns to the pool.
    FpgaRecover {
        /// The recovering FPGA.
        fpga: u32,
        /// When it returns (seconds).
        at_s: f64,
    },
    /// Link `link` of the [`Topology`] goes down (on the ring, link `i`
    /// joins FPGA `i` and `i + 1 mod n`): spanning instances whose paths
    /// it lengthens or cuts are evicted, and later deployments pay the
    /// rerouted hop penalty.
    RingLinkDown {
        /// The failing link.
        link: u32,
        /// When it fails (seconds).
        at_s: f64,
    },
    /// A downed link comes back.
    RingLinkUp {
        /// The recovering link.
        link: u32,
        /// When it returns (seconds).
        at_s: f64,
    },
}

impl FaultEvent {
    /// When the event fires.
    pub fn at_s(&self) -> f64 {
        match *self {
            FaultEvent::FpgaCrash { at_s, .. }
            | FaultEvent::FpgaRecover { at_s, .. }
            | FaultEvent::RingLinkDown { at_s, .. }
            | FaultEvent::RingLinkUp { at_s, .. } => at_s,
        }
    }
}

/// What happens to a request after a fault evicts it: how often it is
/// retried, how long each retry waits, and when the simulator gives up and
/// records the request as [`Failed`](crate::FailedOutcome).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum deployment attempts per request (`0` = unbounded). A
    /// request evicted on its `max_attempts`-th attempt is not re-queued.
    pub max_attempts: u32,
    /// Backoff before the first retry, in seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff of each further retry.
    pub backoff_multiplier: f64,
}

impl RetryPolicy {
    /// Unbounded immediate retries (the default).
    pub fn unbounded() -> Self {
        RetryPolicy {
            max_attempts: 0,
            base_backoff_s: 0.0,
            backoff_multiplier: 1.0,
        }
    }

    /// At most `max_attempts` attempts with exponential backoff: 0.5 s
    /// before the first retry, doubling each time.
    pub fn bounded(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff_s: 0.5,
            backoff_multiplier: 2.0,
        }
    }

    /// Sets the base backoff.
    #[must_use]
    pub fn with_backoff(mut self, base_s: f64, multiplier: f64) -> Self {
        self.base_backoff_s = base_s.max(0.0);
        self.backoff_multiplier = multiplier.max(1.0);
        self
    }

    /// `true` if a request evicted on its `attempts`-th deployment attempt
    /// is out of retries.
    pub fn gives_up_after(&self, attempts: u32) -> bool {
        self.max_attempts != 0 && attempts >= self.max_attempts
    }

    /// Backoff before re-queueing a request evicted on its `attempts`-th
    /// attempt.
    pub fn backoff_s(&self, attempts: u32) -> f64 {
        self.base_backoff_s
            * self
                .backoff_multiplier
                .powi(attempts.saturating_sub(1) as i32)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// A scripted fault-injection scenario: a set of [`FaultEvent`]s plus the
/// [`RetryPolicy`] governing evicted requests.
///
/// ```
/// use vital_cluster::{FaultPlan, RetryPolicy};
/// let plan = FaultPlan::new()
///     .fpga_crash(1, 4.0)
///     .fpga_recover(1, 12.0)
///     .ring_link_down(0, 2.0)
///     .ring_link_up(0, 6.0)
///     .with_retry(RetryPolicy::bounded(3));
/// assert_eq!(plan.events.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// The scripted events.
    pub events: Vec<FaultEvent>,
    /// Retry behaviour for evicted requests.
    pub retry: RetryPolicy,
    /// When `true`, the runtime suspends each eviction victim through the
    /// portable-checkpoint path before its blocks free: the re-queued
    /// request carries only its remaining work and resumes wherever the
    /// scheduler next places it — including a different pod. When `false`
    /// (the default, matching the pre-checkpoint fault model) an evicted
    /// request restarts from scratch and its partial progress counts as
    /// wasted block-seconds.
    pub portable_checkpoints: bool,
}

impl FaultPlan {
    /// An empty plan (no faults, unbounded retry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an FPGA crash at `at_s`.
    #[must_use]
    pub fn fpga_crash(mut self, fpga: u32, at_s: f64) -> Self {
        self.events.push(FaultEvent::FpgaCrash { fpga, at_s });
        self
    }

    /// Adds an FPGA recovery at `at_s`.
    #[must_use]
    pub fn fpga_recover(mut self, fpga: u32, at_s: f64) -> Self {
        self.events.push(FaultEvent::FpgaRecover { fpga, at_s });
        self
    }

    /// Takes link `link` down at `at_s`. Links are numbered as
    /// [`Topology::ring`] and [`Topology::pods`] document: on the ring,
    /// link `i` joins FPGA `i` and `i + 1 mod n`; on pods, each pod's ring
    /// cables then its uplinks, pod by pod, then the switch mesh.
    #[must_use]
    pub fn ring_link_down(mut self, link: u32, at_s: f64) -> Self {
        self.events.push(FaultEvent::RingLinkDown { link, at_s });
        self
    }

    /// Brings link `link` back at `at_s`.
    #[must_use]
    pub fn ring_link_up(mut self, link: u32, at_s: f64) -> Self {
        self.events.push(FaultEvent::RingLinkUp { link, at_s });
        self
    }

    /// Sets the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Suspends eviction victims through the runtime's portable-checkpoint
    /// path, so re-queued requests resume with their progress intact
    /// instead of restarting from scratch.
    #[must_use]
    pub fn with_portable_checkpoints(mut self) -> Self {
        self.portable_checkpoints = true;
        self
    }
}

/// Operational health of one FPGA (the failure model's state machine).
///
/// `Online → Draining` (operator-initiated evacuation) and `Online →
/// Offline` (crash) both stop new allocations; only `Offline` means the
/// device — and any tenant logic still on it — is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FpgaHealth {
    /// Healthy: blocks are allocatable.
    #[default]
    Online,
    /// Being evacuated: existing tenants keep running (and keep their
    /// DRAM), but no new blocks are handed out.
    Draining,
    /// Crashed or removed: nothing on it is usable.
    Offline,
}

/// The block table: who owns every physical block, the health of every
/// FPGA, and the free-block counts per FPGA and per pod, kept current on
/// every occupy, vacate and health change.
///
/// This is the one block table of the stack: the simulator runs its
/// policies against one, and `vital-runtime`'s resource database is a
/// lock around one. A slot holds an owner id — the simulator stores an
/// [`InstanceId`] there, the runtime a tenant id.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// `owner[f][b]` = the owner of block `b` of FPGA `f`.
    owner: Vec<Vec<Option<u64>>>,
    /// Vacant blocks per FPGA, whatever its health.
    vacant: Vec<usize>,
    /// Allocatable blocks per pod: the vacant blocks of its Online FPGAs.
    pod_free: Vec<usize>,
    health: Vec<FpgaHealth>,
    link_down: Vec<bool>,
    topology: Arc<Topology>,
    now_s: f64,
}

impl ClusterView {
    /// An empty, all-Online table: one entry of `blocks_per_fpga` per FPGA
    /// of `topology`, in FPGA order.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_fpga` does not have one entry per FPGA of
    /// `topology`.
    pub fn new(blocks_per_fpga: &[usize], topology: Arc<Topology>) -> Self {
        assert_eq!(
            blocks_per_fpga.len(),
            topology.len(),
            "the layout must have one entry per FPGA of the topology"
        );
        let mut pod_free = vec![0; topology.pod_count()];
        for (f, &n) in blocks_per_fpga.iter().enumerate() {
            pod_free[topology.pod_of(f)] += n;
        }
        ClusterView {
            owner: blocks_per_fpga.iter().map(|&n| vec![None; n]).collect(),
            vacant: blocks_per_fpga.to_vec(),
            pod_free,
            health: vec![FpgaHealth::Online; blocks_per_fpga.len()],
            link_down: vec![false; topology.link_count()],
            topology,
            now_s: 0.0,
        }
    }

    /// The cluster interconnect. Communication-aware policies query hop
    /// distances (and the pod layer) through this instead of assuming a
    /// single ring.
    pub fn topology(&self) -> &crate::Topology {
        &self.topology
    }

    /// Free blocks per pod — the thin global layer a sharded scheduler
    /// consults before materializing any per-FPGA free list. Kept current
    /// by every change to the table, so reading it costs nothing.
    pub fn pod_free_counts(&self) -> &[usize] {
        &self.pod_free
    }

    /// Physical blocks of one FPGA (heterogeneous clusters may differ per
    /// device — the paper's §7 extension).
    pub fn blocks_per_fpga_of(&self, fpga: usize) -> usize {
        self.owner.get(fpga).map(Vec::len).unwrap_or(0)
    }

    /// Sets the health of one FPGA; out-of-range indices are ignored.
    /// Owners keep their blocks: evicting them is the caller's job.
    pub fn set_health(&mut self, fpga: usize, health: FpgaHealth) {
        let was_online = self.fpga_online(fpga);
        let Some(slot) = self.health.get_mut(fpga) else {
            return;
        };
        *slot = health;
        let pod = &mut self.pod_free[self.topology.pod_of(fpga)];
        match (was_online, health == FpgaHealth::Online) {
            (true, false) => *pod -= self.vacant[fpga],
            (false, true) => *pod += self.vacant[fpga],
            _ => {}
        }
    }

    /// The health of one FPGA (`Offline` if out of range).
    pub fn health_of(&self, fpga: usize) -> FpgaHealth {
        self.health
            .get(fpga)
            .copied()
            .unwrap_or(FpgaHealth::Offline)
    }

    /// `true` if the FPGA is [`Online`](FpgaHealth::Online): other devices
    /// expose no free blocks and accept no deployments.
    fn fpga_online(&self, fpga: usize) -> bool {
        self.health_of(fpga) == FpgaHealth::Online
    }

    pub(crate) fn set_link(&mut self, link: usize, down: bool) {
        if let Some(slot) = self.link_down.get_mut(link) {
            *slot = down;
        }
    }

    /// Indices of the links currently down. Communication-aware policies
    /// can avoid spanning across them: traffic reroutes around them,
    /// inflating the hop penalty.
    pub fn down_links(&self) -> Vec<usize> {
        self.link_down
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i)
            .collect()
    }

    pub(crate) fn set_now(&mut self, now_s: f64) {
        self.now_s = now_s;
    }

    /// Gives block `addr` to `owner`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn occupy(&mut self, addr: BlockAddr, owner: u64) {
        let fpga = addr.fpga.index() as usize;
        if self.owner[fpga][addr.block.index() as usize]
            .replace(owner)
            .is_none()
        {
            self.vacant[fpga] -= 1;
            if self.fpga_online(fpga) {
                self.pod_free[self.topology.pod_of(fpga)] -= 1;
            }
        }
    }

    /// Frees block `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn vacate(&mut self, addr: BlockAddr) {
        let fpga = addr.fpga.index() as usize;
        if self.owner[fpga][addr.block.index() as usize]
            .take()
            .is_some()
        {
            self.vacant[fpga] += 1;
            if self.fpga_online(fpga) {
                self.pod_free[self.topology.pod_of(fpga)] += 1;
            }
        }
    }

    /// Current simulation time in seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Number of FPGAs.
    pub fn fpga_count(&self) -> usize {
        self.owner.len()
    }

    /// Is a specific block free (its FPGA online and the block vacant)?
    pub fn is_free(&self, addr: BlockAddr) -> bool {
        self.fpga_online(addr.fpga.index() as usize)
            && self
                .owner
                .get(addr.fpga.index() as usize)
                .and_then(|f| f.get(addr.block.index() as usize))
                .is_some_and(Option::is_none)
    }

    /// The owner of a block, if any.
    pub fn occupant(&self, addr: BlockAddr) -> Option<u64> {
        self.owner
            .get(addr.fpga.index() as usize)
            .and_then(|f| f.get(addr.block.index() as usize))
            .copied()
            .flatten()
    }

    /// Free block addresses of one FPGA, in index order (empty unless the
    /// FPGA is online).
    pub fn free_blocks_of(&self, fpga: usize) -> Vec<BlockAddr> {
        if !self.fpga_online(fpga) {
            return Vec::new();
        }
        self.owner[fpga]
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_none())
            .map(|(i, _)| BlockAddr::new(FpgaId::new(fpga as u32), PhysicalBlockId::new(i as u32)))
            .collect()
    }

    /// Number of free blocks on one FPGA (zero unless online).
    pub fn free_count_of(&self, fpga: usize) -> usize {
        if self.fpga_online(fpga) {
            self.vacant[fpga]
        } else {
            0
        }
    }

    /// Unowned blocks on one FPGA **whatever its health**: raw idle
    /// capacity, where [`ClusterView::free_count_of`] is what is
    /// allocatable right now.
    pub fn vacant_count_of(&self, fpga: usize) -> usize {
        self.vacant.get(fpga).copied().unwrap_or(0)
    }

    /// Total free blocks across the cluster.
    pub fn total_free(&self) -> usize {
        self.pod_free.iter().sum()
    }

    /// `true` if the FPGA hosts no instance at all (an offline FPGA is
    /// never idle-available).
    pub fn fpga_idle(&self, fpga: usize) -> bool {
        self.blocks_per_fpga_of(fpga) > 0
            && self.free_count_of(fpga) == self.blocks_per_fpga_of(fpga)
    }

    /// Distinct owners of blocks on one FPGA, ascending.
    pub fn owners_on(&self, fpga: usize) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .owner
            .get(fpga)
            .map(|f| f.iter().flatten().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// A runtime resource-management policy (paper §3.4).
///
/// The simulator calls [`Scheduler::schedule`] whenever the pending queue or
/// the free-block set changes; the policy returns zero or more deployments,
/// which the simulator validates and applies.
pub trait Scheduler {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &str;

    /// Decide which pending requests to deploy, given the current state.
    /// Requests are provided in arrival order.
    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment>;

    /// Time-slice quantum in seconds, if the policy runs the cluster in
    /// preemptive time-sliced mode (`None` — the default — disables
    /// preemption).
    ///
    /// When a policy declares a quantum, the simulator arms a quantum
    /// timer for every instance the moment it starts executing. At each
    /// expiry, *if* demand is queued, the instance is swapped out: its
    /// blocks free, its progress is preserved (the runtime suspends
    /// tenants through the checkpoint path, so nothing is lost), and the
    /// request re-queues with only its remaining work. Swapping back in
    /// pays the deployment's reconfiguration cost again — the price of
    /// time-multiplexing the fabric. This is what lets the cluster admit
    /// more tenants than physically fit.
    ///
    /// Quantum timers ride the same generation protocol as completions, so
    /// a full-device reconfiguration that pauses co-runners also cancels
    /// their pending expiries; time-slicing is intended for
    /// [`ReconfigKind::PartialPerBlock`] policies.
    fn quantum_s(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_view() -> ClusterView {
        ClusterView::new(&[15; 4], Arc::new(Topology::ring(4)))
    }

    fn addr(f: u32, b: u32) -> BlockAddr {
        BlockAddr::new(FpgaId::new(f), PhysicalBlockId::new(b))
    }

    #[test]
    fn view_occupy_vacate_roundtrip() {
        let mut v = paper_view();
        let addr = addr(1, 3);
        assert!(v.is_free(addr));
        v.occupy(addr, 7);
        assert!(!v.is_free(addr));
        assert_eq!(v.occupant(addr), Some(7));
        assert_eq!(v.free_count_of(1), 14);
        assert_eq!(v.owners_on(1), vec![7]);
        assert!(!v.fpga_idle(1));
        v.vacate(addr);
        assert!(v.fpga_idle(1));
        assert_eq!(v.total_free(), 60);
    }

    #[test]
    fn out_of_range_queries_are_safe() {
        let mut v = paper_view();
        let bad = addr(99, 0);
        assert!(!v.is_free(bad));
        assert!(v.free_blocks_of(99).is_empty());
        assert_eq!(v.free_count_of(99), 0);
        assert_eq!(v.vacant_count_of(99), 0);
        assert_eq!(v.health_of(99), FpgaHealth::Offline);
        v.set_health(99, FpgaHealth::Online); // ignored, no panic
        assert_eq!(v.total_free(), 60);
    }

    /// The per-pod counts a scheduler reads without a pass over the FPGAs
    /// must equal that pass after any mix of occupy, vacate and health
    /// changes — including vacating a block on a device that is down.
    #[test]
    fn pod_counts_follow_every_change() {
        let topology = Arc::new(Topology::pods(2, 2, 100.0, 25.0));
        let mut v = ClusterView::new(&[4, 3, 4, 2], topology.clone());
        let scan = |v: &ClusterView| {
            let mut free = vec![0; topology.pod_count()];
            for f in 0..v.fpga_count() {
                free[topology.pod_of(f)] += v.free_blocks_of(f).len();
            }
            free
        };
        assert_eq!(v.pod_free_counts(), [7, 6]);
        v.occupy(addr(0, 0), 1);
        v.occupy(addr(0, 0), 2); // a re-owned block is not counted twice
        v.occupy(addr(3, 1), 2);
        assert_eq!(v.pod_free_counts(), scan(&v));
        v.set_health(0, FpgaHealth::Draining);
        v.set_health(0, FpgaHealth::Offline);
        assert_eq!(v.pod_free_counts(), [3, 5]);
        v.vacate(addr(0, 0));
        v.vacate(addr(0, 1)); // already vacant
        assert_eq!(v.pod_free_counts(), scan(&v));
        assert_eq!(v.vacant_count_of(0), 4);
        v.set_health(0, FpgaHealth::Online);
        assert_eq!(v.pod_free_counts(), [7, 5]);
        assert_eq!(v.total_free(), 12);
    }

    /// A layout longer than its topology would count the extra FPGAs into
    /// no pod at all.
    #[test]
    #[should_panic(expected = "one entry per FPGA")]
    fn layout_must_match_the_topology() {
        let _ = ClusterView::new(&[4; 5], Arc::new(Topology::pods(2, 2, 100.0, 25.0)));
    }

    #[test]
    fn paper_cluster_dimensions() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(c.total_blocks(), 60);
        assert!(c.full_reconfig_s > c.per_block_reconfig_s);
    }
}
