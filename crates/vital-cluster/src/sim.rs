//! The discrete-event engine.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

use vital_fabric::BlockAddr;
use vital_telemetry::Telemetry;

use crate::{
    AppRequest, ClusterConfig, ClusterError, ClusterView, Deployment, FailedOutcome, FaultEvent,
    FaultPlan, InstanceId, PendingRequest, ReconfigKind, RequestOutcome, Scheduler, SimReport,
};

/// Converts sim seconds to the microsecond timeline the telemetry
/// timeline uses. Sim time is non-negative and finite — debug builds
/// enforce the contract instead of silently saturating the cast.
fn sim_us(t: f64) -> u64 {
    debug_assert!(
        t.is_finite() && t >= 0.0,
        "sim time must be non-negative and finite, got {t}"
    );
    (t * 1e6).round() as u64
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    Arrival(usize),
    DeployDone(InstanceId),
    Complete(InstanceId, u32),
    FpgaFail(usize),
    FpgaRepair(usize),
    LinkDown(usize),
    LinkUp(usize),
    /// A backoff expired: re-queue the request at this index.
    Requeue(usize),
    /// A time-slice quantum expired for an instance (generation-stamped,
    /// like [`EventKind::Complete`], so evictions and pauses cancel it).
    Quantum(InstanceId, u32),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    t: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Event {}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order: BinaryHeap is a max-heap, we need earliest-first.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone)]
struct Instance {
    request_idx: usize,
    blocks: Vec<BlockAddr>,
    scheduled_s: f64,
    exec_start_s: f64,
    completion_s: f64,
    service_s: f64,
    /// What a full run of the request would take under this placement —
    /// the denominator for progress accounting when a time-slice quantum
    /// swaps the instance out mid-run (`service_s` holds only the
    /// *remaining* portion assigned to this stint).
    full_service_s: f64,
    interface_overhead_fraction: f64,
    /// Primary FPGA and worst ring distance at schedule time — used to
    /// decide whether a later link failure cuts this instance's traffic.
    primary_fpga: u32,
    ring_hops: usize,
    generation: u32,
    running: bool,
}

/// Execution-time model output for one deployment.
struct ServiceModel {
    service_s: f64,
    overhead_fraction: f64,
    primary_fpga: u32,
    max_hops: usize,
}

/// Kills `victims`, frees their blocks, and decides each victim's fate
/// under `retry`: terminal failure, immediate re-queue, or a deferred
/// re-queue returned as `(fire_at_s, request_idx)` pairs for the caller to
/// schedule (the event queue cannot be borrowed here).
///
/// With `checkpoint` set ([`crate::FaultPlan::with_portable_checkpoints`])
/// each running victim is suspended through the runtime's
/// portable-checkpoint path first: its progress moves into
/// `remaining`/`executed`, the re-queued request carries only the
/// remainder, and nothing counts as wasted.
#[allow(clippy::too_many_arguments)]
fn evict_victims(
    victims: Vec<InstanceId>,
    now: f64,
    requests: &[AppRequest],
    retry: &crate::RetryPolicy,
    checkpoint: bool,
    instances: &mut HashMap<InstanceId, Instance>,
    view: &mut ClusterView,
    pending: &mut Vec<PendingRequest>,
    restarts: &mut HashMap<crate::RequestId, u32>,
    remaining: &mut HashMap<crate::RequestId, f64>,
    executed: &mut HashMap<crate::RequestId, f64>,
    failed: &mut Vec<FailedOutcome>,
    running_apps: &mut usize,
    busy_blocks: &mut usize,
    needed_blocks: &mut usize,
    interrupted_jobs: &mut u64,
    wasted_block_s: &mut f64,
    telemetry: &Telemetry,
) -> Vec<(f64, usize)> {
    let mut requeues = Vec::new();
    for id in victims {
        // Invariant: `victims` was collected from `instances` under the same
        // borrow and contains each id at most once, so removal succeeds.
        let Some(inst) = instances.remove(&id) else {
            debug_assert!(
                false,
                "eviction victim {id:?} missing from the instance table"
            );
            continue;
        };
        if inst.running {
            *running_apps -= 1;
        }
        for &b in &inst.blocks {
            view.vacate(b);
        }
        *busy_blocks -= inst.blocks.len();
        let req = &requests[inst.request_idx];
        *needed_blocks -= req.blocks_needed as usize;
        *interrupted_jobs += 1;
        if checkpoint && inst.running {
            // Portable checkpoint at the eviction boundary: the stint's
            // progress survives, so the time spent is banked rather than
            // wasted and the request re-queues with only the remainder.
            let ran = now - inst.exec_start_s;
            let done = (ran / inst.full_service_s.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
            let rem = remaining.entry(req.id).or_insert(1.0);
            *rem = (*rem - done).max(0.0);
            *executed.entry(req.id).or_insert(0.0) += ran;
            telemetry.event_at(
                sim_us(now),
                "sim.checkpoint",
                &[
                    ("request", req.id.0.into()),
                    ("remaining_fraction", (*rem).into()),
                ],
            );
            telemetry.inc_counter("sim.checkpoints", 1);
        } else {
            // No checkpoint (or the victim never started executing): the
            // partial run is lost.
            *wasted_block_s += inst.blocks.len() as f64 * (now - inst.scheduled_s);
        }
        let evictions = restarts.entry(req.id).or_insert(0);
        *evictions += 1;
        // The attempt just interrupted is eviction number `evictions`.
        let attempts = *evictions;
        telemetry.event_at(
            sim_us(now),
            "sim.eviction",
            &[
                ("request", req.id.0.into()),
                ("attempts", attempts.into()),
                ("blocks_freed", inst.blocks.len().into()),
            ],
        );
        telemetry.inc_counter("sim.evictions", 1);
        if retry.gives_up_after(attempts) {
            telemetry.event_at(
                sim_us(now),
                "sim.request_failed",
                &[("request", req.id.0.into()), ("attempts", attempts.into())],
            );
            telemetry.inc_counter("sim.request_failures", 1);
            failed.push(FailedOutcome {
                id: req.id,
                name: req.name.clone(),
                arrival_s: req.arrival_s,
                failed_s: now,
                attempts,
                blocks_needed: req.blocks_needed,
            });
        } else {
            let backoff = retry.backoff_s(attempts);
            if backoff > 0.0 {
                requeues.push((now + backoff, inst.request_idx));
            } else {
                pending.push(PendingRequest {
                    request: req.clone(),
                    arrived_s: now,
                });
            }
        }
    }
    requeues
}

/// The discrete-event cluster simulator.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: ClusterConfig,
    layout: Vec<usize>,
    topology: std::sync::Arc<crate::Topology>,
    telemetry: Telemetry,
}

impl ClusterSim {
    /// Creates a simulator over a homogeneous cluster.
    pub fn new(config: ClusterConfig) -> Self {
        let layout = vec![config.blocks_per_fpga; config.fpgas];
        let topology = std::sync::Arc::new(crate::Topology::ring(layout.len().max(1)));
        ClusterSim {
            config,
            layout,
            topology,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Creates a simulator over a *heterogeneous* cluster: one entry per
    /// FPGA giving its block count (the paper's §7 extension — ViTAL's
    /// abstraction only requires the blocks themselves to be identical, not
    /// the devices). Link and reconfiguration parameters come from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_fpga` is empty. Use
    /// [`ClusterSim::try_heterogeneous`] to handle that as an error.
    pub fn heterogeneous(config: ClusterConfig, blocks_per_fpga: Vec<usize>) -> Self {
        Self::try_heterogeneous(config, blocks_per_fpga)
            .unwrap_or_else(|e| panic!("cannot build cluster: {e}"))
    }

    /// Fallible variant of [`ClusterSim::heterogeneous`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidLayout`] if `blocks_per_fpga` is
    /// empty.
    pub fn try_heterogeneous(
        config: ClusterConfig,
        blocks_per_fpga: Vec<usize>,
    ) -> Result<Self, ClusterError> {
        if blocks_per_fpga.is_empty() {
            return Err(ClusterError::InvalidLayout(
                "cluster needs at least one FPGA".to_string(),
            ));
        }
        let topology = std::sync::Arc::new(crate::Topology::ring(blocks_per_fpga.len()));
        Ok(ClusterSim {
            config,
            layout: blocks_per_fpga,
            topology,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Replaces the interconnect with an explicit [`Topology`] (pod
    /// graphs, switch fabrics, heterogeneous links). The default is the
    /// paper's single bidirectional ring over the whole layout, which is
    /// bit-identical to the pre-topology simulator.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidLayout`] if the topology's FPGA
    /// count differs from the cluster layout.
    ///
    /// [`Topology`]: crate::Topology
    pub fn with_topology(mut self, topology: crate::Topology) -> Result<Self, ClusterError> {
        if topology.len() != self.layout.len() {
            return Err(ClusterError::InvalidLayout(format!(
                "topology has {} FPGAs but the cluster layout has {}",
                topology.len(),
                self.layout.len()
            )));
        }
        self.topology = std::sync::Arc::new(topology);
        Ok(self)
    }

    /// The interconnect topology simulated runs use.
    pub fn topology(&self) -> &crate::Topology {
        &self.topology
    }

    /// Attaches a telemetry handle. Runs then emit a sim-time event
    /// timeline (arrivals, placements, preemptions, swap-ins, evictions,
    /// requeues, completions, faults) stamped with [`Telemetry::event_at`] — the simulator never
    /// reads a wall clock, so traces from [`Telemetry::sim`] handles are
    /// byte-deterministic for a given request set, fault plan, and policy.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle (disabled unless
    /// [`ClusterSim::with_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Per-FPGA block counts.
    pub fn layout(&self) -> &[usize] {
        &self.layout
    }

    /// Runs `requests` under `policy` until every request completes.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns an invalid deployment (see
    /// [`ClusterError`]) — that is a bug in the policy, not a runtime
    /// condition. Use [`ClusterSim::try_run`] to handle it as an error.
    pub fn run(&self, policy: &mut dyn Scheduler, requests: Vec<AppRequest>) -> SimReport {
        self.try_run(policy, requests)
            .unwrap_or_else(|e| panic!("scheduling policy returned an invalid deployment: {e}"))
    }

    /// Like [`ClusterSim::run`] under a scripted [`FaultPlan`]: FPGA
    /// crashes and ring-link cuts evict the instances they touch, evicted
    /// requests retry with the plan's backoff until its retry budget runs
    /// out (then they land in [`SimReport::failed`]), and the report
    /// carries failure-aware metrics (interrupted jobs, wasted
    /// block-seconds, goodput vs. throughput).
    ///
    /// # Panics
    ///
    /// Panics on invalid policy deployments, like [`ClusterSim::run`].
    pub fn run_with_plan(
        &self,
        policy: &mut dyn Scheduler,
        requests: Vec<AppRequest>,
        plan: &FaultPlan,
    ) -> SimReport {
        self.try_run_with_plan(policy, requests, plan)
            .unwrap_or_else(|e| panic!("scheduling policy returned an invalid deployment: {e}"))
    }

    /// Like [`ClusterSim::run`], surfacing policy bugs as errors.
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] describing the first invalid deployment.
    pub fn try_run(
        &self,
        policy: &mut dyn Scheduler,
        requests: Vec<AppRequest>,
    ) -> Result<SimReport, ClusterError> {
        self.try_run_with_plan(policy, requests, &FaultPlan::new())
    }

    /// Fallible variant of [`ClusterSim::run_with_plan`].
    ///
    /// # Errors
    ///
    /// Returns a [`ClusterError`] describing the first invalid deployment.
    pub fn try_run_with_plan(
        &self,
        policy: &mut dyn Scheduler,
        mut requests: Vec<AppRequest>,
        plan: &FaultPlan,
    ) -> Result<SimReport, ClusterError> {
        requests.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        let mut events = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |events: &mut BinaryHeap<Event>, t: f64, kind: EventKind| {
            events.push(Event { t, seq, kind });
            seq += 1;
        };
        for (i, r) in requests.iter().enumerate() {
            push(&mut events, r.arrival_s, EventKind::Arrival(i));
        }
        // Validate the whole plan up front: out-of-range indices used to be
        // silently swallowed downstream, so a misconfigured fault scenario
        // tested nothing.
        self.validate_plan(plan)?;
        for ev in &plan.events {
            let kind = match *ev {
                FaultEvent::FpgaCrash { fpga, .. } => EventKind::FpgaFail(fpga as usize),
                FaultEvent::FpgaRecover { fpga, .. } => EventKind::FpgaRepair(fpga as usize),
                FaultEvent::RingLinkDown { link, .. } => EventKind::LinkDown(link as usize),
                FaultEvent::RingLinkUp { link, .. } => EventKind::LinkUp(link as usize),
            };
            push(&mut events, ev.at_s(), kind);
        }
        let retry = plan.retry;
        let checkpoint_evictions = plan.portable_checkpoints;
        let mut restarts: HashMap<crate::RequestId, u32> = HashMap::new();
        let mut failed: Vec<FailedOutcome> = Vec::new();
        let mut interrupted_jobs = 0u64;
        let mut wasted_block_s = 0.0f64;

        // Time-slice mode (declared by the policy): fraction of each
        // request's work still outstanding, execution time already banked
        // across earlier stints, and the swap accounting.
        let quantum = policy.quantum_s().filter(|q| q.is_finite() && *q > 0.0);
        let mut remaining: HashMap<crate::RequestId, f64> = HashMap::new();
        let mut executed: HashMap<crate::RequestId, f64> = HashMap::new();
        let mut preemptions = 0u64;
        let mut swap_reconfig_s = 0.0f64;
        // First time each request was granted resources (time-sliced runs
        // only): a preempted tenant's later stints are swaps, not waits, so
        // its outcome reports the original admission.
        let mut admitted_s: HashMap<crate::RequestId, f64> = HashMap::new();

        let mut view = ClusterView::with_topology(self.config, &self.layout, self.topology.clone());
        let mut pending: Vec<PendingRequest> = Vec::new();
        let mut instances: HashMap<InstanceId, Instance> = HashMap::new();
        let mut next_instance = 0u64;
        let mut outcomes: Vec<RequestOutcome> = Vec::new();
        // Request id -> input index, so applying a deployment is O(1)
        // instead of an O(requests) scan (first occurrence wins, matching
        // the linear scan this replaces).
        let mut req_index: HashMap<crate::RequestId, usize> = HashMap::new();
        for (i, r) in requests.iter().enumerate() {
            req_index.entry(r.id).or_insert(i);
        }

        // Utilization / concurrency integrals.
        let mut last_t = 0.0f64;
        let mut busy_blocks = 0usize;
        let mut needed_blocks = 0usize;
        let mut running_apps = 0usize;
        let mut busy_integral = 0.0f64;
        let mut needed_integral = 0.0f64;
        let mut conc_integral = 0.0f64;
        let mut peak_concurrency = 0usize;
        let mut active_time = 0.0f64;
        let mut pressured_time = 0.0f64;
        let mut pressured_busy_integral = 0.0f64;
        let mut was_pending = false;

        while let Some(ev) = events.pop() {
            let now = ev.t;
            // Advance the integrals.
            let dt = now - last_t;
            if dt > 0.0 {
                busy_integral += dt * busy_blocks as f64;
                needed_integral += dt * needed_blocks as f64;
                conc_integral += dt * running_apps as f64;
                if busy_blocks > 0 {
                    active_time += dt;
                }
                if was_pending {
                    pressured_time += dt;
                    pressured_busy_integral += dt * busy_blocks as f64;
                }
                last_t = now;
            }
            view.set_now(now);

            match ev.kind {
                EventKind::Arrival(idx) => {
                    self.telemetry.event_at(
                        sim_us(now),
                        "sim.arrival",
                        &[
                            ("request", requests[idx].id.0.into()),
                            ("blocks_needed", requests[idx].blocks_needed.into()),
                        ],
                    );
                    self.telemetry.inc_counter("sim.arrivals", 1);
                    pending.push(PendingRequest {
                        request: requests[idx].clone(),
                        arrived_s: now,
                    });
                }
                EventKind::DeployDone(id) => {
                    // The instance may have been killed by a fault while its
                    // reconfiguration was in flight.
                    let Some(inst) = instances.get_mut(&id) else {
                        continue;
                    };
                    self.telemetry.event_at(
                        sim_us(now),
                        "sim.exec_start",
                        &[("request", requests[inst.request_idx].id.0.into())],
                    );
                    inst.exec_start_s = now;
                    inst.completion_s = now + inst.service_s;
                    inst.running = true;
                    running_apps += 1;
                    peak_concurrency = peak_concurrency.max(running_apps);
                    let gen = inst.generation;
                    let t = inst.completion_s;
                    push(&mut events, t, EventKind::Complete(id, gen));
                    if let Some(q) = quantum {
                        push(&mut events, now + q, EventKind::Quantum(id, gen));
                    }
                    // Deployment finishing does not free resources, so the
                    // scheduler is not re-invoked here.
                    continue;
                }
                EventKind::Complete(id, gen) => {
                    // A completion is stale if the instance was evicted or
                    // its deadline moved (generation bump); remove-and-check
                    // in one step so no panicking unwrap is needed.
                    let inst = match instances.entry(id) {
                        Entry::Occupied(e) if e.get().generation == gen => e.remove(),
                        _ => continue,
                    };
                    running_apps -= 1;
                    for &b in &inst.blocks {
                        view.vacate(b);
                    }
                    busy_blocks -= inst.blocks.len();
                    let req = &requests[inst.request_idx];
                    needed_blocks -= req.blocks_needed as usize;
                    let mut fpgas: Vec<_> = inst.blocks.iter().map(|b| b.fpga).collect();
                    fpgas.sort_unstable();
                    fpgas.dedup();
                    // Execution time banked in earlier time-slice stints
                    // (zero outside preemptive runs) plus the final stint.
                    let service_s =
                        executed.get(&req.id).copied().unwrap_or(0.0) + (now - inst.exec_start_s);
                    self.telemetry.event_at(
                        sim_us(now),
                        "sim.completion",
                        &[
                            ("request", req.id.0.into()),
                            ("service_s", service_s.into()),
                            ("fpgas_used", fpgas.len().into()),
                        ],
                    );
                    self.telemetry.inc_counter("sim.completions", 1);
                    outcomes.push(RequestOutcome {
                        id: req.id,
                        name: req.name.clone(),
                        arrival_s: req.arrival_s,
                        scheduled_s: admitted_s.get(&req.id).copied().unwrap_or(inst.scheduled_s),
                        exec_start_s: inst.exec_start_s,
                        completion_s: now,
                        service_s,
                        blocks_needed: req.blocks_needed,
                        blocks_allocated: inst.blocks.len() as u32,
                        fpgas_used: fpgas.len() as u32,
                        interface_overhead_fraction: inst.interface_overhead_fraction,
                        restarts: restarts.get(&req.id).copied().unwrap_or(0),
                    });
                }
                EventKind::FpgaFail(fpga) => {
                    self.telemetry
                        .event_at(sim_us(now), "sim.fpga_fail", &[("fpga", fpga.into())]);
                    self.telemetry.inc_counter("sim.fpga_failures", 1);
                    view.set_offline(fpga, true);
                    // Kill every instance touching the failed device and
                    // re-queue its request; its blocks everywhere are freed.
                    let victims: Vec<InstanceId> = instances
                        .iter()
                        .filter(|(_, inst)| {
                            inst.blocks.iter().any(|b| b.fpga.index() as usize == fpga)
                        })
                        .map(|(&id, _)| id)
                        .collect();
                    let requeues = evict_victims(
                        victims,
                        now,
                        &requests,
                        &retry,
                        checkpoint_evictions,
                        &mut instances,
                        &mut view,
                        &mut pending,
                        &mut restarts,
                        &mut remaining,
                        &mut executed,
                        &mut failed,
                        &mut running_apps,
                        &mut busy_blocks,
                        &mut needed_blocks,
                        &mut interrupted_jobs,
                        &mut wasted_block_s,
                        &self.telemetry,
                    );
                    for (t, idx) in requeues {
                        push(&mut events, t, EventKind::Requeue(idx));
                    }
                }
                EventKind::FpgaRepair(fpga) => {
                    self.telemetry.event_at(
                        sim_us(now),
                        "sim.fpga_repair",
                        &[("fpga", fpga.into())],
                    );
                    view.set_offline(fpga, false);
                }
                EventKind::LinkDown(link) => {
                    self.telemetry
                        .event_at(sim_us(now), "sim.link_down", &[("link", link.into())]);
                    view.set_link(link, true);
                    // A spanning instance whose traffic can no longer take
                    // the path it was scheduled on loses its connection
                    // mid-stream: evict it like a device failure. Instances
                    // whose worst hop distance is unchanged keep running.
                    let down = view.down_links();
                    let victims: Vec<InstanceId> = instances
                        .iter()
                        .filter(|(_, inst)| {
                            let fpgas = inst.blocks.iter().map(|b| b.fpga);
                            self.topology.max_hops_from_avoiding(
                                vital_fabric::FpgaId::new(inst.primary_fpga),
                                fpgas,
                                &down,
                            ) != Some(inst.ring_hops)
                        })
                        .map(|(&id, _)| id)
                        .collect();
                    let requeues = evict_victims(
                        victims,
                        now,
                        &requests,
                        &retry,
                        checkpoint_evictions,
                        &mut instances,
                        &mut view,
                        &mut pending,
                        &mut restarts,
                        &mut remaining,
                        &mut executed,
                        &mut failed,
                        &mut running_apps,
                        &mut busy_blocks,
                        &mut needed_blocks,
                        &mut interrupted_jobs,
                        &mut wasted_block_s,
                        &self.telemetry,
                    );
                    for (t, idx) in requeues {
                        push(&mut events, t, EventKind::Requeue(idx));
                    }
                }
                EventKind::LinkUp(link) => {
                    self.telemetry
                        .event_at(sim_us(now), "sim.link_up", &[("link", link.into())]);
                    view.set_link(link, false);
                }
                EventKind::Requeue(idx) => {
                    self.telemetry.event_at(
                        sim_us(now),
                        "sim.requeue",
                        &[("request", requests[idx].id.0.into())],
                    );
                    self.telemetry.inc_counter("sim.requeues", 1);
                    pending.push(PendingRequest {
                        request: requests[idx].clone(),
                        arrived_s: now,
                    });
                }
                EventKind::Quantum(id, gen) => {
                    // Stale if the instance completed, was evicted, or had
                    // its deadline moved (generation bump).
                    let live = instances
                        .get(&id)
                        .is_some_and(|inst| inst.generation == gen && inst.running);
                    let Some(q) = quantum else { continue };
                    if !live {
                        continue;
                    }
                    if pending.is_empty() {
                        // Nobody is waiting: the tenant keeps the fabric
                        // and the timer re-arms one quantum out.
                        push(&mut events, now + q, EventKind::Quantum(id, gen));
                        continue;
                    }
                    // Swap the tenant out. Its progress survives (the
                    // runtime quiesces channels and checkpoints DRAM at
                    // this boundary), so — unlike a fault eviction — the
                    // request re-queues with only its remaining work and
                    // nothing counts as wasted.
                    let inst = instances
                        .remove(&id)
                        .expect("liveness was checked under the same borrow");
                    running_apps -= 1;
                    for &b in &inst.blocks {
                        view.vacate(b);
                    }
                    busy_blocks -= inst.blocks.len();
                    let req = &requests[inst.request_idx];
                    needed_blocks -= req.blocks_needed as usize;
                    let ran = now - inst.exec_start_s;
                    let done = (ran / inst.full_service_s.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
                    let rem = remaining.entry(req.id).or_insert(1.0);
                    *rem = (*rem - done).max(0.0);
                    *executed.entry(req.id).or_insert(0.0) += ran;
                    preemptions += 1;
                    self.telemetry.event_at(
                        sim_us(now),
                        "sim.preempt",
                        &[
                            ("request", req.id.0.into()),
                            ("remaining_fraction", (*rem).into()),
                            ("blocks_freed", inst.blocks.len().into()),
                        ],
                    );
                    self.telemetry.inc_counter("sim.preemptions", 1);
                    pending.push(PendingRequest {
                        request: req.clone(),
                        arrived_s: now,
                    });
                }
            }

            // Resources or queue changed: let the policy act until it has
            // nothing more to deploy. An empty queue short-circuits — at
            // datacenter scale most events leave nothing to schedule.
            while !pending.is_empty() {
                let decisions = policy.schedule(&view, &pending);
                if decisions.is_empty() {
                    break;
                }
                for d in decisions {
                    let pi = pending
                        .iter()
                        .position(|p| p.request.id == d.request)
                        .ok_or(ClusterError::NotPending(d.request))?;
                    self.validate(&view, &pending[pi].request, &d)?;
                    // Invariant: every PendingRequest is cloned from
                    // `requests` (arrivals and requeues alike), so its id
                    // always resolves to an input index. Skip the decision
                    // (leaving the request pending) rather than panic if the
                    // invariant is ever broken.
                    let Some(req_idx) = req_index.get(&pending[pi].request.id).copied() else {
                        debug_assert!(
                            false,
                            "pending request {} is not in the input set",
                            pending[pi].request.id
                        );
                        continue;
                    };
                    let p = pending.remove(pi);

                    let id = InstanceId(next_instance);
                    next_instance += 1;
                    for &b in &d.blocks {
                        view.occupy(b, id);
                    }
                    busy_blocks += d.blocks.len();
                    needed_blocks += p.request.blocks_needed as usize;

                    let model = self.service_time(&p.request, &d.blocks, &view.down_links());
                    let reconfig_s = self.reconfig_time(&d);
                    let rem_frac = remaining.get(&p.request.id).copied().unwrap_or(1.0);
                    if quantum.is_some() || checkpoint_evictions {
                        admitted_s.entry(p.request.id).or_insert(now);
                    }
                    if rem_frac < 1.0 {
                        if quantum.is_some() {
                            // Swap-in of a previously-preempted tenant: the PR
                            // time just charged is the time-slice mode's cost.
                            swap_reconfig_s += reconfig_s;
                            self.telemetry.event_at(
                                sim_us(now),
                                "sim.swap_in",
                                &[
                                    ("request", p.request.id.0.into()),
                                    ("remaining_fraction", rem_frac.into()),
                                    ("reconfig_s", reconfig_s.into()),
                                ],
                            );
                            self.telemetry.inc_counter("sim.swap_ins", 1);
                        } else {
                            // Resume from the portable checkpoint taken at
                            // the eviction: only the remainder runs here.
                            self.telemetry.event_at(
                                sim_us(now),
                                "sim.resume",
                                &[
                                    ("request", p.request.id.0.into()),
                                    ("remaining_fraction", rem_frac.into()),
                                    ("reconfig_s", reconfig_s.into()),
                                ],
                            );
                            self.telemetry.inc_counter("sim.resumes", 1);
                        }
                    }
                    {
                        let mut fpgas: Vec<_> = d.blocks.iter().map(|b| b.fpga).collect();
                        fpgas.sort_unstable();
                        fpgas.dedup();
                        self.telemetry.event_at(
                            sim_us(now),
                            "sim.placement",
                            &[
                                ("request", p.request.id.0.into()),
                                ("blocks", d.blocks.len().into()),
                                ("fpgas_used", fpgas.len().into()),
                                ("ring_hops", model.max_hops.into()),
                                ("reconfig_s", reconfig_s.into()),
                            ],
                        );
                        self.telemetry.inc_counter("sim.placements", 1);
                    }
                    if d.reconfig == ReconfigKind::FullDevice {
                        // Full-device programming pauses every co-running
                        // instance on the touched FPGAs.
                        let mut touched: Vec<_> = d.blocks.iter().map(|b| b.fpga).collect();
                        touched.sort_unstable();
                        touched.dedup();
                        for (&iid, inst) in instances.iter_mut() {
                            if iid == id || !inst.running {
                                continue;
                            }
                            if inst.blocks.iter().any(|b| touched.contains(&b.fpga)) {
                                inst.completion_s += reconfig_s;
                                inst.service_s += reconfig_s;
                                inst.generation += 1;
                                let gen = inst.generation;
                                let t = inst.completion_s;
                                push(&mut events, t, EventKind::Complete(iid, gen));
                            }
                        }
                    }
                    instances.insert(
                        id,
                        Instance {
                            request_idx: req_idx,
                            blocks: d.blocks,
                            scheduled_s: now,
                            exec_start_s: now,
                            completion_s: f64::INFINITY,
                            service_s: model.service_s * rem_frac,
                            full_service_s: model.service_s,
                            interface_overhead_fraction: model.overhead_fraction,
                            primary_fpga: model.primary_fpga,
                            ring_hops: model.max_hops,
                            generation: 0,
                            running: false,
                        },
                    );
                    push(&mut events, now + reconfig_s, EventKind::DeployDone(id));
                }
            }
            was_pending = !pending.is_empty();
        }

        let makespan = last_t;
        let total_blocks = self.layout.iter().sum::<usize>() as f64;
        let denom = (active_time * total_blocks).max(f64::MIN_POSITIVE);
        Ok(SimReport {
            policy: policy.name().to_string(),
            outcomes,
            makespan_s: makespan,
            block_utilization: busy_integral / denom,
            effective_utilization: needed_integral / denom,
            pressured_utilization: if pressured_time > 0.0 {
                pressured_busy_integral / (pressured_time * total_blocks)
            } else {
                busy_integral / denom
            },
            avg_concurrency: if active_time > 0.0 {
                conc_integral / active_time
            } else {
                0.0
            },
            peak_concurrency,
            failed,
            interrupted_jobs,
            wasted_block_s,
            busy_block_s: busy_integral,
            preemptions,
            swap_reconfig_s,
        })
    }

    /// Checks every [`FaultPlan`] event against the simulated cluster:
    /// FPGA indices must be in range, link indices must name a real
    /// interconnect link, and timestamps must be non-negative and finite.
    fn validate_plan(&self, plan: &FaultPlan) -> Result<(), ClusterError> {
        let fpgas = self.layout.len();
        let links = self.topology.link_count();
        for (i, ev) in plan.events.iter().enumerate() {
            let at = ev.at_s();
            if !at.is_finite() || at < 0.0 {
                return Err(ClusterError::InvalidFault(format!(
                    "event {i} ({ev:?}) has invalid timestamp {at}"
                )));
            }
            match *ev {
                FaultEvent::FpgaCrash { fpga, .. } | FaultEvent::FpgaRecover { fpga, .. } => {
                    if fpga as usize >= fpgas {
                        return Err(ClusterError::InvalidFault(format!(
                            "event {i} ({ev:?}) names FPGA {fpga} but the cluster has {fpgas}"
                        )));
                    }
                }
                FaultEvent::RingLinkDown { link, .. } | FaultEvent::RingLinkUp { link, .. } => {
                    if link as usize >= links {
                        return Err(ClusterError::InvalidFault(format!(
                            "event {i} ({ev:?}) names link {link} but the topology has {links}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn validate(
        &self,
        view: &ClusterView,
        request: &AppRequest,
        d: &Deployment,
    ) -> Result<(), ClusterError> {
        if d.blocks.len() < request.blocks_needed as usize {
            return Err(ClusterError::InsufficientBlocks {
                request: d.request,
                allocated: d.blocks.len(),
                needed: request.blocks_needed as usize,
            });
        }
        let mut seen: Vec<BlockAddr> = Vec::with_capacity(d.blocks.len());
        for &b in &d.blocks {
            if seen.contains(&b) {
                return Err(ClusterError::DuplicateBlock {
                    request: d.request,
                    block: b,
                });
            }
            seen.push(b);
            if !view.is_free(b) {
                return Err(ClusterError::BlockUnavailable {
                    request: d.request,
                    block: b,
                });
            }
        }
        Ok(())
    }

    /// Execution-time model: spanning FPGAs divides throughput by
    /// `1 + 2·comm_intensity·span·hop_factor`, where `span` is the fraction
    /// of blocks off the primary FPGA and `hop_factor` grows with the worst
    /// ring distance from the primary (multi-hop traffic shares ring
    /// segments). The pipeline-fill latency of the latency-insensitive
    /// interface is added on top (sub-millisecond; the paper measures it
    /// below 0.03 % of execution time).
    fn service_time(
        &self,
        request: &AppRequest,
        blocks: &[BlockAddr],
        down: &[usize],
    ) -> ServiceModel {
        let mut per_fpga: HashMap<u32, usize> = HashMap::new();
        for b in blocks.iter().take(request.blocks_needed as usize) {
            *per_fpga.entry(b.fpga.index()).or_insert(0) += 1;
        }
        let used = request.blocks_needed.max(1) as f64;
        // Tie-break equal block counts on the lowest FPGA id: `HashMap`
        // iteration order is randomized per instance, and an
        // order-dependent primary makes same-seed runs diverge whenever a
        // span splits evenly.
        let (primary_fpga, primary) = per_fpga
            .iter()
            .max_by_key(|&(&f, &n)| (n, std::cmp::Reverse(f)))
            .map(|(&f, &n)| (f, n as f64))
            .unwrap_or((0, 0.0));
        let span = (1.0 - primary / used).max(0.0);
        // Traffic reroutes around down links (longer hops). A spanning set
        // cut in two by link failures gets the full cluster length as a
        // crude finite penalty — the scheduler saw the down links and chose
        // to span anyway.
        let max_hops = self
            .topology
            .max_hops_from_avoiding(
                vital_fabric::FpgaId::new(primary_fpga),
                per_fpga.keys().map(|&f| vital_fabric::FpgaId::new(f)),
                down,
            )
            .unwrap_or(self.layout.len());
        // One hop = the calibrated penalty; further hops add 30% each (the
        // traffic occupies more interconnect segments). Spans crossing
        // links slower than the reference ring cable (pod uplinks) pay
        // proportionally more; on a single ring the bandwidth factor is
        // exactly 1.0, keeping the pre-topology model bit-identical.
        let hop_factor = if max_hops == 0 {
            0.0
        } else {
            let bw = self.topology.bandwidth_slowdown(
                vital_fabric::FpgaId::new(primary_fpga),
                per_fpga.keys().map(|&f| vital_fabric::FpgaId::new(f)),
                self.config.ring_gbps,
            );
            (1.0 + 0.3 * (max_hops as f64 - 1.0)) * bw
        };
        let base = request.standalone_service_s();
        let slowed = base * (1.0 + 2.0 * request.comm_intensity * span * hop_factor);
        // ~250 pipeline fills per job (one per layer batch): sub-millisecond
        // in total, matching the paper's <0.03% observation.
        let overhead = self.config.inter_fpga_latency_s * 250.0 * max_hops as f64;
        let total = slowed + overhead;
        ServiceModel {
            service_s: total,
            overhead_fraction: overhead / total.max(f64::MIN_POSITIVE),
            primary_fpga,
            max_hops,
        }
    }

    fn reconfig_time(&self, d: &Deployment) -> f64 {
        match d.reconfig {
            ReconfigKind::PartialPerBlock => {
                // Per-FPGA ICAPs program their blocks sequentially; distinct
                // FPGAs proceed in parallel.
                let mut per_fpga: HashMap<u32, usize> = HashMap::new();
                for b in &d.blocks {
                    *per_fpga.entry(b.fpga.index()).or_insert(0) += 1;
                }
                per_fpga
                    .values()
                    .map(|&n| n as f64 * self.config.per_block_reconfig_s)
                    .fold(0.0, f64::max)
            }
            ReconfigKind::FullDevice => self.config.full_reconfig_s,
            ReconfigKind::Instruction => {
                // The fabric already holds the static accelerator template;
                // claiming a block only redirects its compute tile to the
                // tenant's instruction stream. Tiles on one FPGA switch
                // sequentially (one stream-pointer write each), so the cost
                // mirrors the per-block arm at micro-second scale.
                let mut per_fpga: HashMap<u32, usize> = HashMap::new();
                for b in &d.blocks {
                    *per_fpga.entry(b.fpga.index()).or_insert(0) += 1;
                }
                per_fpga
                    .values()
                    .map(|&n| n as f64 * INSTRUCTION_SWITCH_S)
                    .fold(0.0, f64::max)
            }
        }
    }
}

/// Time to repoint one template compute tile at another tenant's
/// instruction stream (kept in sync with `vital_isa::TILE_SWITCH_S`;
/// the crates cannot share the constant without a dependency cycle).
pub(crate) const INSTRUCTION_SWITCH_S: f64 = 10.0e-6;

#[cfg(test)]
mod tests {
    use super::*;
    use vital_fabric::{FpgaId, PhysicalBlockId};

    /// Minimal policy: first-fit on one FPGA, optionally whole-device.
    struct FirstFit {
        whole_device: bool,
    }

    impl Scheduler for FirstFit {
        fn name(&self) -> &str {
            "first-fit"
        }
        fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
            let mut out = Vec::new();
            let mut free: Vec<Vec<BlockAddr>> = (0..view.fpga_count())
                .map(|f| view.free_blocks_of(f))
                .collect();
            for p in pending {
                let need = p.request.blocks_needed as usize;
                #[allow(clippy::needless_range_loop)] // `f` also selects the FPGA
                for f in 0..free.len() {
                    let whole = self.whole_device;
                    let enough = if whole {
                        free[f].len() == view.config().blocks_per_fpga
                    } else {
                        free[f].len() >= need
                    };
                    if enough {
                        let take = if whole { free[f].len() } else { need };
                        let blocks: Vec<BlockAddr> = free[f].drain(..take).collect();
                        out.push(Deployment {
                            request: p.request.id,
                            blocks,
                            reconfig: if whole {
                                ReconfigKind::FullDevice
                            } else {
                                ReconfigKind::PartialPerBlock
                            },
                        });
                        break;
                    }
                }
            }
            out
        }
    }

    fn requests(n: u64, blocks: u32, work: f64) -> Vec<AppRequest> {
        (0..n)
            .map(|i| {
                AppRequest::new(i, format!("app{i}"), blocks, work).arriving_at(i as f64 * 0.1)
            })
            .collect()
    }

    #[test]
    fn single_request_completes_with_expected_times() {
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let report = sim.run(
            &mut FirstFit {
                whole_device: false,
            },
            requests(1, 3, 2.0e9),
        );
        assert_eq!(report.completed(), 1);
        let o = &report.outcomes[0];
        assert_eq!(o.wait_s(), 0.0);
        // 3 blocks x 12.3 ms reconfig, then 2 s of work.
        assert!((o.exec_start_s - 0.0369).abs() < 1e-9);
        assert!((o.service_s - 2.0).abs() < 1e-6);
        assert_eq!(o.fpgas_used, 1);
    }

    #[test]
    fn fine_grained_sharing_beats_whole_device_on_response_time() {
        // 12 small apps: fine-grained packs them onto few FPGAs
        // concurrently; whole-device serializes them 4 at a time.
        let reqs = requests(12, 3, 2.0e9);
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let fine = sim.run(
            &mut FirstFit {
                whole_device: false,
            },
            reqs.clone(),
        );
        let coarse = sim.run(&mut FirstFit { whole_device: true }, reqs);
        assert_eq!(fine.completed(), 12);
        assert_eq!(coarse.completed(), 12);
        assert!(
            fine.avg_response_s() < coarse.avg_response_s(),
            "fine {} vs coarse {}",
            fine.avg_response_s(),
            coarse.avg_response_s()
        );
        assert!(fine.avg_concurrency > coarse.avg_concurrency);
        assert!(fine.effective_utilization > coarse.effective_utilization);
    }

    #[test]
    fn full_device_reconfig_pauses_co_runners() {
        // One long app runs on FPGA 0; a whole-device deployment arrives on
        // the same FPGA... the baseline policy never co-locates, so build
        // the scenario manually with a custom policy.
        struct Colocate {
            step: u32,
        }
        impl Scheduler for Colocate {
            fn name(&self) -> &str {
                "colocate"
            }
            fn schedule(
                &mut self,
                view: &ClusterView,
                pending: &[PendingRequest],
            ) -> Vec<Deployment> {
                let Some(p) = pending.first() else {
                    return Vec::new();
                };
                self.step += 1;
                let start = if self.step == 1 { 0 } else { 8 };
                let blocks: Vec<BlockAddr> = (start..start + p.request.blocks_needed)
                    .map(|b| BlockAddr::new(FpgaId::new(0), PhysicalBlockId::new(b)))
                    .collect();
                if blocks.iter().all(|&b| view.is_free(b)) {
                    vec![Deployment {
                        request: p.request.id,
                        blocks,
                        reconfig: ReconfigKind::FullDevice,
                    }]
                } else {
                    Vec::new()
                }
            }
        }
        let reqs = vec![
            AppRequest::new(0, "long", 4, 10.0e9).arriving_at(0.0),
            AppRequest::new(1, "late", 4, 1.0e9).arriving_at(1.0),
        ];
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let report = sim.run(&mut Colocate { step: 0 }, reqs);
        let long = report.outcomes.iter().find(|o| o.name == "long").unwrap();
        // The long app was paused for one full reconfiguration (203 ms).
        assert!(
            long.service_s > 10.0 + 0.2,
            "service {} should include the pause",
            long.service_s
        );
    }

    #[test]
    fn spanning_fpgas_slows_execution_but_still_completes() {
        struct SpanPolicy;
        impl Scheduler for SpanPolicy {
            fn name(&self) -> &str {
                "span"
            }
            fn schedule(
                &mut self,
                view: &ClusterView,
                pending: &[PendingRequest],
            ) -> Vec<Deployment> {
                let Some(p) = pending.first() else {
                    return Vec::new();
                };
                // Half the blocks on FPGA 0, half on FPGA 1.
                let need = p.request.blocks_needed;
                let mut blocks = Vec::new();
                for b in 0..need / 2 {
                    blocks.push(BlockAddr::new(FpgaId::new(0), PhysicalBlockId::new(b)));
                }
                for b in need / 2..need {
                    blocks.push(BlockAddr::new(FpgaId::new(1), PhysicalBlockId::new(b)));
                }
                if blocks.iter().all(|&b| view.is_free(b)) {
                    vec![Deployment {
                        request: p.request.id,
                        blocks,
                        reconfig: ReconfigKind::PartialPerBlock,
                    }]
                } else {
                    Vec::new()
                }
            }
        }
        let reqs = vec![AppRequest::new(0, "spanner", 8, 2.0e9).with_comm_intensity(0.5)];
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let report = sim.run(&mut SpanPolicy, reqs);
        let o = &report.outcomes[0];
        assert_eq!(o.fpgas_used, 2);
        // Slowdown: 1 + 2*0.5*0.5 = 1.5x over the 2 s standalone time.
        assert!((o.service_s - 3.0).abs() < 0.01, "service {}", o.service_s);
        assert!(o.interface_overhead_fraction > 0.0);
        assert!(
            o.interface_overhead_fraction < 0.0003,
            "interface overhead {} should be < 0.03%",
            o.interface_overhead_fraction
        );
        assert_eq!(report.spanning_fraction(), 1.0);
    }

    #[test]
    fn invalid_deployment_is_reported() {
        struct Broken;
        impl Scheduler for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn schedule(
                &mut self,
                _view: &ClusterView,
                pending: &[PendingRequest],
            ) -> Vec<Deployment> {
                pending
                    .first()
                    .map(|p| Deployment {
                        request: p.request.id,
                        blocks: vec![], // fewer than needed
                        reconfig: ReconfigKind::PartialPerBlock,
                    })
                    .into_iter()
                    .collect()
            }
        }
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let err = sim.try_run(&mut Broken, requests(1, 2, 1.0e9)).unwrap_err();
        assert!(matches!(err, ClusterError::InsufficientBlocks { .. }));
    }

    #[test]
    fn fpga_failure_requeues_and_recovers() {
        // One long job lands on an FPGA that fails mid-run: the job must be
        // killed, re-queued, redeployed on a surviving device and still
        // complete, with the restart recorded.
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let reqs = vec![AppRequest::new(0, "victim", 4, 10.0e9)];
        let report = sim.run_with_plan(
            &mut FirstFit {
                whole_device: false,
            },
            reqs,
            &FaultPlan::new().fpga_crash(0, 2.0),
        );
        assert_eq!(report.completed(), 1);
        let o = &report.outcomes[0];
        assert_eq!(o.restarts, 1);
        assert_eq!(report.total_restarts(), 1);
        // The rerun must finish well after a failure-free run would have.
        assert!(o.completion_s > 12.0, "completion {}", o.completion_s);
    }

    #[test]
    fn checkpointed_eviction_preserves_progress() {
        // Same crash as above, but the plan opts into portable
        // checkpoints: the victim's 2 s of progress is banked at the
        // eviction, so it resumes with only the remainder, finishes well
        // before the restart-from-scratch run, and wastes nothing.
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let reqs = vec![AppRequest::new(0, "victim", 4, 10.0e9)];
        let crash = FaultPlan::new().fpga_crash(0, 2.0);
        let restart = sim.run_with_plan(
            &mut FirstFit {
                whole_device: false,
            },
            reqs.clone(),
            &crash,
        );
        let resumed = sim.run_with_plan(
            &mut FirstFit {
                whole_device: false,
            },
            reqs,
            &crash.with_portable_checkpoints(),
        );
        assert_eq!(resumed.completed(), 1);
        let o = &resumed.outcomes[0];
        assert_eq!(o.restarts, 1, "the eviction is still recorded");
        assert!(
            o.completion_s < restart.outcomes[0].completion_s - 1.0,
            "resume {} vs restart {}",
            o.completion_s,
            restart.outcomes[0].completion_s
        );
        // Executed time across both stints covers exactly one full run.
        assert!(
            (o.service_s - 10.0).abs() < 0.5,
            "stints sum to the full job, got {}",
            o.service_s
        );
        assert_eq!(resumed.interrupted_jobs, 1);
        assert_eq!(
            resumed.wasted_block_s, 0.0,
            "checkpointed progress is not wasted"
        );
        assert!(restart.wasted_block_s > 0.0);
    }

    #[test]
    fn repaired_fpga_rejoins_the_pool() {
        // Fail every FPGA except one, then repair them: a burst of
        // whole-device jobs can only drain once devices return.
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let reqs: Vec<AppRequest> = (0..4)
            .map(|i| AppRequest::new(i, format!("j{i}"), 15, 4.0e9))
            .collect();
        let plan = (1..4).fold(FaultPlan::new(), |plan, f| {
            plan.fpga_crash(f, 0.0).fpga_recover(f, 5.0)
        });
        let report = sim.run_with_plan(
            &mut FirstFit {
                whole_device: false,
            },
            reqs,
            &plan,
        );
        assert_eq!(report.completed(), 4);
        // At least one job had to wait for a repair.
        assert!(report.outcomes.iter().any(|o| o.scheduled_s >= 5.0));
    }

    #[test]
    fn failure_during_reconfiguration_is_safe() {
        // Fail the device while the deployment's partial reconfiguration is
        // still in flight (before DeployDone).
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let reqs = vec![AppRequest::new(0, "early", 5, 1.0e9)];
        let report = sim.run_with_plan(
            &mut FirstFit {
                whole_device: false,
            },
            reqs,
            &FaultPlan::new().fpga_crash(0, 0.01), // < 5 x 12.3 ms reconfig
        );
        assert_eq!(report.completed(), 1);
        assert_eq!(report.outcomes[0].restarts, 1);
    }

    #[test]
    fn heterogeneous_layout_is_respected() {
        let sim = ClusterSim::heterogeneous(ClusterConfig::paper_cluster(), vec![15, 4, 4]);
        assert_eq!(sim.layout(), &[15, 4, 4]);
        // A 10-block job only fits the big board; two of them serialize.
        let reqs = vec![
            AppRequest::new(0, "big0", 10, 1.0e9),
            AppRequest::new(1, "big1", 10, 1.0e9),
            AppRequest::new(2, "small", 4, 1.0e9),
        ];
        let report = sim.run(
            &mut FirstFit {
                whole_device: false,
            },
            reqs,
        );
        assert_eq!(report.completed(), 3);
        // The small job can run on a small board concurrently.
        let small = report.outcomes.iter().find(|o| o.name == "small").unwrap();
        assert_eq!(small.wait_s(), 0.0);
        // The two big jobs cannot overlap on one 15-block board.
        let mut bigs: Vec<f64> = report
            .outcomes
            .iter()
            .filter(|o| o.name.starts_with("big"))
            .map(|o| o.scheduled_s)
            .collect();
        bigs.sort_by(f64::total_cmp);
        assert!(bigs[1] > 0.9, "second big job must wait: {bigs:?}");
    }

    #[test]
    fn bounded_retry_gives_up_and_records_failure() {
        // The only FPGA that ever has room is 0, and it crashes for good at
        // t=1; with one attempt allowed the job lands in `failed`.
        let sim = ClusterSim::heterogeneous(ClusterConfig::paper_cluster(), vec![15, 1, 1, 1]);
        let reqs = vec![AppRequest::new(0, "doomed", 10, 10.0e9)];
        let plan = FaultPlan::new()
            .fpga_crash(0, 1.0)
            .with_retry(crate::RetryPolicy::bounded(1));
        let report = sim.run_with_plan(
            &mut FirstFit {
                whole_device: false,
            },
            reqs,
            &plan,
        );
        assert_eq!(report.completed(), 0);
        assert_eq!(report.failed_count(), 1);
        let f = &report.failed[0];
        assert_eq!(f.name, "doomed");
        assert_eq!(f.attempts, 1);
        assert!((f.failed_s - 1.0).abs() < 1e-9);
        assert_eq!(report.interrupted_jobs, 1);
        // The interrupted run occupied 10 blocks for ~1 s; all of it wasted.
        assert!(
            report.wasted_block_s > 9.0,
            "wasted {}",
            report.wasted_block_s
        );
        assert!(report.goodput_fraction() < 0.1);
    }

    #[test]
    fn backoff_delays_the_requeue() {
        // FPGA 0 crashes at t=1 and recovers at t=2. With a 4 s backoff the
        // victim cannot redeploy before t=5 even though capacity is back.
        let sim = ClusterSim::heterogeneous(ClusterConfig::paper_cluster(), vec![15]);
        let reqs = vec![AppRequest::new(0, "patient", 4, 2.0e9)];
        let plan = FaultPlan::new()
            .fpga_crash(0, 1.0)
            .fpga_recover(0, 2.0)
            .with_retry(crate::RetryPolicy::bounded(10).with_backoff(4.0, 2.0));
        let report = sim.run_with_plan(
            &mut FirstFit {
                whole_device: false,
            },
            reqs,
            &plan,
        );
        assert_eq!(report.completed(), 1);
        let o = &report.outcomes[0];
        assert_eq!(o.restarts, 1);
        assert!(o.scheduled_s >= 5.0, "scheduled {}", o.scheduled_s);
    }

    #[test]
    fn link_failure_evicts_spanning_instance_and_reroutes() {
        // A job spanning FPGAs 0 and 1 loses link 0 mid-run: its shortest
        // path changes, it is evicted, retried, and the redeployment pays
        // the long-way-around hop penalty.
        struct SpanTwo;
        impl Scheduler for SpanTwo {
            fn name(&self) -> &str {
                "span-two"
            }
            fn schedule(
                &mut self,
                view: &ClusterView,
                pending: &[PendingRequest],
            ) -> Vec<Deployment> {
                let Some(p) = pending.first() else {
                    return Vec::new();
                };
                let mut blocks = view.free_blocks_of(0);
                blocks.truncate(p.request.blocks_needed as usize / 2);
                let mut rest = view.free_blocks_of(1);
                rest.truncate(p.request.blocks_needed as usize - blocks.len());
                blocks.extend(rest);
                if blocks.len() == p.request.blocks_needed as usize {
                    vec![Deployment {
                        request: p.request.id,
                        blocks,
                        reconfig: ReconfigKind::PartialPerBlock,
                    }]
                } else {
                    Vec::new()
                }
            }
        }
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let reqs = vec![AppRequest::new(0, "spanner", 8, 4.0e9).with_comm_intensity(0.5)];
        let plan = FaultPlan::new().ring_link_down(0, 1.0);
        let report = sim.run_with_plan(&mut SpanTwo, reqs, &plan);
        assert_eq!(report.completed(), 1);
        let o = &report.outcomes[0];
        assert_eq!(o.restarts, 1, "link cut must evict the spanning job");
        assert_eq!(report.interrupted_jobs, 1);
        // Fault-free spanning service is 3 s (1 hop). Rerouted 0->1 is 3
        // hops: hop_factor 1.6, service 2*(1+2*0.5*0.5*1.6) = 3.6 s.
        assert!(o.service_s > 3.5, "rerouted service {}", o.service_s);
        assert!(report.goodput_fraction() < 1.0);
    }

    #[test]
    fn link_failure_spares_single_fpga_instances() {
        // Jobs confined to one FPGA have zero ring hops; cutting every link
        // must not disturb them.
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let reqs = requests(4, 4, 2.0e9);
        let plan = FaultPlan::new()
            .ring_link_down(0, 0.5)
            .ring_link_down(1, 0.5)
            .ring_link_down(2, 0.5)
            .ring_link_down(3, 0.5);
        let report = sim.run_with_plan(
            &mut FirstFit {
                whole_device: false,
            },
            reqs,
            &plan,
        );
        assert_eq!(report.completed(), 4);
        assert_eq!(report.interrupted_jobs, 0);
        assert_eq!(report.total_restarts(), 0);
        assert!((report.goodput_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_free_run_has_perfect_goodput() {
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let report = sim.run(
            &mut FirstFit {
                whole_device: false,
            },
            requests(6, 5, 1.0e9),
        );
        assert_eq!(report.failed_count(), 0);
        assert_eq!(report.interrupted_jobs, 0);
        assert_eq!(report.wasted_block_s, 0.0);
        assert!(report.busy_block_s > 0.0);
        assert_eq!(report.goodput_fraction(), 1.0);
    }

    #[test]
    fn try_heterogeneous_rejects_empty_layout() {
        let err =
            ClusterSim::try_heterogeneous(ClusterConfig::paper_cluster(), vec![]).unwrap_err();
        assert!(matches!(err, ClusterError::InvalidLayout(_)));
    }

    #[test]
    fn out_of_range_faults_are_rejected_not_swallowed() {
        // Regression: these used to be silent no-ops (guarded `get_mut` in
        // the view, bare casts in the event builder), so a misconfigured
        // fault scenario tested nothing.
        let sim = ClusterSim::new(ClusterConfig::paper_cluster()); // 4 FPGAs, 4 links
        let mut policy = FirstFit {
            whole_device: false,
        };
        let bad_fpga = FaultPlan::new().fpga_crash(4, 1.0);
        let err = sim
            .try_run_with_plan(&mut policy, requests(1, 1, 1.0e9), &bad_fpga)
            .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidFault(_)), "{err}");
        assert!(err.to_string().contains("FPGA 4"), "{err}");

        let bad_link = FaultPlan::new().ring_link_up(9, 1.0);
        let err = sim
            .try_run_with_plan(&mut policy, requests(1, 1, 1.0e9), &bad_link)
            .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidFault(_)), "{err}");

        let bad_time = FaultPlan::new().fpga_crash(0, f64::NAN);
        let err = sim
            .try_run_with_plan(&mut policy, requests(1, 1, 1.0e9), &bad_time)
            .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidFault(_)), "{err}");

        // An in-range plan on the same cluster still runs.
        let ok = FaultPlan::new().fpga_crash(3, 1.0).fpga_recover(3, 2.0);
        let report = sim
            .try_run_with_plan(&mut policy, requests(1, 1, 1.0e9), &ok)
            .expect("valid plan runs");
        assert_eq!(report.completed(), 1);
    }

    #[test]
    fn pod_topology_spans_pay_uplink_bandwidth() {
        // 2 pods x 2 FPGAs with 25 Gb/s uplinks (4x slower than the ring
        // reference). A job spanning pods 0 and 1 crosses 3 hops and the
        // slow uplinks: hop_factor (1 + 0.3*2) * (100/25) = 6.4, so
        // service = 2 * (1 + 2*0.5*0.5*6.4) = 8.4 s. The same span inside
        // one pod stays on the 100 Gb/s cable (1 hop): 3.0 s.
        struct SpanFpgas(u32, u32);
        impl Scheduler for SpanFpgas {
            fn name(&self) -> &str {
                "span-fpgas"
            }
            fn schedule(
                &mut self,
                view: &ClusterView,
                pending: &[PendingRequest],
            ) -> Vec<Deployment> {
                let Some(p) = pending.first() else {
                    return Vec::new();
                };
                let mut blocks = view.free_blocks_of(self.0 as usize);
                blocks.truncate(2);
                let mut far = view.free_blocks_of(self.1 as usize);
                far.truncate(2);
                blocks.extend(far);
                vec![Deployment {
                    request: p.request.id,
                    blocks,
                    reconfig: ReconfigKind::PartialPerBlock,
                }]
            }
        }
        let config = ClusterConfig::paper_cluster();
        let sim = ClusterSim::heterogeneous(config, vec![15; 4])
            .with_topology(crate::Topology::pods(2, 2, config.ring_gbps, 25.0))
            .expect("4-FPGA topology fits the 4-FPGA layout");
        let req = || vec![AppRequest::new(0, "span", 4, 2.0e9).with_comm_intensity(0.5)];
        let cross = sim.run(&mut SpanFpgas(0, 2), req());
        let local = sim.run(&mut SpanFpgas(0, 1), req());
        // (tolerance covers the sub-millisecond interface-latency term)
        assert!(
            (local.outcomes[0].service_s - 3.0).abs() < 1e-3,
            "intra-pod span: {}",
            local.outcomes[0].service_s
        );
        assert!(
            (cross.outcomes[0].service_s - 8.4).abs() < 1e-3,
            "cross-pod span: {}",
            cross.outcomes[0].service_s
        );
    }

    #[test]
    fn topology_fpga_count_must_match_layout() {
        let err = ClusterSim::new(ClusterConfig::paper_cluster())
            .with_topology(crate::Topology::ring(5))
            .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidLayout(_)));
    }

    #[test]
    fn telemetry_timeline_covers_lifecycle_and_faults() {
        use vital_telemetry::Telemetry;
        let tel = Telemetry::sim();
        let sim = ClusterSim::new(ClusterConfig::paper_cluster()).with_telemetry(tel.clone());
        let reqs = vec![AppRequest::new(0, "victim", 4, 10.0e9)];
        let report = sim.run_with_plan(
            &mut FirstFit {
                whole_device: false,
            },
            reqs,
            &FaultPlan::new().fpga_crash(0, 2.0).fpga_recover(0, 20.0),
        );
        assert_eq!(report.completed(), 1);
        let records = tel.records();
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        for expected in [
            "sim.arrival",
            "sim.placement",
            "sim.exec_start",
            "sim.fpga_fail",
            "sim.eviction",
            "sim.fpga_repair",
            "sim.completion",
        ] {
            assert!(names.contains(&expected), "missing event {expected}");
        }
        // The failure fires at sim t=2 s → 2_000_000 µs on the timeline.
        let fail = records.iter().find(|r| r.name == "sim.fpga_fail").unwrap();
        assert_eq!(fail.start_us, 2_000_000);
        // One eviction, one extra placement for the redeployment.
        let m = tel.metrics();
        assert_eq!(m.counters["sim.evictions"], 1);
        assert_eq!(m.counters["sim.placements"], 2);
        assert_eq!(m.counters["sim.completions"], 1);
    }

    /// First-fit plus a declared time-slice quantum.
    struct SlicedFirstFit {
        inner: FirstFit,
        quantum_s: f64,
    }

    impl Scheduler for SlicedFirstFit {
        fn name(&self) -> &str {
            "first-fit-sliced"
        }
        fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
            self.inner.schedule(view, pending)
        }
        fn quantum_s(&self) -> Option<f64> {
            Some(self.quantum_s)
        }
    }

    #[test]
    fn time_slicing_round_robins_an_oversubscribed_fpga() {
        // One 4-block FPGA, three 4-block jobs of 2 s each arriving
        // together: 3x the physical capacity. Non-preemptive first-fit
        // serializes them; with a 0.5 s quantum they rotate through the
        // fabric, every job is admitted early, and no work is lost.
        let reqs: Vec<AppRequest> = (0..3)
            .map(|i| AppRequest::new(i, format!("j{i}"), 4, 2.0e9))
            .collect();
        let sim = ClusterSim::heterogeneous(ClusterConfig::paper_cluster(), vec![4]);
        let serial = sim.run(
            &mut FirstFit {
                whole_device: false,
            },
            reqs.clone(),
        );
        let sliced = sim.run(
            &mut SlicedFirstFit {
                inner: FirstFit {
                    whole_device: false,
                },
                quantum_s: 0.5,
            },
            reqs,
        );

        assert_eq!(sliced.completed(), 3);
        assert!(
            sliced.preemptions >= 2,
            "preemptions {}",
            sliced.preemptions
        );
        assert!(sliced.swap_reconfig_s > 0.0);
        // Preemption preserves progress: nothing is wasted or restarted.
        assert_eq!(sliced.interrupted_jobs, 0);
        assert_eq!(sliced.total_restarts(), 0);
        assert_eq!(sliced.wasted_block_s, 0.0);
        assert!((sliced.goodput_fraction() - 1.0).abs() < 1e-12);
        // Each job still executes its full 2 s of work (stints summed).
        for o in &sliced.outcomes {
            assert!(
                (o.service_s - 2.0).abs() < 0.05,
                "{} executed {}",
                o.name,
                o.service_s
            );
        }
        // Fairness: the serialized run makes the last job wait for both
        // predecessors (> 3.5 s); slicing admits everyone within ~2 quanta.
        let worst = |r: &SimReport| {
            r.outcomes
                .iter()
                .map(RequestOutcome::wait_s)
                .fold(0.0, f64::max)
        };
        assert!(worst(&serial) > 3.5, "serial worst wait {}", worst(&serial));
        assert!(worst(&sliced) < 1.5, "sliced worst wait {}", worst(&sliced));
        // The swap cost shows up as a longer makespan, bounded by the
        // number of swaps times the 4-block PR time.
        assert!(sliced.makespan_s > 6.0);
        assert!(sliced.makespan_s < 8.0, "makespan {}", sliced.makespan_s);
    }

    #[test]
    fn quantum_expiry_without_demand_is_a_no_op() {
        // A single job on an otherwise empty cluster must never be
        // preempted no matter how many quanta expire.
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let report = sim.run(
            &mut SlicedFirstFit {
                inner: FirstFit {
                    whole_device: false,
                },
                quantum_s: 0.25,
            },
            vec![AppRequest::new(0, "solo", 4, 3.0e9)],
        );
        assert_eq!(report.completed(), 1);
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.swap_reconfig_s, 0.0);
        assert!((report.outcomes[0].service_s - 3.0).abs() < 1e-6);
    }

    #[test]
    fn preemption_telemetry_rides_the_sim_timeline() {
        use vital_telemetry::Telemetry;
        let tel = Telemetry::sim();
        let sim = ClusterSim::heterogeneous(ClusterConfig::paper_cluster(), vec![4])
            .with_telemetry(tel.clone());
        let reqs: Vec<AppRequest> = (0..2)
            .map(|i| AppRequest::new(i, format!("j{i}"), 4, 1.0e9))
            .collect();
        let report = sim.run(
            &mut SlicedFirstFit {
                inner: FirstFit {
                    whole_device: false,
                },
                quantum_s: 0.3,
            },
            reqs,
        );
        assert_eq!(report.completed(), 2);
        assert!(report.preemptions > 0);
        let names: Vec<&str> = tel.records().iter().map(|r| r.name).collect();
        assert!(names.contains(&"sim.preempt"), "missing sim.preempt");
        assert!(names.contains(&"sim.swap_in"), "missing sim.swap_in");
        let m = tel.metrics();
        assert_eq!(m.counters["sim.preemptions"], report.preemptions);
        assert_eq!(m.counters["sim.swap_ins"], report.preemptions);
    }

    #[test]
    fn utilization_bounds() {
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let report = sim.run(
            &mut FirstFit {
                whole_device: false,
            },
            requests(20, 5, 1.0e9),
        );
        assert!(report.block_utilization > 0.0 && report.block_utilization <= 1.0);
        assert!(report.effective_utilization <= report.block_utilization + 1e-12);
        assert!(report.peak_concurrency >= 1);
    }
}
