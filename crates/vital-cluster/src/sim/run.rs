//! One simulated run: the state the event loop owns, and one handler per
//! event kind.

use std::collections::BTreeMap;

use vital_fabric::{BlockAddr, FpgaId};
use vital_telemetry::Field;

use super::queue::EventQueue;
use super::{blocks_per_fpga, ClusterSim};
use crate::{
    AppRequest, ClusterError, ClusterView, Deployment, FailedOutcome, FaultEvent, FaultPlan,
    FpgaHealth, InstanceId, PendingRequest, ReconfigKind, RequestOutcome, RetryPolicy, Scheduler,
    SimReport,
};

#[derive(Debug, Clone, Copy)]
enum EventKind {
    Arrival(usize),
    DeployDone(InstanceId),
    /// Generation-stamped: an eviction, a swap-out or a moved deadline
    /// leaves the old event in the queue, where it pops as stale.
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

#[derive(Debug)]
struct Instance {
    request_idx: usize,
    blocks: Vec<BlockAddr>,
    scheduled_s: f64,
    exec_start_s: f64,
    completion_s: f64,
    service_s: f64,
    /// What a full run of the request would take under this placement —
    /// the denominator for progress accounting when the instance is
    /// swapped out mid-run (`service_s` holds only the *remaining* portion
    /// assigned to this stint).
    full_service_s: f64,
    interface_overhead_fraction: f64,
    /// Primary FPGA and worst ring distance at schedule time — used to
    /// decide whether a later link failure cuts this instance's traffic.
    primary_fpga: u32,
    ring_hops: usize,
    generation: u32,
    running: bool,
}

/// What a run remembers about one request across its deployments.
#[derive(Debug, Clone)]
struct RequestState {
    /// Fault evictions so far.
    evictions: u32,
    /// Fraction of the work still outstanding: 1.0 until a time-slice
    /// swap or a checkpointed eviction banks progress.
    remaining: f64,
    /// Execution seconds banked in earlier stints.
    executed_s: f64,
    /// First time the request was granted resources (time-sliced and
    /// checkpointed runs only): a later stint is a swap, not a wait, so
    /// the outcome reports the original admission.
    admitted_s: Option<f64>,
}

/// Utilization and concurrency: the current levels and their integrals
/// over simulated time.
#[derive(Debug, Default)]
struct Usage {
    last_t: f64,
    busy_blocks: usize,
    needed_blocks: usize,
    running_apps: usize,
    peak_concurrency: usize,
    busy_integral: f64,
    needed_integral: f64,
    conc_integral: f64,
    active_time: f64,
    pressured_time: f64,
    pressured_busy_integral: f64,
}

impl Usage {
    /// Integrates the current levels up to `now`; `queue_waiting` says
    /// whether requests were pending over that interval.
    fn advance(&mut self, now: f64, queue_waiting: bool) {
        let dt = now - self.last_t;
        if dt > 0.0 {
            self.busy_integral += dt * self.busy_blocks as f64;
            self.needed_integral += dt * self.needed_blocks as f64;
            self.conc_integral += dt * self.running_apps as f64;
            if self.busy_blocks > 0 {
                self.active_time += dt;
            }
            if queue_waiting {
                self.pressured_time += dt;
                self.pressured_busy_integral += dt * self.busy_blocks as f64;
            }
            self.last_t = now;
        }
    }
}

/// The state of one [`ClusterSim`] run. Every table is indexed or
/// id-ordered, so nothing the run does depends on a hash order.
pub(super) struct Run<'a> {
    sim: &'a ClusterSim,
    policy: &'a mut dyn Scheduler,
    /// The input, sorted by arrival time.
    requests: Vec<AppRequest>,
    retry: RetryPolicy,
    /// Evictions suspend through the portable-checkpoint path.
    checkpoint: bool,
    /// The policy's time-slice quantum, if it declared a usable one.
    quantum: Option<f64>,
    now: f64,
    events: EventQueue<EventKind>,
    view: ClusterView,
    pending: Vec<PendingRequest>,
    /// `pending_idx[i]` is the input index of `pending[i]`.
    pending_idx: Vec<usize>,
    /// Per request, by input index.
    state: Vec<RequestState>,
    /// Ids are handed out in placement order, so ascending id is
    /// placement order.
    instances: BTreeMap<InstanceId, Instance>,
    next_instance: u64,
    usage: Usage,
    outcomes: Vec<RequestOutcome>,
    failed: Vec<FailedOutcome>,
    interrupted_jobs: u64,
    wasted_block_s: f64,
    preemptions: u64,
    swap_reconfig_s: f64,
}

impl<'a> Run<'a> {
    /// Seeds the queue with the arrivals (in arrival order), then the
    /// plan's events (in plan order). Both are validated by the caller.
    pub(super) fn new(
        sim: &'a ClusterSim,
        policy: &'a mut dyn Scheduler,
        mut requests: Vec<AppRequest>,
        plan: &FaultPlan,
    ) -> Self {
        requests.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        let mut events = EventQueue::new();
        for (i, r) in requests.iter().enumerate() {
            events.push(r.arrival_s, EventKind::Arrival(i));
        }
        for ev in &plan.events {
            let kind = match *ev {
                FaultEvent::FpgaCrash { fpga, .. } => EventKind::FpgaFail(fpga as usize),
                FaultEvent::FpgaRecover { fpga, .. } => EventKind::FpgaRepair(fpga as usize),
                FaultEvent::RingLinkDown { link, .. } => EventKind::LinkDown(link as usize),
                FaultEvent::RingLinkUp { link, .. } => EventKind::LinkUp(link as usize),
            };
            events.push(ev.at_s(), kind);
        }
        let fresh = RequestState {
            evictions: 0,
            remaining: 1.0,
            executed_s: 0.0,
            admitted_s: None,
        };
        Run {
            quantum: policy.quantum_s().filter(|q| q.is_finite() && *q > 0.0),
            view: ClusterView::new(&sim.layout, sim.topology.clone()),
            state: vec![fresh; requests.len()],
            sim,
            policy,
            requests,
            retry: plan.retry,
            checkpoint: plan.portable_checkpoints,
            now: 0.0,
            events,
            pending: Vec::new(),
            pending_idx: Vec::new(),
            instances: BTreeMap::new(),
            next_instance: 0,
            usage: Usage::default(),
            outcomes: Vec::new(),
            failed: Vec::new(),
            interrupted_jobs: 0,
            wasted_block_s: 0.0,
            preemptions: 0,
            swap_reconfig_s: 0.0,
        }
    }

    /// Drains the queue. After an event that freed blocks or grew the
    /// pending queue, the policy acts until it has nothing more to deploy.
    pub(super) fn run(mut self) -> Result<SimReport, ClusterError> {
        while let Some((t, kind)) = self.events.pop() {
            self.usage.advance(t, !self.pending.is_empty());
            self.now = t;
            self.view.set_now(t);
            let changed = match kind {
                EventKind::Arrival(idx) => self.on_arrival(idx),
                EventKind::DeployDone(id) => self.on_deploy_done(id),
                EventKind::Complete(id, gen) => self.on_complete(id, gen),
                EventKind::FpgaFail(fpga) => self.on_fpga_fail(fpga),
                EventKind::FpgaRepair(fpga) => self.on_fpga_repair(fpga),
                EventKind::LinkDown(link) => self.on_link_down(link),
                EventKind::LinkUp(link) => self.on_link_up(link),
                EventKind::Requeue(idx) => self.on_requeue(idx),
                EventKind::Quantum(id, gen) => self.on_quantum(id, gen),
            };
            if changed {
                self.dispatch()?;
            }
        }
        Ok(self.finish())
    }

    fn finish(self) -> SimReport {
        let u = self.usage;
        let total_blocks = self.sim.layout.iter().sum::<usize>() as f64;
        let denom = (u.active_time * total_blocks).max(f64::MIN_POSITIVE);
        SimReport {
            policy: self.policy.name().to_string(),
            outcomes: self.outcomes,
            makespan_s: u.last_t,
            block_utilization: u.busy_integral / denom,
            effective_utilization: u.needed_integral / denom,
            pressured_utilization: if u.pressured_time > 0.0 {
                u.pressured_busy_integral / (u.pressured_time * total_blocks)
            } else {
                u.busy_integral / denom
            },
            avg_concurrency: if u.active_time > 0.0 {
                u.conc_integral / u.active_time
            } else {
                0.0
            },
            peak_concurrency: u.peak_concurrency,
            failed: self.failed,
            interrupted_jobs: self.interrupted_jobs,
            wasted_block_s: self.wasted_block_s,
            busy_block_s: u.busy_integral,
            preemptions: self.preemptions,
            swap_reconfig_s: self.swap_reconfig_s,
        }
    }

    /// Records one timeline event at the current sim time — the only place
    /// the telemetry timeline is stamped — and bumps its counter, if any.
    fn emit(&self, event: &'static str, counter: Option<&'static str>, fields: &[Field]) {
        // Sim time is non-negative and finite (inputs are validated), so
        // the cast cannot saturate.
        debug_assert!(self.now.is_finite() && self.now >= 0.0);
        let telemetry = &self.sim.telemetry;
        telemetry.event_at((self.now * 1e6).round() as u64, event, fields);
        if let Some(counter) = counter {
            telemetry.inc_counter(counter, 1);
        }
    }

    /// Puts request `idx` at the back of the pending queue.
    fn enqueue(&mut self, idx: usize) {
        self.pending.push(PendingRequest {
            request: self.requests[idx].clone(),
            arrived_s: self.now,
        });
        self.pending_idx.push(idx);
    }

    /// Takes a live instance out of the cluster: its blocks are vacant and
    /// the usage levels no longer count it.
    fn release(&mut self, id: InstanceId) -> Instance {
        let inst = self
            .instances
            .remove(&id)
            .expect("callers release only instances they just found live");
        for &b in &inst.blocks {
            self.view.vacate(b);
        }
        self.usage.busy_blocks -= inst.blocks.len();
        self.usage.needed_blocks -= self.requests[inst.request_idx].blocks_needed as usize;
        if inst.running {
            self.usage.running_apps -= 1;
        }
        inst
    }

    /// Banks the progress of a stint that ends now without completing
    /// (the runtime quiesces channels and checkpoints DRAM at this
    /// boundary) and returns the fraction of the request still to run.
    fn bank_progress(&mut self, inst: &Instance) -> f64 {
        let ran = self.now - inst.exec_start_s;
        let done = (ran / inst.full_service_s.max(f64::MIN_POSITIVE)).clamp(0.0, 1.0);
        let state = &mut self.state[inst.request_idx];
        state.remaining = (state.remaining - done).max(0.0);
        state.executed_s += ran;
        state.remaining
    }

    fn on_arrival(&mut self, idx: usize) -> bool {
        let req = &self.requests[idx];
        self.emit(
            "sim.arrival",
            Some("sim.arrivals"),
            &[
                ("request", req.id.0.into()),
                ("blocks_needed", req.blocks_needed.into()),
            ],
        );
        self.enqueue(idx);
        true
    }

    /// Reconfiguration finished: the instance starts executing. Nothing is
    /// freed, so the policy is not re-invoked.
    fn on_deploy_done(&mut self, id: InstanceId) -> bool {
        // A fault may have killed the instance mid-reconfiguration.
        let Some(inst) = self.instances.get_mut(&id) else {
            return false;
        };
        inst.exec_start_s = self.now;
        inst.completion_s = self.now + inst.service_s;
        inst.running = true;
        let (request_idx, completion_s, gen) =
            (inst.request_idx, inst.completion_s, inst.generation);
        self.emit(
            "sim.exec_start",
            None,
            &[("request", self.requests[request_idx].id.0.into())],
        );
        self.usage.running_apps += 1;
        self.usage.peak_concurrency = self.usage.peak_concurrency.max(self.usage.running_apps);
        self.events.push(completion_s, EventKind::Complete(id, gen));
        if let Some(q) = self.quantum {
            self.events.push(self.now + q, EventKind::Quantum(id, gen));
        }
        false
    }

    fn on_complete(&mut self, id: InstanceId, gen: u32) -> bool {
        // Stale if the instance was evicted or swapped out, or its
        // deadline moved (generation bump).
        if self.instances.get(&id).map(|inst| inst.generation) != Some(gen) {
            return false;
        }
        let inst = self.release(id);
        let req = &self.requests[inst.request_idx];
        let state = &self.state[inst.request_idx];
        let fpgas_used = blocks_per_fpga(&inst.blocks).len();
        // Earlier stints' banked execution plus the final stint.
        let service_s = state.executed_s + (self.now - inst.exec_start_s);
        self.emit(
            "sim.completion",
            Some("sim.completions"),
            &[
                ("request", req.id.0.into()),
                ("service_s", service_s.into()),
                ("fpgas_used", fpgas_used.into()),
            ],
        );
        self.outcomes.push(RequestOutcome {
            id: req.id,
            name: req.name.clone(),
            arrival_s: req.arrival_s,
            scheduled_s: state.admitted_s.unwrap_or(inst.scheduled_s),
            exec_start_s: inst.exec_start_s,
            completion_s: self.now,
            service_s,
            blocks_needed: req.blocks_needed,
            blocks_allocated: inst.blocks.len() as u32,
            fpgas_used: fpgas_used as u32,
            interface_overhead_fraction: inst.interface_overhead_fraction,
            restarts: state.evictions,
        });
        true
    }

    /// Every instance touching the failed device is evicted; its blocks
    /// everywhere are freed.
    fn on_fpga_fail(&mut self, fpga: usize) -> bool {
        self.emit(
            "sim.fpga_fail",
            Some("sim.fpga_failures"),
            &[("fpga", fpga.into())],
        );
        self.view.set_health(fpga, FpgaHealth::Offline);
        let victims = self
            .view
            .owners_on(fpga)
            .into_iter()
            .map(InstanceId)
            .collect();
        self.evict(victims);
        true
    }

    fn on_fpga_repair(&mut self, fpga: usize) -> bool {
        self.emit("sim.fpga_repair", None, &[("fpga", fpga.into())]);
        self.view.set_health(fpga, FpgaHealth::Online);
        true
    }

    /// A spanning instance whose traffic can no longer take the path it
    /// was scheduled on loses its connection mid-stream: it is evicted
    /// like a device failure. Instances whose worst hop distance is
    /// unchanged keep running.
    fn on_link_down(&mut self, link: usize) -> bool {
        self.emit("sim.link_down", None, &[("link", link.into())]);
        self.view.set_link(link, true);
        let down = self.view.down_links();
        let victims = self
            .instances
            .iter()
            .filter(|(_, inst)| {
                self.sim.topology.max_hops_from_avoiding(
                    FpgaId::new(inst.primary_fpga),
                    inst.blocks.iter().map(|b| b.fpga),
                    &down,
                ) != Some(inst.ring_hops)
            })
            .map(|(&id, _)| id)
            .collect();
        self.evict(victims);
        true
    }

    fn on_link_up(&mut self, link: usize) -> bool {
        self.emit("sim.link_up", None, &[("link", link.into())]);
        self.view.set_link(link, false);
        true
    }

    fn on_requeue(&mut self, idx: usize) -> bool {
        self.emit(
            "sim.requeue",
            Some("sim.requeues"),
            &[("request", self.requests[idx].id.0.into())],
        );
        self.enqueue(idx);
        true
    }

    /// A quantum expired. With demand queued the tenant is swapped out:
    /// its progress survives, so — unlike a fault eviction — the request
    /// re-queues with only its remaining work and nothing counts as wasted.
    fn on_quantum(&mut self, id: InstanceId, gen: u32) -> bool {
        let Some(q) = self.quantum else { return false };
        // Stale if the instance completed, was evicted, or had its
        // deadline moved (generation bump).
        let live = self
            .instances
            .get(&id)
            .is_some_and(|inst| inst.generation == gen && inst.running);
        if !live {
            return false;
        }
        if self.pending.is_empty() {
            // Nobody is waiting: the tenant keeps the fabric and the
            // timer re-arms one quantum out.
            self.events.push(self.now + q, EventKind::Quantum(id, gen));
            return false;
        }
        let inst = self.release(id);
        let remaining = self.bank_progress(&inst);
        self.preemptions += 1;
        self.emit(
            "sim.preempt",
            Some("sim.preemptions"),
            &[
                ("request", self.requests[inst.request_idx].id.0.into()),
                ("remaining_fraction", remaining.into()),
                ("blocks_freed", inst.blocks.len().into()),
            ],
        );
        self.enqueue(inst.request_idx);
        true
    }

    /// Kills `victims` (in the order given — callers pass ascending
    /// [`InstanceId`]) and decides each one's fate under the retry policy:
    /// terminal failure, immediate re-queue, or a re-queue after backoff.
    ///
    /// With portable checkpoints each running victim is suspended first:
    /// its progress is banked, the re-queued request carries only the
    /// remainder, and nothing counts as wasted.
    fn evict(&mut self, victims: Vec<InstanceId>) {
        for id in victims {
            let inst = self.release(id);
            let idx = inst.request_idx;
            let request = self.requests[idx].id.0;
            self.interrupted_jobs += 1;
            if self.checkpoint && inst.running {
                let remaining = self.bank_progress(&inst);
                self.emit(
                    "sim.checkpoint",
                    Some("sim.checkpoints"),
                    &[
                        ("request", request.into()),
                        ("remaining_fraction", remaining.into()),
                    ],
                );
            } else {
                // No checkpoint (or the victim never started executing):
                // the partial run is lost.
                self.wasted_block_s += inst.blocks.len() as f64 * (self.now - inst.scheduled_s);
            }
            self.state[idx].evictions += 1;
            // The attempt just interrupted is eviction number `attempts`.
            let attempts = self.state[idx].evictions;
            self.emit(
                "sim.eviction",
                Some("sim.evictions"),
                &[
                    ("request", request.into()),
                    ("attempts", attempts.into()),
                    ("blocks_freed", inst.blocks.len().into()),
                ],
            );
            if self.retry.gives_up_after(attempts) {
                self.emit(
                    "sim.request_failed",
                    Some("sim.request_failures"),
                    &[("request", request.into()), ("attempts", attempts.into())],
                );
                let req = &self.requests[idx];
                self.failed.push(FailedOutcome {
                    id: req.id,
                    name: req.name.clone(),
                    arrival_s: req.arrival_s,
                    failed_s: self.now,
                    attempts,
                    blocks_needed: req.blocks_needed,
                });
                continue;
            }
            let backoff = self.retry.backoff_s(attempts);
            if backoff > 0.0 {
                self.events
                    .push(self.now + backoff, EventKind::Requeue(idx));
            } else {
                self.enqueue(idx);
            }
        }
    }

    /// Lets the policy act until it has nothing more to deploy. An empty
    /// queue short-circuits — at datacenter scale most events leave
    /// nothing to schedule.
    fn dispatch(&mut self) -> Result<(), ClusterError> {
        while !self.pending.is_empty() {
            let decisions = self.policy.schedule(&self.view, &self.pending);
            if decisions.is_empty() {
                break;
            }
            for d in decisions {
                self.place(d)?;
            }
        }
        Ok(())
    }

    /// Validates one scheduling decision and takes its request off the
    /// pending queue.
    fn place(&mut self, d: Deployment) -> Result<(), ClusterError> {
        let pi = self
            .pending
            .iter()
            .position(|p| p.request.id == d.request)
            .ok_or(ClusterError::NotPending(d.request))?;
        let idx = self.pending_idx[pi];
        self.sim.validate(&self.view, &self.requests[idx], &d)?;
        self.pending.remove(pi);
        self.pending_idx.remove(pi);
        self.deploy(idx, d);
        Ok(())
    }

    /// Applies a validated decision: request `idx` becomes an instance on
    /// `d.blocks`, executing once its reconfiguration is done.
    fn deploy(&mut self, idx: usize, d: Deployment) {
        let req = &self.requests[idx];
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        for &b in &d.blocks {
            self.view.occupy(b, id.0);
        }
        self.usage.busy_blocks += d.blocks.len();
        self.usage.needed_blocks += req.blocks_needed as usize;

        let model = self
            .sim
            .service_time(req, &d.blocks, &self.view.down_links());
        let fpgas = blocks_per_fpga(&d.blocks);
        let reconfig_s = self.sim.reconfig_time(d.reconfig, &fpgas);
        let request = req.id.0;
        let remaining = self.state[idx].remaining;
        if self.quantum.is_some() || self.checkpoint {
            self.state[idx].admitted_s.get_or_insert(self.now);
        }
        if remaining < 1.0 {
            // Only the remainder runs here: a swap-in of a preempted
            // tenant (the PR time just charged is the time-slice mode's
            // cost), or a resume from the checkpoint an eviction took.
            let (event, counter) = if self.quantum.is_some() {
                self.swap_reconfig_s += reconfig_s;
                ("sim.swap_in", "sim.swap_ins")
            } else {
                ("sim.resume", "sim.resumes")
            };
            self.emit(
                event,
                Some(counter),
                &[
                    ("request", request.into()),
                    ("remaining_fraction", remaining.into()),
                    ("reconfig_s", reconfig_s.into()),
                ],
            );
        }
        self.emit(
            "sim.placement",
            Some("sim.placements"),
            &[
                ("request", request.into()),
                ("blocks", d.blocks.len().into()),
                ("fpgas_used", fpgas.len().into()),
                ("ring_hops", model.max_hops.into()),
                ("reconfig_s", reconfig_s.into()),
            ],
        );
        if d.reconfig == ReconfigKind::FullDevice {
            self.pause_co_runners(&fpgas, reconfig_s);
        }
        self.instances.insert(
            id,
            Instance {
                request_idx: idx,
                blocks: d.blocks,
                scheduled_s: self.now,
                exec_start_s: self.now,
                completion_s: f64::INFINITY,
                service_s: model.service_s * remaining,
                full_service_s: model.service_s,
                interface_overhead_fraction: model.overhead_fraction,
                primary_fpga: model.primary_fpga,
                ring_hops: model.max_hops,
                generation: 0,
                running: false,
            },
        );
        self.events
            .push(self.now + reconfig_s, EventKind::DeployDone(id));
    }

    /// Full-device programming pauses every instance running on the
    /// `touched` FPGAs for `reconfig_s`: each one's deadline moves, in
    /// ascending id order, and the generation bump makes its old
    /// completion and quantum events stale.
    fn pause_co_runners(&mut self, touched: &[(u32, usize)], reconfig_s: f64) {
        for (&id, inst) in self.instances.iter_mut().filter(|(_, i)| i.running) {
            let hit = |b: &BlockAddr| touched.iter().any(|&(f, _)| f == b.fpga.index());
            if inst.blocks.iter().any(hit) {
                inst.completion_s += reconfig_s;
                inst.generation += 1;
                self.events
                    .push(inst.completion_s, EventKind::Complete(id, inst.generation));
            }
        }
    }
}
