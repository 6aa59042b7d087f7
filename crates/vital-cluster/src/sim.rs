//! The discrete-event engine.
//!
//! A run is a queue of timed events ([`queue`]) drained by a state machine
//! ([`run`]) with one handler per event kind. What the order of events
//! guarantees:
//!
//! * events fire in `(time, insertion sequence)` order — `f64::total_cmp`
//!   on seconds, then first pushed, first popped — which is a total order,
//!   so a run is a function of its inputs and of nothing else;
//! * the queue is seeded with the arrivals (sorted by arrival time, ties in
//!   input order), then the fault plan's events in plan order: at the same
//!   instant an arrival is queued before a fault hits;
//! * when a deployment finishes its `Complete` is pushed before its
//!   `Quantum`, and a full-device pause re-arms the co-runners'
//!   `Complete`s before the newcomer's `DeployDone`;
//! * every table a handler walks is indexed or id-ordered: fault victims
//!   are evicted, and paused co-runners re-armed, in ascending
//!   [`InstanceId`](crate::InstanceId) (placement order). No hash-ordered
//!   container exists in this crate (`tests/no_hash_order.rs` scans for
//!   one), so a faulted run repeats byte for byte like a fault-free one;
//! * after an event that can change a decision, the policy makes one pass
//!   over the whole queue (a [`Scheduler`] pass is complete), unless fewer
//!   blocks are free than the smallest queued request needs. The pass's
//!   decisions apply in the order returned, and the requests it placed
//!   leave the queue together; the rest keep their order.
//!
//! Time stays `f64` seconds: rounding to integer ticks would move every
//! reported timestamp, and the order above is already total.

mod queue;
mod run;

use vital_fabric::{BlockAddr, FpgaId};
use vital_telemetry::Telemetry;

use crate::{
    AppRequest, ClusterConfig, ClusterError, ClusterView, Deployment, FaultEvent, FaultPlan,
    ReconfigKind, Scheduler, SimReport,
};

/// Time to repoint one template compute tile at another tenant's
/// instruction stream: drain the in-flight instruction block and swap the
/// stream pointer. What a [`ReconfigKind::Instruction`] deployment pays per
/// block, and the value of `vital_runtime::isa::TILE_SWITCH_S`.
pub const INSTRUCTION_SWITCH_S: f64 = 10.0e-6;

/// Execution-time model output for one deployment.
struct ServiceModel {
    service_s: f64,
    overhead_fraction: f64,
    primary_fpga: u32,
    max_hops: usize,
}

/// Blocks per FPGA, as `(fpga, count)` in ascending FPGA order.
fn blocks_per_fpga(blocks: &[BlockAddr]) -> Vec<(u32, usize)> {
    let mut tally: Vec<(u32, usize)> = Vec::new();
    for b in blocks {
        let fpga = b.fpga.index();
        match tally.binary_search_by_key(&fpga, |&(f, _)| f) {
            Ok(i) => tally[i].1 += 1,
            Err(i) => tally.insert(i, (fpga, 1)),
        }
    }
    tally
}

/// The discrete-event cluster simulator.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: ClusterConfig,
    topology: std::sync::Arc<crate::Topology>,
    telemetry: Telemetry,
}

impl ClusterSim {
    /// Creates a simulator over a homogeneous cluster.
    pub fn new(config: ClusterConfig) -> Self {
        let topology = std::sync::Arc::new(crate::Topology::ring(config.fpgas.max(1)));
        ClusterSim {
            config,
            topology,
            telemetry: Telemetry::disabled(),
        }
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
        if topology.fpgas() != self.config.fpgas {
            return Err(ClusterError::InvalidLayout(format!(
                "topology has {} FPGAs but the cluster layout has {}",
                topology.fpgas(),
                self.config.fpgas
            )));
        }
        self.topology = std::sync::Arc::new(topology);
        Ok(self)
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

    /// Runs `requests` under `policy` until every request completes.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns an invalid deployment — a bug in the
    /// policy, not a runtime condition — or a request is malformed (see
    /// [`ClusterError`]). Use [`ClusterSim::try_run`] to handle either as
    /// an error.
    pub fn run(&self, policy: &mut dyn Scheduler, requests: Vec<AppRequest>) -> SimReport {
        self.try_run(policy, requests)
            .unwrap_or_else(|e| panic!("cluster simulation failed: {e}"))
    }

    /// Like [`ClusterSim::run`] under a scripted [`FaultPlan`]: FPGA
    /// crashes and link cuts evict the instances they touch, evicted
    /// requests retry with the plan's backoff until its retry budget runs
    /// out (then they land in [`SimReport::failed`]), and the report
    /// carries failure-aware metrics (interrupted jobs, wasted
    /// block-seconds, goodput vs. throughput).
    ///
    /// # Panics
    ///
    /// Panics on invalid policy deployments and malformed inputs, like
    /// [`ClusterSim::run`].
    pub fn run_with_plan(
        &self,
        policy: &mut dyn Scheduler,
        requests: Vec<AppRequest>,
        plan: &FaultPlan,
    ) -> SimReport {
        self.try_run_with_plan(policy, requests, plan)
            .unwrap_or_else(|e| panic!("cluster simulation failed: {e}"))
    }

    /// Like [`ClusterSim::run`], surfacing policy bugs and malformed
    /// requests as errors.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidRequest`] for the first malformed
    /// request, else a [`ClusterError`] describing the first invalid
    /// deployment.
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
    /// Returns [`ClusterError::InvalidLayout`] for a cluster of no FPGAs,
    /// [`ClusterError::InvalidRequest`] or [`ClusterError::InvalidFault`]
    /// for the first malformed request or plan event (all are checked
    /// before anything runs), else a [`ClusterError`] describing the first
    /// invalid deployment.
    pub(crate) fn try_run_with_plan(
        &self,
        policy: &mut dyn Scheduler,
        requests: Vec<AppRequest>,
        plan: &FaultPlan,
    ) -> Result<SimReport, ClusterError> {
        // Validate the inputs up front: they arrive from outside (traces
        // and plans are `Deserialize`), and a bad index or a NaN time used
        // to be swallowed or to poison every later timestamp.
        if self.config.fpgas == 0 {
            return Err(ClusterError::InvalidLayout(
                "cluster needs at least one FPGA".to_string(),
            ));
        }
        validate_requests(&requests)?;
        self.validate_plan(plan)?;
        run::Run::new(self, policy, requests, plan).run()
    }

    /// Checks every [`FaultPlan`] event against the simulated cluster:
    /// FPGA indices must be in range, link indices must name a real
    /// interconnect link, and timestamps must be non-negative and finite.
    fn validate_plan(&self, plan: &FaultPlan) -> Result<(), ClusterError> {
        let fpgas = self.config.fpgas;
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
        for (i, &b) in d.blocks.iter().enumerate() {
            if d.blocks[..i].contains(&b) {
                return Err(ClusterError::DuplicateBlock {
                    request: d.request,
                    block: b,
                });
            }
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
        let needed = (request.blocks_needed as usize).min(blocks.len());
        let per_fpga = blocks_per_fpga(&blocks[..needed]);
        let used = request.blocks_needed.max(1) as f64;
        // The primary is the FPGA holding the most blocks; equal counts
        // tie-break on the lowest FPGA id.
        let (primary_fpga, primary) = per_fpga
            .iter()
            .max_by_key(|&&(f, n)| (n, std::cmp::Reverse(f)))
            .map_or((0, 0.0), |&(f, n)| (f, n as f64));
        let primary_fpga_id = FpgaId::new(primary_fpga);
        let spanned = || per_fpga.iter().map(|&(f, _)| FpgaId::new(f));
        let span = (1.0 - primary / used).max(0.0);
        // Traffic reroutes around down links (longer hops). A spanning set
        // cut in two by link failures gets the full cluster length as a
        // crude finite penalty — the scheduler saw the down links and chose
        // to span anyway.
        let max_hops = self
            .topology
            .max_hops_from_avoiding(primary_fpga_id, spanned(), down)
            .unwrap_or(self.config.fpgas);
        // One hop = the calibrated penalty; further hops add 30% each (the
        // traffic occupies more interconnect segments). Spans crossing
        // links slower than the reference ring cable (pod uplinks) pay
        // proportionally more; on a single ring the bandwidth factor is
        // exactly 1.0, keeping the pre-topology model bit-identical.
        let hop_factor = if max_hops == 0 {
            0.0
        } else {
            let bw =
                self.topology
                    .bandwidth_slowdown(primary_fpga_id, spanned(), self.config.ring_gbps);
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

    /// Programming time of a deployment with the given block tally (see
    /// [`blocks_per_fpga`]). Blocks on one FPGA are
    /// programmed one after another — by its ICAP under partial
    /// reconfiguration, by one stream-pointer write per tile when the
    /// fabric already holds the static accelerator template — and distinct
    /// FPGAs proceed in parallel, so the busiest FPGA sets the time.
    fn reconfig_time(&self, kind: ReconfigKind, per_fpga: &[(u32, usize)]) -> f64 {
        let per_block_s = match kind {
            ReconfigKind::FullDevice => return self.config.full_reconfig_s,
            ReconfigKind::PartialPerBlock => self.config.per_block_reconfig_s,
            ReconfigKind::Instruction => INSTRUCTION_SWITCH_S,
        };
        per_fpga
            .iter()
            .map(|&(_, n)| n as f64 * per_block_s)
            .fold(0.0, f64::max)
    }
}

/// Checks every request before the first event fires: it needs at least
/// one block (policies rely on it), arrival time and work must be finite
/// and non-negative, throughput and communication intensity finite.
fn validate_requests(requests: &[AppRequest]) -> Result<(), ClusterError> {
    for r in requests {
        // (field, value, least allowed value)
        let fields = [
            ("blocks_needed", f64::from(r.blocks_needed), 1.0),
            ("arrival_s", r.arrival_s, 0.0),
            ("work_ops", r.work_ops, 0.0),
            ("standalone_ops_per_sec", r.standalone_ops_per_sec, f64::MIN),
            ("comm_intensity", r.comm_intensity, f64::MIN),
        ];
        let bad = fields
            .iter()
            .find(|&&(_, v, least)| !(v.is_finite() && v >= least));
        if let Some((field, value, _)) = bad {
            return Err(ClusterError::InvalidRequest {
                request: r.id,
                reason: format!("{field} is {value}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PendingRequest, RequestId, RequestOutcome};
    use vital_fabric::PhysicalBlockId;

    /// The paper cluster's links and reconfiguration costs on one board
    /// of `blocks` blocks.
    fn one_fpga(blocks: usize) -> ClusterConfig {
        ClusterConfig {
            fpgas: 1,
            blocks_per_fpga: blocks,
            ..ClusterConfig::paper_cluster()
        }
    }

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
                let need = p.blocks_needed as usize;
                #[allow(clippy::needless_range_loop)] // `f` also selects the FPGA
                for f in 0..free.len() {
                    let whole = self.whole_device;
                    let enough = if whole {
                        free[f].len() == view.blocks_per_fpga_of(f)
                    } else {
                        free[f].len() >= need
                    };
                    if enough {
                        let take = if whole { free[f].len() } else { need };
                        let blocks: Vec<BlockAddr> = free[f].drain(..take).collect();
                        out.push(Deployment {
                            request: p.id,
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
                let blocks: Vec<BlockAddr> = (start..start + p.blocks_needed)
                    .map(|b| BlockAddr::new(FpgaId::new(0), PhysicalBlockId::new(b)))
                    .collect();
                if blocks.iter().all(|&b| view.is_free(b)) {
                    vec![Deployment {
                        request: p.id,
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
                let need = p.blocks_needed;
                let mut blocks = Vec::new();
                for b in 0..need / 2 {
                    blocks.push(BlockAddr::new(FpgaId::new(0), PhysicalBlockId::new(b)));
                }
                for b in need / 2..need {
                    blocks.push(BlockAddr::new(FpgaId::new(1), PhysicalBlockId::new(b)));
                }
                if blocks.iter().all(|&b| view.is_free(b)) {
                    vec![Deployment {
                        request: p.id,
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
                        request: p.id,
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
    fn deployments_of_requests_not_pending_are_reported() {
        /// Places the head of the queue, then names it again (`twice`) or
        /// names a request that was never queued.
        struct Misnames {
            twice: bool,
        }
        impl Scheduler for Misnames {
            fn name(&self) -> &str {
                "misnames"
            }
            fn schedule(
                &mut self,
                view: &ClusterView,
                pending: &[PendingRequest],
            ) -> Vec<Deployment> {
                let Some(p) = pending.first() else {
                    return Vec::new();
                };
                let mut free = view.free_blocks_of(0);
                let rest = free.split_off(p.blocks_needed as usize);
                let deploy = |request, blocks| Deployment {
                    request,
                    blocks,
                    reconfig: ReconfigKind::PartialPerBlock,
                };
                let second = if self.twice { p.id } else { RequestId(99) };
                vec![deploy(p.id, free), deploy(second, rest)]
            }
        }
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        for (twice, named) in [(true, 0), (false, 99)] {
            let err = sim
                .try_run(&mut Misnames { twice }, requests(1, 2, 1.0e9))
                .unwrap_err();
            assert_eq!(err, ClusterError::NotPending(RequestId(named)));
        }
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
    fn bounded_retry_gives_up_and_records_failure() {
        // The only FPGA is 0, and it crashes for good at t=1; with one
        // attempt allowed the job lands in `failed`.
        let sim = ClusterSim::new(one_fpga(15));
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
        let sim = ClusterSim::new(one_fpga(15));
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
                blocks.truncate(p.blocks_needed as usize / 2);
                let mut rest = view.free_blocks_of(1);
                rest.truncate(p.blocks_needed as usize - blocks.len());
                blocks.extend(rest);
                if blocks.len() == p.blocks_needed as usize {
                    vec![Deployment {
                        request: p.id,
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
    fn malformed_requests_are_rejected_not_simulated() {
        // Regression: a NaN arrival or infinite work used to trip a debug
        // assertion on the first timeline stamp, and in release came back
        // as a report full of NaN/inf. A zero-block request ran on no
        // blocks, or vanished from a pod run without a failure.
        let ok = || AppRequest::new(7, "a", 2, 1.0e9);
        let cases: [(&str, AppRequest); 10] = [
            (
                "blocks_needed is 0",
                AppRequest {
                    blocks_needed: 0,
                    ..ok()
                },
            ),
            ("arrival_s", ok().arriving_at(f64::NAN)),
            ("arrival_s", ok().arriving_at(f64::INFINITY)),
            ("arrival_s", ok().arriving_at(-1.0)),
            ("work_ops", AppRequest::new(7, "a", 2, f64::INFINITY)),
            ("work_ops", AppRequest::new(7, "a", 2, f64::NAN)),
            ("work_ops", AppRequest::new(7, "a", 2, -1.0)),
            ("standalone_ops_per_sec", ok().with_throughput(f64::NAN)),
            (
                "standalone_ops_per_sec",
                ok().with_throughput(f64::INFINITY),
            ),
            (
                "comm_intensity",
                AppRequest {
                    comm_intensity: f64::NAN,
                    ..ok()
                },
            ),
        ];
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let mut policy = FirstFit {
            whole_device: false,
        };
        for (field, bad) in cases {
            // The bad request sits behind a good one: all are checked.
            let err = sim
                .try_run(&mut policy, vec![ok().arriving_at(1.0), bad.clone()])
                .unwrap_err();
            match &err {
                ClusterError::InvalidRequest { request, reason } => {
                    assert_eq!(request.0, 7);
                    assert!(reason.starts_with(field), "{bad:?}: {reason}");
                }
                other => panic!("{bad:?} gave {other:?}"),
            }
        }
        // Zero work and a zero arrival time are valid.
        let report = sim
            .try_run(&mut policy, vec![AppRequest::new(0, "idle", 1, 0.0)])
            .expect("zero work is a valid request");
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
                    request: p.id,
                    blocks,
                    reconfig: ReconfigKind::PartialPerBlock,
                }]
            }
        }
        let config = ClusterConfig::paper_cluster();
        let sim = ClusterSim::new(config)
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
        let empty = ClusterConfig {
            fpgas: 0,
            ..ClusterConfig::paper_cluster()
        };
        let err = ClusterSim::new(empty)
            .try_run(
                &mut FirstFit {
                    whole_device: false,
                },
                Vec::new(),
            )
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
        let sim = ClusterSim::new(one_fpga(4));
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
        let sim = ClusterSim::new(one_fpga(4)).with_telemetry(tel.clone());
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
