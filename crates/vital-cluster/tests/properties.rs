//! Property-based tests of the discrete-event simulator: for any workload
//! and any of several well-formed policies, the simulation must complete
//! every request with physically sensible timings and bounded metrics.

use proptest::prelude::*;
use vital_cluster::{
    AppRequest, ClusterConfig, ClusterSim, ClusterView, Deployment, PendingRequest, ReconfigKind,
    Scheduler,
};
use vital_fabric::BlockAddr;

/// A simple well-formed policy used as the test vehicle: first-fit on a
/// single FPGA, whole-cluster-wide spanning as a fallback.
struct SpanningFirstFit;

impl Scheduler for SpanningFirstFit {
    fn name(&self) -> &str {
        "prop-first-fit"
    }

    fn schedule(&mut self, view: &ClusterView, pending: &[PendingRequest]) -> Vec<Deployment> {
        let mut free: Vec<Vec<BlockAddr>> = (0..view.fpga_count())
            .map(|f| view.free_blocks_of(f))
            .collect();
        let mut out = Vec::new();
        for p in pending {
            let need = p.blocks_needed as usize;
            // Single FPGA if possible...
            if let Some(f) = (0..free.len()).find(|&f| free[f].len() >= need) {
                let blocks: Vec<BlockAddr> = free[f].drain(..need).collect();
                out.push(Deployment {
                    request: p.id,
                    blocks,
                    reconfig: ReconfigKind::PartialPerBlock,
                });
                continue;
            }
            // ...else span greedily.
            let total: usize = free.iter().map(Vec::len).sum();
            if total >= need {
                let mut blocks = Vec::with_capacity(need);
                for f in free.iter_mut() {
                    let take = f.len().min(need - blocks.len());
                    blocks.extend(f.drain(..take));
                    if blocks.len() == need {
                        break;
                    }
                }
                out.push(Deployment {
                    request: p.id,
                    blocks,
                    reconfig: ReconfigKind::PartialPerBlock,
                });
            }
        }
        out
    }
}

fn arb_requests() -> impl Strategy<Value = Vec<AppRequest>> {
    prop::collection::vec((1u32..=15, 0.1f64..5.0, 0.0f64..10.0, 0.0f64..1.0), 1..25).prop_map(
        |specs| {
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (blocks, service, arrival, comm))| {
                    AppRequest::new(i as u64, format!("r{i}"), blocks, service * 1.0e9)
                        .with_throughput(1.0e9)
                        .with_comm_intensity(comm)
                        .arriving_at(arrival)
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request completes, with causally ordered timestamps and a
    /// service time at least the standalone execution time.
    #[test]
    fn all_requests_complete_with_sane_timings(reqs in arb_requests()) {
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let n = reqs.len();
        let expectations: Vec<(u64, f64)> = reqs
            .iter()
            .map(|r| (r.id.0, r.standalone_service_s()))
            .collect();
        let report = sim.run(&mut SpanningFirstFit, reqs);
        prop_assert_eq!(report.completed(), n);
        for o in &report.outcomes {
            prop_assert!(o.scheduled_s >= o.arrival_s - 1e-9);
            prop_assert!(o.exec_start_s >= o.scheduled_s - 1e-9);
            prop_assert!(o.completion_s >= o.exec_start_s);
            let standalone = expectations
                .iter()
                .find(|(id, _)| *id == o.id.0)
                .map(|&(_, s)| s)
                .unwrap();
            prop_assert!(
                o.service_s >= standalone - 1e-9,
                "service {} below standalone {}",
                o.service_s,
                standalone
            );
            prop_assert!(o.blocks_allocated >= o.blocks_needed);
            prop_assert!(o.fpgas_used >= 1);
        }
        // Metric bounds.
        prop_assert!(report.block_utilization >= 0.0 && report.block_utilization <= 1.0 + 1e-9);
        prop_assert!(report.effective_utilization <= report.block_utilization + 1e-9);
        prop_assert!(report.pressured_utilization >= 0.0
            && report.pressured_utilization <= 1.0 + 1e-9);
        prop_assert!(report.spanning_fraction() >= 0.0 && report.spanning_fraction() <= 1.0);
        prop_assert!(report.avg_concurrency <= report.peak_concurrency as f64 + 1e-9);
        // Makespan is after the last arrival.
        prop_assert!(report.makespan_s >= report.outcomes.iter()
            .map(|o| o.arrival_s).fold(0.0, f64::max));
    }

    /// Single-FPGA deployments never pay the spanning penalty: service time
    /// equals the standalone time plus nothing (partial reconfig excluded).
    #[test]
    fn no_penalty_without_spanning(
        blocks in 1u32..=15,
        service in 0.1f64..5.0,
    ) {
        let sim = ClusterSim::new(ClusterConfig::paper_cluster());
        let reqs = vec![AppRequest::new(0, "solo", blocks, service * 1.0e9)
            .with_throughput(1.0e9)
            .with_comm_intensity(1.0)];
        let report = sim.run(&mut SpanningFirstFit, reqs);
        let o = &report.outcomes[0];
        prop_assert_eq!(o.fpgas_used, 1);
        prop_assert!((o.service_s - service).abs() < 1e-6);
        prop_assert_eq!(o.interface_overhead_fraction, 0.0);
    }
}
