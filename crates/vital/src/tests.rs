//! Unit tests of the comparison policies ([`crate::baselines`]).

use crate::baselines::*;
use vital_cluster::{AppRequest, ClusterConfig, ClusterSim};

fn mixed_workload(n: u64) -> Vec<AppRequest> {
    (0..n)
        .map(|i| {
            let blocks = [1u32, 3, 5, 8][i as usize % 4];
            AppRequest::new(i, format!("app{i}"), blocks, 1.0e9).arriving_at(i as f64 * 0.25)
        })
        .collect()
}

#[test]
fn baseline_serializes_per_device() {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let report = sim.run(&mut PerDeviceBaseline::new(), mixed_workload(8));
    assert_eq!(report.completed(), 8);
    // Whole device per app: effective utilization is poor.
    assert!(report.effective_utilization < 0.5);
    // Never spans FPGAs.
    assert_eq!(report.spanning_fraction(), 0.0);
    for o in &report.outcomes {
        assert_eq!(o.blocks_allocated, 15);
    }
}

#[test]
fn slot_based_allocates_whole_slots() {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let report = sim.run(&mut AmorphOsLowLatency::new(), mixed_workload(8));
    assert_eq!(report.completed(), 8);
    for o in &report.outcomes {
        // Slots for 15 blocks / 2 slots: 8 and 7 blocks; whole-device
        // allocations take all 15.
        assert!(matches!(o.blocks_allocated, 7 | 8 | 15));
    }
}

#[test]
fn high_throughput_shares_one_fpga_fine_grained() {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let report = sim.run(&mut AmorphOsHighThroughput::new(), mixed_workload(8));
    assert_eq!(report.completed(), 8);
    // Allocation matches need exactly...
    for o in &report.outcomes {
        assert_eq!(o.blocks_allocated, o.blocks_needed);
        // ...but never spans devices.
        assert_eq!(o.fpgas_used, 1);
    }
}

#[test]
fn ranking_matches_paper_fig2() {
    // Response time: HT < slot-based < per-device on a mixed workload
    // with queueing pressure.
    let reqs = mixed_workload(24);
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let base = sim.run(&mut PerDeviceBaseline::new(), reqs.clone());
    let slot = sim.run(&mut AmorphOsLowLatency::new(), reqs.clone());
    let ht = sim.run(&mut AmorphOsHighThroughput::new(), reqs);
    assert!(
        ht.avg_response_s() < base.avg_response_s(),
        "HT {} vs baseline {}",
        ht.avg_response_s(),
        base.avg_response_s()
    );
    assert!(
        slot.avg_response_s() < base.avg_response_s(),
        "slot {} vs baseline {}",
        slot.avg_response_s(),
        base.avg_response_s()
    );
}

#[test]
fn isa_elastic_completes_and_swaps_in_microseconds() {
    // Oversubscribe so the quantum machinery preempts: every swap-in
    // must cost micro-seconds (an instruction-stream switch), not the
    // milliseconds of a partial reconfiguration.
    // Twelve 10-block jobs at t=0 on a 60-block pool: half must queue,
    // so quanta expire with work pending.
    let reqs: Vec<AppRequest> = (0..12)
        .map(|i| AppRequest::new(i, format!("j{i}"), 10, 1.0e9))
        .collect();
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let report = sim.run(&mut IsaElastic::new(), reqs);
    assert_eq!(report.completed(), 12);
    assert!(report.preemptions > 0, "expected time-sliced preemptions");
    let per_swap = report.swap_reconfig_s / report.preemptions as f64;
    assert!(
        per_swap < ClusterConfig::paper_cluster().per_block_reconfig_s / 10.0,
        "per-swap cost {per_swap} should be far below one block PR"
    );
}

#[test]
fn isa_elastic_spans_when_no_single_fpga_fits() {
    // Four 8-block tenants leave 7 free blocks per FPGA: the template
    // is uniform, so a fifth 14-block request tiles across devices.
    let mut reqs: Vec<AppRequest> = (0..4)
        .map(|i| AppRequest::new(i, format!("t{i}"), 8, 1.0e9))
        .collect();
    reqs.push(AppRequest::new(4, "wide", 14, 1.0e9));
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let report = sim.run(&mut IsaElastic::new(), reqs);
    assert_eq!(report.completed(), 5);
    let big = report.outcomes.iter().find(|o| o.name == "wide").unwrap();
    assert_eq!(big.blocks_allocated, 14);
    assert!(big.spanned_fpgas());
}

#[test]
fn combination_count_explodes() {
    // 8 app variants on a 15-block device: many more combined images
    // than the 8 single-app images ViTAL compiles.
    let blocks = [1, 1, 3, 3, 5, 5, 8, 10];
    let combos = count_feasible_combinations(&blocks, 15, 8);
    assert!(
        combos > 10 * blocks.len() as u64,
        "combos = {combos} for {} single-app images",
        blocks.len()
    );
    // One app alone is one "combination" each.
    assert_eq!(count_feasible_combinations(&[4], 15, 1), 1);
    // Nothing fits: zero.
    assert_eq!(count_feasible_combinations(&[20], 15, 4), 0);
}

#[test]
fn oversized_requests_wait_under_slot_policy() {
    // A 10-block app exceeds the 8-block slot: it must take a whole
    // idle device.
    let reqs = vec![AppRequest::new(0, "big", 10, 1.0e9)];
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let report = sim.run(&mut AmorphOsLowLatency::new(), reqs);
    assert_eq!(report.completed(), 1);
    assert_eq!(report.outcomes[0].blocks_allocated, 15);
}
