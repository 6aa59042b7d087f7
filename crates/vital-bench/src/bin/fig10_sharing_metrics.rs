//! Fig. 10 / §5.5: flexible sharing in action — a live relocation map of
//! the cluster plus the secondary QoS metrics: resource utilization vs
//! AmorphOS (+15.9 %), concurrency vs the baseline (2.3×), the multi-FPGA
//! spanning rate (5–40 %), interface overhead (<0.03 %), and block
//! utilization under load (>93 %).

use vital::baselines::{AmorphOsHighThroughput, PerDeviceBaseline};
use vital::cluster::{ClusterConfig, ClusterSim, Scheduler, SimReport};
use vital::prelude::*;
use vital::workloads::benchmarks;
use vital_bench::{fig10_workload, fig9_workload, FIG9_SEEDS};

fn averaged(policy: &mut dyn Scheduler, sets: &[usize], seeds: &[u64]) -> Vec<SimReport> {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let mut out = Vec::new();
    for &set in sets {
        for &seed in seeds {
            out.push(sim.run(policy, fig10_workload(set, seed)));
        }
    }
    out
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn main() {
    let seeds = &FIG9_SEEDS;
    // Part 1: the Fig. 10 relocation illustration, on the real controller.
    println!("== Fig. 10: flexible sharing through relocation ==\n");
    let stack = VitalStack::new();
    let suite = benchmarks();
    for bench in suite.iter().take(4) {
        let spec = bench.spec(Size::Small);
        stack
            .compile_and_register(&spec)
            .expect("suite compiles and registers");
    }
    let mut handles = Vec::new();
    for bench in suite.iter().take(4) {
        let name = format!("{}-S", bench.name());
        handles.push((name.clone(), stack.deploy(&name).expect("cluster has room")));
    }
    // Free the second app and deploy a new instance of the fourth: its
    // virtual blocks relocate into the freed physical blocks.
    let (freed_name, freed) = handles.remove(1);
    println!(
        "undeploying {freed_name} frees {:?}",
        freed
            .placed()
            .addresses()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
    );
    stack.undeploy(freed.tenant()).expect("tenant is live");
    let again = stack
        .deploy(&handles[2].0)
        .expect("relocation into freed blocks");
    println!(
        "redeploying {} lands on {:?} — same bitstream, new physical blocks, no recompilation\n",
        handles[2].0,
        again
            .placed()
            .addresses()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
    );

    // Cluster occupancy map.
    println!("cluster occupancy (one row per FPGA, '.' = free):");
    let db = stack.controller().resources();
    for f in 0..db.fpga_count() {
        let mut row = String::new();
        for b in 0..db.blocks_per_fpga() {
            let addr = vital::fabric::BlockAddr::new(
                vital::fabric::FpgaId::new(f as u32),
                vital::fabric::PhysicalBlockId::new(b as u32),
            );
            row.push(match db.state(addr) {
                Some(vital::runtime::BlockState::Active(t)) => {
                    char::from_digit((t.raw() % 10) as u32, 10).unwrap_or('?')
                }
                _ => '.',
            });
        }
        println!("  fpga{f}: {row}");
    }

    // Part 2: §5.5 aggregate metrics over loaded workload sets.
    println!("\n== §5.5: aggregate sharing metrics (saturating sets 3/6/7/8, 3 seeds each) ==\n");
    let sets = [3usize, 6, 7, 8];
    let vital_runs = averaged(&mut VitalScheduler::new(), &sets, seeds);
    let ht_runs = averaged(&mut AmorphOsHighThroughput::new(), &sets, seeds);
    let base_runs = averaged(&mut PerDeviceBaseline::new(), &sets, seeds);

    let v_util = mean(vital_runs.iter().map(|r| r.effective_utilization));
    let h_util = mean(ht_runs.iter().map(|r| r.effective_utilization));
    println!(
        "resource utilization: ViTAL {:.1}% vs AmorphOS-HT {:.1}%  ({:+.1}%; paper: +15.9%)",
        v_util * 100.0,
        h_util * 100.0,
        (v_util / h_util - 1.0) * 100.0
    );

    let v_conc = mean(vital_runs.iter().map(|r| r.avg_concurrency));
    let b_conc = mean(base_runs.iter().map(|r| r.avg_concurrency));
    println!(
        "concurrent applications: ViTAL {:.2} vs baseline {:.2}  ({:.1}x; paper: 2.3x)",
        v_conc,
        b_conc,
        v_conc / b_conc
    );

    // Spanning rate measured per workload set at the Fig. 9 load (the
    // paper's 5-40% band comes from the response-time experiment).
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let mut spans = Vec::new();
    for set in 1..=10 {
        let mut frac = 0.0;
        for &seed in seeds {
            frac += sim
                .run(&mut VitalScheduler::new(), fig9_workload(set, seed))
                .spanning_fraction();
        }
        spans.push(frac / seeds.len() as f64);
    }
    println!(
        "multi-FPGA spanning rate across the ten sets: {:.0}%..{:.0}% of applications (paper: 5%..40%)",
        spans.iter().copied().fold(f64::INFINITY, f64::min) * 100.0,
        spans.iter().copied().fold(0.0, f64::max) * 100.0
    );

    let overhead = vital_runs
        .iter()
        .map(|r| r.max_interface_overhead())
        .fold(0.0, f64::max);
    println!(
        "worst latency-insensitive-interface overhead: {:.4}% of execution (paper: <0.03%)",
        overhead * 100.0
    );

    let block_util = mean(vital_runs.iter().map(|r| r.pressured_utilization));
    println!(
        "block utilization while demand is queued: {:.1}% (paper: above 93% under load)",
        block_util * 100.0
    );
}
