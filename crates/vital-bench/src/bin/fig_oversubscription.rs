//! Oversubscription report: preemptive time-sliced ViTAL vs the
//! non-preemptive baseline on saturating workloads.
//!
//! With context save/restore (DESIGN.md §11) the scheduler can swap a
//! tenant out on quantum expiry and later resume it losslessly, so the
//! cluster admits more demand than it has blocks. This report runs the
//! saturating Fig. 10 workloads through both policies and compares:
//!
//! * **p95 wait** — time from arrival to (first) admission; time slicing
//!   should collapse the queueing tail,
//! * **goodput** — fraction of executed block-seconds that ended in a
//!   completion; preemption checkpoints progress, so it must stay 1.0,
//! * **swap overhead** — PR seconds spent swapping tenants back in.

use vital::cluster::{ClusterConfig, ClusterSim, SimReport};
use vital::runtime::VitalScheduler;
use vital_bench::{bar, fig10_workload, percentile, FIG9_SEEDS};

/// The quantum used for the sliced condition, in simulated seconds. Small
/// enough to round-robin 2 s-mean services, large enough that swap PR
/// (~0.12 s for a 10-block tenant) stays a modest fraction of it.
const QUANTUM_S: f64 = 0.5;

/// p95 of the per-request wait (arrival → first admission) in one report.
fn p95_wait(report: &SimReport) -> f64 {
    let waits: Vec<f64> = report.outcomes.iter().map(|o| o.wait_s()).collect();
    percentile(&waits, 0.95)
}

struct Condition {
    p95_wait_s: f64,
    goodput: f64,
    preemptions: u64,
    swap_reconfig_s: f64,
    completed: usize,
}

fn run(policy_quantum: Option<f64>, set: usize, seeds: &[u64]) -> Condition {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let mut p95 = 0.0;
    let mut goodput = 0.0;
    let mut preemptions = 0;
    let mut swap = 0.0;
    let mut completed = 0;
    for &seed in seeds {
        let mut policy = match policy_quantum {
            Some(q) => VitalScheduler::time_sliced(q),
            None => VitalScheduler::new(),
        };
        let report = sim.run(&mut policy, fig10_workload(set, seed));
        p95 += p95_wait(&report);
        goodput += report.goodput_fraction();
        preemptions += report.preemptions;
        swap += report.swap_reconfig_s;
        completed += report.completed();
    }
    let n = seeds.len() as f64;
    Condition {
        p95_wait_s: p95 / n,
        goodput: goodput / n,
        preemptions,
        swap_reconfig_s: swap,
        completed,
    }
}

fn main() {
    let seeds = &FIG9_SEEDS;

    println!(
        "== Oversubscription: time-sliced ViTAL vs non-preemptive (quantum = {QUANTUM_S} s) ==\n"
    );
    println!(
        "{:<5} {:>10} {:>10} {:>7} {:>9} {:>9} {:>9}   sliced p95 / baseline",
        "set", "base p95", "slice p95", "ratio", "preempts", "swap PR s", "goodput"
    );

    let mut normalized = Vec::new();
    let mut worst_goodput = 1.0f64;
    let mut total_preemptions = 0;
    for set in 1..=10 {
        let base = run(None, set, seeds);
        let sliced = run(Some(QUANTUM_S), set, seeds);
        assert_eq!(
            sliced.completed, base.completed,
            "time slicing must not lose requests"
        );
        let ratio = if base.p95_wait_s > 0.0 {
            sliced.p95_wait_s / base.p95_wait_s
        } else {
            1.0
        };
        normalized.push(ratio);
        worst_goodput = worst_goodput.min(sliced.goodput);
        total_preemptions += sliced.preemptions;
        println!(
            "{:<5} {:>10.2} {:>10.2} {:>7.2} {:>9} {:>9.2} {:>9.2}   |{}|",
            format!("#{set}"),
            base.p95_wait_s,
            sliced.p95_wait_s,
            ratio,
            sliced.preemptions,
            sliced.swap_reconfig_s,
            sliced.goodput,
            bar(ratio, 1.0, 20),
        );
    }

    let avg = normalized.iter().sum::<f64>() / normalized.len() as f64;
    println!(
        "\ntime slicing changes p95 wait by {:+.0}% on average ({} swaps total)",
        (avg - 1.0) * 100.0,
        total_preemptions
    );
    println!(
        "worst-case goodput under preemption: {worst_goodput:.3} \
         (checkpointed swaps waste no executed block-seconds)"
    );
}
