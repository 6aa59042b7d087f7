//! Failure-injection companion to Fig. 9: response time, goodput and
//! terminal failures when an FPGA crashes mid-workload and a ring link is
//! cut, across the Table 3 workload sets.
//!
//! ViTAL's relocatable bitstreams make recovery a redeployment, not a
//! recompilation, so the interesting question is how much *work* the
//! faults throw away (goodput) and whether bounded retry budgets give up
//! on any request.

use vital::baselines::PerDeviceBaseline;
use vital::cluster::{ClusterConfig, ClusterSim, FaultPlan, RetryPolicy, Scheduler, SimReport};
use vital::runtime::VitalScheduler;
use vital_bench::{fig9_workload, FIG9_SEEDS};

/// FPGA 1 dies at t = 4 s and is repaired at t = 12 s; ring link 2 is cut
/// from 6 s to 10 s. Evicted requests retry up to 4 times with 0.5 s
/// exponential backoff.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .fpga_crash(1, 4.0)
        .fpga_recover(1, 12.0)
        .ring_link_down(2, 6.0)
        .ring_link_up(2, 10.0)
        .with_retry(RetryPolicy::bounded(4).with_backoff(0.5, 2.0))
}

struct Row {
    response_s: f64,
    interrupted: u64,
    goodput: f64,
    failed: usize,
}

fn run(policy: &mut dyn Scheduler, set: usize, faulted: bool, seeds: &[u64]) -> Row {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let plan = plan();
    let mut reports: Vec<SimReport> = Vec::new();
    for &seed in seeds {
        let reqs = fig9_workload(set, seed);
        reports.push(if faulted {
            sim.run_with_plan(policy, reqs, &plan)
        } else {
            sim.run(policy, reqs)
        });
    }
    let n = reports.len() as f64;
    Row {
        response_s: reports.iter().map(SimReport::avg_response_s).sum::<f64>() / n,
        interrupted: reports.iter().map(|r| r.interrupted_jobs).sum(),
        goodput: reports.iter().map(SimReport::goodput_fraction).sum::<f64>() / n,
        failed: reports.iter().map(SimReport::failed_count).sum(),
    }
}

fn main() {
    let seeds = &FIG9_SEEDS;
    println!("== Fig. 9 companion: fpga1 down 4s..12s, link2 cut 6s..10s ==");
    println!("   (3 seeds per set; interrupted/failed are totals across seeds)\n");
    println!(
        "{:<5} {:>10} {:>10} {:>8} {:>6} {:>9} {:>7} | {:>10} {:>9} {:>7}",
        "set",
        "healthy",
        "faulted",
        "slowdn",
        "intr",
        "goodput",
        "failed",
        "base-flt",
        "goodput",
        "failed"
    );

    let mut slowdowns = Vec::new();
    for set in 1..=10 {
        let healthy = run(&mut VitalScheduler::new(), set, false, seeds);
        let faulted = run(&mut VitalScheduler::new(), set, true, seeds);
        let base = run(&mut PerDeviceBaseline::new(), set, true, seeds);
        let slowdown = faulted.response_s / healthy.response_s.max(1e-9);
        slowdowns.push(slowdown);
        println!(
            "{:<5} {:>9.2}s {:>9.2}s {:>7.2}x {:>6} {:>8.1}% {:>7} | {:>9.2}s {:>8.1}% {:>7}",
            format!("#{set}"),
            healthy.response_s,
            faulted.response_s,
            slowdown,
            faulted.interrupted,
            faulted.goodput * 100.0,
            faulted.failed,
            base.response_s,
            base.goodput * 100.0,
            base.failed,
        );
    }

    let avg = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
    println!(
        "\nViTAL's average fault slowdown: {avg:.2}x — evicted instances \
         redeploy from the same relocatable bitstreams on the survivors, so \
         an 8-second device outage costs seconds, not a recompilation."
    );
}
