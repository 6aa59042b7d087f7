//! ISA-level elasticity report: the instruction-virtualized tile pool
//! (DESIGN.md §16) vs spatially-virtualized ViTAL on bursty multi-tenant
//! DNN traffic.
//!
//! Both backends get the *same* seeded on/off tenant trace
//! ([`bursty_tenant_arrivals`]) over silicon-equivalent capacity (60
//! tiles vs the paper cluster's 4 × 15 blocks) and the report compares:
//!
//! * **latency** — mean / p95 / p99 response per backend,
//! * **reallocation cost** — moving one unit of capacity between tenants
//!   is a ~10 µs instruction-stream switch on the ISA pool but a ~12.3 ms
//!   partial reconfiguration on the fabric; the per-unit ratio is the
//!   headline `realloc.speedup_x` and the run fails if it falls under
//!   100×,
//! * **utilization** — busy fraction of the shared capacity.

use vital::baselines::IsaElastic;
use vital::cluster::{ClusterConfig, ClusterSim};
use vital::isa::{IsaJob, IsaSim, IsaTemplate, TILE_SWITCH_S};
use vital::runtime::VitalScheduler;
use vital::workloads::{
    bursty_tenant_arrivals, tenant_arrivals_as_requests, SizingModel, TenantTrafficConfig,
};
use vital_bench::{bar, percentile};

/// Quantum of the fabric time-slicing condition, in simulated seconds.
/// Matches `fig_oversubscription`: small enough to round-robin 2 s-mean
/// services while keeping swap PR a modest fraction of the slice.
const FABRIC_QUANTUM_S: f64 = 0.5;

/// Minimum per-unit reallocation advantage the ISA backend must show
/// (acceptance bar of the ISA-virtualization PR).
const MIN_REALLOC_SPEEDUP: f64 = 100.0;

struct Condition {
    label: &'static str,
    completed: usize,
    mean_response_s: f64,
    p95_response_s: f64,
    p99_response_s: f64,
    makespan_s: f64,
    utilization: f64,
    /// Seconds spent moving capacity between tenants (tile switches or
    /// swap-in partial reconfiguration).
    realloc_s: f64,
    /// Capacity units moved (tiles, or blocks re-programmed on swap-in).
    units_moved: u64,
}

fn print_condition(c: &Condition, worst_p99: f64) {
    println!(
        "{:<14} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.2} {:>6.2} {:>11.4} {:>7}   |{}|",
        c.label,
        c.completed,
        c.mean_response_s,
        c.p95_response_s,
        c.p99_response_s,
        c.makespan_s,
        c.utilization,
        c.realloc_s,
        c.units_moved,
        bar(c.p99_response_s, worst_p99, 18),
    );
}

fn main() {
    // One seeded bursty trace shared by every condition.
    let cfg = TenantTrafficConfig::default();
    let trace = bursty_tenant_arrivals(&cfg);

    println!(
        "== ISA elasticity: instruction-level tile pool vs spatial ViTAL ==\n\
         {} jobs from {} tenants over {:.0} s (on/off bursts, seed {})\n",
        trace.len(),
        cfg.tenants,
        cfg.horizon_s,
        cfg.seed
    );

    // Condition 1: the ISA backend — a static 60-tile template, tenant
    // shares elastically resized at 10 ms quantum boundaries.
    let template = IsaTemplate::paper_pool();
    let jobs: Vec<IsaJob> = trace
        .iter()
        .enumerate()
        .map(|(i, a)| IsaJob::new(i as u64, a.tenant, &a.app, a.work_ops, a.arrival_s))
        .collect();
    let isa_sim = IsaSim::new(template);
    let isa = isa_sim.run(&jobs);
    let isa_responses = isa.response_times_s();
    let isa_cond = Condition {
        label: "isa-pool",
        completed: isa.completed(),
        mean_response_s: isa.mean_response_s(),
        p95_response_s: percentile(&isa_responses, 0.95),
        p99_response_s: percentile(&isa_responses, 0.99),
        makespan_s: isa.makespan_s,
        utilization: isa.utilization,
        realloc_s: isa.realloc_s,
        units_moved: isa.tiles_moved,
    };

    // Conditions 2 and 3: the same demand on the spatial fabric — the
    // ViTAL time-sliced scheduler (per-block PR on every swap-in) and
    // the IsaElastic cluster baseline (instruction-switch swaps).
    let requests = tenant_arrivals_as_requests(&trace, &SizingModel::default());
    let cluster = ClusterSim::new(ClusterConfig::paper_cluster());
    let fabric_cond = {
        let mut policy = VitalScheduler::time_sliced(FABRIC_QUANTUM_S);
        let report = cluster.run(&mut policy, requests.clone());
        let responses: Vec<f64> = report.outcomes.iter().map(|o| o.response_s()).collect();
        let per_block = ClusterConfig::paper_cluster().per_block_reconfig_s;
        Condition {
            label: "vital-sliced",
            completed: report.completed(),
            mean_response_s: report.avg_response_s(),
            p95_response_s: percentile(&responses, 0.95),
            p99_response_s: percentile(&responses, 0.99),
            makespan_s: report.makespan_s,
            utilization: report.block_utilization,
            realloc_s: report.swap_reconfig_s,
            units_moved: (report.swap_reconfig_s / per_block).round() as u64,
        }
    };
    let isa_elastic_cond = {
        let mut policy = IsaElastic::new();
        let report = cluster.run(&mut policy, requests);
        let responses: Vec<f64> = report.outcomes.iter().map(|o| o.response_s()).collect();
        Condition {
            label: "isa-elastic",
            completed: report.completed(),
            mean_response_s: report.avg_response_s(),
            p95_response_s: percentile(&responses, 0.95),
            p99_response_s: percentile(&responses, 0.99),
            makespan_s: report.makespan_s,
            utilization: report.block_utilization,
            realloc_s: report.swap_reconfig_s,
            units_moved: (report.swap_reconfig_s / TILE_SWITCH_S).round() as u64,
        }
    };

    let conditions = [&isa_cond, &fabric_cond, &isa_elastic_cond];
    let worst_p99 = conditions
        .iter()
        .map(|c| c.p99_response_s)
        .fold(0.0f64, f64::max);
    println!(
        "{:<14} {:>6} {:>9} {:>9} {:>9} {:>9} {:>6} {:>11} {:>7}   p99",
        "backend", "done", "mean s", "p95 s", "p99 s", "makespan", "util", "realloc s", "moved"
    );
    for c in &conditions {
        print_condition(c, worst_p99);
    }

    // Headline: cost of moving one unit of capacity between tenants.
    let per_block_pr_s = ClusterConfig::paper_cluster().per_block_reconfig_s;
    let speedup = per_block_pr_s / TILE_SWITCH_S;
    println!(
        "\nreallocating one capacity unit: {:.0} µs instruction switch vs {:.1} ms partial \
         reconfiguration -> {speedup:.0}x cheaper at a quantum boundary",
        TILE_SWITCH_S * 1.0e6,
        per_block_pr_s * 1.0e3,
    );
    println!(
        "isa pool resized tenant shares {} times ({} tiles moved) for {:.1} ms total — \
         the fabric spent {:.2} s of PR on {} block swap-ins",
        isa.reallocations,
        isa.tiles_moved,
        isa.realloc_s * 1.0e3,
        fabric_cond.realloc_s,
        fabric_cond.units_moved,
    );
    if speedup < MIN_REALLOC_SPEEDUP {
        eprintln!(
            "FAIL: per-unit reallocation speedup {speedup:.0}x is below the {MIN_REALLOC_SPEEDUP}x bar"
        );
        std::process::exit(1);
    }
    if isa.reconfigurations != 0 {
        eprintln!("FAIL: the static template must never reconfigure the fabric");
        std::process::exit(1);
    }
}
