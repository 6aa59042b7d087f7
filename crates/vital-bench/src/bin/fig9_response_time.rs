//! Fig. 9: normalized response time of the four systems over the ten
//! Table 3 workload sets (multiple generated sets averaged per condition,
//! exactly as §5.1 describes).
//!
//! The paper's headline: ViTAL reduces response time by 82 % on average vs
//! the per-device baseline and by 25 % vs AmorphOS high-throughput mode.

use vital::baselines::{AmorphOsHighThroughput, AmorphOsLowLatency, PerDeviceBaseline};
use vital::cluster::{ClusterConfig, ClusterSim, Scheduler};
use vital::runtime::VitalScheduler;
use vital::telemetry::Telemetry;
use vital_bench::{bar, fig9_workload, reports_dir, FIG9_SEEDS};

fn avg_response(policy: &mut dyn Scheduler, set: usize, seeds: &[u64]) -> f64 {
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let mut total = 0.0;
    for &seed in seeds {
        total += sim.run(policy, fig9_workload(set, seed)).avg_response_s();
    }
    total / seeds.len() as f64
}

/// Archives one ViTAL run of workload set 1 as a Chrome `trace_event` file
/// (open it in Perfetto / `about:tracing`). The sim clock never reads wall
/// time, so the trace is byte-deterministic for the seed.
fn write_sample_trace() {
    let tel = Telemetry::sim();
    let sim = ClusterSim::new(ClusterConfig::paper_cluster()).with_telemetry(tel.clone());
    sim.run(&mut VitalScheduler::new(), fig9_workload(1, FIG9_SEEDS[0]));
    let path = reports_dir().join("TRACE_fig9_sample.json");
    match std::fs::write(&path, tel.export_chrome_trace()) {
        Ok(()) => println!("\nsample sim trace -> reports/TRACE_fig9_sample.json"),
        Err(e) => eprintln!("\nfailed to write sample trace: {e}"),
    }
}

fn main() {
    let seeds = &FIG9_SEEDS;
    println!("== Fig. 9: normalized response time (baseline = 1.00) ==\n");
    println!(
        "{:<5} {:>9} {:>9} {:>9} {:>9}   ViTAL vs baseline / vs AmorphOS-HT",
        "set", "baseline", "slot", "amor-HT", "ViTAL"
    );

    let mut vital_vs_base = Vec::new();
    let mut vital_vs_ht = Vec::new();
    for set in 1..=10 {
        let base = avg_response(&mut PerDeviceBaseline::new(), set, seeds);
        let slot = avg_response(&mut AmorphOsLowLatency::new(), set, seeds);
        let ht = avg_response(&mut AmorphOsHighThroughput::new(), set, seeds);
        let vital = avg_response(&mut VitalScheduler::new(), set, seeds);
        let nb = 1.0;
        let ns = slot / base;
        let nh = ht / base;
        let nv = vital / base;
        vital_vs_base.push(1.0 - nv);
        vital_vs_ht.push(1.0 - vital / ht);
        println!(
            "{:<5} {:>9.2} {:>9.2} {:>9.2} {:>9.2}   |{}| {:+.0}% / {:+.0}%",
            format!("#{set}"),
            nb,
            ns,
            nh,
            nv,
            bar(nv, 1.0, 20),
            (nv - 1.0) * 100.0,
            (vital / ht - 1.0) * 100.0,
        );
    }

    let avg_base = vital_vs_base.iter().sum::<f64>() / vital_vs_base.len() as f64;
    let avg_ht = vital_vs_ht.iter().sum::<f64>() / vital_vs_ht.len() as f64;
    println!(
        "\nViTAL reduces response time by {:.0}% on average vs the baseline (paper: 82%)",
        avg_base * 100.0
    );
    println!(
        "ViTAL reduces response time by {:.0}% on average vs AmorphOS-HT (paper: 25%)",
        avg_ht * 100.0
    );
    println!(
        "\nnote set #3 (100% large): AmorphOS's gain is limited because two \
         10-block designs cannot be combined on one 15-block FPGA — the case \
         the paper predicts will grow more common."
    );

    write_sample_trace();
}
