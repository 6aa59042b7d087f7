//! Table 4: the bare-metal performance of the abstraction — the resources
//! one physical block provides, and the maximum bandwidth / latency of the
//! latency-insensitive interface over the inter-FPGA and inter-die links,
//! measured with the random-traffic benchmark (paper benchmark set 1).

use vital::fabric::{DeviceModel, Floorplan};
use vital::interface::{measure_channel, ActorKind, ChannelSpec, LinkClass, NetworkSim, CLOCK_MHZ};
use vital::workloads::random_traffic_sinks;

fn main() {
    let device = DeviceModel::xcvu37p();
    let plan = Floorplan::optimal_for(&device).expect("XCVU37P has a feasible floorplan");
    let block = plan.block_resources();

    println!("== Table 4: bare-metal performance ==\n");
    println!(
        "resources provided by a physical block ({} per FPGA):",
        plan.user_blocks().len()
    );
    println!(
        "  {:>8} LUTs   {:>8} DFFs   {:>5} DSPs   {:.2} Mb BRAM",
        block.lut,
        block.ff,
        block.dsp,
        block.bram_kb as f64 / 1024.0
    );
    println!("  (paper: 79.2k LUTs, 158.4k DFFs, 580 DSPs, 4.22 Mb BRAM)\n");

    println!("communication performance at a {CLOCK_MHZ:.0} MHz user clock:");
    println!(
        "{:<12} {:>16} {:>14}   (saturating source -> free-running sink)",
        "link", "max bandwidth", "latency"
    );
    for (label, link, paper_bw) in [
        ("inter-FPGA", LinkClass::InterFpga, "100 Gb/s ring"),
        ("inter-die", LinkClass::InterDie, "312.5 Gb/s"),
    ] {
        let spec = ChannelSpec::saturating(link);
        let m = measure_channel(&spec, 200_000);
        println!(
            "{:<12} {:>11.1} Gb/s {:>11.1} ns   (paper link: {paper_bw})",
            label, m.achieved_gbps, m.avg_latency_ns
        );
    }

    // Random-traffic sweep: throughput delivered under randomly stalling
    // consumers, confirming back-pressure never deadlocks and bandwidth
    // degrades gracefully (the "random data traffic" of §5.1).
    let patterns = 64;
    println!("\nrandom-traffic sweep over the inter-FPGA link ({patterns} random sink patterns):");
    let mut worst = f64::INFINITY;
    let mut best: f64 = 0.0;
    for (period, duty) in random_traffic_sinks(2020, patterns) {
        let mut sim = NetworkSim::new();
        let ch = sim.add_channel(ChannelSpec::saturating(LinkClass::InterFpga));
        sim.add_actor(ActorKind::Source { limit: u64::MAX }, [], [ch]);
        sim.add_actor(
            ActorKind::Sink {
                stall_period: period,
                stall_duty: duty,
            },
            [ch],
            [],
        );
        let stats = sim.run(20_000);
        assert!(!stats.deadlocked, "random traffic must never deadlock");
        let delivered_bits = sim.channel(ch).delivered()
            * u64::from(ChannelSpec::saturating(LinkClass::InterFpga).width_bits);
        let gbps = delivered_bits as f64 / (20_000.0 / (CLOCK_MHZ * 1.0e6)) / 1.0e9;
        worst = worst.min(gbps);
        best = best.max(gbps);
    }
    println!("  delivered bandwidth range: {worst:.1} .. {best:.1} Gb/s, zero deadlocks");
}
