//! Fig. 1a/1b: the motivation figures.
//!
//! (a) The resources several representative applications use, normalized to
//!     the capacity of a Xilinx VU13P — far below 100 %, so per-device
//!     allocation wastes most of the fabric.
//! (b) FPGA capacity keeps growing across technology generations, making
//!     the waste worse over time.

use vital::fabric::{device_generations, DeviceModel, ResourceKind};
use vital::workloads::{benchmarks, Size};
use vital_bench::bar;

fn main() {
    let vu13p = DeviceModel::vu13p();
    let capacity = vu13p.total_resources();

    println!(
        "== Fig. 1a: application resource usage, normalized to {} ==\n",
        vu13p.name()
    );
    println!(
        "{:<14} {:>7} {:>7} {:>7} {:>7}   (bottleneck)",
        "application", "LUT%", "FF%", "DSP%", "BRAM%"
    );
    for bench in benchmarks() {
        // The small variants stand for the representative single-tenant
        // deployments of Fig. 1a.
        let r = bench.expected_resources(Size::Small);
        let u = r.utilization_of(&capacity);
        println!(
            "{:<14} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%   |{}|",
            bench.name(),
            u.lut * 100.0,
            u.ff * 100.0,
            u.dsp * 100.0,
            u.bram_kb * 100.0,
            bar(u.bottleneck(), 1.0, 30)
        );
    }
    let max_bottleneck = benchmarks()
        .iter()
        .map(|b| {
            b.expected_resources(Size::Small)
                .utilization_of(&capacity)
                .bottleneck()
        })
        .fold(0.0, f64::max);
    println!(
        "\nlargest single-app bottleneck utilization: {:.1}% — the rest of the \
         device idles under per-device allocation",
        max_bottleneck * 100.0
    );
    let _ = ResourceKind::ALL;

    println!("\n== Fig. 1b: FPGA capacity by generation (system logic cells) ==\n");
    let gens = device_generations();
    let max = gens.iter().map(|g| g.logic_cells_k).max().unwrap_or(1) as f64;
    for g in &gens {
        println!(
            "{:>4}  {:<26} {:>6}k |{}|",
            g.year,
            g.name,
            g.logic_cells_k,
            bar(g.logic_cells_k as f64, max, 40)
        );
    }
    let growth = gens.last().map(|g| g.logic_cells_k).unwrap_or(0) as f64
        / gens.first().map(|g| g.logic_cells_k).unwrap_or(1) as f64;
    println!("\ncapacity grew ~{growth:.0}x from the first to the last generation listed");
}
