//! Table 2: resource usage of the three accelerator designs (S/M/L) of
//! every DNN benchmark, plus the number of virtual blocks each compiles to.
//!
//! The LUT/DFF/DSP/BRAM columns come from synthesizing the generated
//! accelerators; the `#Block` column from running the actual ViTAL compiler
//! (pass `--compile` for that — it runs the full six-step flow over all 21
//! designs and takes a few minutes; otherwise the sizing rule is used).

use vital::compiler::{Compiler, CompilerConfig};
use vital::fabric::Resources;
use vital::netlist::hls::synthesize;
use vital::workloads::{benchmarks, Size};

fn main() {
    let full_compile = std::env::args().any(|a| a == "--compile");
    let compiler = Compiler::new(CompilerConfig::default());
    let block = compiler.config().block_resources;
    let margin = compiler.config().fill_margin;

    println!(
        "== Table 2: benchmark resource usage ({}) ==\n",
        if full_compile {
            "#Block from the full compiler"
        } else {
            "#Block from the sizing rule; pass --compile for the full flow"
        }
    );
    println!(
        "{:<12} {:>4} {:>10} {:>10} {:>6} {:>9} {:>7} {:>12}",
        "benchmark", "size", "LUT", "DFF", "DSP", "BRAM(Mb)", "#Block", "paper#Block"
    );
    for bench in benchmarks() {
        for size in Size::ALL {
            let spec = bench.spec(size);
            let netlist = synthesize(&spec).expect("suite specs synthesize");
            let r: Resources = netlist.resource_usage();
            let blocks = if full_compile {
                compiler
                    .compile(&spec)
                    .expect("suite specs compile")
                    .bitstream()
                    .block_count() as u64
            } else {
                r.blocks_needed(&block, margin)
            };
            println!(
                "{:<12} {:>4} {:>10} {:>10} {:>6} {:>9.1} {:>7} {:>12}",
                bench.name(),
                size.letter(),
                r.lut,
                r.ff,
                r.dsp,
                r.bram_kb as f64 / 1024.0,
                blocks,
                bench.tile_count(size)
            );
        }
    }
    println!(
        "\n(block = {} at {:.0}% general-fabric fill; paper Table 2 lists the \
         DNNweaver originals)",
        block,
        margin * 100.0
    );
}
