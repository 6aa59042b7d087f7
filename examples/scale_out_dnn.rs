//! Scale-out acceleration: a DNN too large for the paper's per-device cloud
//! model, deployed transparently across multiple FPGAs.
//!
//! ```text
//! cargo run --example scale_out_dnn
//! ```
//!
//! The user writes one accelerator against the illusion of an infinitely
//! large FPGA (paper §3.1). ViTAL partitions it into virtual blocks, wires
//! the cut edges with the latency-insensitive interface, and the runtime
//! spreads the blocks over however many FPGAs it takes — no manual
//! partitioning, no awareness of board boundaries in the source.

use vital::prelude::*;
use vital::workloads::benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiler = Compiler::new(CompilerConfig::default());
    let controller = SystemController::new(RuntimeConfig::paper_cluster());

    // The large AlexNet variant of Table 2: ~269k LUTs, 10 virtual blocks.
    let bench = benchmarks()
        .into_iter()
        .find(|b| b.name() == "alexnet")
        .expect("alexnet is part of the Table 2 suite");
    let spec = bench.spec(Size::Large);
    println!("compiling {} ...", spec.name());
    let compiled = compiler.compile(&spec)?;
    controller.register(compiled.bitstream().clone())?;
    let bs = compiled.bitstream();
    println!(
        "  {} virtual blocks, {} inter-block channels, cut = {} bits/firing",
        bs.block_count(),
        bs.channel_plan().channel_count(),
        compiled.cut_bits()
    );

    // Fill most of the cluster with the medium variant so the large one
    // cannot fit on a single FPGA and must scale out.
    let filler_spec = bench.spec(Size::Medium);
    controller.register(compiler.compile(&filler_spec)?.into_bitstream())?;
    let mut fillers = Vec::new();
    for _ in 0..4 {
        fillers.push(controller.deploy(filler_spec.name())?);
    }
    println!(
        "cluster pre-loaded with {} medium instances; {} blocks free",
        fillers.len(),
        controller.resources().total_free()
    );

    // Deploy the large design: the communication-aware policy spans FPGAs
    // only because no single device has 10 free blocks left.
    let handle = controller.deploy(spec.name())?;
    println!(
        "deployed {} across {} FPGA(s):",
        spec.name(),
        handle.fpga_count()
    );
    let mut per_fpga = std::collections::BTreeMap::<u32, usize>::new();
    for addr in handle.placed().addresses() {
        *per_fpga.entry(addr.fpga.index()).or_insert(0) += 1;
    }
    for (fpga, n) in &per_fpga {
        println!("  fpga{fpga}: {n} blocks");
    }
    assert!(handle.fpga_count() > 1, "expected scale-out placement");
    println!(
        "(the latency-insensitive interface hides the inter-FPGA hops; the \
         user design is unchanged)"
    );

    for h in fillers.iter().chain([&handle]) {
        if let ControlResponse::Err(e) = controller.execute(ControlRequest::undeploy(h.tenant())) {
            return Err(e.into());
        }
    }
    Ok(())
}
