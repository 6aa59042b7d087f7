//! Quickstart: compile an accelerator once, deploy it anywhere.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks the whole ViTAL stack: describe an accelerator (programming
//! layer), compile it onto virtual blocks (compilation layer), deploy it
//! twice onto different physical blocks without recompiling (system
//! layer), and tear everything down.

use vital::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Programming layer: describe the accelerator as a dataflow graph of
    //    coarse operators — the user never sees FPGAs, dies or boards.
    let mut spec = AppSpec::new("vector-mac");
    let weights = spec.add_operator("weights", Operator::Buffer { kb: 288, banks: 2 });
    let mac = spec.add_operator("mac", Operator::MacArray { pes: 24 });
    let act = spec.add_operator("activation", Operator::Pipeline { slices: 64 });
    spec.add_edge(weights, mac, 256)?;
    spec.add_edge(mac, act, 128)?;
    spec.add_input("ifm", mac, 128)?;
    spec.add_output("ofm", act, 128)?;

    // 2. Compilation layer: the six-step flow maps the app onto identical
    //    virtual blocks and reports per-stage compile times (paper Fig. 8).
    let compiler = Compiler::new(CompilerConfig::default());
    let controller = SystemController::new(RuntimeConfig::paper_cluster());
    let compiled = compiler.compile(&spec)?;
    controller.register(compiled.bitstream().clone())?;
    let bs = compiled.bitstream();
    println!("compiled {:?}:", bs.name());
    println!("  virtual blocks : {}", bs.block_count());
    println!("  total resources: {}", bs.total_resources());
    println!("  clock estimate : {:.0} MHz", bs.achieved_mhz());
    let t = compiled.timings();
    println!(
        "  compile time   : {:?} total ({:.1}% in reused P&R, {:.1}% in ViTAL's custom tools)",
        t.total(),
        t.breakdown().commercial_pnr() * 100.0,
        t.breakdown().custom_tools() * 100.0
    );

    // 3. System layer: deploy twice — the second instance lands on
    //    different physical blocks, no recompilation involved.
    let first = controller.deploy("vector-mac")?;
    let second = controller.deploy("vector-mac")?;
    for (label, handle) in [("first", &first), ("second", &second)] {
        let blocks: Vec<String> = handle.placed().addresses().map(|a| a.to_string()).collect();
        println!(
            "{label} deployment -> tenant {}, blocks [{}], reconfig {:?}",
            handle.tenant(),
            blocks.join(", "),
            handle.reconfig_duration()
        );
    }

    // 4. Tear down: every management operation is one request through
    //    the controller's one entry point, the same one `vitald` serves.
    for handle in [first, second] {
        if let ControlResponse::Err(e) =
            controller.execute(ControlRequest::undeploy(handle.tenant()))
        {
            return Err(e.into());
        }
    }
    let ControlResponse::Status(status) = controller.execute(ControlRequest::Status) else {
        unreachable!("Status answers a status");
    };
    println!("cluster idle again: {} blocks free", status.total_free);
    Ok(())
}
