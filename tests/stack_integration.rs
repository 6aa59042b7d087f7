//! End-to-end integration of the whole ViTAL stack: programming layer →
//! compilation layer → system layer, exercising the paper's central claim
//! that compilation and resource allocation are decoupled.

use vital::prelude::*;
use vital::runtime::RuntimeError;

fn accelerator(name: &str, pes: u32, pipeline_stages: u32) -> AppSpec {
    let mut spec = AppSpec::new(name);
    let buf = spec.add_operator("weights", Operator::Buffer { kb: 720, banks: 4 });
    let mac = spec.add_operator("mac", Operator::MacArray { pes });
    spec.add_edge(buf, mac, 256).unwrap();
    let mut prev = mac;
    for i in 0..pipeline_stages {
        let p = spec.add_operator(format!("act{i}"), Operator::Pipeline { slices: 120 });
        spec.add_edge(prev, p, 64).unwrap();
        prev = p;
    }
    spec.add_input("ifm", mac, 128).unwrap();
    spec.add_output("ofm", prev, 128).unwrap();
    spec
}

/// The paper's default platform: the compilation layer and a controller
/// over 4x XCVU37P.
fn platform() -> (Compiler, SystemController) {
    (
        Compiler::new(CompilerConfig::default()),
        SystemController::new(RuntimeConfig::paper_cluster()),
    )
}

/// Compiles `spec` through the six-step flow and registers its
/// relocatable bitstream in the controller's bitstream database.
fn compile_and_register(
    compiler: &Compiler,
    controller: &SystemController,
    spec: &AppSpec,
) -> CompiledApp {
    let compiled = compiler.compile(spec).unwrap();
    controller.register(compiled.bitstream().clone()).unwrap();
    compiled
}

/// Undeploys `tenant`, which must exist.
fn undeploy(controller: &SystemController, tenant: TenantId) {
    let resp = controller.execute(ControlRequest::undeploy(tenant));
    assert_eq!(
        resp,
        ControlResponse::Undeployed {
            tenant: tenant.raw()
        }
    );
}

/// Builds a cluster-simulator request from a *registered* application's
/// real compiled artifact: block demand comes from the bitstream, the
/// throughput model from its DSP content and post-P&R clock, and the
/// communication intensity from the interface plan's worst per-block
/// boundary traffic relative to the lane supply. This is the bridge
/// between the offline (compiler) and online (simulator) halves of the
/// reproduction.
fn request_for(
    controller: &SystemController,
    id: u64,
    name: &str,
    work_ops: f64,
    arrival_s: f64,
) -> AppRequest {
    let bs = controller.bitstreams().get(name).unwrap();
    let dsp = bs.total_resources().dsp as f64;
    let throughput = (dsp * 2.0 * bs.achieved_mhz() * 1.0e6).max(1.0);
    // Boundary demand over the communication region's lane supply
    // (6 lanes x the saturating inter-die flit width).
    let lane_supply = 6.0 * 1024.0;
    let comm = bs.channel_plan().max_block_bits() as f64 / lane_supply;
    AppRequest::new(id, name, bs.block_count() as u32, work_ops)
        .with_throughput(throughput)
        .with_comm_intensity(comm.clamp(0.05, 0.9))
        .arriving_at(arrival_s)
}

#[test]
fn compile_once_deploy_many_times_anywhere() {
    let (compiler, controller) = platform();
    let spec = accelerator("acc", 32, 8);
    let compiled = compile_and_register(&compiler, &controller, &spec);
    // A name is registered once.
    let again = controller.register(compiled.into_bitstream());
    assert!(
        matches!(again, Err(RuntimeError::AppExists(_))),
        "{again:?}"
    );

    // The same single bitstream deploys repeatedly onto different physical
    // blocks — no recompilation between deployments (decoupling claim).
    let h1 = controller.deploy("acc").unwrap();
    let h2 = controller.deploy("acc").unwrap();
    let blocks1: Vec<_> = h1.placed().addresses().collect();
    let blocks2: Vec<_> = h2.placed().addresses().collect();
    assert!(blocks1.iter().all(|b| !blocks2.contains(b)));

    // Undeploy the first; a third deployment can land on the freed blocks.
    undeploy(&controller, h1.tenant());
    let h3 = controller.deploy("acc").unwrap();
    assert_ne!(h3.tenant(), h1.tenant());
    undeploy(&controller, h2.tenant());
    undeploy(&controller, h3.tenant());
    let ControlResponse::Status(status) = controller.execute(ControlRequest::Status) else {
        panic!("Status answers a status");
    };
    assert!(status.live_tenants.is_empty());
}

#[test]
fn relocation_moves_virtual_blocks_across_physical_blocks() {
    let (compiler, controller) = platform();
    compile_and_register(&compiler, &controller, &accelerator("mover", 16, 4));
    // Occupy the front of the cluster so the next deployment must land on
    // different physical blocks than a fresh deployment would.
    let filler = controller.deploy("mover").unwrap();
    let moved = controller.deploy("mover").unwrap();
    let filler_blocks: Vec<_> = filler.placed().addresses().collect();
    let moved_blocks: Vec<_> = moved.placed().addresses().collect();
    assert_ne!(filler_blocks, moved_blocks);
    // Same bitstream, different physical location: that is Fig. 4c.
    undeploy(&controller, filler.tenant());
    undeploy(&controller, moved.tenant());
}

#[test]
fn table2_benchmarks_flow_through_the_whole_stack() {
    let (compiler, controller) = platform();
    // Compile the small variant of three Table 2 benchmarks and deploy all
    // of them concurrently — fine-grained sharing of the cluster.
    let mut handles = Vec::new();
    for bench in benchmarks().iter().take(3) {
        let spec = bench.spec(Size::Small);
        let compiled = compile_and_register(&compiler, &controller, &spec);
        assert!(compiled.bitstream().block_count() >= 1);
        handles.push(controller.deploy(spec.name()).unwrap());
    }
    // All three run side by side; the per-device baseline would need three
    // whole FPGAs for this.
    let distinct_fpgas: std::collections::HashSet<_> = handles
        .iter()
        .flat_map(|h| h.placed().addresses().map(|a| a.fpga))
        .collect();
    assert!(!distinct_fpgas.is_empty());
    for h in handles {
        undeploy(&controller, h.tenant());
    }
}

#[test]
fn compiled_blocks_respect_the_homogeneous_abstraction() {
    let (compiler, controller) = platform();
    let compiled = compile_and_register(&compiler, &controller, &accelerator("shape", 48, 24));
    let block_capacity = compiler.config().block_resources;
    for image in compiled.bitstream().images() {
        // Every virtual block fits the standardized physical block.
        assert!(
            image.resources.fits_within(&block_capacity),
            "virtual block {} exceeds the block capacity",
            image.virtual_block
        );
        assert!(image.primitive_count > 0);
        assert!(image.placement.achieved_mhz > 0.0);
    }
}

#[test]
fn compiled_bitstreams_drive_the_cluster_simulator() {
    use vital::cluster::{ClusterConfig, ClusterSim};

    // Compile three Table 2 benchmarks for real, derive simulator requests
    // from the actual artifacts, and run a schedule — the offline and
    // online halves connected end to end.
    let (compiler, controller) = platform();
    let mut names = Vec::new();
    for bench in benchmarks().iter().take(3) {
        let spec = bench.spec(Size::Small);
        compile_and_register(&compiler, &controller, &spec);
        names.push(spec.name().to_string());
    }
    let mut reqs = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let bs = controller.bitstreams().get(name).unwrap();
        let work = bs.total_resources().dsp as f64 * 2.0 * 265.0e6; // ~1 s
        let req = request_for(&controller, i as u64, name, work, i as f64 * 0.1);
        assert_eq!(req.blocks_needed as usize, bs.block_count());
        reqs.push(req);
    }
    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let report = sim.run(&mut VitalScheduler::new(), reqs);
    assert_eq!(report.completed(), 3);
    assert!(report.avg_response_s() > 0.0);
}

#[test]
fn stage_timings_reported_for_every_compile() {
    let (compiler, controller) = platform();
    let compiled = compile_and_register(&compiler, &controller, &accelerator("timed", 24, 12));
    let t = compiled.timings();
    assert!(t.total() > std::time::Duration::ZERO);
    assert!(t.local_pnr > std::time::Duration::ZERO);
    // The custom tools exist in the breakdown too.
    assert!(t.partition > std::time::Duration::ZERO);
}
