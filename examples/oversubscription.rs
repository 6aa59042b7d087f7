//! Oversubscribing the cluster with preemptive time slicing: demand is
//! several times the paper cluster's 60 blocks, yet every request
//! completes and nobody starves — tenants are checkpointed out on quantum expiry and
//! swapped back in losslessly (DESIGN.md §11).
//!
//! ```text
//! cargo run --example oversubscription
//! ```
//!
//! The same run also shows the live-migration machinery behind the sim:
//! a [`SystemController`] suspend → resume round trip on a real deployed
//! tenant, preserving its channel flits, DRAM, and bandwidth grant.

use vital::cluster::{ClusterConfig, ClusterSim, SimReport};
use vital::compiler::{Compiler, CompilerConfig};
use vital::netlist::hls::Operator;
use vital::prelude::*;
use vital::runtime::RuntimeConfig;
use vital::workloads::{generate_workload_set, SizingModel, WorkloadParams};

fn worst_wait(report: &SimReport) -> f64 {
    report
        .outcomes
        .iter()
        .map(vital::cluster::RequestOutcome::wait_s)
        .fold(0.0, f64::max)
}

fn main() {
    // --- Part 1: the cluster simulator, heavily oversubscribed ----------
    let reqs = generate_workload_set(
        &WorkloadComposition::table3()[2], // 100% large: 10 blocks each
        &WorkloadParams {
            requests: 30,
            mean_interarrival_s: 0.05, // arrivals far outpace capacity
            mean_service_s: 2.0,
            seed: 42,
        },
        &SizingModel::default(),
    );
    let demand: u32 = reqs.iter().map(|r| r.blocks_needed).sum();
    println!(
        "== oversubscription: {} blocks of demand on a 60-block cluster ({:.1}x) ==\n",
        demand,
        demand as f64 / 60.0
    );

    let sim = ClusterSim::new(ClusterConfig::paper_cluster());
    let serial = sim.run(&mut VitalScheduler::new(), reqs.clone());
    let sliced = sim.run(&mut VitalScheduler::time_sliced(0.5), reqs.clone());

    println!(
        "{:<18} {:>9} {:>10} {:>10} {:>9} {:>9}",
        "policy", "completed", "worst wait", "preempts", "swap PR s", "goodput"
    );
    for (label, r) in [
        ("vital (run to end)", &serial),
        ("vital-timeslice", &sliced),
    ] {
        println!(
            "{label:<18} {:>6}/{:<2} {:>9.2}s {:>10} {:>8.2}s {:>8.1}%",
            r.completed(),
            reqs.len(),
            worst_wait(r),
            r.preemptions,
            r.swap_reconfig_s,
            r.goodput_fraction() * 100.0,
        );
    }
    println!(
        "\ntime slicing trades {:.1}s of swap reconfiguration for a {:.0}% \
         shorter worst-case wait — and wastes nothing: preempted progress is \
         checkpointed, so goodput stays at 100%.\n",
        sliced.swap_reconfig_s,
        (1.0 - worst_wait(&sliced) / worst_wait(&serial)) * 100.0
    );

    // --- Part 2: the runtime primitive that makes a swap lossless -------
    let controller = SystemController::new(RuntimeConfig::paper_cluster());
    // A chained accelerator that spans several virtual blocks, so the
    // capsule carries real inter-block channel state.
    let mut spec = AppSpec::new("swapme");
    let buf = spec.add_operator("w", Operator::Buffer { kb: 720, banks: 4 });
    let mac = spec.add_operator("mac", Operator::MacArray { pes: 64 });
    spec.add_edge(buf, mac, 64).unwrap();
    let mut prev = mac;
    for i in 0..40 {
        let p = spec.add_operator(format!("p{i}"), Operator::Pipeline { slices: 200 });
        spec.add_edge(prev, p, 64).unwrap();
        prev = p;
    }
    spec.add_input("in", mac, 128).unwrap();
    spec.add_output("out", prev, 128).unwrap();
    let bitstream = Compiler::new(CompilerConfig::default())
        .compile(&spec)
        .unwrap()
        .into_bitstream();
    controller.register(bitstream).unwrap();

    let handle = controller.deploy("swapme").unwrap();
    let tenant = handle.tenant();
    let payload = b"state that must survive the swap";
    controller
        .memory_of(handle.primary_fpga())
        .write(tenant, 0x1000, payload)
        .unwrap();
    controller.run_tenant(tenant, 64).unwrap();

    let capsule = controller.suspend(tenant).unwrap();
    println!(
        "== the swap primitive: suspend -> resume on a live tenant ==\n\n\
         suspended {tenant}: {} flit(s) across {} channel(s), digest {}",
        capsule.total_flits(),
        capsule.channels.len(),
        capsule.digest()
    );

    let resumed = controller.resume(tenant).unwrap();
    let mut back = vec![0u8; payload.len()];
    controller
        .memory_of(resumed.primary_fpga())
        .read(tenant, 0x1000, &mut back)
        .unwrap();
    assert_eq!(&back, payload, "DRAM must survive the round trip");
    println!(
        "resumed  {tenant}: DRAM intact ({:?}), bandwidth {:.1} Gb/s re-granted",
        String::from_utf8_lossy(&back),
        resumed.bandwidth().granted_gbps
    );
    let undeployed = controller.execute(ControlRequest::undeploy(tenant));
    assert_eq!(
        undeployed,
        ControlResponse::Undeployed {
            tenant: tenant.raw()
        }
    );
}
