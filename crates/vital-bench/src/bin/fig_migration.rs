//! Migration downtime report: the same-geometry fast path vs the
//! compiler-assisted portable path (DESIGN.md §17).
//!
//! One tenant runs a chained accelerator on the default XCVU37P column
//! layout. Each iteration measures, in *modelled* (deterministic) time:
//!
//! * **same-geometry** — `Migrate { policy: SameGeometry }`: the capsule
//!   is relocated by partial reconfiguration only, so downtime is the PR
//!   time of the re-programmed blocks,
//! * **portable** — the capsule is lifted to a `PortableCheckpoint`
//!   (scan-out of every block's state), shipped to a controller modelling
//!   the interleaved XCVU37P-ALT layout, and scanned back in after the
//!   target programs the image: downtime adds two full scan passes at the
//!   image's achieved clock to the PR time.
//!
//! After every portable restore the tenant must *keep serving*: its DRAM
//! contents are read back and it executes further cycles on the new
//! fabric — any mismatch fails the run. A one-shot cold restore (empty
//! target, recompile through the build farm) is timed wall-clock and
//! reported unguarded on stderr, so stdout stays deterministic.

use std::time::Instant;

use vital::checkpoint::TenantCheckpoint;
use vital::compiler::{CompiledApp, Compiler, CompilerConfig};
use vital::fabric::DeviceModel;
use vital::interface::QuiesceError;
use vital::netlist::hls::{AppSpec, Operator};
use vital::prelude::*;
use vital::runtime::{MigratePolicy, RuntimeConfig, RuntimeError};
use vital_bench::percentile;

/// The portable path must never beat the relocation fast path (it does
/// strictly more work); the run fails if the measured advantage of the
/// fast path falls below break-even.
const MIN_FASTPATH_SPEEDUP: f64 = 1.0;

/// A chained accelerator cut across several virtual blocks, so suspension
/// drains real inter-block channels and the scan interface covers many
/// blocks.
fn chained_spec(name: &str) -> AppSpec {
    let mut s = AppSpec::new(name);
    let buf = s.add_operator("w", Operator::Buffer { kb: 720, banks: 4 });
    let mac = s.add_operator("mac", Operator::MacArray { pes: 64 });
    s.add_edge(buf, mac, 64).unwrap();
    let mut prev = mac;
    for i in 0..40 {
        let p = s.add_operator(format!("p{i}"), Operator::Pipeline { slices: 200 });
        s.add_edge(prev, p, 64).unwrap();
        prev = p;
    }
    s.add_input("ifm", mac, 128).unwrap();
    s.add_output("ofm", prev, 128).unwrap();
    s
}

fn suspend_settled(c: &SystemController, t: TenantId) -> TenantCheckpoint {
    match c.suspend(t) {
        Ok(capsule) => capsule,
        Err(RuntimeError::Quiesce(QuiesceError::MidSerialization { now, ready_at })) => {
            c.settle_tenant(t, ready_at - now).unwrap();
            c.suspend(t).unwrap()
        }
        Err(e) => panic!("suspend failed: {e}"),
    }
}

/// Seconds to shift the full scan interface once at the image's achieved
/// clock (the scan path runs at the block clock, DESIGN.md §17).
fn scan_pass_s(bitstream: &vital::compiler::AppBitstream) -> f64 {
    bitstream.scan().shift_cycles() as f64 / (bitstream.achieved_mhz() * 1.0e6)
}

fn main() {
    let iters = 12;

    // Compile the workload once per geometry; every iteration registers
    // the prebuilt images on fresh controllers.
    let spec = chained_spec("svc");
    let image_a = Compiler::for_device(&DeviceModel::xcvu37p(), 60, CompilerConfig::default())
        .compile(&spec)
        .expect("compile for XCVU37P")
        .into_bitstream();
    let image_b = Compiler::for_device(&DeviceModel::xcvu37p_alt(), 60, CompilerConfig::default())
        .compile(&spec)
        .expect("compile for XCVU37P-ALT")
        .into_bitstream();
    let scan_s = scan_pass_s(&image_a);

    println!(
        "== migration downtime: same-geometry relocation vs portable cross-fabric ==\n\
         {} scan chains / {} state bits per capsule, one scan pass {:.3} ms\n",
        image_a.scan().chains.len(),
        image_a.scan().total_bits(),
        scan_s * 1.0e3,
    );

    let mut same_ms: Vec<f64> = Vec::with_capacity(iters);
    let mut portable_ms: Vec<f64> = Vec::with_capacity(iters);

    for i in 0..iters {
        let source = SystemController::new(RuntimeConfig::paper_cluster()).with_geometry("XCVU37P");
        source.register(image_a.clone()).unwrap();
        let handle = source.deploy("svc").unwrap();
        let tenant = handle.tenant();
        let payload: Vec<u8> = (0..192).map(|b| (b as u8) ^ (i as u8)).collect();
        let vaddr = 4_096 * (i as u64 + 1);
        source
            .memory_of(handle.primary_fpga())
            .write(tenant, vaddr, &payload)
            .unwrap();
        source.run_tenant(tenant, 16 + i as u64).unwrap();

        // Fast path: relocation by partial reconfiguration.
        let req = ControlRequest::migrate_with(tenant, MigratePolicy::SameGeometry);
        let ControlResponse::Migrated(m) = source.execute(req) else {
            panic!("same-geometry migration failed");
        };
        assert_eq!(m.policy, MigratePolicy::SameGeometry);
        same_ms.push(m.reconfig_us as f64 / 1.0e3);

        // Portable path: scan out, ship, restore on the other layout.
        let target =
            SystemController::new(RuntimeConfig::paper_cluster()).with_geometry("XCVU37P-ALT");
        target.register(image_b.clone()).unwrap();
        suspend_settled(&source, tenant);
        let portable = source.portable_of(tenant).unwrap();
        let restored = target.restore_portable(&portable).unwrap();
        portable_ms.push((restored.reconfig_duration().as_secs_f64() + 2.0 * scan_s) * 1.0e3);

        // The tenant keeps serving on the new fabric.
        let mut read_back = vec![0u8; payload.len()];
        target
            .memory_of(restored.primary_fpga())
            .read(tenant, vaddr, &mut read_back)
            .unwrap();
        if read_back != payload {
            eprintln!("FAIL: DRAM contents diverged across the migration (iter {i})");
            std::process::exit(1);
        }
        if target.run_tenant(tenant, 32).is_err() {
            eprintln!("FAIL: restored tenant cannot execute on the target fabric (iter {i})");
            std::process::exit(1);
        }
    }

    // One-shot cold restore: the target has never seen the app and must
    // recompile through its build farm (wall-clock, reported unguarded).
    let cold_wall_ms = {
        let source = SystemController::new(RuntimeConfig::paper_cluster()).with_geometry("XCVU37P");
        source.register(image_a.clone()).unwrap();
        let handle = source.deploy("svc").unwrap();
        let tenant = handle.tenant();
        source.run_tenant(tenant, 24).unwrap();
        suspend_settled(&source, tenant);
        let portable = source.portable_of(tenant).unwrap();
        let target =
            SystemController::new(RuntimeConfig::paper_cluster()).with_geometry("XCVU37P-ALT");
        target.set_app_resolver(Box::new(|name: &str| {
            Compiler::for_device(&DeviceModel::xcvu37p_alt(), 60, CompilerConfig::default())
                .compile(&chained_spec(name))
                .map(CompiledApp::into_bitstream)
                .map_err(Into::into)
        }));
        let w = Instant::now();
        target.restore_portable(&portable).expect("cold restore");
        w.elapsed().as_secs_f64() * 1.0e3
    };

    let same_p50 = percentile(&same_ms, 0.50);
    let same_p99 = percentile(&same_ms, 0.99);
    let portable_p50 = percentile(&portable_ms, 0.50);
    let portable_p99 = percentile(&portable_ms, 0.99);
    let speedup = portable_p50 / same_p50.max(f64::MIN_POSITIVE);

    println!(
        "{:<16} {:>10} {:>10} {:>14}",
        "path", "p50 ms", "p99 ms", "migrations/s"
    );
    println!(
        "{:<16} {:>10.3} {:>10.3} {:>14.2}",
        "same-geometry",
        same_p50,
        same_p99,
        1.0e3 / same_p50
    );
    println!(
        "{:<16} {:>10.3} {:>10.3} {:>14.2}",
        "portable",
        portable_p50,
        portable_p99,
        1.0e3 / portable_p50
    );
    println!("\nfast path is {speedup:.2}x cheaper than the portable path");
    eprintln!("cold cross-fabric restore (recompile + restore) took {cold_wall_ms:.0} ms wall");

    if speedup < MIN_FASTPATH_SPEEDUP {
        eprintln!(
            "FAIL: portable/fast downtime ratio {speedup:.2}x is below {MIN_FASTPATH_SPEEDUP}x \
             — the fast path must not do more work than a full scan migration"
        );
        std::process::exit(1);
    }
}
