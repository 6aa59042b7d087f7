//! Determinism contract of the parallel compile path and the compile
//! cache: every worker count produces bit-identical bitstreams (each
//! block's P&R seeds its own RNG from `pnr.seed ^ block`), and a cache
//! hit hands back the very images the cold compile produced.

use proptest::prelude::*;
use vital::compiler::{Compiler, CompilerConfig, NetlistDigest};
use vital::netlist::hls::{synthesize, AppSpec, Operator};
use vital::runtime::{RuntimeConfig, SystemController};
use vital::workloads::{benchmarks, Size};

/// A design spanning >= 4 virtual blocks so step 4 has real fan-out.
fn multi_block_spec(name: &str) -> AppSpec {
    let mut spec = AppSpec::new(name);
    let buf = spec.add_operator("w", Operator::Buffer { kb: 720, banks: 4 });
    let mac = spec.add_operator("mac", Operator::MacArray { pes: 64 });
    spec.add_edge(buf, mac, 256).unwrap();
    let mut prev = mac;
    for i in 0..56 {
        let p = spec.add_operator(format!("p{i}"), Operator::Pipeline { slices: 200 });
        spec.add_edge(prev, p, 64).unwrap();
        prev = p;
    }
    spec.add_input("ifm", mac, 128).unwrap();
    spec.add_output("ofm", prev, 128).unwrap();
    spec
}

fn compiler_with_workers(workers: usize) -> Compiler {
    Compiler::new(CompilerConfig {
        workers,
        ..CompilerConfig::default()
    })
}

#[test]
fn parallel_pnr_is_bit_identical_to_serial() {
    let spec = multi_block_spec("det");
    let serial = compiler_with_workers(1).compile(&spec).unwrap();
    let parallel = compiler_with_workers(8).compile(&spec).unwrap();
    for workers in [2, 4] {
        let other = compiler_with_workers(workers).compile(&spec).unwrap();
        assert_eq!(serial.bitstream(), other.bitstream(), "{workers} workers");
    }
    assert!(
        serial.bitstream().block_count() >= 4,
        "design must fan out, got {} blocks",
        serial.bitstream().block_count()
    );
    // The whole artifact — placements, channel plan, routing, clock — is
    // compared, not just a summary.
    assert_eq!(serial.bitstream(), parallel.bitstream());
    assert_eq!(serial.bitstream().digest(), parallel.bitstream().digest());
    assert_eq!(serial.timings().workers, 1);
    assert!(parallel.timings().workers > 1, "8-worker run must fan out");
    // Per-block accounting covers every block under both paths.
    assert_eq!(
        serial.timings().per_block_pnr.len(),
        serial.bitstream().block_count()
    );
    assert_eq!(
        parallel.timings().per_block_pnr.len(),
        parallel.bitstream().block_count()
    );
}

/// The digest keys the persisted bitstream database, so its value must
/// not move across hash rewrites or releases: `lenet-S` under the default
/// configuration is pinned.
#[test]
fn lenet_s_digest_is_pinned() {
    let lenet = benchmarks()
        .into_iter()
        .find(|b| b.name() == "lenet")
        .unwrap();
    let netlist = synthesize(&lenet.spec(Size::Small)).unwrap();
    let digest = NetlistDigest::of(&netlist, &CompilerConfig::default());
    assert_eq!(digest.to_string(), "d49aa317e9b722fe");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn cache_hit_returns_the_cold_compile_image(pes in 4u32..24, slices in 1u32..40) {
        let build = |name: &str| {
            let mut s = AppSpec::new(name);
            let m = s.add_operator("m", Operator::MacArray { pes });
            let p = s.add_operator("p", Operator::Pipeline { slices: slices * 10 });
            s.add_edge(m, p, 64).unwrap();
            s
        };
        let compiler = Compiler::new(CompilerConfig::default());
        let controller = SystemController::new(RuntimeConfig::paper_cluster());
        let cold = controller.register_compiled(&compiler, &build("cold")).unwrap();
        prop_assert!(!cold.cache_hit);
        let warm = controller.register_compiled(&compiler, &build("warm")).unwrap();
        prop_assert!(warm.cache_hit);
        prop_assert_eq!(warm.digest, cold.digest);
        // The cached entry is the cold compile's image, not a recompile.
        let a = controller.bitstreams().get("cold").unwrap();
        let b = controller.bitstreams().get("warm").unwrap();
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.renamed("x"), b.renamed("x"));
    }
}
