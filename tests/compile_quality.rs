//! The compile-quality ledger: what the compiler produced for each suite
//! design, and how much annealing it took, as exact counts in
//! `tests/compile_quality.txt`, sorted, one row per design.
//!
//! `compile_pins` says that an image changed; a row here says whether the
//! change is better or worse. Each row holds the design's block count,
//! the bits per firing crossing block boundaries, the summed final and
//! compact-initial intra-block wirelength, the longest placed edge, the
//! lowest block clock and how many blocks sit below the 300 MHz cap, and
//! the local annealer's moves proposed and accepted (the
//! `compile.pnr.moves_*` counters). All of it is deterministic: debug and
//! release, and every worker count, print the same rows.
//!
//! The default test checks the six designs `compile_pins` pins. The
//! ignored one checks all 21 (`-- --include-ignored`, in release). After
//! an intended change, regenerate the rows with
//! `COMPILE_QUALITY=overwrite cargo test --release -p vital --test
//! compile_quality -- --include-ignored` and commit the diff.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vital::compiler::{Compiler, CompilerConfig};
use vital::fabric::DeviceModel;
use vital::telemetry::Telemetry;
use vital::workloads::{benchmarks, Size};

/// The designs `tests/compile_pins.rs` pins: one to twelve blocks.
const PINNED: [(&str, Size); 6] = [
    ("lstm", Size::Small),
    ("svhn", Size::Small),
    ("lenet", Size::Medium),
    ("alexnet", Size::Small),
    ("cifar10", Size::Large),
    ("alexnet", Size::Large),
];

/// The analytic timing model's clock cap (`pnr::finalize_placement`).
const CAP_MHZ: f64 = 300.0;

fn ledger_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/compile_quality.txt")
}

/// Compiles `name` at `size` on the paper's device and renders its row,
/// keyed by the design's name.
fn row(name: &str, size: Size) -> (String, String) {
    let spec = benchmarks()
        .into_iter()
        .find(|b| b.name() == name)
        .expect("design is in the suite")
        .spec(size);
    let telemetry = Telemetry::recording();
    let compiled = Compiler::for_device(&DeviceModel::xcvu37p(), 60, CompilerConfig::default())
        .with_telemetry(telemetry.clone())
        .compile(&spec)
        .expect("suite design compiles");
    let counters = telemetry.metrics().counters;
    let images = compiled.bitstream().images();
    let placements = || images.iter().map(|i| &i.placement);
    let key = spec.name().to_string();
    let line = format!(
        "{key} blocks={} cut_bits={} wl={:.0} wl0={:.0} max_edge={:.0} min_mhz={:.3} \
         below_cap={} proposed={} accepted={}",
        images.len(),
        compiled.cut_bits(),
        placements().map(|p| p.wirelength).sum::<f64>(),
        placements().map(|p| p.initial_wirelength).sum::<f64>(),
        placements().map(|p| p.max_edge).fold(0.0, f64::max),
        compiled.bitstream().achieved_mhz(),
        placements().filter(|p| p.achieved_mhz < CAP_MHZ).count(),
        counters["compile.pnr.moves_proposed"],
        counters["compile.pnr.moves_accepted"],
    );
    (key, line)
}

fn committed() -> BTreeMap<String, String> {
    std::fs::read_to_string(ledger_path())
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| (l.split_once(' ').map_or(l, |(key, _)| key).into(), l.into()))
        .collect()
}

/// Compares the rows of `designs` with the committed ledger, or writes
/// them into it under `COMPILE_QUALITY=overwrite`.
fn check(designs: &[(&str, Size)]) {
    let actual: Vec<(String, String)> = designs.iter().map(|&(n, s)| row(n, s)).collect();
    let mut ledger = committed();
    if std::env::var("COMPILE_QUALITY").as_deref() == Ok("overwrite") {
        ledger.extend(actual);
        let text: String = ledger.values().map(|l| format!("{l}\n")).collect();
        std::fs::write(ledger_path(), text).expect("writable ledger");
        return;
    }
    let diff: Vec<String> = actual
        .iter()
        .filter(|(key, line)| ledger.get(key) != Some(line))
        .map(|(key, line)| {
            let old = ledger.get(key).map_or("(no row)", String::as_str);
            format!("- {old}\n+ {line}")
        })
        .collect();
    assert!(
        diff.is_empty(),
        "compile quality changed (- committed, + now):\n{}\n\
         if intended, regenerate with `COMPILE_QUALITY=overwrite cargo test --release \
         -p vital --test compile_quality -- --include-ignored`",
        diff.join("\n")
    );
}

#[test]
fn pinned_designs_match_the_ledger() {
    check(&PINNED);
}

#[test]
#[ignore = "compiles all 21 suite designs; CI runs it in release"]
fn every_design_matches_the_ledger() {
    let suite = benchmarks();
    let all: Vec<(&str, Size)> = suite
        .iter()
        .flat_map(|b| Size::ALL.map(|s| (b.name(), s)))
        .collect();
    check(&all);
}
