//! No hash-ordered container in a simulator or in the block table.
//!
//! `ClusterSim` diverged between two runs of one process twice, both
//! times because a handler walked a `HashMap` (DESIGN.md §15.3). A
//! simulator's tables are indexed by position or ordered by id instead —
//! `Vec`, `BTreeMap` — so there is no iteration order to get wrong, and
//! this scan keeps it that way: the simulators do not name the hash
//! containers at all, comments included (what a reader greps for is what
//! the rule says). The controller places through the same block table
//! and policies (DESIGN.md §15.2), so its block table and placement code
//! are held to the same rule.

use std::path::{Path, PathBuf};

/// The cluster simulator's crate, whole.
const SIMULATOR_CRATE: &str = "vital-cluster";
/// The ISA simulator (`vital_runtime::isa`), under `crates/`.
const ISA_FILES: [&str; 5] = [
    "vital-runtime/src/isa.rs",
    "vital-runtime/src/pool.rs",
    "vital-runtime/src/program.rs",
    "vital-runtime/src/sched.rs",
    "vital-runtime/src/template.rs",
];
/// The runtime's block table and placement, under `crates/`.
const BLOCK_TABLE_FILES: [&str; 2] = [
    "vital-runtime/src/resource_db.rs",
    "vital-runtime/src/controller/placement.rs",
];
const HASH_CONTAINERS: [&str; 2] = ["HashMap", "HashSet"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn simulator_crates_hold_no_hash_ordered_container() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    rust_files(&crates.join(SIMULATOR_CRATE).join("src"), &mut files);
    assert!(files.len() >= 10, "the scan found only {files:?}");
    files.extend(ISA_FILES.iter().map(|f| crates.join(f)));
    files.extend(BLOCK_TABLE_FILES.iter().map(|f| crates.join(f)));
    // The ISA scheduler and its tile pool hold the simulator's state.
    for needed in ["vital-runtime/src/sched.rs", "vital-runtime/src/pool.rs"] {
        assert!(
            files.iter().any(|f| f.ends_with(needed)),
            "the scan misses {needed}"
        );
    }

    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source file");
        for (i, line) in text.lines().enumerate() {
            if HASH_CONTAINERS.iter().any(|name| line.contains(name)) {
                hits.push(format!("{}:{}: {}", file.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "hash-ordered containers in a simulator or the block table (use Vec or BTreeMap):\n{}",
        hits.join("\n")
    );
}
