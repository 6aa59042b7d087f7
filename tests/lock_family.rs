//! One lock family: library code locks through `parking_lot` only.
//!
//! The workspace's `parking_lot` (the hermetic shim in `compat/`, or the
//! upstream crate) does not poison: a panic while a lock is held does not
//! turn every later acquisition into a second panic. `std::sync`'s
//! `Mutex`, `RwLock` and `Condvar` do, and a second family would also be
//! one more lock type for the lock order (DESIGN.md §19) to cover. This
//! scan fails if non-test code under `crates/*/src` names one of them;
//! `Arc`, the atomics, `Barrier`, `mpsc` and `OnceLock` are fine.
//!
//! "Non-test" is the text of a file before its first `#[cfg(test)]` — the
//! workspace keeps test-only impls and test modules at the end of a file.

use std::path::{Path, PathBuf};

const STD_LOCKS: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

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

/// The items a `sync::` path in `code` names that are `std` locks (or
/// their guards): `sync::Mutex`, and every member of a
/// `sync::{Arc, Condvar}` group, nested groups and globs included.
fn std_lock_names(code: &str) -> Vec<String> {
    let mut hits = Vec::new();
    for (at, _) in code.match_indices("sync::") {
        let rest = &code[at + "sync::".len()..];
        let names: Vec<&str> = match rest.strip_prefix('{') {
            Some(group) => {
                let mut depth = 1;
                let end = group
                    .find(|c| {
                        match c {
                            '{' => depth += 1,
                            '}' => depth -= 1,
                            _ => {}
                        }
                        depth == 0
                    })
                    .unwrap_or(group.len());
                group[..end].split([',', '{', '}']).map(str::trim).collect()
            }
            None => vec![rest],
        };
        for name in names {
            let ident = name
                .split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '*'))
                .next()
                .unwrap_or_default();
            if ident == "*" || STD_LOCKS.iter().any(|lock| ident.starts_with(lock)) {
                hits.push(ident.to_string());
            }
        }
    }
    hits
}

#[test]
fn the_scan_sees_every_spelling() {
    for flagged in [
        "use std::sync::Mutex;",
        "use std::sync::{Arc, Condvar};",
        "use std::{collections::BTreeMap, sync::{atomic::AtomicU64, RwLock}};",
        "let m: std::sync::MutexGuard<'_, u8>;",
        "use std::sync::*;",
        "use std::sync;\nstatic L: sync::RwLock<u8> = sync::RwLock::new(0);",
    ] {
        assert!(!std_lock_names(flagged).is_empty(), "missed: {flagged}");
    }
    for allowed in [
        "use std::sync::Arc;",
        "use std::sync::atomic::{AtomicBool, Ordering};",
        "use std::sync::{mpsc, Barrier, OnceLock};",
        "use parking_lot::{Condvar, Mutex, RwLock};",
    ] {
        assert_eq!(std_lock_names(allowed), Vec::<String>::new(), "{allowed}");
    }
}

#[test]
fn library_code_takes_no_std_sync_lock() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() >= 100, "the scan found only {files:?}");
    for needed in ["vital-runtime/src/farm.rs", "vital-service/src/queue.rs"] {
        assert!(
            files.iter().any(|f| f.ends_with(needed)),
            "the scan misses {needed}"
        );
    }

    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source file");
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for name in std_lock_names(code) {
            hits.push(format!("{}: std::sync::{name}", file.display()));
        }
    }
    assert!(
        hits.is_empty(),
        "std::sync locks in library code (use parking_lot's):\n{}",
        hits.join("\n")
    );
}
