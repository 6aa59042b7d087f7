//! Telemetry names cannot drift from the docs: every span, event, counter
//! and histogram name the source emits is listed in DESIGN.md §10.2,
//! and every name §10.2 lists is emitted somewhere.
//!
//! "Emitted" is read off the source text of `crates/*/src` (the report
//! binaries of `vital-bench` excepted, and of `vital-telemetry` only what
//! precedes each file's first `#[cfg(test)]`, since its unit tests emit
//! throwaway names):
//!
//! * the first string literal among the arguments of each telemetry call
//!   (`span(`, `child(`, `inc_counter(`, `record_hist(`, `event_at(`, …),
//!   whatever it looks like;
//! * any other string literal shaped like a dotted name in a namespace
//!   §10.2 already uses (`runtime.…`, `service.…`, …) — which is how a
//!   name that reaches its call through a `match` or a lookup function is
//!   still seen.
//!
//! §10.2 lists names in backticks; `service.latency_us.<endpoint>` stands
//! for every name with that prefix.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const CALLS: [&str; 8] = [
    ".span(",
    ".span_on_track(",
    ".child(",
    ".child_on_track(",
    ".inc_counter(",
    ".record_hist(",
    ".event(",
    ".event_at(",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

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

/// `a.b_c.d`: lowercase dotted identifiers, at least two components.
fn is_dotted_name(s: &str) -> bool {
    let mut parts = s.split('.');
    let ok = |p: &str| {
        !p.is_empty()
            && p.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    parts.clone().count() >= 2 && parts.all(ok)
}

/// Every plain string literal of `text`, with the byte offset of its
/// opening quote. Good enough for this workspace's sources: it knows
/// escapes, line comments and char literals holding a quote, nothing more.
fn string_literals(text: &str) -> Vec<(usize, &str)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' if bytes.get(i + 1) == Some(&b'"') && bytes.get(i + 2) == Some(&b'\'') => i += 3,
            b'"' => {
                let start = i + 1;
                i = start;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                out.push((start - 1, &text[start..i]));
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// The names the source emits (see the module docs for the two rules).
fn emitted_names(namespaces: &BTreeSet<String>) -> BTreeSet<String> {
    let mut files = Vec::new();
    let mut telemetry_files = Vec::new();
    for krate in std::fs::read_dir(repo_root().join("crates")).expect("crates/") {
        let krate = krate.expect("directory entry").path();
        match krate.file_name().unwrap().to_string_lossy().as_ref() {
            "vital-bench" => {}
            "vital-telemetry" => rust_files(&krate.join("src"), &mut telemetry_files),
            _ => rust_files(&krate.join("src"), &mut files),
        }
    }
    let mut names = BTreeSet::new();
    let telemetry = telemetry_files.into_iter().map(|f| (f, true));
    for (file, cut_tests) in files.into_iter().map(|f| (f, false)).chain(telemetry) {
        let mut text = std::fs::read_to_string(&file).expect("readable source file");
        if cut_tests {
            text.truncate(text.find("#[cfg(test)]").unwrap_or(text.len()));
        }
        let literals = string_literals(&text);
        for call in CALLS {
            for (at, _) in text.match_indices(call) {
                // The call's arguments end at its matching parenthesis.
                let args_start = at + call.len();
                let mut depth = 1;
                let mut end = args_start;
                for (offset, byte) in text[args_start..].bytes().enumerate() {
                    match byte {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 {
                        end = args_start + offset;
                        break;
                    }
                }
                let first = literals
                    .iter()
                    .find(|(pos, _)| (args_start..end).contains(pos));
                if let Some((_, name)) = first {
                    names.insert(name.to_string());
                }
            }
        }
        for (_, literal) in literals {
            let namespace = literal.split('.').next().unwrap_or_default();
            if is_dotted_name(literal) && namespaces.contains(namespace) {
                names.insert(literal.to_string());
            }
        }
    }
    names
}

/// The backticked names of DESIGN.md §10.2: `(exact names, prefixes)`.
fn documented_names() -> (BTreeSet<String>, Vec<String>) {
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    let start = design.find("### 10.2").expect("§10.2 exists");
    let section = &design[start..];
    let section = &section[..section.find("### 10.3").expect("§10.3 follows §10.2")];
    let ticked: Vec<&str> = section.split('`').skip(1).step_by(2).collect();
    let mut exact = BTreeSet::new();
    let mut prefixes = Vec::new();
    for token in &ticked {
        if let Some(prefix) = token.strip_suffix("<endpoint>") {
            prefixes.push(prefix.to_string());
        } else if is_dotted_name(token) {
            exact.insert(token.to_string());
        }
    }
    // A root span is named after its namespace alone (`compile`).
    let roots: BTreeSet<String> = exact
        .iter()
        .map(|n| n.split('.').next().unwrap().to_string())
        .collect();
    exact.extend(
        ticked
            .iter()
            .filter(|t| roots.contains(**t))
            .map(|t| t.to_string()),
    );
    (exact, prefixes)
}

#[test]
fn emitted_telemetry_names_match_design_md() {
    let (documented, prefixes) = documented_names();
    let namespaces: BTreeSet<String> = documented
        .iter()
        .chain(&prefixes)
        .map(|n| n.split('.').next().unwrap().to_string())
        .collect();
    let emitted = emitted_names(&namespaces);
    assert!(emitted.len() > 50, "the scan found only {emitted:?}");

    let by_prefix = |name: &String| prefixes.iter().any(|p| name.starts_with(p));
    let undocumented: Vec<_> = emitted
        .iter()
        .filter(|n| !documented.contains(*n) && !by_prefix(n))
        .collect();
    assert!(
        undocumented.is_empty(),
        "emitted but missing from DESIGN.md §10.2: {undocumented:?}"
    );
    let stale: Vec<_> = documented.difference(&emitted).collect();
    assert!(
        stale.is_empty(),
        "listed in DESIGN.md §10.2 but emitted nowhere: {stale:?}"
    );
    for prefix in &prefixes {
        assert!(
            emitted.iter().any(|n| n.starts_with(prefix)),
            "no emitted name starts with the documented prefix {prefix}"
        );
    }
}
