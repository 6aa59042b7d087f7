//! The public surface changes only on purpose: every `pub` declaration
//! under `crates/*/src` (each file up to its first `#[cfg(test)]`) is
//! listed in `tests/public_surface.txt`, sorted, one line per declaration:
//! `<crate>/<file>: <declaration head>`. A head is the declaration up to
//! its body, its `=`, or the `;` or `,` that ends it, on one line.
//!
//! A change to the surface fails here with the added and removed lines.
//! When it is intended, regenerate the list with
//! `PUBLIC_SURFACE=overwrite cargo test -p vital --test public_surface`
//! and commit the diff.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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

/// The head of the declaration `text` starts with: up to the first `{`,
/// `;`, `=` or `,` outside brackets (the braces of a `pub use` list count
/// as brackets), whitespace collapsed.
fn head(text: &str) -> String {
    let is_use = text.starts_with("pub use ");
    let mut depth = 0;
    let mut prev = ' ';
    let mut end = text.len();
    for (i, c) in text.char_indices() {
        match c {
            '(' | '[' | '<' => depth += 1,
            '{' if is_use => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            // `->` and `=>` are arrows, not closing brackets.
            '>' if prev != '-' && prev != '=' => depth -= 1,
            '{' | ';' | '=' | ',' if depth == 0 => {
                end = i;
                break;
            }
            _ => {}
        }
        prev = c;
    }
    let mut head = text[..end].split_whitespace().collect::<Vec<_>>().join(" ");
    // What joining a rustfmt-wrapped list leaves behind.
    for (from, to) in [
        ("( ", "("),
        ("{ ", "{"),
        (", )", ")"),
        (", }", "}"),
        (" )", ")"),
        (" }", "}"),
    ] {
        head = head.replace(from, to);
    }
    head
}

/// Every `pub` declaration of the workspace's crates, sorted.
fn surface() -> Vec<String> {
    let mut lines = Vec::new();
    for krate in std::fs::read_dir(repo_root().join("crates")).expect("crates/") {
        let krate = krate.expect("directory entry").path();
        let name = krate.file_name().unwrap().to_string_lossy().into_owned();
        let src = krate.join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable source file");
            let rel = file
                .strip_prefix(&src)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/");
            let mut offset = 0;
            for line in text.split_inclusive('\n') {
                let trimmed = line.trim_start();
                if trimmed.starts_with("#[cfg(test)]") {
                    break;
                }
                if trimmed.starts_with("pub ") {
                    let start = offset + (line.len() - trimmed.len());
                    lines.push(format!("{name}/{rel}: {}", head(&text[start..])));
                }
                offset += line.len();
            }
        }
    }
    lines.sort();
    lines
}

#[test]
fn public_surface_matches_the_committed_list() {
    let path = repo_root().join("tests/public_surface.txt");
    let actual = surface();
    assert!(actual.len() > 500, "the scan found only {}", actual.len());
    if std::env::var("PUBLIC_SURFACE").as_deref() == Ok("overwrite") {
        std::fs::write(&path, actual.join("\n") + "\n").expect("writable surface list");
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("tests/public_surface.txt");
    let mut balance: BTreeMap<&str, i64> = BTreeMap::new();
    for line in &actual {
        *balance.entry(line).or_default() += 1;
    }
    for line in committed.lines().filter(|l| !l.is_empty()) {
        *balance.entry(line).or_default() -= 1;
    }
    let diff: Vec<String> = balance
        .iter()
        .filter(|(_, &n)| n != 0)
        .map(|(line, &n)| format!("{} {line}", if n > 0 { '+' } else { '-' }))
        .collect();
    assert!(
        diff.is_empty(),
        "the public surface changed (+ added, - removed):\n{}\n\
         if intended, regenerate with \
         `PUBLIC_SURFACE=overwrite cargo test -p vital --test public_surface`",
        diff.join("\n")
    );
}
