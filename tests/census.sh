#!/usr/bin/env bash
# Linker-symbol census: every non-generic function that a workspace
# library defines and that no shipped binary links.
#
#   tests/census.sh                       # print the census
#   tests/census.sh | diff tests/unreached.txt -
#
# The shipped binaries are every `src/bin/*.rs` of the workspace (vitald,
# vitalctl, the report binaries) and the benchmark's `vital-e2e`. They are
# built in debug, which does not inline, with v0 symbol mangling, which
# spells out generic arguments; executables are linked with
# `--gc-sections`, so a function that only tests or examples call is in its
# crate's rlib and in no binary. Printed: the inherent methods and free
# functions of the twelve `vital*` crates (trait impls, closures and
# generic instantiations are left out), one per line, sorted.
#
# Generic and `#[inline]` functions are codegened in their callers and
# have no symbol in their own rlib, so the census cannot see them when
# they are unreached; list those from rustdoc JSON instead:
#   cargo +nightly rustdoc -p <crate> -- -Z unstable-options --output-format json
#
# Builds under target/census; benchmark/Cargo.lock is put back as it was.
#
# Which symbols a debug build emits, and how `nm` demangles them, depend on
# the toolchain: a diff against tests/unreached.txt with no code change
# means rustc or binutils changed. The versions go to stderr so that a
# failing run names them.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export CARGO_TARGET_DIR="$root/target/census"
export RUSTFLAGS="-C symbol-mangling-version=v0"
mkdir -p "$CARGO_TARGET_DIR"
{ rustc -V; nm --version | sed -n 1p; } >&2

lock="$CARGO_TARGET_DIR/benchmark-Cargo.lock"
cp benchmark/Cargo.lock "$lock"
trap 'cp "$lock" benchmark/Cargo.lock' EXIT

messages="$CARGO_TARGET_DIR/census-build.json"
cargo build --offline --quiet --workspace --bins --message-format=json >"$messages"
cargo build --offline --quiet --manifest-path benchmark/Cargo.toml \
    --message-format=json >>"$messages"

# "executable":"<path>" for binaries, "filenames":[..."<path>.rlib"...] for
# libraries; a library built for both packages shows up twice.
mapfile -t bins < <(grep -o '"executable":"[^"]*"' "$messages" |
    sed 's/^"executable":"//; s/"$//' | sort -u)
mapfile -t rlibs < <(grep -o '"[^"]*/libvital_[a-z_]*-[0-9a-f]*\.rlib"' "$messages" |
    tr -d '"' | sort -u)

expected=$(( $(ls crates/*/src/bin/*.rs | wc -l) + 1 ))
if [ "${#bins[@]}" -ne "$expected" ]; then
    echo "census: expected $expected shipped binaries, cargo built ${#bins[@]}" >&2
    exit 1
fi

# Defined text symbols, demangled, of the twelve crates' own functions:
# `vital_x::f` (free function) or `<vital_x::T>::f` (inherent method).
functions() {
    nm -C --defined-only "$@" 2>/dev/null |
        awk '$2 == "T" || $2 == "t" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
        grep -E '^(vital[a-z_]*::|<vital[a-z_]*::[^ <>]*>::)' |
        grep -v -e '{closure' -e '{shim' -e '::<' |
        sort -u
}

comm -23 <(functions "${rlibs[@]}") <(functions "${bins[@]}")
