//! `vital-e2e`: one benchmark through wire → shard → controller → farm →
//! simulators, with a per-layer budget measured from outside.
//!
//! ```text
//! vital-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! vital-e2e all [--seed n] [--runs k] [--seconds s | --smoke] [--out n]
//! vital-e2e compare [a.json b.json] [--seed n] [--runs k] [--seconds s | --smoke]
//! vital-e2e manifest
//! ```
//!
//! The first form is the contract `BENCHMARK.json` records: one workload
//! in this process, a table of every metric with its unit, and as the
//! last line of standard output one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` next to this
//! package for what each metric is for.

mod client;
mod cold_farm;
mod compare;
mod gen;
mod lane;
mod names;
mod run;
mod schedule;
mod service;
mod sims;
mod spans;
mod stack;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Where results, span files and scratch directories go: `out/` next to
/// the package's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The value after `--flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn usage() -> String {
    format!(
        "usage: vital-e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         vital-e2e all|compare [a.json b.json] [--seed n] [--runs k] [--seconds s] [--smoke]\n       \
         vital-e2e manifest",
        names::WORKLOADS
            .iter()
            .map(|w| w.0)
            .collect::<Vec<_>>()
            .join("|")
    )
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = flag(&args, "--seed")?.unwrap_or(1);
    let seconds: f64 = match args.iter().any(|a| a == "--smoke") {
        true => 1.0,
        false => flag(&args, "--seconds")?.unwrap_or(names::RUN_SECONDS as f64),
    };
    let runs: u64 = flag(&args, "--runs")?.unwrap_or(3);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", names::manifest());
            Ok(true)
        }
        Some("all") => {
            let n: u32 = flag(&args, "--out")?.unwrap_or(1);
            compare::run_all(seed, seconds, runs, n).map(|set| set.correct())
        }
        Some("compare") => {
            let files: Vec<&String> = args[1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .collect();
            compare::compare(&files, seed, seconds, runs)
        }
        _ => {
            let workload: String = flag(&args, "--workload")?.ok_or_else(usage)?;
            let trace: u8 = flag(&args, "--trace")?.unwrap_or(0);
            let outcome = run::workload(&workload, seed, seconds, trace == 1)?;
            outcome.print(trace == 1);
            Ok(outcome.correct)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // A failed check: the tables and the result line are already out.
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}
