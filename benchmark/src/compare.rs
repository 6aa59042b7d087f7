//! The repeatability harness: run the whole benchmark as a *set* (every
//! workload `--runs` times with tracing off, each run in its own child
//! process and on its own seed, plus one traced run), write the set to
//! `out/result-<n>.json`, and compare two sets metric by metric.
//!
//! Two sets of the same code must agree: for every end-to-end metric on
//! every workload the second median may not differ from the first by more
//! than the metric's bound. Where the quartile spread of either set is
//! wider than the bound the verdict is *unresolved*, not *agree* — the
//! measurement cannot tell. Simulated results and counts that must repeat
//! exactly are compared exactly.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use serde::{Deserialize, Serialize};

use crate::names::{END_TO_END, WORKLOADS};
use crate::stack;
use crate::stats;

/// Per-layer values that are simulated results or exact counts: two sets
/// on the same seed must report them bit for bit.
const EXACT: &[&str] = &[
    "sim_response_s",
    "sim_utilization",
    "isa.sim.mean_response_s",
    "cluster.sim.report_digest",
    "cluster.ring.report_digest",
    "isa.sim.report_digest",
    "runtime.farm.compiles",
];

/// One metric as the result line carries it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The contract's result object: the last line a run prints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunLine {
    /// Every output check held.
    pub correct: bool,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Reading>,
}

/// One workload of a set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRuns {
    /// The runs with tracing off, one per seed.
    pub timed: Vec<RunLine>,
    /// The traced run (per-layer metrics), on the set's first seed.
    pub traced: RunLine,
}

/// A whole set, as written to `out/result-<n>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Seed of the first run; run `i` uses `seed + i`.
    pub seed: u64,
    /// Seconds each run measured.
    pub seconds: f64,
    /// Cores of the host.
    pub nproc: u64,
    /// The shipped `ServiceConfig` the service workloads ran behind.
    pub service: String,
    /// Runs by workload name.
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

impl ResultSet {
    /// Every run of the set passed its checks.
    pub fn correct(&self) -> bool {
        self.workloads
            .values()
            .all(|w| w.traced.correct && w.timed.iter().all(|r| r.correct))
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.workloads.get(workload).map_or(Vec::new(), |w| {
            w.timed
                .iter()
                .filter_map(|r| r.metrics.get(metric).map(|m| m.value))
                .collect()
        })
    }
}

/// Runs one workload in a child process, echoing its table, and parses the
/// result line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<RunLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{workload} printed no result"))?;
    println!("{table}");
    serde_json::from_str(line).map_err(|e| format!("{workload}: bad result line: {e}"))
}

/// Runs the whole benchmark once as a set of `runs` seeds and writes it
/// to `out/result-<n>.json`.
pub fn run_all(seed: u64, seconds: f64, runs: u64, n: u32) -> Result<ResultSet, String> {
    let mut set = ResultSet {
        seed,
        seconds,
        nproc: stack::nproc() as u64,
        service: stack::service_config_line(),
        workloads: BTreeMap::new(),
    };
    for (workload, _) in WORKLOADS {
        let timed = (0..runs.max(1))
            .map(|i| child(workload, seed + i, seconds, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = child(workload, seed, seconds, true)?;
        set.workloads
            .insert(workload.to_string(), WorkloadRuns { timed, traced });
    }
    let path = result_path(n);
    let json = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(crate::out_dir())
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("result set -> {}", path.display());
    Ok(set)
}

fn result_path(n: u32) -> PathBuf {
    crate::out_dir().join(format!("result-{n}.json"))
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// How two sets relate on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The medians are within the bound of each other.
    Agree,
    /// A set's own quartile spread is wider than the bound.
    Unresolved,
    /// The medians differ by more than the bound.
    Differ,
}

/// Compares the values two sets hold for one metric under `bound`. With
/// `judge_spread` off only the medians are compared (set-up time: its
/// spread within a set is reported, not judged).
pub fn verdict(a: &[f64], b: &[f64], bound: f64, judge_spread: bool) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let apart = (mb - ma).abs() / ma.abs().max(f64::MIN_POSITIVE);
    if judge_spread && stats::spread(a).max(stats::spread(b)) > bound {
        Verdict::Unresolved
    } else if apart > bound {
        Verdict::Differ
    } else {
        Verdict::Agree
    }
}

/// Prints the comparison table; `true` if every metric agrees, exact ones
/// exactly.
pub fn print_comparison(a: &ResultSet, b: &ResultSet) -> bool {
    let mut all_agree = true;
    println!(
        "\n{:<16} {:<12} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound"
    );
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let (va, vb) = (a.values(workload, def.name), b.values(workload, def.name));
            let v = verdict(&va, &vb, def.bound, def.name != "setup_s");
            all_agree &= v == Verdict::Agree;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{workload:<16} {:<12} {ma:>12.4} {:>7.2}% {mb:>12.4} {:>7.2}% {:>+7.2}% {:>5.0}%  {}",
                def.name,
                stats::spread(&va) * 100.0,
                stats::spread(&vb) * 100.0,
                (mb / ma.abs().max(f64::MIN_POSITIVE) - 1.0) * 100.0,
                def.bound * 100.0,
                match v {
                    Verdict::Agree => "agree",
                    Verdict::Unresolved => "UNRESOLVED (spread wider than the bound)",
                    Verdict::Differ => "DIFFER",
                }
            );
        }
        let exact = |set: &ResultSet, name: &str| {
            set.workloads
                .get(*workload)
                .and_then(|w| w.traced.metrics.get(name))
                .map(|m| m.value)
        };
        for name in EXACT {
            let (xa, xb) = (exact(a, name), exact(b, name));
            if a.seed == b.seed && xa != xb {
                all_agree = false;
                println!("{workload:<16} {name}: {xa:?} vs {xb:?}  DIFFER (must repeat exactly)");
            }
        }
    }
    if a.seed != b.seed {
        println!("the sets use different seeds: simulated results were not compared");
    }
    all_agree
}

/// `compare`: two result files, or two fresh sets of the same code.
pub fn compare(files: &[&String], seed: u64, seconds: f64, runs: u64) -> Result<bool, String> {
    let (a, b) = match files {
        [a, b] => (load(a)?, load(b)?),
        [] => (
            run_all(seed, seconds, runs, 1)?,
            run_all(seed, seconds, runs, 2)?,
        ),
        _ => return Err("compare takes two result files, or none".to_string()),
    };
    let agree = print_comparison(&a, &b);
    println!(
        "{}",
        if agree {
            "the two sets agree on every metric"
        } else {
            "the two sets do NOT agree on every metric"
        }
    );
    Ok(agree && a.correct() && b.correct())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted: Vec<f64> = steady.iter().map(|v| v * 1.04).collect();
        let far: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(verdict(&steady, &shifted, 0.10, true), Verdict::Agree);
        assert_eq!(verdict(&steady, &far, 0.10, true), Verdict::Differ);
        // A spread wider than the bound cannot say "unchanged".
        assert_eq!(verdict(&steady, &noisy, 0.10, true), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &noisy, 0.10, true), Verdict::Unresolved);
        // Set-up time: medians only.
        assert_eq!(verdict(&noisy, &noisy, 0.10, false), Verdict::Agree);
        assert_eq!(verdict(&noisy, &far, 0.10, false), Verdict::Differ);
    }

    #[test]
    fn a_result_line_round_trips() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 3.25, "unit": "s"}, "ops_per_s": {"value": 1572, "unit": "1/s"}}}"#;
        let parsed: RunLine = serde_json::from_str(line).unwrap();
        assert!(parsed.correct);
        assert_eq!(parsed.metrics["ops_per_s"].value, 1572.0);
        let again: RunLine =
            serde_json::from_str(&serde_json::to_string(&parsed).unwrap()).unwrap();
        assert_eq!(again, parsed);
    }
}
