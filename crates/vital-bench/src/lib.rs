//! Shared harness code for the table/figure report binaries.
//!
//! Every table and figure of the paper's evaluation (§5) has a dedicated
//! report binary in `src/bin/` that regenerates it on the reproduction's
//! simulated platform:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig1_motivation` | Fig. 1a (app usage vs device capacity) + Fig. 1b (capacity growth) |
//! | `table1_capabilities` | Table 1 (qualitative capability matrix) |
//! | `table2_benchmarks` | Table 2 (benchmark resource usage + block counts) |
//! | `table4_baremetal` | Table 4 (block resources; link bandwidth/latency) |
//! | `fig7_partition_dse` | Fig. 7 + §5.3 (partition DSE, reserved resources, buffer elimination) |
//! | `fig8_compile_breakdown` | Fig. 8 + §5.4 (compile-time breakdown, partition quality, AmorphOS combinations) |
//! | `fig9_response_time` | Fig. 9 (normalized response time, 10 workload sets × 4 systems) |
//! | `fig9_failures` | Fig. 9 companion (goodput + terminal failures under injected faults) |
//! | `fig10_sharing_metrics` | Fig. 10 + §5.5 (relocation map, utilization, concurrency, spanning, overhead) |
//! | `fig_oversubscription` | DESIGN.md §11 (preemptive time slicing vs non-preemptive on saturating workloads) |
//! | `fig_isa_elastic` | DESIGN.md §16 (instruction-level tile pool vs spatial ViTAL on bursty multi-tenant DNN traffic) |
//! | `fig_scale` | DESIGN.md §15 (pod-sharded cluster simulation from 4 to 1024 FPGAs) |
//! | `fig_migration` | DESIGN.md §17 (same-geometry vs portable migration downtime) |
//!
//! Run one with `cargo run -p vital-bench --bin <name> --release`. Stdout
//! is the deterministic report and anything wall-clock goes to stderr, so
//! `tests/reports.rs` compares every binary except
//! `fig8_compile_breakdown` byte for byte with `reports/<name>.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

use std::path::{Path, PathBuf};

use vital::cluster::AppRequest;
use vital::workloads::{generate_workload_set, SizingModel, WorkloadComposition, WorkloadParams};

/// Linear-interpolated quantile of `samples` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The repo-level `reports/` directory the report binaries archive into.
pub fn reports_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports")
}

/// Renders a simple ASCII bar (for figure-like console output).
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round().max(0.0) as usize
    };
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled.min(width) { '#' } else { ' ' });
    }
    s
}

/// The workload parameters used by the Fig. 9 / Fig. 10 experiments: a
/// loaded cluster, several seeds averaged per condition (the paper also
/// averages multiple generated sets per condition, §5.1).
pub(crate) fn fig9_params(seed: u64) -> WorkloadParams {
    WorkloadParams {
        requests: 60,
        mean_interarrival_s: 0.3,
        mean_service_s: 2.0,
        seed,
    }
}

/// Generates the workload for one Table 3 set index and seed.
pub fn fig9_workload(set_index: usize, seed: u64) -> Vec<AppRequest> {
    let comps = WorkloadComposition::table3();
    generate_workload_set(
        &comps[set_index - 1],
        &fig9_params(seed),
        &SizingModel::default(),
    )
}

/// Seeds averaged per condition in the report binaries.
pub const FIG9_SEEDS: [u64; 3] = [101, 202, 303];

/// A *saturating* workload for the §5.5 utilization/concurrency metrics:
/// arrivals outpace the cluster so demand is always queued.
pub fn fig10_workload(set_index: usize, seed: u64) -> Vec<AppRequest> {
    let comps = WorkloadComposition::table3();
    generate_workload_set(
        &comps[set_index - 1],
        &WorkloadParams {
            requests: 60,
            mean_interarrival_s: 0.12,
            mean_service_s: 2.0,
            seed,
        },
        &SizingModel::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_is_clamped() {
        assert_eq!(bar(2.0, 1.0, 4), "####");
        assert_eq!(bar(0.0, 1.0, 4), "    ");
        assert_eq!(bar(0.5, 1.0, 4), "##  ");
        assert_eq!(bar(1.0, 0.0, 4), "    ");
    }

    #[test]
    fn workload_helper_generates() {
        let w = fig9_workload(1, 101);
        assert_eq!(w.len(), fig9_params(101).requests);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
