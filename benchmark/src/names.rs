//! Every workload and metric the benchmark prints, declared once.
//!
//! `BENCHMARK.json` at the root of the repository is generated from these
//! tables (`vital-e2e manifest`) and a unit test holds the two together,
//! so a name printed is a name declared.

/// The command that builds and runs the benchmark from the root of a
/// checkout; the driver appends `--workload … --seed … --seconds …
/// --trace …`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

/// The workloads: name and why it exists. Later issues cite the names.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "tenant_closed",
        "closed loop, one request in flight per connection: what one tenant's vitalctl waits for per call; the wire, reactor and slot hand-off are nearly all of it",
    ),
    (
        "burst_open",
        "open loop at 5000 req/s from bursty independent tenants, 80 % Status: queueing, batching and the status cache only show when senders do not wait",
    ),
    (
        "churn_saturate",
        "closed loop, window 16, 90 % lifecycle writes on both backends: peak sustained write throughput, where codec, shard sweep and controller locks dominate",
    ),
    (
        "cold_farm",
        "empty persisted farm filled over TCP then restarted: local P&R, single-flight, whole-DB saves and DB reload do the work, the service layer is noise",
    ),
    (
        "cluster_sim",
        "fixed work through ClusterSim on 1024 FPGAs, the 4-FPGA ring, IsaSim and NetworkSim: host time may move, simulated results may not",
    ),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated metric: every workload reports every one of these.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics. What each means on each workload is tabulated
/// in the README; in short: `ops_per_s` is replies per second on the
/// service workloads, designs compiled cold per second on `cold_farm`,
/// simulated requests per host second on `cluster_sim`; `op_p50_ms` is the
/// median wait for one operation, cold Prepare+Deploy, or pass;
/// `op_p90_ms` is the p90 wait, or the slowest wait of a round or pass
/// where a run holds too few operations for a percentile. The bounds are
/// what the two-core host the benchmark was written on can resolve: its
/// speed drifts by several percent over minutes (README, "Repeatability").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// The per-layer metrics (layer = crate), printed by the traced pass.
/// The first eleven are end-to-end figures that cannot be gated — they
/// do not exist on every workload, are zero at the seed commit, or (the
/// p95 and p99) do not repeat within any bound on the host; they are
/// measured with tracing off.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("op_p95_ms", "ms", L),
    ("op_p99_ms", "ms", L),
    ("deploy_p50_ms", "ms", L),
    ("deploy_p99_ms", "ms", L),
    ("fail_frac", "ratio", L),
    ("late_frac", "ratio", L),
    ("cold_apps_per_s", "1/s", H),
    ("restart_s", "s", L),
    ("sim_host_s", "s", L),
    ("sim_response_s", "sim_s", L),
    ("sim_utilization", "ratio", H),
    ("service.tcp.call_us", "us", L),
    ("service.tcp.self_us", "us", L),
    ("service.inproc.call_us", "us", L),
    ("service.inproc.self_us", "us", L),
    ("service.submit_us", "us", L),
    ("service.codec.bin.encode_ns", "ns", L),
    ("service.codec.bin.decode_ns", "ns", L),
    ("service.codec.bin.bytes_per_frame", "B", L),
    ("service.codec.json.encode_ns", "ns", L),
    ("service.codec.json.decode_ns", "ns", L),
    ("service.codec.json.bytes_per_frame", "B", L),
    ("service.rejects.overloaded", "count", L),
    ("service.rejects.timeout", "count", L),
    ("service.rejects.draining", "count", L),
    ("service.queue_len_max", "count", L),
    ("runtime.execute.deploy_us", "us", L),
    ("runtime.execute.undeploy_us", "us", L),
    ("runtime.execute.status_us", "us", L),
    ("runtime.execute.checkpoint_us", "us", L),
    ("runtime.execute.restore_us", "us", L),
    ("runtime.execute.migrate_us", "us", L),
    ("runtime.execute.evacuate_us", "us", L),
    ("runtime.execute.recover_us", "us", L),
    ("runtime.execute.deploy_isa_us", "us", L),
    ("runtime.execute.scale_us", "us", L),
    ("runtime.execute.contended_deploy_us", "us", L),
    ("runtime.lock_wait_us", "us", L),
    ("runtime.policy.allocate_us", "us", L),
    ("runtime.status.bytes", "B", L),
    ("runtime.status.torn_snapshots", "count", L),
    ("runtime.claim_race_rejects", "count", L),
    ("runtime.prepare.hit_us", "us", L),
    ("runtime.prepare.miss_ms", "ms", L),
    ("runtime.farm.compiles", "count", L),
    ("runtime.farm.single_flight_waits", "count", H),
    ("runtime.farm.persist_saves", "count", L),
    ("runtime.farm.dedup_ratio", "ratio", H),
    ("runtime.bitstream_db.to_json_ms", "ms", L),
    ("runtime.bitstream_db.from_json_ms", "ms", L),
    ("runtime.bitstream_db.json_bytes", "B", L),
    ("runtime.bitstream_db.get_us", "us", L),
    ("compiler.synthesis_ms", "ms", L),
    ("compiler.partition_ms", "ms", L),
    ("compiler.interface_gen_ms", "ms", L),
    ("compiler.local_pnr_ms", "ms", L),
    ("compiler.relocation_ms", "ms", L),
    ("compiler.global_pnr_ms", "ms", L),
    ("compiler.blocks_per_s", "1/s", H),
    ("compiler.workers", "count", H),
    ("compiler.bind_us", "us", L),
    ("placer.run_ms", "ms", L),
    ("netlist.synthesize_ms", "ms", L),
    ("checkpoint.capsule_bytes", "B", L),
    ("checkpoint.portable.to_json_ms", "ms", L),
    ("checkpoint.portable.from_json_ms", "ms", L),
    ("cluster.sim.host_s", "s", L),
    ("cluster.sim.sched_self_s", "s", L),
    ("cluster.sim.sched_calls", "count", L),
    ("cluster.sim.kernel_self_s", "s", L),
    ("cluster.topology.build_s", "s", L),
    ("cluster.sim.report_digest", "fnv48", L),
    ("cluster.sim.faulted_runs_agree", "count", H),
    ("cluster.ring.host_s", "s", L),
    ("cluster.ring.report_digest", "fnv48", L),
    ("isa.sim.host_s", "s", L),
    ("isa.sim.jobs_per_host_s", "1/s", H),
    ("isa.sim.mean_response_s", "sim_s", L),
    ("isa.sim.report_digest", "fnv48", L),
    ("interface.netsim.host_s", "s", L),
    ("interface.netsim.cycles_per_host_s", "1/s", H),
    ("workloads.gen_s", "s", L),
    ("bench.sched_lag_p99_ms", "ms", L),
    ("bench.trace_overhead_frac", "ratio", L),
];

/// Renders `BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("{s:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {name:?}, \"why\": {why:?}}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {:?}, \"unit\": {:?}, \"better\": {:?}, \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {{\"name\": {name:?}, \"unit\": {unit:?}, \"better\": {:?}}}",
                better.as_str()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \
         \"per_layer\": [\n{per_layer}\n  ]\n}}\n",
        list(COMMAND),
        list(PATHS),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_is_legal_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(legal_name(name), "{name}");
            assert!(seen.insert(name), "{name} is declared twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(legal_unit(unit), "{unit}");
        }
    }

    #[test]
    fn the_contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && manifest().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }
}
