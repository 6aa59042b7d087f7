//! One workload, start to finish: set-up, the timed run with tracing off,
//! the output checks, optionally the traced pass, and the printing of
//! every metric with its unit.

use std::sync::Arc;
use std::time::Instant;

use vital::interface::ErrorCode;

use crate::cold_farm::{self, Farm, Scratch};
use crate::compare::{Reading, RunLine};
use crate::gen::Mix;
use crate::names::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::service;
use crate::sims;
use crate::spans::Recorder;
use crate::stack::{self, Apps, Service, Standing};
use crate::stats;
use crate::trace::{self, set, Metrics};

/// Times the set-up of a timed run is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// A round of `cold_farm` per this many seconds asked for (its fill takes
/// about this long on the two-core host the benchmark was written on).
const SECONDS_PER_ROUND: f64 = 3.5;
/// A pass of `cluster_sim` per this many seconds asked for. A pass takes
/// about twice that, but the slowest simulator's host time differs by a
/// tenth from pass to pass, and its median needs the fourteen passes.
const SECONDS_PER_PASS: f64 = 0.75;

/// Everything one run of one workload produced.
pub struct Outcome {
    /// The workload's declared name.
    pub workload: &'static str,
    seed: u64,
    seconds: f64,
    /// Every output check held and nothing failed.
    pub correct: bool,
    /// Operations sent to the program.
    pub attempted: u64,
    /// Operations that did not get the right answer.
    pub failed: u64,
    /// The gated metrics, in declared order, measured with tracing off.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// `[q1, median, q3]` across windows, rounds or passes, where a metric
    /// has them.
    quartiles: Vec<(&'static str, [f64; 3])>,
    /// The per-layer metrics this workload exercises (the rest read 0).
    pub per_layer: Metrics,
    notes: Vec<String>,
    broken: Vec<String>,
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Outcome {
    fn new(workload: &'static str, seed: u64, seconds: f64) -> Outcome {
        Outcome {
            workload,
            seed,
            seconds,
            correct: true,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            quartiles: Vec::new(),
            per_layer: Metrics::new(),
            notes: Vec::new(),
            broken: Vec::new(),
        }
    }

    /// Fills the five gated metrics.
    fn gate(&mut self, setup_s: f64, ops_per_s: [f64; 3], p50_ms: [f64; 3], p90_ms: [f64; 3]) {
        self.end_to_end = vec![
            ("setup_s", setup_s),
            ("ops_per_s", ops_per_s[1]),
            ("op_p50_ms", p50_ms[1]),
            ("op_p90_ms", p90_ms[1]),
            ("peak_rss_mb", peak_rss_mb()),
        ];
        self.quartiles = vec![
            ("ops_per_s", ops_per_s),
            ("op_p50_ms", p50_ms),
            ("op_p90_ms", p90_ms),
        ];
        debug_assert!(self
            .end_to_end
            .iter()
            .map(|m| m.0)
            .eq(END_TO_END.iter().map(|m| m.name)));
    }

    fn finish(mut self) -> Outcome {
        set(
            &mut self.per_layer,
            "fail_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        self.correct = self.broken.is_empty() && self.failed == 0 && self.attempted > 0;
        self
    }

    /// The last line of standard output: the contract's result object,
    /// with every end-to-end metric, or every per-layer one when traced.
    pub fn result_line(&self, traced: bool) -> String {
        let reading = |value: f64, unit: &str| Reading {
            value,
            unit: unit.to_string(),
        };
        let metrics = if traced {
            PER_LAYER
                .iter()
                .map(|(name, unit, _)| {
                    let value = self.per_layer.get(name).copied().unwrap_or(0.0);
                    (name.to_string(), reading(value, unit))
                })
                .collect()
        } else {
            self.end_to_end
                .iter()
                .zip(END_TO_END)
                .map(|((name, value), def)| (name.to_string(), reading(*value, def.unit)))
                .collect()
        };
        serde_json::to_string(&RunLine {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        })
        .expect("a result line serializes")
    }

    /// Prints the tables, then the result line.
    pub fn print(&self, traced: bool) {
        println!(
            "== vital-e2e {} seed={} seconds={} trace={} ==",
            self.workload, self.seed, self.seconds, traced as u8
        );
        println!(
            "host: nproc={} generators={} service: {}",
            stack::nproc(),
            stack::generators(),
            stack::service_config_line()
        );
        println!("end-to-end (tracing off):");
        for ((name, value), def) in self.end_to_end.iter().zip(END_TO_END) {
            let spread = self
                .quartiles
                .iter()
                .find(|q| q.0 == *name)
                .map_or(String::new(), |(_, q)| {
                    format!("  [q1 {:.4} .. q3 {:.4}]", q[0], q[2])
                });
            println!("  {name:<36} {value:>14.4} {:<6}{spread}", def.unit);
        }
        println!(
            "{}:",
            if traced {
                "per layer (traced pass; 0 = not exercised by this workload)"
            } else {
                "also measured, not gated"
            }
        );
        for (name, unit, _) in PER_LAYER {
            match self.per_layer.get(name) {
                Some(value) => println!("  {name:<36} {value:>14.4} {unit}"),
                None if traced => println!("  {name:<36} {:>14} {unit}", 0),
                None => {}
            }
        }
        for note in &self.notes {
            println!("{note}");
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
        for why in &self.broken {
            println!("CHECK FAILED: {why}");
        }
        println!("{}", self.result_line(traced));
    }
}

/// A compiled, populated, served stack.
struct Built {
    apps: Apps,
    standing: Standing,
    service: Service,
}

fn build(seed: u64) -> Built {
    let apps = stack::compile_all(None);
    let ctl = Arc::new(stack::controller(&apps));
    let standing = stack::populate(&ctl, &apps, seed);
    // No connection is made here: the accept loop hands a new connection
    // to the reactor thread with the fewest, and one that was opened and
    // dropped during set-up may still be counted when the generators
    // connect, which would put both of them on one reactor in some runs
    // and on two in others.
    let service = Service::start(ctl);
    Built {
        apps,
        standing,
        service,
    }
}

fn service_workload(
    workload: &'static str,
    mix: Mix,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let mut out = Outcome::new(workload, seed, seconds);
    let mut setups = Vec::new();
    let mut built: Option<Built> = None;
    for _ in 0..if traced { 1 } else { SETUP_REPEATS } {
        if let Some(previous) = built.take() {
            previous.service.stop();
        }
        let t = Instant::now();
        built = Some(build(seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let built = built.expect("set up at least once");

    let ran = service::run(
        mix,
        &built.service,
        &built.apps,
        &built.standing,
        seed,
        seconds,
    );
    built.service.stop();
    out.attempted = ran.report.attempted;
    out.failed = ran.report.failed;
    out.broken.extend(ran.broken);
    out.broken.extend(ran.report.failures.iter().cloned());
    let [p90, p95, p99] = ran.all.tails;
    out.gate(
        stats::median(&setups),
        ran.all.per_s,
        ran.all.p50_ms,
        p90.ms,
    );

    let m = &mut out.per_layer;
    set(m, "op_p95_ms", p95.ms[1]);
    set(m, "op_p99_ms", p99.ms[1]);
    set(m, "deploy_p50_ms", ran.deploy.p50_ms[1]);
    set(m, "deploy_p99_ms", ran.deploy.tails[2].ms[1]);
    set(m, "late_frac", ran.late_frac);
    let refusals = &ran.report.refusals;
    set(
        m,
        "service.rejects.overloaded",
        refusals.count(ErrorCode::Overloaded) as f64,
    );
    set(
        m,
        "service.rejects.timeout",
        refusals.count(ErrorCode::Timeout) as f64,
    );
    set(
        m,
        "service.rejects.draining",
        refusals.count(ErrorCode::Draining) as f64,
    );
    set(m, "service.queue_len_max", ran.queue_len_max as f64);
    set(m, "runtime.claim_race_rejects", refusals.claim_races as f64);
    set(
        m,
        "runtime.status.torn_snapshots",
        refusals.torn_status as f64,
    );
    set(m, "bench.sched_lag_p99_ms", ran.sched_lag_p99_ms);
    let read_at = |tails: &[stats::Tail; 3]| {
        tails
            .iter()
            .zip(stats::TAILS)
            .map(|(t, asked)| match t.q == asked {
                true => format!("p{}", asked * 100.0),
                false => format!(
                    "p{} read at p{} (a window held fewer than ten samples beyond it)",
                    asked * 100.0,
                    t.q * 100.0
                ),
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.notes.push(format!(
        "latency: {} samples in {} windows; all kinds: {}; deploys: {}",
        ran.all.samples,
        stats::WINDOWS,
        read_at(&ran.all.tails),
        read_at(&ran.deploy.tails),
    ));
    out.notes
        .push("refusals by code (retried, not failed):".to_string());
    for (code, n) in &refusals.by_code {
        out.notes.push(format!("  {code:<28} {n}"));
    }

    if traced {
        let mut rec = Recorder::new();
        let broken = trace::service(mix, &built.apps, seed, &mut rec, &mut out.per_layer);
        out.broken.extend(broken);
        let get = |name: &str| out.per_layer.get(name).copied().unwrap_or(0.0);
        let execute = rec.p50_us("runtime.execute");
        let (inproc, tcp) = (get("service.inproc.self_us"), get("service.tcp.self_us"));
        let call = get("service.tcp.call_us");
        let sum = execute + inproc + tcp;
        out.notes.push(format!(
            "layer budget (p50 µs per request): runtime.execute {execute:.1} + \
             service.inproc.self {inproc:.1} + service.tcp.self {tcp:.1} = {sum:.1}; \
             traced service.tcp.call {call:.1} ({:+.1} %)",
            (sum / call.max(1e-9) - 1.0) * 100.0
        ));
        write_spans(&rec, &mut out);
    }
    out.finish()
}

fn write_spans(rec: &Recorder, out: &mut Outcome) {
    let path = crate::out_dir().join(format!("trace-{}.jsonl", out.workload));
    match rec.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!("spans -> {}", path.display())),
        Err(e) => out.broken.push(format!("writing {}: {e}", path.display())),
    }
}

fn cold_farm_workload(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new("cold_farm", seed, seconds);
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let fresh = |name: String| scratch.fresh(&name).map_err(|e| format!("scratch: {e}"));

    // Set-up: the reference images every farm-built image is compared
    // with, an empty persisted controller, served, clients connected.
    let mut rec = traced.then(Recorder::new);
    let t = Instant::now();
    let reference = stack::compile_all(rec.as_mut());
    let reference_digests = cold_farm::digests(reference.bitstreams.iter().cloned());
    let mut path = fresh("round-0".to_string())?;
    let mut farm = Some(Farm::start(&path)?);
    let setup_s = t.elapsed().as_secs_f64();

    let rounds = (seconds / SECONDS_PER_ROUND).ceil().max(1.0) as u64;
    let mut ran = Vec::new();
    for r in 0..rounds {
        let this = match farm.take() {
            Some(first) => first,
            None => {
                path = fresh(format!("round-{r}"))?;
                Farm::start(&path)?
            }
        };
        ran.push(cold_farm::round(
            this,
            &path,
            seed,
            r,
            &reference_digests,
            None,
        ));
    }
    for round in &ran {
        out.attempted += round.attempted;
        out.failed += round.failed;
        out.broken.extend(round.broken.iter().cloned());
    }
    let over = |f: &dyn Fn(&cold_farm::Round) -> f64| {
        stats::quartiles(&ran.iter().map(f).collect::<Vec<_>>())
    };
    // The cold pairs of every round, pooled: a round's 21 pairs straddle
    // two sizes of design at the median, and pooling steadies it.
    let pooled: Vec<f64> = ran.iter().flat_map(|r| r.cold_ms.iter().copied()).collect();
    let [q1, _, q3] = over(&|r| stats::median(&r.cold_ms));
    let cold_p50 = [q1, stats::median(&pooled), q3];
    out.gate(
        setup_s,
        over(&|r| r.cold_apps_per_s()),
        cold_p50,
        over(&|r| r.slowest_ms()),
    );
    let last = ran.last().expect("at least one round");
    let m = &mut out.per_layer;
    set(m, "cold_apps_per_s", over(&|r| r.cold_apps_per_s())[1]);
    set(m, "restart_s", over(&|r| r.restart_s)[1]);
    set(m, "deploy_p50_ms", cold_p50[1]);
    set(
        m,
        "deploy_p99_ms",
        over(&|r| r.cold_ms.last().copied().unwrap_or(0.0))[1],
    );
    set(m, "runtime.farm.compiles", last.farm.compiles as f64);
    set(
        m,
        "runtime.farm.single_flight_waits",
        last.farm.single_flight_waits as f64,
    );
    set(
        m,
        "runtime.farm.persist_saves",
        last.farm.persist_saves as f64,
    );
    set(
        m,
        "runtime.farm.dedup_ratio",
        last.prepares as f64 / last.farm.compiles.max(1) as f64,
    );
    set(
        m,
        "runtime.prepare.miss_ms",
        over(&|r| stats::median(&r.miss_ms))[1],
    );
    out.notes.push(format!(
        "{rounds} round(s); op = the Prepare+Deploy of a design its Prepare compiled (21 a round, \
         pooled for op_p50_ms); too few for a percentile, so op_p90_ms is the slowest wait of a \
         round (restart -> first Deploy) and deploy_p99_ms the slowest pair"
    ));

    if let Some(mut rec) = rec {
        path = fresh("round-traced".to_string())?;
        let traced_round = cold_farm::round(
            Farm::start(&path)?,
            &path,
            seed,
            rounds,
            &reference_digests,
            Some(&mut rec),
        );
        out.broken.extend(traced_round.broken.iter().cloned());
        set(
            &mut out.per_layer,
            "bench.trace_overhead_frac",
            1.0 - traced_round.cold_apps_per_s() / over(&|r| r.cold_apps_per_s())[1],
        );
        trace::farm_probes(&reference, &mut rec, &mut out.per_layer);
        write_spans(&rec, &mut out);
    }
    Ok(out.finish())
}

fn cluster_sim_workload(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new("cluster_sim", seed, seconds);
    let mut setups = Vec::new();
    let mut inputs = None;
    // This set-up takes a quarter of a second: repeat it more often than
    // the others for a median as steady as theirs.
    for _ in 0..if traced { 1 } else { 2 * SETUP_REPEATS + 1 } {
        let t = Instant::now();
        inputs = Some(sims::inputs(seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set up at least once");
    let work = sims::work(&inputs);

    let passes = ((seconds / SECONDS_PER_PASS).ceil() as u64).max(2);
    let (pass0, first) = sims::pass(&inputs, 0, None);
    let mut ran = vec![pass0];
    for i in 1..passes {
        let (pass, reports) = sims::pass(&inputs, i, None);
        if reports != first {
            out.broken.push(format!(
                "pass {i} produced other simulated results than pass 0"
            ));
        }
        ran.push(pass);
    }
    for pass in &ran {
        out.broken.extend(pass.broken.iter().cloned());
    }
    out.attempted = passes * work.requests as u64;
    let over =
        |f: &dyn Fn(&sims::Pass) -> f64| stats::quartiles(&ran.iter().map(f).collect::<Vec<_>>());
    let host = over(&|p| p.total_s());
    out.gate(
        stats::median(&setups),
        over(&|p| work.requests as f64 / p.total_s()),
        over(&|p| p.typical_s() * 1e3),
        over(&|p| p.slowest_s() * 1e3),
    );
    let digests = first.digests();
    let m = &mut out.per_layer;
    set(m, "sim_host_s", host[1]);
    set(m, "sim_response_s", first.response_s());
    set(m, "sim_utilization", first.utilization());
    set(m, "cluster.sim.host_s", over(&|p| p.host_s[0])[1]);
    set(m, "cluster.ring.host_s", over(&|p| p.host_s[1])[1]);
    set(m, "isa.sim.host_s", over(&|p| p.host_s[2])[1]);
    set(m, "interface.netsim.host_s", over(&|p| p.host_s[3])[1]);
    set(
        m,
        "isa.sim.jobs_per_host_s",
        over(&|p| work.isa_jobs as f64 / p.host_s[2])[1],
    );
    set(
        m,
        "interface.netsim.cycles_per_host_s",
        over(&|p| work.net_cycles as f64 / p.host_s[3])[1],
    );
    set(m, "isa.sim.mean_response_s", first.isa_mean_response_s());
    set(m, "cluster.sim.report_digest", digests[0] as f64);
    set(m, "cluster.ring.report_digest", digests[1] as f64);
    set(m, "isa.sim.report_digest", digests[2] as f64);
    set(m, "cluster.topology.build_s", inputs.topology_build_s);
    set(m, "workloads.gen_s", inputs.gen_s);
    out.notes.push(format!(
        "{passes} passes of fixed work ({} simulated requests and jobs, {} cycles); op = one \
         simulator's run: op_p50_ms the median and op_p90_ms the slowest of the four; digests {:?}",
        work.requests, work.net_cycles, digests
    ));

    if traced {
        let mut rec = Recorder::new();
        let (pass, reports) = sims::pass(&inputs, passes, Some(&mut rec));
        if reports != first {
            out.broken
                .push("the traced pass produced other simulated results".to_string());
        }
        let (sched_s, calls) = pass.sched.unwrap_or((0.0, 0));
        let m = &mut out.per_layer;
        set(m, "cluster.sim.sched_self_s", sched_s);
        set(m, "cluster.sim.sched_calls", calls as f64);
        set(m, "cluster.sim.kernel_self_s", pass.host_s[0] - sched_s);
        set(
            m,
            "bench.trace_overhead_frac",
            1.0 - host[1] / pass.total_s(),
        );
        set(
            m,
            "cluster.sim.faulted_runs_agree",
            sims::faulted_runs_agree(&inputs) as u8 as f64,
        );
        write_spans(&rec, &mut out);
    }
    out.finish()
}

/// Runs the named workload.
pub fn workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let declared = WORKLOADS
        .iter()
        .find(|w| w.0 == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?
        .0;
    Ok(match declared {
        "tenant_closed" => service_workload(declared, Mix::Ring, seed, seconds, traced),
        "burst_open" => service_workload(declared, Mix::Toggle, seed, seconds, traced),
        "churn_saturate" => service_workload(declared, Mix::Churn, seed, seconds, traced),
        "cold_farm" => cold_farm_workload(seed, seconds, traced)?,
        "cluster_sim" => cluster_sim_workload(seed, seconds, traced),
        other => unreachable!("{other} is declared but not implemented"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a run prints is what `BENCHMARK.json` declares: every
    /// end-to-end metric untraced, every per-layer metric traced, whether
    /// or not the workload exercises it.
    #[test]
    fn the_result_line_carries_exactly_the_declared_metrics() {
        let mut out = Outcome::new("cluster_sim", 1, 1.0);
        out.attempted = 1;
        out.gate(0.5, [1.0; 3], [2.0; 3], [3.0; 3]);
        assert_eq!(out.end_to_end[3], ("op_p90_ms", 3.0));
        set(&mut out.per_layer, "sim_host_s", 1.5);
        let out = out.finish();
        for traced in [false, true] {
            let line: RunLine = serde_json::from_str(&out.result_line(traced)).unwrap();
            let printed: Vec<&str> = line.metrics.keys().map(String::as_str).collect();
            let mut declared: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            declared.sort_unstable();
            assert_eq!(printed, declared);
            assert!(line.correct && line.attempted == 1 && line.failed == 0);
        }
        let traced: RunLine = serde_json::from_str(&out.result_line(true)).unwrap();
        assert_eq!(traced.metrics["sim_host_s"].value, 1.5);
        assert_eq!(
            traced.metrics["restart_s"].value, 0.0,
            "not exercised reads 0"
        );
        assert_eq!(traced.metrics["sim_host_s"].unit, "s");
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn an_undeclared_metric_cannot_be_printed() {
        set(&mut Metrics::new(), "service.tcp.cal_us", 1.0);
    }

    #[test]
    fn an_unknown_workload_is_an_error_before_any_work() {
        assert!(workload("no_such_workload", 1, 1.0, false).is_err());
    }
}
