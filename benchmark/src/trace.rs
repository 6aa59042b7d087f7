//! The traced pass: where the time of a request goes, layer by layer,
//! measured from the benchmark's own files.
//!
//! End-to-end metrics are always measured with tracing off. This pass is
//! separate: the first requests of the workload's own seeded stream are
//! replayed through one connection, closed loop, at three depths against
//! identically initialised controllers — `SystemController::execute`,
//! `ServiceClient` (submit + wait), `RemoteClient::call` — and every call
//! is a span whose id is the request's sequence number. A depth's self
//! time is its duration minus the same request one level deeper, so the
//! budget telescopes to the traced TCP latency. The same envelopes then
//! go through the codec in both formats, and a handful of probes time the
//! public entry points the issue's per-layer table names.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vital::compiler::RelocationTarget;
use vital::fabric::BlockAddr;
use vital::periph::TenantId;
use vital::placer::{Placer, VirtualGrid};
use vital::runtime::{
    allocate_blocks_on, BitstreamDatabase, ControlRequest, ControlResponse, PortableCheckpoint,
    SystemController,
};
use vital::service::{
    encode_frame, FrameDecoder, RemoteClient, RequestEnvelope, ResponseEnvelope, ServiceConfig,
    Vitald, WireFormat, MAX_FRAME_BYTES,
};

use crate::gen::{kind_of, status_op, Mix, Op, Outcome, Plan, SLOTS};
use crate::schedule::{self, Event};
use crate::spans::Recorder;
use crate::stack::{self, Apps, Service};
use crate::stats;

/// Per-layer metric values by declared name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Requests of the workload's stream that are replayed.
const REPLAY: usize = 2_000;
/// `churn_saturate`'s replay runs an Evacuate → Recover pair this often.
const EVACUATE_EVERY_OPS: usize = 400;
/// Repetitions of the cheap probes.
const PROBE_REPS: usize = 200;

/// Looks a declared per-layer name up, so a typo cannot print an
/// undeclared metric.
pub fn set(metrics: &mut Metrics, name: &str, value: f64) {
    let declared = crate::names::PER_LAYER
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
    metrics.insert(declared.0, value);
}

/// The replayed stream of one service workload: the same draws the timed
/// run makes, through one connection.
struct Stream {
    mix: Mix,
    plan: Plan,
    events: std::vec::IntoIter<Event>,
    sent: usize,
    queued: Vec<Op>,
}

impl Stream {
    fn new(mix: Mix, seed: u64, apps: &Apps) -> Stream {
        let (slots, events, pinned) = match mix {
            Mix::Toggle => {
                // One lane's schedule, long enough to hold the replay.
                let ns = (REPLAY as f64 / schedule::OFFERED_PER_S * 1.5e9) as u64;
                let (events, pinned) = schedule::burst_open(seed, 1, ns, &apps.info).remove(0);
                (schedule::TENANTS, events, pinned)
            }
            _ => (SLOTS, Vec::new(), Vec::new()),
        };
        let mut plan = Plan::new(mix, seed, 0, slots, &apps.info);
        plan.pin_apps(&pinned);
        Stream {
            mix,
            plan,
            events: events.into_iter(),
            sent: 0,
            queued: Vec::new(),
        }
    }

    fn next(&mut self) -> Op {
        self.sent += 1;
        if let Some(op) = self.queued.pop() {
            return op;
        }
        match self.mix {
            Mix::Toggle => match self.events.next().and_then(|e| e.slot) {
                Some(slot) => self
                    .plan
                    .slot_op(slot)
                    .expect("one request in flight: no slot is busy"),
                None => status_op(),
            },
            Mix::Churn if self.sent.is_multiple_of(EVACUATE_EVERY_OPS) => {
                let [evacuate, recover] = self.plan.evacuation_pair();
                self.queued.push(recover);
                evacuate
            }
            _ => self.plan.next_op(),
        }
    }
}

/// The replay pauses a seeded time below this before each request of the
/// two depths that cross threads, as `tenant_closed` does and for the same
/// reason: back-to-back requests lock onto the phase of the reactor's idle
/// sleep and of the workers' wake-ups, and the regime they fall into moves
/// the in-process depth from 20 to 70 µs and the TCP depth from 0.8 to
/// 1.3 ms between two replays of one stream.
const THINK_BELOW: Duration = Duration::from_millis(1);

/// One depth of the replay: `call` answers a request, `record` hears each
/// request with its sequence number, kind, reply and the call's ends.
/// Returns requests per second of the time spent inside `call`.
fn replay(
    mix: Mix,
    seed: u64,
    apps: &Apps,
    think: bool,
    mut call: impl FnMut(ControlRequest) -> ControlResponse,
    mut record: impl FnMut(u64, &Op, &ControlResponse, Instant, Instant),
) -> Result<f64, String> {
    let mut stream = Stream::new(mix, seed, apps);
    let mut busy = Duration::ZERO;
    for seq in 0..REPLAY as u64 {
        let op = stream.next();
        if think {
            std::thread::sleep(stream.plan.think_time(THINK_BELOW));
        }
        let start = Instant::now();
        let resp = call(op.req.clone());
        let end = Instant::now();
        busy += end - start;
        match stream.plan.complete(&op, &resp) {
            Outcome::Done => record(seq, &op, &resp, start, end),
            other => return Err(format!("replayed request {seq} ({}): {other:?}", op.kind())),
        }
    }
    Ok(REPLAY as f64 / busy.as_secs_f64())
}

/// A controller initialised exactly as the timed run's.
fn fresh(apps: &Apps, seed: u64) -> Arc<SystemController> {
    let ctl = stack::controller(apps);
    stack::populate(&ctl, apps, seed);
    Arc::new(ctl)
}

/// The traced pass of a service workload. Returns the checks that did not
/// hold.
pub fn service(
    mix: Mix,
    apps: &Apps,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Metrics,
) -> Vec<String> {
    let mut broken = Vec::new();
    let t = Instant::now();
    drop(Stream::new(mix, seed, apps));
    set(out, "workloads.gen_s", t.elapsed().as_secs_f64());

    // Depth 1: the controller alone. The envelopes of this depth feed the
    // codec probe.
    let mut envelopes: Vec<(RequestEnvelope, ResponseEnvelope)> = Vec::new();
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let ctl = fresh(apps, seed);
    let ran = replay(
        mix,
        seed,
        apps,
        false,
        |req| ctl.execute(req),
        |seq, op, resp, start, end| {
            rec.push("runtime.execute", "service.inproc.call", seq, start, end);
            by_kind
                .entry(kind_of(&op.req))
                .or_default()
                .push((end - start).as_secs_f64() * 1e6);
            envelopes.push((
                RequestEnvelope {
                    id: seq,
                    req: op.req.clone(),
                },
                ResponseEnvelope {
                    id: seq,
                    resp: resp.clone(),
                },
            ));
        },
    );
    broken.extend(ran.err());
    for (kind, us) in &by_kind {
        let name = format!("runtime.execute.{kind}_us");
        if crate::names::PER_LAYER.iter().any(|m| m.0 == name) {
            set(out, &name, stats::median(us));
        }
    }

    // Depth 2: through the admission queue and a worker, in process.
    let vitald = Vitald::spawn(fresh(apps, seed), ServiceConfig::default());
    let client = vitald.client();
    let mut submits = Vec::new();
    let ran = replay(
        mix,
        seed,
        apps,
        true,
        |req| {
            let start = Instant::now();
            match client.submit(req) {
                Ok(pending) => {
                    submits.push((start, Instant::now()));
                    pending.wait()
                }
                Err(e) => ControlResponse::Err((&e).into()),
            }
        },
        |seq, _, _, start, end| {
            rec.push("service.inproc.call", "service.tcp.call", seq, start, end)
        },
    );
    broken.extend(ran.err());
    for (seq, (start, end)) in submits.into_iter().enumerate() {
        rec.push(
            "service.submit",
            "service.inproc.call",
            seq as u64,
            start,
            end,
        );
    }
    drop(client);
    vitald.shutdown();

    // Depth 3: over TCP — first with nothing recorded, then traced; the
    // difference is what tracing costs.
    let mut rates = [0.0; 2];
    for (traced, rate) in rates.iter_mut().enumerate() {
        let service = Service::start(fresh(apps, seed));
        let remote = RemoteClient::connect(&service.addr()).expect("connect to the service");
        let ran = replay(
            mix,
            seed,
            apps,
            true,
            |req| {
                remote
                    .call(req)
                    .unwrap_or_else(|e| ControlResponse::Err((&e).into()))
            },
            |seq, _, _, start, end| {
                if traced == 1 {
                    rec.push("service.tcp.call", "", seq, start, end);
                }
            },
        );
        match ran {
            Ok(per_s) => *rate = per_s,
            Err(why) => broken.push(why),
        }
        drop(remote);
        service.stop();
    }
    set(
        out,
        "bench.trace_overhead_frac",
        1.0 - rates[1] / rates[0].max(1e-9),
    );

    set(out, "service.tcp.call_us", rec.p50_us("service.tcp.call"));
    set(
        out,
        "service.inproc.call_us",
        rec.p50_us("service.inproc.call"),
    );
    set(out, "service.submit_us", rec.p50_us("service.submit"));
    set(
        out,
        "service.tcp.self_us",
        stats::median(&rec.self_us("service.tcp.call", "service.inproc.call")),
    );
    set(
        out,
        "service.inproc.self_us",
        stats::median(&rec.self_us("service.inproc.call", "runtime.execute")),
    );

    codec(&envelopes, out);
    probes(apps, seed, out);
    broken
}

/// Encodes and decodes the replay's request and response envelopes in
/// both wire formats: mean ns and bytes per frame.
fn codec(envelopes: &[(RequestEnvelope, ResponseEnvelope)], out: &mut Metrics) {
    for (format, label) in [(WireFormat::Binary, "bin"), (WireFormat::Json, "json")] {
        let mut wire = Vec::new();
        let mut frames = 0usize;
        let t = Instant::now();
        for (req, resp) in envelopes {
            encode_frame(req, format, MAX_FRAME_BYTES, &mut wire).expect("requests encode");
            encode_frame(resp, format, MAX_FRAME_BYTES, &mut wire).expect("responses encode");
            frames += 2;
        }
        let encode_ns = t.elapsed().as_nanos() as f64;
        let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
        let t = Instant::now();
        decoder.extend(&wire);
        for _ in envelopes {
            let req = decoder
                .next_frame::<RequestEnvelope>()
                .expect("requests decode");
            let resp = decoder
                .next_frame::<ResponseEnvelope>()
                .expect("responses decode");
            std::hint::black_box((req, resp));
        }
        let decode_ns = t.elapsed().as_nanos() as f64;
        let per = |total: f64| total / frames.max(1) as f64;
        set(
            out,
            &format!("service.codec.{label}.encode_ns"),
            per(encode_ns),
        );
        set(
            out,
            &format!("service.codec.{label}.decode_ns"),
            per(decode_ns),
        );
        set(
            out,
            &format!("service.codec.{label}.bytes_per_frame"),
            per(wire.len() as f64),
        );
    }
    if let Some((_, status)) = envelopes
        .iter()
        .find(|(_, r)| matches!(r.resp, ControlResponse::Status(_)))
    {
        let mut wire = Vec::new();
        encode_frame(status, WireFormat::Binary, MAX_FRAME_BYTES, &mut wire).expect("encodes");
        set(out, "runtime.status.bytes", wire.len() as f64);
    }
}

/// Median of `f`'s wall time over `reps` calls, in µs.
fn p50_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let us: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&us)
}

/// Deploy → Undeploy pairs straight on the controller; the Deploy times.
fn deploy_pairs_us(ctl: &SystemController, app: &str, pairs: usize) -> Vec<f64> {
    (0..pairs)
        .filter_map(|_| {
            let t = Instant::now();
            let resp = ctl.execute(ControlRequest::deploy(app));
            let us = t.elapsed().as_secs_f64() * 1e6;
            match resp {
                ControlResponse::Deployed(d) => {
                    ctl.execute(ControlRequest::Undeploy { tenant: d.tenant });
                    Some(us)
                }
                // A claim race under contention: no deploy happened.
                _ => None,
            }
        })
        .collect()
}

/// Probes of public entry points that do not depend on the stream.
fn probes(apps: &Apps, seed: u64, out: &mut Metrics) {
    let ctl = fresh(apps, seed);

    // The same Deploy with one thread, then with every core at once.
    let app = "cifar10-M";
    let solo = stats::median(&deploy_pairs_us(&ctl, app, PROBE_REPS));
    let threads = stack::nproc().max(2);
    let contended: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| deploy_pairs_us(&ctl, app, PROBE_REPS)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let contended = stats::median(&contended);
    set(out, "runtime.execute.contended_deploy_us", contended);
    set(out, "runtime.lock_wait_us", contended - solo);

    // The allocator on the half-full cluster's real free lists.
    let free_lists: Vec<Vec<BlockAddr>> = (0..stack::FPGAS)
        .map(|f| ctl.resources().free_blocks_of(f))
        .collect();
    let allocate = p50_us(PROBE_REPS, |i| {
        let needed = apps.info[i % apps.info.len()].blocks;
        std::hint::black_box(allocate_blocks_on(ctl.topology(), &free_lists, needed));
    });
    set(out, "runtime.policy.allocate_us", allocate);

    let hit = p50_us(PROBE_REPS, |i| {
        let app = apps.info[i % apps.info.len()].name.clone();
        std::hint::black_box(ctl.execute(ControlRequest::Prepare { app }));
    });
    set(out, "runtime.prepare.hit_us", hit);

    // Relocation: binding each design's blocks to physical addresses.
    let addrs: Vec<BlockAddr> = free_lists.iter().flatten().copied().collect();
    let bind = p50_us(PROBE_REPS, |i| {
        let bitstream = &apps.bitstreams[i % apps.bitstreams.len()];
        let targets: Vec<RelocationTarget> = (0..bitstream.block_count())
            .map(|vb| RelocationTarget {
                virtual_block: vb as u32,
                addr: addrs[vb],
            })
            .collect();
        std::hint::black_box(bitstream.bind(&targets).expect("distinct free blocks bind"));
    });
    set(out, "compiler.bind_us", bind);
    compiler_timings(apps, out);

    // The portable capsule of a parked alexnet-L.
    if let ControlResponse::Deployed(d) = ctl.execute(ControlRequest::deploy("alexnet-L")) {
        ctl.execute(ControlRequest::Checkpoint { tenant: d.tenant });
        if let Ok(capsule) = ctl.portable_of(TenantId::new(d.tenant)) {
            let json = capsule.to_json().expect("capsules serialize");
            set(out, "checkpoint.capsule_bytes", json.len() as f64);
            let to = p50_us(5, |_| {
                std::hint::black_box(capsule.to_json().expect("capsules serialize"));
            });
            let from = p50_us(5, |_| {
                std::hint::black_box(PortableCheckpoint::from_json(&json).expect("round trip"));
            });
            set(out, "checkpoint.portable.to_json_ms", to / 1e3);
            set(out, "checkpoint.portable.from_json_ms", from / 1e3);
        }
    }
}

/// The stage timings `Compiler::compile` reported for the 21 designs.
pub fn compiler_timings(apps: &Apps, out: &mut Metrics) {
    let t = &apps.timings;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    set(out, "compiler.synthesis_ms", ms(t.synthesis));
    set(out, "compiler.partition_ms", ms(t.partition));
    set(out, "compiler.interface_gen_ms", ms(t.interface_gen));
    set(out, "compiler.local_pnr_ms", ms(t.local_pnr));
    set(out, "compiler.relocation_ms", ms(t.relocation));
    set(out, "compiler.global_pnr_ms", ms(t.global_pnr));
    let blocks: usize = apps.info.iter().map(|a| a.blocks).sum();
    set(
        out,
        "compiler.blocks_per_s",
        blocks as f64 / t.local_pnr.as_secs_f64().max(1e-9),
    );
    set(out, "compiler.workers", t.workers as f64);
}

/// `cold_farm`'s probes: the bitstream database's JSON round trip on the
/// 21 designs, and synthesis and partition called directly on their specs.
pub fn farm_probes(apps: &Apps, rec: &mut Recorder, out: &mut Metrics) {
    let db = BitstreamDatabase::new();
    for b in &apps.bitstreams {
        db.insert(b.clone()).expect("distinct names");
    }
    let json = db.to_json().expect("the database serializes");
    set(out, "runtime.bitstream_db.json_bytes", json.len() as f64);
    let to = p50_us(3, |i| {
        rec.time(
            "runtime.bitstream_db.to_json",
            "cold_farm.probe",
            i as u64,
            || {
                std::hint::black_box(db.to_json().expect("the database serializes"));
            },
        );
    });
    set(out, "runtime.bitstream_db.to_json_ms", to / 1e3);
    let from = p50_us(1, |i| {
        rec.time(
            "runtime.bitstream_db.from_json",
            "cold_farm.probe",
            i as u64,
            || {
                std::hint::black_box(BitstreamDatabase::from_json(&json).expect("round trip"));
            },
        );
    });
    set(out, "runtime.bitstream_db.from_json_ms", from / 1e3);
    let get = p50_us(PROBE_REPS, |i| {
        std::hint::black_box(
            db.get(&apps.info[i % apps.info.len()].name)
                .expect("registered"),
        );
    });
    set(out, "runtime.bitstream_db.get_us", get);

    let compiler = stack::compiler();
    let config = compiler.config();
    let (mut synth_ms, mut place_ms) = (0.0, 0.0);
    for (i, spec) in stack::app_specs().iter().enumerate() {
        let t = Instant::now();
        let netlist = vital::netlist::hls::synthesize(spec).expect("suite designs synthesize");
        let synthesized = Instant::now();
        let blocks = netlist
            .resource_usage()
            .blocks_needed(&config.block_resources, config.fill_margin);
        let grid = VirtualGrid::uniform(blocks as usize, config.effective_block_capacity());
        let placement = Placer::new(config.placer.clone()).run(&netlist, &grid);
        let placed = Instant::now();
        std::hint::black_box(placement.expect("suite designs partition"));
        rec.push(
            "netlist.synthesize",
            "cold_farm.probe",
            i as u64,
            t,
            synthesized,
        );
        rec.push(
            "placer.run",
            "cold_farm.probe",
            i as u64,
            synthesized,
            placed,
        );
        synth_ms += (synthesized - t).as_secs_f64() * 1e3;
        place_ms += (placed - synthesized).as_secs_f64() * 1e3;
    }
    set(out, "netlist.synthesize_ms", synth_ms);
    set(out, "placer.run_ms", place_ms);
    compiler_timings(apps, out);
}
