//! Stress tests for the `vitald` daemon core: many concurrent sessions
//! interleaving lifecycle operations through in-process clients must leave
//! the controller consistent, and the bounded admission queue must answer
//! overload with typed `Overloaded` rejections — never a deadlock, never a
//! leaked resource.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use vital::compiler::{AppBitstream, Compiler, CompilerConfig};
use vital::interface::ErrorCode;
use vital::netlist::hls::{AppSpec, Operator};
use vital::periph::TenantId;
use vital::runtime::{
    ControlRequest, ControlResponse, MigratePolicy, RuntimeConfig, StatusSummary, SystemController,
};
use vital::service::{RemoteClient, ServiceConfig, ServiceServer, Vitald, WireFormat};

const NAMES: [&str; 3] = ["small", "medium", "large"];

/// Compiled once for the whole test binary: compilation is the expensive
/// part and the bitstreams are immutable, so every test reuses the same
/// images on a fresh controller.
fn bitstreams() -> &'static Vec<AppBitstream> {
    static CACHE: OnceLock<Vec<AppBitstream>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let compiler = Compiler::new(CompilerConfig::default());
        let ops = [
            Operator::MacArray { pes: 8 },
            Operator::Custom {
                slices: 2000,
                dsps: 1800,
                brams: 64,
            },
            Operator::Custom {
                slices: 4000,
                dsps: 3700,
                brams: 128,
            },
        ];
        NAMES
            .iter()
            .zip(ops)
            .map(|(name, op)| {
                let mut spec = AppSpec::new(*name);
                spec.add_operator("m", op);
                compiler.compile(&spec).unwrap().into_bitstream()
            })
            .collect()
    })
}

fn controller() -> Arc<SystemController> {
    let c = SystemController::new(RuntimeConfig::paper_cluster());
    for bs in bitstreams() {
        c.register(bs.clone()).unwrap();
    }
    Arc::new(c)
}

/// Pre-flight snapshot of every leak-visible gauge in the controller.
struct Baseline {
    total_blocks: usize,
    free_bytes: Vec<u64>,
}

impl Baseline {
    fn capture(c: &SystemController) -> Self {
        let fpgas = c.resources().fpga_count();
        Baseline {
            total_blocks: status(c).total_free,
            free_bytes: (0..fpgas).map(|f| c.memory_of(f).free_bytes()).collect(),
        }
    }

    /// After every tenant is gone, nothing may remain allocated.
    fn assert_restored(&self, c: &SystemController) {
        assert_eq!(status(c).total_free, self.total_blocks, "leaked blocks");
        for (f, &bytes) in self.free_bytes.iter().enumerate() {
            assert_eq!(
                c.memory_of(f).tenant_count(),
                0,
                "leaked DRAM space on fpga{f}"
            );
            assert_eq!(
                c.memory_of(f).free_bytes(),
                bytes,
                "leaked DRAM bytes on fpga{f}"
            );
            assert!(
                c.arbiter_of(f).total_demand_gbps().abs() < 1e-9,
                "leaked bandwidth share on fpga{f}"
            );
        }
        assert_eq!(c.switch().nic_count(), 0, "leaked vNIC");
    }
}

fn status(c: &SystemController) -> StatusSummary {
    match c.execute(ControlRequest::Status) {
        ControlResponse::Status(s) => s,
        other => panic!("Status answers a status, not {other:?}"),
    }
}

/// Tears down every live and suspended tenant through the service API.
fn drain_tenants(vitald: &Vitald) {
    let client = vitald.client();
    let parked = status(vitald.controller()).suspended_tenants;
    for t in parked.into_iter().map(TenantId::new) {
        let resp = client.call(ControlRequest::Restore { tenant: t.raw() });
        assert!(
            resp.is_ok() || resp.err().is_some(),
            "resume of suspended tenant{t} must answer"
        );
    }
    let live = status(vitald.controller()).live_tenants;
    for t in live.into_iter().map(TenantId::new) {
        match client.call(ControlRequest::undeploy(t)) {
            ControlResponse::Undeployed { .. } => {}
            other => panic!("undeploying survivor tenant{t} failed: {other:?}"),
        }
    }
}

/// Sixteen sessions interleave deploy / suspend / resume / migrate /
/// undeploy through their own clients; whatever each operation answers,
/// the controller must end consistent once every tenant is drained.
#[test]
fn interleaved_sessions_leave_the_controller_consistent() {
    let controller = controller();
    let baseline = Baseline::capture(&controller);
    let vitald = Arc::new(Vitald::spawn(
        Arc::clone(&controller),
        ServiceConfig::default().with_workers(4),
    ));

    let threads = 16;
    let iterations = 6;
    let answered = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let vitald = Arc::clone(&vitald);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let client = vitald.client();
                for iter in 0..iterations {
                    let name = NAMES[(i + iter) % NAMES.len()];
                    let resp = client.call(ControlRequest::deploy(name));
                    answered.fetch_add(1, Ordering::Relaxed);
                    let ControlResponse::Deployed(s) = resp else {
                        // A full cluster answers InsufficientResources;
                        // that is a legitimate response, not a failure.
                        continue;
                    };
                    let tenant = TenantId::new(s.tenant);
                    if iter % 3 == 1 {
                        let suspended = client.call(ControlRequest::Checkpoint {
                            tenant: tenant.raw(),
                        });
                        if suspended.is_ok() {
                            let _ = client.call(ControlRequest::Restore {
                                tenant: tenant.raw(),
                            });
                        }
                    } else if iter % 3 == 2 {
                        let _ = client.call(ControlRequest::Migrate {
                            tenant: tenant.raw(),
                            policy: MigratePolicy::SameGeometry,
                        });
                    }
                    // The tenant may have been torn down by a concurrent
                    // defrag losing a race; only a typed answer is required.
                    let resp = client.call(ControlRequest::undeploy(tenant));
                    assert!(
                        resp.is_ok() || resp.err().is_some(),
                        "undeploy must answer with a typed response"
                    );
                }
                // A status probe per thread exercises the read path too.
                assert!(client.call(ControlRequest::Status).is_ok());
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
    assert_eq!(
        answered.load(Ordering::Relaxed),
        (threads * iterations) as u64,
        "every deploy received an answer"
    );

    drain_tenants(&vitald);
    baseline.assert_restored(&controller);
    Arc::try_unwrap(vitald)
        .unwrap_or_else(|_| panic!("vitald still shared"))
        .shutdown();
}

/// With one slow worker and a tiny queue, a burst of deploys must be
/// rejected with `Overloaded` at admission — and because rejection happens
/// before execution, undeploying the few admitted tenants must restore the
/// cluster exactly (a rejected deploy acquired nothing).
#[test]
fn overload_rejects_with_typed_backpressure_and_leaks_nothing() {
    let controller = controller();
    let baseline = Baseline::capture(&controller);
    let mut config = ServiceConfig::default()
        .with_workers(1)
        .with_queue_capacity(2)
        .with_batch_max(1)
        .with_request_timeout(Duration::from_secs(30));
    config.per_session_limit = 1;
    let vitald = Arc::new(Vitald::spawn(Arc::clone(&controller), config));
    // The one worker spends 25 ms in every `Prepare`: the resolver runs on
    // it, and refuses, so no app is registered and nothing is deployed.
    controller.set_app_resolver(Box::new(|name: &str| {
        std::thread::sleep(Duration::from_millis(25));
        Err(vital::runtime::RuntimeError::UnknownApp(name.to_string()))
    }));

    let clients = 24;
    let overloaded = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let vitald = Arc::clone(&vitald);
            let overloaded = Arc::clone(&overloaded);
            std::thread::spawn(move || {
                let client = vitald.client();
                // Two back-to-back submissions per session, a slow one and
                // a deploy: with a per-session allowance of one, the second
                // of any pair racing its own head is also a rejection
                // candidate.
                let slow = ControlRequest::Prepare {
                    app: format!("slow{i}"),
                };
                for req in [slow, ControlRequest::deploy("small")] {
                    match client.call(req) {
                        ControlResponse::Err(e) if e.code == ErrorCode::Overloaded => {
                            assert!(e.is_retryable(), "Overloaded must be retryable");
                            assert!(
                                e.retry_after_ms.is_some(),
                                "Overloaded must carry a retry hint"
                            );
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {}
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join()
            .expect("client thread panicked — deadlock or panic under overload");
    }

    assert!(
        overloaded.load(Ordering::Relaxed) > 0,
        "a {clients}-client burst against a 2-deep queue must trip Overloaded"
    );

    drain_tenants(&vitald);
    baseline.assert_restored(&controller);
}

/// A draining daemon answers new submissions `Draining` with a retry hint
/// instead of accepting work it will never run.
#[test]
fn shutdown_drain_rejects_new_requests_with_retry_after() {
    let controller = controller();
    let vitald = Vitald::spawn(Arc::clone(&controller), ServiceConfig::default());
    let client = vitald.client();
    assert!(client.call(ControlRequest::Status).is_ok());
    vitald.shutdown();
    // The client outlives the daemon handle; its submissions must now be
    // refused, typed, and retryable.
    match client.call(ControlRequest::Status) {
        ControlResponse::Err(e) => {
            assert_eq!(e.code, ErrorCode::Draining);
            assert!(
                e.retry_after_ms.is_some(),
                "Draining must carry a retry hint"
            );
        }
        other => panic!("a draining service must reject, got {other:?}"),
    }
}

/// Full wire round trip: a TCP server over an in-process daemon, driven by
/// two concurrent remote clients.
#[test]
fn tcp_server_serves_concurrent_remote_clients() {
    let controller = controller();
    let baseline = Baseline::capture(&controller);
    let vitald = Vitald::spawn(Arc::clone(&controller), ServiceConfig::default());
    let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();

    let handles: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let remote = RemoteClient::connect(&addr).expect("connect");
                for _ in 0..3 {
                    let resp = remote
                        .call(ControlRequest::deploy(NAMES[i % NAMES.len()]))
                        .expect("wire call");
                    if let ControlResponse::Deployed(s) = resp {
                        let resp = remote
                            .call(ControlRequest::undeploy(TenantId::new(s.tenant)))
                            .expect("wire call");
                        assert!(
                            matches!(resp, ControlResponse::Undeployed { .. }),
                            "undeploy over the wire failed: {resp:?}"
                        );
                    }
                }
                let status = remote.call(ControlRequest::Status).expect("wire call");
                assert!(status.is_ok());
            })
        })
        .collect();
    for h in handles {
        h.join().expect("remote client thread panicked");
    }

    server.stop();
    drain_tenants(&vitald);
    baseline.assert_restored(&controller);
    vitald.shutdown();
}

/// Binary and JSON clients share one server; the server answers each
/// connection in the format its requests arrive in.
#[test]
fn tcp_server_speaks_both_wire_formats() {
    let controller = controller();
    let vitald = Vitald::spawn(Arc::clone(&controller), ServiceConfig::default());
    let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();

    let binary = RemoteClient::connect_with(&addr, WireFormat::Binary).expect("connect binary");
    let json = RemoteClient::connect_with(&addr, WireFormat::Json).expect("connect json");
    for _ in 0..3 {
        assert!(binary
            .call(ControlRequest::Status)
            .expect("binary call")
            .is_ok());
        assert!(json
            .call(ControlRequest::Status)
            .expect("json call")
            .is_ok());
    }

    server.stop();
    vitald.shutdown();
}

/// A peer writing garbage — an oversized length announcement, then on a
/// second connection undecodable bytes — gets its connection dropped
/// without a reply, while a well-behaved client on the same server keeps
/// being served.
#[test]
fn malformed_and_oversized_frames_poison_only_their_connection() {
    use std::io::{Read, Write};

    let controller = controller();
    let vitald = Vitald::spawn(Arc::clone(&controller), ServiceConfig::default());
    let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();

    let healthy = RemoteClient::connect(&addr).expect("connect healthy");
    assert!(healthy.call(ControlRequest::Status).expect("call").is_ok());

    // An announcement far past the frame limit: the server must refuse
    // it before allocating and close the connection.
    let mut oversized = std::net::TcpStream::connect(&addr).expect("connect");
    oversized
        .write_all(&(u32::MAX).to_be_bytes())
        .expect("write length");
    let mut buf = [0u8; 16];
    oversized
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    assert_eq!(
        oversized.read(&mut buf).expect("read EOF"),
        0,
        "oversized announcement must be answered with a close, not a reply"
    );

    // A well-formed length followed by bytes that decode as neither
    // binary nor JSON: same fate.
    let mut garbage = std::net::TcpStream::connect(&addr).expect("connect");
    garbage
        .write_all(&8u32.to_be_bytes())
        .expect("write length");
    garbage
        .write_all(&[0xFFu8; 8])
        .expect("write garbage payload");
    garbage
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    assert_eq!(
        garbage.read(&mut buf).expect("read EOF"),
        0,
        "garbage payload must drop the connection"
    );

    // The healthy connection rode through both incidents.
    assert!(healthy.call(ControlRequest::Status).expect("call").is_ok());

    server.stop();
    vitald.shutdown();
}

/// 4096 sessions multiplexed over 32 driver threads, pipelined through
/// the non-blocking submission API against an 8-shard daemon: every
/// request must come back typed (kept small enough for CI — the full
/// sweep lives in `fig_service_throughput`).
#[test]
fn four_thousand_sessions_all_get_typed_answers() {
    let controller = controller();
    let vitald = Arc::new(Vitald::spawn(
        Arc::clone(&controller),
        ServiceConfig::default()
            .with_workers(8)
            .with_shards(8)
            // Headroom over the 4096 concurrent submissions: sessions pin
            // to shards, so per-shard load is balanced only approximately.
            .with_queue_capacity(8192),
    ));

    let drivers = 32;
    let sessions_per_driver = 128;
    let requests_per_session = 2;
    let answered = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..drivers)
        .map(|_| {
            let vitald = Arc::clone(&vitald);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let clients: Vec<_> = (0..sessions_per_driver).map(|_| vitald.client()).collect();
                for _ in 0..requests_per_session {
                    // Pipeline one wave: submit across every session,
                    // then collect the wave's answers.
                    let pending: Vec<_> = clients
                        .iter()
                        .map(|c| c.submit(ControlRequest::Status).expect("submit status"))
                        .collect();
                    for p in pending {
                        assert!(
                            p.wait().is_ok(),
                            "a Status under an 8-shard daemon must succeed"
                        );
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("driver thread panicked");
    }
    assert_eq!(
        answered.load(Ordering::Relaxed),
        (drivers * sessions_per_driver * requests_per_session) as u64,
        "every pipelined request received an answer"
    );
    assert_eq!(vitald.shard_count(), 8);

    Arc::try_unwrap(vitald)
        .unwrap_or_else(|_| panic!("vitald still shared"))
        .shutdown();
}

/// Remote clients deploying at once on a cluster with room to spare are
/// never refused: plan and claim are separate steps, and a deploy that
/// loses its planned block to a neighbour in between re-plans instead of
/// answering `InsufficientResources` with hundreds of blocks free. Both
/// connections share one reactor, which has to keep waking for either.
#[test]
fn concurrent_deploys_on_a_roomy_cluster_are_never_refused() {
    let controller = controller();
    let baseline = Baseline::capture(&controller);
    let vitald = Vitald::spawn(
        Arc::clone(&controller),
        ServiceConfig::default().with_io_threads(1),
    );
    let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();

    let clients = 4;
    let start = Arc::new(std::sync::Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let (addr, start) = (addr.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                let remote = RemoteClient::connect(&addr).expect("connect");
                start.wait();
                for round in 0..400 {
                    let resp = remote
                        .call(ControlRequest::deploy("small"))
                        .expect("wire call");
                    let ControlResponse::Deployed(s) = resp else {
                        panic!("deploy {round} refused on a roomy cluster: {resp:?}");
                    };
                    let resp = remote
                        .call(ControlRequest::undeploy(TenantId::new(s.tenant)))
                        .expect("wire call");
                    assert!(matches!(resp, ControlResponse::Undeployed { .. }));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("remote client thread panicked");
    }

    server.stop();
    baseline.assert_restored(&controller);
    vitald.shutdown();
}

/// Deploys of different sessions execute on their own shards' workers: a
/// worker never pulls another shard's queued deploy onto itself, so two
/// deploys in flight at once run on two threads. The interleaving is
/// forced: both shards' workers are parked inside the app resolver, a
/// deploy is queued behind each, and the workers are released one at a
/// time.
#[test]
fn deploys_of_different_sessions_execute_on_different_workers() {
    use std::collections::HashMap;
    use std::sync::{mpsc, Mutex};
    use vital::telemetry::{FieldValue, Telemetry};

    let telemetry = Telemetry::recording();
    let controller =
        SystemController::new(RuntimeConfig::paper_cluster()).with_telemetry(telemetry.clone());
    for bs in bitstreams() {
        controller.register(bs.clone()).unwrap();
    }
    // The resolver parks each `Prepare` until the test releases its app.
    let (entered_tx, entered) = mpsc::channel::<String>();
    let mut release = HashMap::new();
    let mut parked = HashMap::new();
    for app in ["park-a", "park-b"] {
        let (tx, rx) = mpsc::channel::<()>();
        release.insert(app, tx);
        parked.insert(app.to_string(), rx);
    }
    let (entered_tx, parked) = (Mutex::new(entered_tx), Mutex::new(parked));
    controller.set_app_resolver(Box::new(move |name: &str| {
        entered_tx.lock().unwrap().send(name.to_string()).unwrap();
        let gate = parked.lock().unwrap().remove(name).expect("parks once");
        let _ = gate.recv();
        Err(vital::runtime::RuntimeError::UnknownApp(name.to_string()))
    }));
    let vitald = Vitald::spawn(Arc::new(controller), ServiceConfig::default());
    // Declared after the daemon, so dropped before it: a failed assert
    // below unparks the workers instead of deadlocking the daemon's drop.
    let release = release;

    // The shard each executed request of a session ran on, per endpoint.
    let shards_of = |session: u64, endpoint: &str| -> Vec<u64> {
        let field = |r: &vital::telemetry::TraceRecord, key: &str| {
            r.fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        telemetry
            .records()
            .iter()
            .filter(|r| r.name == "service.request")
            .filter(|r| field(r, "session") == Some(FieldValue::U64(session)))
            .filter(|r| field(r, "endpoint") == Some(FieldValue::Str(endpoint.to_string())))
            .map(|r| match field(r, "shard") {
                Some(FieldValue::U64(shard)) => shard,
                other => panic!("service.request span without a shard: {other:?}"),
            })
            .collect()
    };
    // Two sessions pinned to different shards (placement is per session;
    // a probe request reveals it).
    let home_of = |client: &vital::service::ServiceClient| {
        assert!(client.call(ControlRequest::Status).is_ok());
        shards_of(client.session(), "status")[0]
    };
    let a = vitald.client();
    let home_a = home_of(&a);
    let (b, home_b) = (0..64)
        .map(|_| vitald.client())
        .map(|client| {
            let home = home_of(&client);
            (client, home)
        })
        .find(|(_, home)| *home != home_a)
        .expect("64 sessions over 4 shards do not all share one");

    // Park both workers, then queue a deploy behind each.
    let prepare_a = a
        .submit(ControlRequest::Prepare {
            app: "park-a".into(),
        })
        .unwrap();
    let prepare_b = b
        .submit(ControlRequest::Prepare {
            app: "park-b".into(),
        })
        .unwrap();
    let mut entered_apps = vec![entered.recv().unwrap(), entered.recv().unwrap()];
    entered_apps.sort();
    assert_eq!(entered_apps, ["park-a", "park-b"]);
    let deploy_a = a.submit(ControlRequest::deploy("small")).unwrap();
    let deploy_b = b.submit(ControlRequest::deploy("small")).unwrap();

    // Release A's worker only: it runs A's deploy and leaves B's queued.
    release["park-a"].send(()).unwrap();
    assert!(!prepare_a.wait().is_ok());
    assert!(matches!(deploy_a.wait(), ControlResponse::Deployed(_)));
    assert!(deploy_b.poll().is_none(), "B's deploy ran on A's worker");
    assert_eq!(status(vitald.controller()).live_tenants.len(), 1);

    release["park-b"].send(()).unwrap();
    assert!(!prepare_b.wait().is_ok());
    assert!(matches!(deploy_b.wait(), ControlResponse::Deployed(_)));
    assert_eq!(shards_of(a.session(), "deploy"), [home_a]);
    assert_eq!(shards_of(b.session(), "deploy"), [home_b]);
    vitald.shutdown();
}

/// A checkpointed tenant can be discarded: `Undeploy` of a parked tenant
/// drops its capsule and answers `Undeployed`, over the wire as in
/// process, and `Status` stops listing it as suspended.
#[test]
fn undeploy_over_tcp_discards_a_parked_capsule() {
    let controller = controller();
    let baseline = Baseline::capture(&controller);
    let vitald = Vitald::spawn(Arc::clone(&controller), ServiceConfig::default());
    let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind loopback");
    let remote = RemoteClient::connect(&server.local_addr().to_string()).expect("connect");
    let suspended = |remote: &RemoteClient| match remote.call(ControlRequest::Status) {
        Ok(ControlResponse::Status(s)) => s.suspended_tenants,
        other => panic!("unexpected status answer: {other:?}"),
    };

    let tenant = match remote
        .call(ControlRequest::deploy("small"))
        .expect("wire call")
    {
        ControlResponse::Deployed(s) => s.tenant,
        other => panic!("unexpected deploy answer: {other:?}"),
    };
    let parked = remote.call(ControlRequest::Checkpoint { tenant });
    assert!(matches!(parked, Ok(ControlResponse::Suspended(_))));
    assert_eq!(suspended(&remote), [tenant]);

    let resp = remote.call(ControlRequest::Undeploy { tenant });
    assert_eq!(resp, Ok(ControlResponse::Undeployed { tenant }));
    assert!(suspended(&remote).is_empty(), "the capsule was dropped");
    let code = |resp: ControlResponse| resp.err().map(|e| e.code);
    let restore = remote.call(ControlRequest::Restore { tenant }).unwrap();
    assert_eq!(code(restore), Some(ErrorCode::NotSuspended));
    let again = remote.call(ControlRequest::Undeploy { tenant }).unwrap();
    assert_eq!(code(again), Some(ErrorCode::UnknownTenant));

    server.stop();
    baseline.assert_restored(&controller);
    vitald.shutdown();
}

/// Stopping the server with requests still executing (held inside the
/// app resolver by the test) returns without waiting for them, and the
/// workers that then complete those requests for a reactor that no longer
/// exists harm nothing: the clients see a transport error, the daemon
/// still drains and shuts down.
#[test]
fn stop_with_requests_in_flight_returns_and_leaks_nothing() {
    use std::sync::{mpsc, Mutex};

    let controller = controller();
    let baseline = Baseline::capture(&controller);
    let (entered_tx, entered) = mpsc::channel::<()>();
    let (release, released) = mpsc::channel::<()>();
    let (entered_tx, released) = (Mutex::new(entered_tx), Mutex::new(released));
    controller.set_app_resolver(Box::new(move |name: &str| {
        entered_tx.lock().unwrap().send(()).unwrap();
        released.lock().unwrap().recv().unwrap();
        Err(vital::runtime::RuntimeError::UnknownApp(name.to_string()))
    }));
    // One shard drained by four workers taking one job per sweep: all
    // four requests execute at once.
    let vitald = Vitald::spawn(
        Arc::clone(&controller),
        ServiceConfig::default()
            .with_workers(4)
            .with_shards(1)
            .with_batch_max(1),
    );
    let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let remote = RemoteClient::connect(&addr).expect("connect");
                let app = format!("unknown-{i}");
                // Cut off mid-call: the transport fails, typed.
                assert!(remote.call(ControlRequest::Prepare { app }).is_err());
            })
        })
        .collect();
    for _ in 0..4 {
        entered.recv().expect("a request reached the resolver");
    }

    let t0 = std::time::Instant::now();
    server.stop();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "stop() took {took:?}");
    for h in handles {
        h.join().expect("remote client thread panicked");
    }

    for _ in 0..4 {
        release.send(()).unwrap();
    }
    vitald.shutdown();
    baseline.assert_restored(&controller);
}
