//! The TCP reactor's wake paths (DESIGN.md §13.2): every way a blocked
//! reactor must get out of its `poll(2)` wait — a worker's completion, a
//! writable socket, a head-of-line deadline, `stop()` — and the ways it
//! must *not*: no periodic wake-ups while idle, no spin on a hung-up peer.
//!
//! The cause of a wake-up is read off `service.reactor.wakeups` (returns
//! from the wait) and `service.reactor.wake_writes` (bytes written to a
//! wake channel), so the tests force an interleaving with a slow app
//! resolver (a `Prepare` runs it on the worker thread) and assert on
//! counts, not on how long things took — except where the property *is* a
//! latency bound (no sleeping path left).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use vital_compiler::{Compiler, CompilerConfig};
use vital_interface::ErrorCode;
use vital_netlist::hls::{AppSpec, Operator};
use vital_runtime::{
    AppResolver, ControlRequest, ControlResponse, RuntimeConfig, RuntimeError, SystemController,
};
use vital_service::{
    encode_frame, FrameDecoder, RemoteClient, RequestEnvelope, ResponseEnvelope, ServiceConfig,
    ServiceServer, Vitald, WireFormat, MAX_FRAME_BYTES,
};
use vital_telemetry::Telemetry;

/// A daemon over an empty controller with live counters.
fn daemon(fpgas: usize, config: ServiceConfig) -> (Vitald, ServiceServer, String) {
    let runtime = RuntimeConfig {
        fpgas,
        ..RuntimeConfig::paper_cluster()
    };
    let controller = SystemController::new(runtime).with_telemetry(Telemetry::recording());
    let vitald = Vitald::spawn(Arc::new(controller), config);
    let server = ServiceServer::serve(&vitald, "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().to_string();
    (vitald, server, addr)
}

/// A resolver that holds the worker thread for `delay` and then hands back
/// a one-operator image under the requested name: a `Prepare` of an
/// unregistered app is then a request that takes `delay` to execute.
fn slow_resolver(delay: Duration) -> AppResolver {
    let mut spec = AppSpec::new("slow");
    spec.add_operator("m", Operator::MacArray { pes: 4 });
    let image = Compiler::new(CompilerConfig::default())
        .compile(&spec)
        .unwrap()
        .into_bitstream();
    Box::new(move |name: &str| {
        std::thread::sleep(delay);
        Ok(image.renamed(name))
    })
}

fn prepare(app: &str) -> ControlRequest {
    ControlRequest::Prepare { app: app.into() }
}

fn counter(vitald: &Vitald, name: &str) -> u64 {
    let metrics = vitald.controller().telemetry().metrics();
    metrics.counters.get(name).copied().unwrap_or(0)
}

fn wakeups(vitald: &Vitald) -> u64 {
    counter(vitald, "service.reactor.wakeups")
}

/// Polls `cond` for up to five seconds.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn frame(id: u64, req: ControlRequest) -> Vec<u8> {
    let mut frame = Vec::new();
    let env = RequestEnvelope { id, req };
    encode_frame(&env, WireFormat::Binary, MAX_FRAME_BYTES, &mut frame).expect("encode");
    frame
}

fn frame_len(resp: &ControlResponse) -> usize {
    let mut frame = Vec::new();
    let env = ResponseEnvelope {
        id: 1,
        resp: resp.clone(),
    };
    encode_frame(&env, WireFormat::Binary, MAX_FRAME_BYTES, &mut frame).expect("encode");
    frame.len()
}

/// Reads replies `1..=count` off a raw connection, checking their order.
fn read_replies(stream: &mut TcpStream, count: u64) -> Vec<ControlResponse> {
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut replies = Vec::new();
    while (replies.len() as u64) < count {
        let n = stream.read(&mut chunk).expect("read replies");
        assert!(n > 0, "server closed a healthy connection");
        decoder.extend(&chunk[..n]);
        while let Some((reply, _)) = decoder.next_frame::<ResponseEnvelope>().expect("decode") {
            assert_eq!(reply.id, replies.len() as u64 + 1, "replies out of order");
            replies.push(reply.resp);
        }
    }
    replies
}

/// The answer is produced 100 ms after the reactor went to sleep on a
/// 30 s timeout: it comes back through the completion wake-up — at most
/// one byte — and an idle reactor afterwards does not wake at all.
#[test]
fn completion_wakes_a_blocked_reactor_and_idle_means_no_wakeups() {
    let delay = Duration::from_millis(100);
    let config = ServiceConfig::default().with_io_threads(1);
    let (vitald, server, addr) = daemon(4, config);
    vitald.controller().set_app_resolver(slow_resolver(delay));
    let remote = RemoteClient::connect(&addr).expect("connect");

    let writes_before = counter(&vitald, "service.reactor.wake_writes");
    let t0 = Instant::now();
    assert!(remote.call(prepare("slow")).expect("call").is_ok());
    let took = t0.elapsed();
    assert!(took >= delay, "answered before the worker ran: {took:?}");
    assert!(
        took < delay + Duration::from_secs(5),
        "answer waited for a timeout, not for its wake-up: {took:?}"
    );
    assert_eq!(
        counter(&vitald, "service.reactor.wake_writes") - writes_before,
        1,
        "one blocked reactor, one completion: one byte"
    );

    let idle = wakeups(&vitald);
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(wakeups(&vitald), idle, "an idle reactor woke up");
    assert_eq!(server.connection_count(), 1);

    server.stop();
    vitald.shutdown();
}

/// One reactor, two connections: a `Prepare` parked inside the app
/// resolver on one (the test holds it there) does not hold up a `Status`
/// on the other; released, the parked request is answered too.
#[test]
fn slow_request_does_not_delay_another_connection_of_the_same_reactor() {
    let (vitald, server, addr) = daemon(4, ServiceConfig::default().with_io_threads(1));
    let (entered_tx, entered) = mpsc::channel::<()>();
    let (release, released) = mpsc::channel::<()>();
    let gate = Mutex::new((entered_tx, released));
    vitald
        .controller()
        .set_app_resolver(Box::new(move |name: &str| {
            let gate = gate.lock().unwrap();
            gate.0.send(()).unwrap();
            gate.1.recv().unwrap();
            Err(RuntimeError::UnknownApp(name.to_string()))
        }));

    let mut slow = TcpStream::connect(&addr).expect("connect");
    let prepare = ControlRequest::Prepare { app: "x".into() };
    slow.write_all(&frame(1, prepare)).unwrap();
    entered.recv().expect("the Prepare reached the resolver");

    let fast = RemoteClient::connect(&addr).expect("connect");
    assert!(fast.call(ControlRequest::Status).expect("call").is_ok());
    assert_eq!(server.connection_count(), 2);

    release.send(()).unwrap();
    let replies = read_replies(&mut slow, 1);
    assert_eq!(
        replies[0].err().map(|e| e.code),
        Some(ErrorCode::UnknownApp)
    );

    server.stop();
    vitald.shutdown();
}

/// A peer that goes away with a request in flight — politely (FIN) or
/// with a reset after its FIN, which finds the connection with no read
/// interest left — is dropped, and poll(2) reporting the hang-up on every
/// call (asked for or not) does not turn the wait into a spin.
#[test]
fn vanished_peer_neither_leaks_the_connection_nor_spins_the_reactor() {
    let delay = Duration::from_millis(300);
    let config = ServiceConfig::default().with_io_threads(1);
    let (vitald, server, addr) = daemon(4, config);
    vitald.controller().set_app_resolver(slow_resolver(delay));
    let before = wakeups(&vitald);

    // FIN: served to the end (the answer has nowhere to go), then dropped.
    let mut polite = TcpStream::connect(&addr).expect("connect");
    polite.write_all(&frame(1, prepare("polite"))).unwrap();
    drop(polite);

    // FIN, then RST: two requests (one session, so the second runs its
    // slow resolve after the first), write side closed. Closing with the
    // first reply unread resets the connection while the second request
    // is still executing and the server, having seen EOF, asks poll(2)
    // for nothing on this socket.
    let mut rude = TcpStream::connect(&addr).expect("connect");
    rude.write_all(&frame(1, prepare("rude1"))).unwrap();
    rude.write_all(&frame(2, prepare("rude2"))).unwrap();
    rude.shutdown(Shutdown::Write).unwrap();
    eventually("the first reply", || {
        rude.peek(&mut [0u8; 1]).is_ok_and(|n| n == 1)
    });
    let reset_at = Instant::now();
    drop(rude);

    eventually("both connections to be dropped", || {
        server.connection_count() == 0
    });
    assert!(
        reset_at.elapsed() < delay / 2,
        "the reset connection lived until its request completed"
    );
    std::thread::sleep(2 * delay);
    let spent = wakeups(&vitald) - before;
    assert!(spent < 32, "{spent} wake-ups for two short connections");

    server.stop();
    vitald.shutdown();
}

/// Far more reply bytes than the socket buffers hold, to a peer that
/// reads nothing until the server is stuck: the rest goes out as the
/// socket turns writable, complete and in order.
#[test]
fn reply_backlog_to_a_slow_reader_completes_on_writability() {
    const REQUESTS: u64 = 1500;
    let mut config = ServiceConfig::default()
        .with_io_threads(1)
        .with_queue_capacity(4 * REQUESTS as usize);
    config.per_session_limit = REQUESTS as usize;
    let (vitald, server, addr) = daemon(256, config);
    let mut peer = TcpStream::connect(&addr).expect("connect");
    let burst: Vec<u8> = (1..=REQUESTS)
        .flat_map(|id| frame(id, ControlRequest::Status))
        .collect();
    peer.write_all(&burst).unwrap();

    // Blocked on an unwritable socket is blocked: wake-ups stop.
    eventually("the reactor to fill the socket and block", || {
        let seen = wakeups(&vitald);
        std::thread::sleep(Duration::from_millis(50));
        seen == wakeups(&vitald)
    });
    let replies = read_replies(&mut peer, REQUESTS);
    assert!(replies.iter().all(ControlResponse::is_ok));
    let bytes: usize = replies.len() * frame_len(&replies[0]);
    assert!(bytes > 16 << 20, "only {bytes} reply bytes: not a backlog");

    server.stop();
    vitald.shutdown();
}

/// With no traffic at all after the request, the reactor still turns a
/// call nobody answers in time into a typed `Timeout`: its wait is bounded
/// by the head-of-line expiry, not by somebody else's activity.
#[test]
fn timeout_is_synthesized_with_no_traffic() {
    let timeout = Duration::from_millis(200);
    let config = ServiceConfig::default()
        .with_io_threads(1)
        .with_request_timeout(timeout);
    let (vitald, server, addr) = daemon(4, config);
    vitald
        .controller()
        .set_app_resolver(slow_resolver(4 * timeout));
    let remote = RemoteClient::connect(&addr).expect("connect");

    let t0 = Instant::now();
    let resp = remote.call(prepare("slow")).expect("call");
    let took = t0.elapsed();
    assert_eq!(resp.err().map(|e| e.code), Some(ErrorCode::Timeout));
    assert!(took >= timeout, "timed out early: {took:?}");
    assert!(
        took < 3 * timeout,
        "waited for the worker instead: {took:?}"
    );

    server.stop();
    vitald.shutdown();
}

/// `stop()` wakes every reactor instead of waiting for it to come round.
#[test]
fn stop_with_idle_connections_returns_promptly() {
    let (vitald, server, addr) = daemon(4, ServiceConfig::default());
    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    eventually("every connection to be adopted", || {
        server.connection_count() == idle.len()
    });

    let t0 = Instant::now();
    server.stop();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(50), "stop() took {took:?}");

    for mut stream in idle {
        let mut byte = [0u8; 1];
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            matches!(stream.read(&mut byte), Ok(0) | Err(_)),
            "connection survived stop()"
        );
    }
    vitald.shutdown();
}
