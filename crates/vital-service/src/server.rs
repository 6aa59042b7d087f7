//! The TCP front of a [`Vitald`]: a small pool of reactor threads, each
//! multiplexing many **non-blocking** connections (DESIGN.md §13.2).
//!
//! A reactor **blocks until something can happen**: one `poll(2)` over
//! its sockets, reactor 0's listener, and its [`Waker`] — which a worker
//! writes to when it publishes an answer for one of the reactor's
//! connections, as do the accept path and [`ServiceServer::stop`]. The
//! wait's timeout is the earliest head-of-line [`PendingCall`] expiry, so
//! an idle daemon makes no periodic wake-ups. After the wait only ready
//! connections are touched: read what arrived, feed the incremental
//! [`FrameDecoder`], submit complete requests ([`ServiceClient::submit`]
//! — non-blocking) and serialize finished responses in **request order**
//! per connection, so requests from one connection pipeline.
//!
//! Error containment per connection: an oversized frame, or one whose
//! envelope is garbage, poisons only that connection (dropped without a
//! reply); a well-framed envelope whose request does not parse, and
//! admission rejections (`Overloaded`, `Draining`), are answered inline
//! as typed [`ControlResponse::Err`] frames without ever touching a
//! worker.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vital_runtime::ControlResponse;

use crate::poll::{self, PollFd, POLLGONE, POLLIN, POLLOUT};
use crate::service::{PendingCall, ServiceClient, Vitald};
use crate::slot::Waker;
use crate::wire::{FrameDecoder, IncomingRequest, ResponseEnvelope, WireFormat};
use crate::ServiceError;

/// Reads per sweep are bounded by this scratch size per connection.
const READ_CHUNK: usize = 64 * 1024;

/// Stop reading from a connection whose unflushed response bytes exceed
/// this (a slow reader cannot balloon server memory); reads resume once
/// the backlog drains.
const WRITE_BACKLOG_LIMIT: usize = 4 << 20;

/// How long the listener sits out of the poll set after `accept` failed
/// for a reason waiting does not cure (descriptor exhaustion): it stays
/// readable meanwhile, so polling it again at once would spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// A running TCP listener bound to a [`Vitald`]. Stops (and joins its
/// threads) on [`ServiceServer::stop`] or drop.
pub struct ServiceServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactors: Arc<[Reactor]>,
    io_threads: Vec<JoinHandle<()>>,
}

impl ServiceServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting. Each
    /// connection becomes its own service session, assigned to the
    /// reactor thread with the fewest live connections.
    pub fn serve(vitald: &Vitald, addr: &str) -> std::io::Result<ServiceServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let config = vitald.config();
        let max_frame_bytes = config.max_frame_bytes;
        let reactors: Arc<[Reactor]> = (0..config.io_threads.max(1))
            .map(|_| Reactor::new())
            .collect::<std::io::Result<_>>()?;

        // Reactor 0 also owns the listener and deals what it accepts.
        let mut listener = Some(listener);
        let mut io_threads = Vec::with_capacity(reactors.len());
        for i in 0..reactors.len() {
            let (reactors, stop) = (Arc::clone(&reactors), Arc::clone(&stop));
            let (listener, clients) = (listener.take(), vitald.client());
            io_threads.push(
                std::thread::Builder::new()
                    .name(format!("vitald-io-{i}"))
                    .spawn(move || {
                        reactor_loop(&reactors, i, listener, clients, &stop, max_frame_bytes)
                    })?,
            );
        }

        Ok(ServiceServer {
            addr: local,
            stop,
            reactors,
            io_threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open, across all reactors.
    pub fn connection_count(&self) -> usize {
        self.reactors
            .iter()
            .map(|r| r.load.load(Ordering::Relaxed))
            .sum()
    }

    /// Stops accepting, disconnects every connection, joins every thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for reactor in self.reactors.iter() {
            reactor.waker.wake();
        }
        for t in self.io_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// What other threads share with one reactor thread.
struct Reactor {
    /// Accepted streams dealt to this reactor, not yet adopted by it.
    inbox: Mutex<Vec<TcpStream>>,
    /// Connections dealt and not yet closed (the dealing metric).
    load: AtomicUsize,
    /// Ends this reactor's wait; see [`Waker`] for the protocol.
    waker: Arc<Waker>,
}

impl Reactor {
    fn new() -> std::io::Result<Reactor> {
        Ok(Reactor {
            inbox: Mutex::new(Vec::new()),
            load: AtomicUsize::new(0),
            waker: Waker::new()?,
        })
    }
}

/// Accepts until the listener runs dry, dealing each stream to the
/// least-loaded reactor and waking it. `Err` is a failure that leaves the
/// listener readable (see [`ACCEPT_RETRY`]).
fn accept_ready(listener: &TcpListener, reactors: &[Reactor]) -> std::io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let target = reactors
                    .iter()
                    .min_by_key(|r| r.load.load(Ordering::Relaxed))
                    .expect("at least one reactor");
                target.load.fetch_add(1, Ordering::Relaxed);
                target.inbox.lock().expect("inbox poisoned").push(stream);
                target.waker.wake();
            }
            Err(e) => match e.kind() {
                ErrorKind::WouldBlock => return Ok(()),
                // The peer gave up while queued, or a signal: next, please.
                ErrorKind::ConnectionAborted | ErrorKind::Interrupted => {}
                _ => return Err(e),
            },
        }
    }
}

/// A response owed to the peer, in request order.
enum Owed {
    /// Executing (or queued) in the service; resolves via its slot.
    InFlight(u64, PendingCall),
    /// Already decided (admission rejection), awaiting serialization.
    Ready(u64, ControlResponse),
}

/// One multiplexed connection's state.
struct Conn {
    stream: TcpStream,
    client: ServiceClient,
    decoder: FrameDecoder,
    /// Responses owed, FIFO in request arrival order.
    owed: VecDeque<Owed>,
    /// Serialized-but-unflushed response bytes.
    outbuf: Vec<u8>,
    written: usize,
    /// Encoding of the most recent request; responses mirror it.
    format: WireFormat,
    /// Peer closed its write side; serve what is owed, then drop.
    eof: bool,
    /// Poisoned (protocol violation or I/O error): drop immediately.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, client: ServiceClient, max_frame_bytes: usize) -> Self {
        Conn {
            stream,
            client,
            decoder: FrameDecoder::new(max_frame_bytes),
            owed: VecDeque::new(),
            outbuf: Vec::new(),
            written: 0,
            format: WireFormat::Binary,
            eof: false,
            dead: false,
        }
    }

    /// `true` once the connection can be dropped.
    fn finished(&self) -> bool {
        self.dead || (self.eof && self.owed.is_empty() && self.written == self.outbuf.len())
    }

    /// What to wait for on this socket. No read interest after EOF, nor
    /// under back-pressure: a peer that won't read its responses doesn't
    /// get to keep submitting.
    fn interest(&self) -> i16 {
        let backlog = self.outbuf.len() - self.written;
        let read = !self.eof && backlog <= WRITE_BACKLOG_LIMIT;
        (if read { POLLIN } else { 0 }) | (if backlog > 0 { POLLOUT } else { 0 })
    }

    /// The call the peer is owed next, if a worker still has to answer it.
    fn head_in_flight(&self) -> Option<&PendingCall> {
        match self.owed.front() {
            Some(Owed::InFlight(_, pending)) => Some(pending),
            _ => None,
        }
    }

    /// Does what the wait reported (`revents`) for this socket, then
    /// writes back whatever has been answered. A connection the wait did
    /// not report costs one look at its head-of-line slot and no syscall.
    fn serve(&mut self, revents: i16, scratch: &mut [u8], max_frame_bytes: usize) {
        // `poll(2)` reports a reset or fully closed peer whatever was
        // asked for, so such a connection must not survive this call (or
        // the wait would spin on it): attempt the I/O and let the error,
        // or the lack of any progress, poison it.
        let gone = revents & POLLGONE != 0;
        if revents & POLLOUT != 0 || gone {
            self.flush();
        }
        if revents & POLLIN != 0 || gone {
            let read = self.pump_reads(scratch);
            self.dead |= gone && read == 0;
        }
        if self.pump_responses(max_frame_bytes) > 0 {
            self.flush();
        }
    }

    /// Flushes as much of `outbuf` as the socket accepts right now.
    fn flush(&mut self) {
        while self.written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.written == self.outbuf.len() && !self.outbuf.is_empty() {
            self.outbuf.clear();
            self.written = 0;
        }
    }

    /// Reads available bytes and turns complete frames into submissions.
    /// Returns bytes read.
    fn pump_reads(&mut self, scratch: &mut [u8]) -> usize {
        let mut progressed = 0;
        while !self.dead {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    progressed += n;
                    self.decoder.extend(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
        }
        while !self.dead {
            match self.decoder.next_frame::<IncomingRequest>() {
                Ok(Some((env, format))) => {
                    self.format = format;
                    let submitted = env.req.and_then(|req| self.client.submit(req));
                    self.owed.push_back(match submitted {
                        Ok(pending) => Owed::InFlight(env.id, pending),
                        // A request that does not parse, or a typed
                        // admission rejection: answered in line, in
                        // order, without a worker.
                        Err(e) => Owed::Ready(env.id, ControlResponse::Err((&e).into())),
                    });
                }
                Ok(None) => break,
                // Garbage on the wire poisons this connection only.
                Err(_) => self.dead = true,
            }
        }
        progressed
    }

    /// Serializes every response that is ready, strictly in request
    /// order. Returns responses serialized.
    fn pump_responses(&mut self, max_frame_bytes: usize) -> usize {
        let mut progressed = 0;
        while let Some(owed) = self.owed.pop_front() {
            let (id, resp) = match owed {
                Owed::Ready(id, resp) => (id, resp),
                Owed::InFlight(id, pending) => match pending.poll() {
                    Some(resp) => (id, resp),
                    None => {
                        self.owed.push_front(Owed::InFlight(id, pending));
                        break;
                    }
                },
            };
            let reply = ResponseEnvelope { id, resp };
            if crate::wire::encode_frame(&reply, self.format, max_frame_bytes, &mut self.outbuf)
                .is_err()
            {
                // A response too large for the frame limit: answer with a
                // typed protocol error instead of silence.
                let e = ServiceError::Protocol(format!(
                    "response exceeds the {max_frame_bytes} byte frame limit"
                ));
                let fallback = ResponseEnvelope {
                    id: reply.id,
                    resp: ControlResponse::Err((&e).into()),
                };
                if crate::wire::encode_frame(
                    &fallback,
                    self.format,
                    max_frame_bytes,
                    &mut self.outbuf,
                )
                .is_err()
                {
                    self.dead = true;
                    break;
                }
            }
            progressed += 1;
        }
        progressed
    }
}

/// One reactor thread: `reactors[me]`, plus the listener on reactor 0.
/// Each turn blocks in [`poll::wait`] and then serves what it reported.
fn reactor_loop(
    reactors: &[Reactor],
    me: usize,
    listener: Option<TcpListener>,
    clients: ServiceClient,
    stop: &AtomicBool,
    max_frame_bytes: usize,
) {
    let Reactor { inbox, load, waker } = &reactors[me];
    let telemetry = clients.telemetry();
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut accept_after: Option<Instant> = None;
    loop {
        // The poll set: [waker, listener, connections...]. The listener's
        // entry is a skipped placeholder on reactors that have none and
        // while accepting is backing off.
        accept_after = accept_after.filter(|&t| Instant::now() < t);
        let listening = listener.as_ref().filter(|_| accept_after.is_none());
        fds.clear();
        fds.push(PollFd::new(Some(waker.fd()), POLLIN));
        fds.push(PollFd::new(listening.map(AsRawFd::as_raw_fd), POLLIN));
        fds.extend(
            conns
                .iter()
                .map(|c| PollFd::new(Some(c.stream.as_raw_fd()), c.interest())),
        );

        // Arm, re-check what a waker may have published meanwhile, block:
        // from `arm` on, a publication this re-check misses writes the
        // byte that ends the wait. The timeout is the earliest moment a
        // head-of-line call turns into a synthesized `Timeout`.
        waker.arm();
        let due = stop.load(Ordering::SeqCst)
            || !inbox.lock().expect("inbox poisoned").is_empty()
            || conns
                .iter()
                .any(|c| c.head_in_flight().is_some_and(PendingCall::is_published));
        let wake_at = conns
            .iter()
            .filter_map(|c| c.head_in_flight().map(PendingCall::expires_at))
            .chain(accept_after)
            .min();
        let timeout = if due {
            Some(Duration::ZERO)
        } else {
            wake_at.map(|at| at.saturating_duration_since(Instant::now()))
        };
        let waited = poll::wait(&mut fds, timeout);
        waker.disarm();
        telemetry.inc_counter("service.reactor.wakeups", 1);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if waited.is_err() {
            // Not a readiness report (out of kernel memory): nothing below
            // would be told what is ready, so just wait again.
            std::thread::yield_now();
            continue;
        }

        if fds[0].revents() != 0 {
            telemetry.inc_counter("service.reactor.wake_writes", waker.drain());
        }
        if let (Some(listener), true) = (listening, fds[1].revents() != 0) {
            if accept_ready(listener, reactors).is_err() {
                accept_after = Some(Instant::now() + ACCEPT_RETRY);
            }
        }
        for (conn, fd) in conns.iter_mut().zip(&fds[2..]) {
            conn.serve(fd.revents(), &mut scratch, max_frame_bytes);
        }
        let before = conns.len();
        conns.retain(|c| !c.finished());
        load.fetch_sub(before - conns.len(), Ordering::Relaxed);

        // Adopt what the accept path dealt; the next wait covers them.
        for stream in inbox.lock().expect("inbox poisoned").drain(..) {
            if stream.set_nonblocking(true).is_err() {
                load.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let client = clients.sibling_waking(Arc::clone(waker));
            conns.push(Conn::new(stream, client, max_frame_bytes));
        }
    }
}
