//! The daemon core: per-shard worker pools draining a [`ShardSet`] into
//! the [`SystemController`], plus the in-process client.
//!
//! Request lifecycle (DESIGN.md §13): **queued** (admitted by
//! [`ShardSet::push`] — power-of-two-choices picks the session's shard) →
//! **admitted** (taken by the shard's worker; stale jobs are answered
//! `Timeout` here without executing) → **executing** (one
//! [`SystemController::execute`] call) → **done** (the response lands in
//! the caller's completion slot as soon as it exists).
//!
//! Submission is non-blocking: [`ServiceClient::submit`] returns a
//! [`PendingCall`] immediately, which the caller may poll
//! ([`PendingCall::poll`]) or block on ([`PendingCall::wait`]);
//! [`ServiceClient::call`] is submit-then-wait. A TCP reactor multiplexes
//! thousands of connections without doing either in a loop: each
//! connection's client carries the reactor's [`Waker`], every submission
//! leaves it in the completion slot, and the worker that publishes the
//! answer ends the reactor's `poll(2)` wait (DESIGN.md §13.2).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vital_runtime::{ControlRequest, ControlResponse, SystemController};
use vital_telemetry::Telemetry;

use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::queue::Job;
use crate::shard::ShardSet;
use crate::slot::{SlotHandle, Waker};

/// Per-endpoint latency histogram name (telemetry metric names must be
/// `'static`).
fn latency_hist(endpoint: &str) -> &'static str {
    match endpoint {
        "deploy" => "service.latency_us.deploy",
        "restore" => "service.latency_us.restore",
        "undeploy" => "service.latency_us.undeploy",
        "checkpoint" => "service.latency_us.checkpoint",
        "migrate" => "service.latency_us.migrate",
        "evacuate" => "service.latency_us.evacuate",
        "fail" => "service.latency_us.fail",
        "recover" => "service.latency_us.recover",
        "defrag" => "service.latency_us.defrag",
        "status" => "service.latency_us.status",
        "prepare" => "service.latency_us.prepare",
        _ => "service.latency_us.other",
    }
}

struct ServiceInner {
    controller: Arc<SystemController>,
    shards: ShardSet,
    config: ServiceConfig,
    next_session: AtomicU64,
}

impl ServiceInner {
    fn telemetry(&self) -> &Telemetry {
        self.controller.telemetry()
    }

    /// Suggested client back-off: half the request deadline, at least
    /// 1 ms — long enough to matter, short enough to retry within one
    /// deadline.
    fn retry_after_ms(&self) -> u64 {
        (self.config.request_timeout.as_millis() as u64 / 2).max(1)
    }

    /// Admits one request. `pinned` is the client's cached shard
    /// placement (`usize::MAX` = not placed yet): after the first
    /// submission the client remembers its shard and skips the shared
    /// pin table entirely — the hot path costs one shard-queue lock, no
    /// global state. A rejection clears both the cache and the table pin
    /// so the session is not nailed to a full shard. `waker` is the
    /// submitting reactor's, woken when the answer is published.
    fn submit(
        &self,
        session: u64,
        pinned: &AtomicUsize,
        waker: Option<&Arc<Waker>>,
        req: ControlRequest,
    ) -> Result<SlotHandle, ServiceError> {
        let slot = SlotHandle::new();
        if let Some(waker) = waker {
            slot.set_waker(Arc::clone(waker));
        }
        let now = Instant::now();
        let job = Job {
            req,
            session,
            enqueued: now,
            deadline: now + self.config.request_timeout,
            slot: slot.clone(),
        };
        let shard = match pinned.load(Ordering::Relaxed) {
            usize::MAX => {
                let s = self.shards.place(session);
                pinned.store(s, Ordering::Relaxed);
                s
            }
            s => s,
        };
        self.shards
            .push_to(shard, job, self.retry_after_ms())
            .map_err(|e| {
                pinned.store(usize::MAX, Ordering::Relaxed);
                self.shards.unpin_idle(session, shard);
                let name = match e {
                    ServiceError::Draining { .. } => "service.rejected_draining",
                    _ => "service.rejected_overload",
                };
                self.telemetry().inc_counter(name, 1);
                e
            })?;
        Ok(slot)
    }

    /// Executes one job and publishes its answer. The `service.request`
    /// span is recorded before the answer is published, so whoever holds
    /// the answer can already read the record of the request behind it.
    fn run(&self, shard: usize, job: Job) {
        let endpoint = job.req.endpoint();
        let mut span = self.telemetry().span("service.request");
        span.field("endpoint", endpoint);
        span.field("session", job.session);
        span.field("shard", shard);
        let resp = self.controller.execute(job.req);
        span.finish();
        let telemetry = self.telemetry();
        telemetry.record_hist(
            latency_hist(endpoint),
            job.enqueued.elapsed().as_micros() as f64,
        );
        telemetry.inc_counter("service.requests", 1);
        if !resp.is_ok() {
            telemetry.inc_counter("service.request_errors", 1);
        }
        job.slot.complete(resp);
    }

    /// Answers a job that went stale in the queue, without executing it —
    /// so the rejection provably acquired nothing.
    fn expire(&self, job: Job) {
        let timeout = ServiceError::Timeout {
            after: self.config.request_timeout,
        };
        self.telemetry().inc_counter("service.timeouts", 1);
        job.slot.complete(ControlResponse::Err((&timeout).into()));
    }

    /// One worker, bound to one shard. Jobs are taken in sweeps of up to
    /// `batch_max` per lock acquisition and executed one by one in pop
    /// order; every answer is published the moment it exists, so a fast
    /// response never waits out a slow neighbour (a `Prepare` runs a full
    /// P&R compile on this thread).
    fn worker_loop(&self, shard: usize) {
        let sweep = self.config.batch_max.max(1);
        while let Some(jobs) = self.shards.shard(shard).pop_many(sweep) {
            for job in jobs {
                if Instant::now() >= job.deadline {
                    self.expire(job);
                    continue;
                }
                self.run(shard, job);
            }
        }
    }
}

/// The `vitald` daemon: owns per-shard worker pools over one
/// [`SystemController`] and hands out sessions ([`ServiceClient`]).
/// Dropping without [`Vitald::shutdown`] aborts queued work with
/// `Draining` answers.
pub struct Vitald {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Vitald {
    /// Starts the worker pool over `controller`. The shard count is
    /// [`ServiceConfig::effective_shards`]; workers are distributed
    /// round-robin across shards, so every shard has at least one.
    pub fn spawn(controller: Arc<SystemController>, config: ServiceConfig) -> Self {
        let shards = config.effective_shards();
        let inner = Arc::new(ServiceInner {
            shards: ShardSet::new(shards, config.queue_capacity, config.per_session_limit),
            controller,
            config,
            next_session: AtomicU64::new(1),
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("vitald-worker-{i}"))
                    .spawn(move || inner.worker_loop(i % shards))
                    .expect("spawn worker thread")
            })
            .collect();
        Vitald { inner, workers }
    }

    /// A new session: requests submitted through the returned client get
    /// their own fairness allowance in the admission queue.
    pub fn client(&self) -> ServiceClient {
        ServiceClient::new(&self.inner, None)
    }

    /// The controller behind the service.
    pub fn controller(&self) -> &Arc<SystemController> {
        &self.inner.controller
    }

    /// The configuration this daemon was spawned with.
    pub(crate) fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Queued (not yet executing) requests right now, across all shards.
    pub fn queue_len(&self) -> usize {
        self.inner.shards.len()
    }

    /// Admission shards actually running.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.shard_count()
    }

    /// Graceful shutdown: stop admitting (new submissions are answered
    /// `Draining` with a retry hint), let every queued request finish,
    /// then join the workers.
    pub fn shutdown(mut self) {
        self.inner.shards.drain();
        self.inner.shards.wait_empty();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Vitald {
    fn drop(&mut self) {
        self.inner.shards.drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One submitted request awaiting its answer: poll it from a reactor or
/// block on it from a thread. Obtained from [`ServiceClient::submit`].
pub struct PendingCall {
    slot: SlotHandle,
    deadline: Instant,
    timeout: Duration,
}

impl PendingCall {
    /// Polls for the answer without blocking. Past the deadline (plus a
    /// small grace for a job taken right at its deadline), synthesizes a
    /// typed `Timeout` response — so a reactor never waits forever.
    pub fn poll(&self) -> Option<ControlResponse> {
        if let Some(resp) = self.slot.try_take() {
            return Some(resp);
        }
        if Instant::now() >= self.expires_at() {
            let e = ServiceError::Timeout {
                after: self.timeout,
            };
            return Some(ControlResponse::Err((&e).into()));
        }
        None
    }

    /// `true` if the next [`poll`](PendingCall::poll) would take a
    /// worker's answer.
    pub(crate) fn is_published(&self) -> bool {
        self.slot.is_complete()
    }

    /// When [`poll`](PendingCall::poll) starts synthesizing `Timeout`.
    pub(crate) fn expires_at(&self) -> Instant {
        self.deadline + self.timeout / 4
    }

    /// Blocks until the answer arrives; a deadline miss is the same typed
    /// `Timeout` response a poll would synthesize.
    pub fn wait(&self) -> ControlResponse {
        // Wait a little past the service deadline: a job taken right at
        // its deadline still answers.
        let grace = self.timeout / 4;
        match self.slot.wait(self.timeout + grace) {
            Some(resp) => resp,
            None => {
                let e = ServiceError::Timeout {
                    after: self.timeout,
                };
                ControlResponse::Err((&e).into())
            }
        }
    }
}

/// An in-process client: one session against a [`Vitald`]. Cheap to
/// clone-per-thread via [`Vitald::client`]; safe to share (`&self`
/// methods).
pub struct ServiceClient {
    inner: Arc<ServiceInner>,
    session: u64,
    /// Cached shard placement (`usize::MAX` until the first submission).
    /// Session affinity makes placement a per-session constant, so after
    /// the first request the client bypasses the shared pin table — the
    /// submit hot path touches only its own shard's queue lock.
    pinned: AtomicUsize,
    /// Set on the clients a TCP reactor mints for its connections.
    waker: Option<Arc<Waker>>,
}

impl ServiceClient {
    /// The session id of this client.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// A client on the same service under a **fresh** session id, for one
    /// TCP connection — it gets its own fairness allowance (and its own
    /// power-of-two-choices shard), exactly like [`Vitald::client`] — and
    /// every answer to its submissions wakes the reactor behind `waker`.
    pub(crate) fn sibling_waking(&self, waker: Arc<Waker>) -> ServiceClient {
        ServiceClient::new(&self.inner, Some(waker))
    }

    fn new(inner: &Arc<ServiceInner>, waker: Option<Arc<Waker>>) -> ServiceClient {
        ServiceClient {
            inner: Arc::clone(inner),
            session: inner.next_session.fetch_add(1, Ordering::Relaxed),
            pinned: AtomicUsize::new(usize::MAX),
            waker,
        }
    }

    /// The telemetry handle of the controller behind the service.
    pub(crate) fn telemetry(&self) -> &Telemetry {
        self.inner.telemetry()
    }

    /// Submits a request without waiting for it: the returned
    /// [`PendingCall`] resolves when a worker answers. Admission
    /// rejections (`Overloaded`, `Draining`) surface immediately as the
    /// `Err` arm — nothing was enqueued.
    pub fn submit(&self, req: ControlRequest) -> Result<PendingCall, ServiceError> {
        let slot = self
            .inner
            .submit(self.session, &self.pinned, self.waker.as_ref(), req)?;
        Ok(PendingCall {
            slot,
            deadline: Instant::now() + self.inner.config.request_timeout,
            timeout: self.inner.config.request_timeout,
        })
    }

    /// Submits a request and waits for its typed answer. Never blocks
    /// past the configured request timeout; admission rejections
    /// (`Overloaded`, `Draining`) and deadline misses come back as
    /// [`ControlResponse::Err`] values carrying the shared taxonomy, the
    /// same shape a remote client sees.
    pub fn call(&self, req: ControlRequest) -> ControlResponse {
        match self.try_call(req) {
            Ok(resp) => resp,
            Err(e) => ControlResponse::Err((&e).into()),
        }
    }

    /// Like [`ServiceClient::call`], with service-layer failures as a
    /// typed [`ServiceError`] instead of a response value.
    pub(crate) fn try_call(&self, req: ControlRequest) -> Result<ControlResponse, ServiceError> {
        let slot = self
            .inner
            .submit(self.session, &self.pinned, self.waker.as_ref(), req)?;
        let grace = self.inner.config.request_timeout / 4;
        slot.wait(self.inner.config.request_timeout + grace)
            .ok_or(ServiceError::Timeout {
                after: self.inner.config.request_timeout,
            })
    }
}
