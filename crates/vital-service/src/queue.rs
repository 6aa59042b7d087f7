//! The bounded, session-fair admission queue.
//!
//! Submissions are grouped by session and drained round-robin, so one
//! chatty tenant cannot starve the rest. The queue is bounded twice over —
//! a global capacity and a per-session allowance — and a submission that
//! would exceed either is rejected **at push time** with
//! [`ServiceError::Overloaded`]: the request never executes, acquires no
//! resources, and therefore cannot leak anything. Backpressure is a typed
//! answer, not a deadlock.
//!
//! Built on [`std::sync::Mutex`]/[`Condvar`] (the vendored `parking_lot`
//! carries no condition variable) — the queue holds the lock only for
//! pointer shuffling, never across request execution.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::error::ServiceError;
use crate::slot::SlotHandle;
use vital_runtime::ControlRequest;

/// One queued request: what to run, who asked, and where to put the
/// answer.
pub(crate) struct Job {
    /// The request to execute.
    pub req: ControlRequest,
    /// The submitting session.
    pub session: u64,
    /// When the job entered the queue (latency accounting).
    pub enqueued: Instant,
    /// Deadline after which the job is answered `Timeout` unexecuted.
    pub deadline: Instant,
    /// Completion slot the submitting client waits on.
    pub slot: SlotHandle,
}

struct Inner {
    /// Pending jobs per session.
    sessions: BTreeMap<u64, VecDeque<Job>>,
    /// Round-robin rotation over sessions with pending jobs.
    order: VecDeque<u64>,
    /// Total queued jobs (sum of all session queues).
    len: usize,
    /// Once set, pushes are rejected with `Draining`; pops keep serving
    /// until the queue is empty, then return `None`.
    draining: bool,
}

/// The session-fair bounded queue between clients and the worker pool.
pub(crate) struct FairQueue {
    capacity: usize,
    per_session: usize,
    inner: Mutex<Inner>,
    not_empty: Condvar,
    /// Signalled whenever the queue shrinks (shutdown waits on empty).
    got_smaller: Condvar,
}

impl FairQueue {
    pub fn new(capacity: usize, per_session: usize) -> Self {
        FairQueue {
            capacity,
            per_session,
            inner: Mutex::new(Inner {
                sessions: BTreeMap::new(),
                order: VecDeque::new(),
                len: 0,
                draining: false,
            }),
            not_empty: Condvar::new(),
            got_smaller: Condvar::new(),
        }
    }

    /// Admits a job, or rejects it without side effects.
    pub fn push(&self, job: Job, retry_after_ms: u64) -> Result<(), ServiceError> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.draining {
            return Err(ServiceError::Draining { retry_after_ms });
        }
        if inner.len >= self.capacity {
            return Err(ServiceError::Overloaded { retry_after_ms });
        }
        let session = job.session;
        let q = inner.sessions.entry(session).or_default();
        if q.len() >= self.per_session {
            return Err(ServiceError::Overloaded { retry_after_ms });
        }
        let was_empty = q.is_empty();
        q.push_back(job);
        inner.len += 1;
        if was_empty {
            inner.order.push_back(session);
        }
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Takes the next job round-robin, blocking while the queue is empty.
    /// Returns `None` once the queue is draining *and* empty. Workers use
    /// [`FairQueue::pop_many`]; this single-job form remains as the
    /// reference semantics the batched pop is tested against.
    #[cfg(test)]
    pub fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(job) = Self::take_next(&mut inner) {
                self.got_smaller.notify_all();
                return Some(job);
            }
            if inner.draining {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Takes up to `max` jobs in one lock acquisition, blocking while the
    /// queue is empty — the worker fast path: at high load one
    /// mutex/condvar round trip is amortized over the whole sweep instead
    /// of paid per request. Jobs come out in exactly the order repeated
    /// [`FairQueue::pop`] calls would produce (round-robin across
    /// sessions, FIFO within one). Returns `None` once draining *and*
    /// empty.
    pub fn pop_many(&self, max: usize) -> Option<Vec<Job>> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(job) = Self::take_next(&mut inner) {
                let mut jobs = vec![job];
                while jobs.len() < max {
                    match Self::take_next(&mut inner) {
                        Some(j) => jobs.push(j),
                        None => break,
                    }
                }
                drop(inner);
                self.got_smaller.notify_all();
                return Some(jobs);
            }
            if inner.draining {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock poisoned");
        }
    }

    fn take_next(inner: &mut Inner) -> Option<Job> {
        let session = *inner.order.front()?;
        let q = inner
            .sessions
            .get_mut(&session)
            .expect("ordered session has a queue");
        let job = q.pop_front().expect("ordered session queue is non-empty");
        inner.len -= 1;
        inner.order.pop_front();
        if q.is_empty() {
            inner.sessions.remove(&session);
        } else {
            // Rotate: the session goes to the back of the service order.
            inner.order.push_back(session);
        }
        Some(job)
    }

    /// Flips the queue into draining mode: new pushes are rejected with
    /// `Draining`, queued jobs still execute, and blocked workers wake so
    /// they can observe the exit condition.
    pub fn drain(&self) {
        self.inner.lock().expect("queue lock poisoned").draining = true;
        self.not_empty.notify_all();
    }

    /// Blocks until every queued job has been taken by a worker.
    pub fn wait_empty(&self) {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        while inner.len > 0 {
            inner = self.got_smaller.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Queued jobs right now.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").len
    }

    /// `true` while `session` has jobs queued here (the shard layer uses
    /// this to decide whether a session pin may be dropped).
    pub fn has_session(&self, session: u64) -> bool {
        self.inner
            .lock()
            .expect("queue lock poisoned")
            .sessions
            .contains_key(&session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn job(session: u64) -> Job {
        Job {
            req: ControlRequest::Status,
            session,
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(60),
            slot: SlotHandle::new(),
        }
    }

    #[test]
    fn bounded_push_rejects_overloaded() {
        let q = FairQueue::new(2, 2);
        q.push(job(1), 10).unwrap();
        q.push(job(1), 10).unwrap();
        let err = q.push(job(1), 10).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { .. }));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn per_session_cap_rejects_before_global() {
        let q = FairQueue::new(100, 1);
        q.push(job(1), 10).unwrap();
        assert!(matches!(
            q.push(job(1), 10),
            Err(ServiceError::Overloaded { .. })
        ));
        // A different session still fits.
        q.push(job(2), 10).unwrap();
    }

    #[test]
    fn pop_is_round_robin_across_sessions() {
        let q = FairQueue::new(100, 10);
        q.push(job(1), 10).unwrap();
        q.push(job(1), 10).unwrap();
        q.push(job(2), 10).unwrap();
        let order: Vec<u64> = (0..3).map(|_| q.pop().unwrap().session).collect();
        assert_eq!(order, vec![1, 2, 1]);
    }

    #[test]
    fn draining_rejects_pushes_and_unblocks_pop() {
        let q = FairQueue::new(10, 10);
        q.push(job(1), 10).unwrap();
        q.drain();
        assert!(matches!(
            q.push(job(1), 10),
            Err(ServiceError::Draining { .. })
        ));
        assert!(q.pop().is_some(), "queued work survives the drain");
        assert!(q.pop().is_none(), "drained and empty means stop");
    }

    #[test]
    fn pop_many_matches_pop_order_in_one_lock() {
        let q = FairQueue::new(100, 10);
        q.push(job(1), 10).unwrap();
        q.push(job(1), 10).unwrap();
        q.push(job(2), 10).unwrap();
        let jobs = q.pop_many(2).unwrap();
        assert_eq!(
            jobs.iter().map(|j| j.session).collect::<Vec<_>>(),
            vec![1, 2],
            "round-robin order, exactly like repeated pop"
        );
        let rest = q.pop_many(8).unwrap();
        assert_eq!(rest.len(), 1, "takes what is there without blocking");
        q.drain();
        assert!(q.pop_many(8).is_none(), "drained and empty means stop");
    }
}
