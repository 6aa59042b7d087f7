//! Tuning knobs of one `vitald` instance.

use std::time::Duration;

/// Configuration of the admission pipeline and worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads executing requests against the controller.
    pub workers: usize,
    /// Independent admission-queue shards (power-of-two-choices places
    /// each session on one of them; see DESIGN.md §13). Clamped to the
    /// worker count at spawn time so every shard has a dedicated worker;
    /// `1` reproduces the single global queue.
    pub shards: usize,
    /// Reactor threads multiplexing TCP connections in the
    /// [`ServiceServer`](crate::ServiceServer); each thread owns a set of
    /// non-blocking connections.
    pub io_threads: usize,
    /// Largest wire frame (payload bytes) the server and its clients
    /// accept; bigger announcements are refused before allocation.
    pub max_frame_bytes: usize,
    /// Total requests the admission queue holds before new submissions
    /// are rejected with `Overloaded` (split evenly across shards).
    pub queue_capacity: usize,
    /// Queued requests allowed per session; one chatty tenant cannot
    /// starve the others past this.
    pub per_session_limit: usize,
    /// Deadline per request, covering both queue wait and execution. A
    /// request that goes stale in the queue is answered `Timeout` without
    /// ever executing; a caller stops waiting after the same span.
    pub request_timeout: Duration,
    /// Most jobs a worker takes from its shard's queue per lock
    /// acquisition; they then execute one by one, in pop order, each
    /// answered as soon as it finishes.
    pub batch_max: usize,
    /// Artificial pause before each executed request — a fault-injection
    /// knob for tests that need a provably full queue. Zero in production.
    pub worker_delay: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            shards: 4,
            io_threads: 2,
            max_frame_bytes: crate::wire::MAX_FRAME_BYTES,
            queue_capacity: 256,
            per_session_limit: 32,
            request_timeout: Duration::from_secs(30),
            batch_max: 8,
            worker_delay: Duration::ZERO,
        }
    }
}

impl ServiceConfig {
    /// Override the worker-thread count (minimum 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Override the admission-shard count (minimum 1; clamped to the
    /// worker count at spawn time).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Override the TCP reactor thread count (minimum 1).
    #[must_use]
    pub fn with_io_threads(mut self, io_threads: usize) -> Self {
        self.io_threads = io_threads.max(1);
        self
    }

    /// Override the per-frame byte ceiling (minimum 1 KiB, so a response
    /// envelope always fits).
    #[must_use]
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes.max(1024);
        self
    }

    /// The shard count actually used at spawn time: never more than the
    /// worker pool can drain (each shard needs a dedicated worker).
    pub fn effective_shards(&self) -> usize {
        self.shards.clamp(1, self.workers.max(1))
    }

    /// Override the admission-queue capacity (minimum 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Override the per-session queued-request allowance (minimum 1).
    #[must_use]
    pub fn with_per_session_limit(mut self, limit: usize) -> Self {
        self.per_session_limit = limit.max(1);
        self
    }

    /// Override the per-request deadline.
    #[must_use]
    pub fn with_request_timeout(mut self, timeout: Duration) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Override the jobs taken per queue-lock acquisition (minimum 1).
    #[must_use]
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Inject an artificial pause before each executed request (tests).
    #[must_use]
    pub fn with_worker_delay(mut self, delay: Duration) -> Self {
        self.worker_delay = delay;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_to_sane_minimums() {
        let c = ServiceConfig::default()
            .with_workers(0)
            .with_shards(0)
            .with_io_threads(0)
            .with_max_frame_bytes(0)
            .with_queue_capacity(0)
            .with_per_session_limit(0)
            .with_batch_max(0);
        assert_eq!(c.workers, 1);
        assert_eq!(c.shards, 1);
        assert_eq!(c.io_threads, 1);
        assert_eq!(c.max_frame_bytes, 1024);
        assert_eq!(c.queue_capacity, 1);
        assert_eq!(c.per_session_limit, 1);
        assert_eq!(c.batch_max, 1);
    }

    #[test]
    fn effective_shards_never_exceed_workers() {
        let c = ServiceConfig::default().with_workers(2).with_shards(8);
        assert_eq!(c.effective_shards(), 2);
        let c = ServiceConfig::default().with_workers(8).with_shards(8);
        assert_eq!(c.effective_shards(), 8);
        let c = ServiceConfig::default().with_workers(1).with_shards(4);
        assert_eq!(c.effective_shards(), 1);
    }
}
