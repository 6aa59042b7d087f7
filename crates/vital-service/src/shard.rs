//! Sharded admission: N independent [`FairQueue`]s fronted by
//! power-of-two-choices placement (DESIGN.md §13).
//!
//! One global queue serializes every submission and wakes every worker
//! through one mutex/condvar pair; at thousands of sessions that lock is
//! the control plane's bottleneck. A [`ShardSet`] splits admission into
//! `shards` independent queues, each drained by its own workers:
//!
//! * **Placement** is power-of-two-choices: a session's first submission
//!   samples two distinct shards and joins the shorter queue — within a
//!   constant of the best-possible balance at a fraction of the cost of
//!   tracking global load.
//! * **Affinity**: the chosen shard is pinned for the session's lifetime,
//!   so one session's requests stay FIFO in one queue and its fairness
//!   allowance (the per-session cap, the round-robin rotation) is
//!   enforced by exactly one [`FairQueue`] — sharding never splits a
//!   session's budget or reorders its requests.
//! * **Bounded memory**: the pin table is pruned of idle sessions once it
//!   grows past a threshold, so minting sessions forever cannot leak.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::ServiceError;
use crate::queue::{FairQueue, Job};

/// Prune idle pins once the table exceeds this many sessions.
const PIN_TABLE_PRUNE_AT: usize = 64 * 1024;

/// N independent admission queues with power-of-two-choices placement
/// and session affinity.
pub(crate) struct ShardSet {
    shards: Vec<FairQueue>,
    /// session id → pinned shard index.
    pins: Mutex<HashMap<u64, usize>>,
    /// splitmix64 state for the two shard samples.
    rng: AtomicU64,
}

impl ShardSet {
    /// Builds `shards` queues splitting `total_capacity` evenly (each
    /// shard gets at least one slot); `per_session` applies within the
    /// pinned shard, exactly as it did on the single global queue.
    pub fn new(shards: usize, total_capacity: usize, per_session: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = total_capacity.div_ceil(shards).max(1);
        ShardSet {
            shards: (0..shards)
                .map(|_| FairQueue::new(per_shard, per_session))
                .collect(),
            pins: Mutex::new(HashMap::new()),
            rng: AtomicU64::new(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The queue a worker bound to shard `i` drains.
    pub fn shard(&self, i: usize) -> &FairQueue {
        &self.shards[i]
    }

    /// One splitmix64 step — cheap, lock-free, good enough to decorrelate
    /// the two choices.
    fn next_rand(&self) -> u64 {
        let mut z = self
            .rng
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Picks the less-loaded of two distinct random shards.
    fn pick_two_choices(&self) -> usize {
        let n = self.shards.len();
        if n == 1 {
            return 0;
        }
        let r = self.next_rand();
        let a = (r % n as u64) as usize;
        // Sample b from the remaining n-1 shards so a == b is impossible.
        let b = ((r >> 32) % (n - 1) as u64) as usize;
        let b = if b >= a { b + 1 } else { b };
        if self.shards[a].len() <= self.shards[b].len() {
            a
        } else {
            b
        }
    }

    /// The shard `session` is pinned to, pinning it via two-choices on
    /// first use. Clients cache the answer (placement is a per-session
    /// constant), so steady-state submissions skip this lock entirely.
    pub fn place(&self, session: u64) -> usize {
        let mut pins = self.pins.lock().expect("pin table poisoned");
        if let Some(&shard) = pins.get(&session) {
            return shard;
        }
        if pins.len() >= PIN_TABLE_PRUNE_AT {
            // Drop pins of sessions with nothing queued; their next
            // submission simply re-runs two-choices.
            let shards = &self.shards;
            pins.retain(|&s, &mut shard| shards[shard].has_session(s));
        }
        let shard = self.pick_two_choices();
        pins.insert(session, shard);
        shard
    }

    /// Admits a job into its session's shard (power-of-two-choices on the
    /// session's first submission), or rejects it without side effects.
    /// The service's submit path caches placement client-side and uses
    /// [`ShardSet::place`]/[`ShardSet::push_to`] directly; this composed
    /// form is the reference semantics the property tests exercise.
    #[cfg(test)]
    pub fn push(&self, job: Job, retry_after_ms: u64) -> Result<(), ServiceError> {
        let session = job.session;
        let shard = self.place(session);
        self.push_to(shard, job, retry_after_ms)
            .inspect_err(|_| self.unpin_idle(session, shard))
    }

    /// Admits a job directly into `shard` — the fast path for clients
    /// that cached their placement. The caller owns the affinity
    /// invariant: `shard` must be the session's placed shard.
    pub fn push_to(&self, shard: usize, job: Job, retry_after_ms: u64) -> Result<(), ServiceError> {
        self.shards[shard].push(job, retry_after_ms)
    }

    /// Drops `session`'s pin unless it still has work queued in `shard` —
    /// a rejected first submission should not nail the session to a full
    /// shard forever; its next submission re-runs two-choices.
    pub fn unpin_idle(&self, session: u64, shard: usize) {
        if !self.shards[shard].has_session(session) {
            self.pins
                .lock()
                .expect("pin table poisoned")
                .remove(&session);
        }
    }

    /// Queued jobs across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FairQueue::len).sum()
    }

    /// Flips every shard into draining mode.
    pub fn drain(&self) {
        for q in &self.shards {
            q.drain();
        }
    }

    /// Blocks until every shard's queue is empty.
    pub fn wait_empty(&self) {
        for q in &self.shards {
            q.wait_empty();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::SlotHandle;
    use std::time::{Duration, Instant};
    use vital_runtime::ControlRequest;

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
    fn sessions_stay_pinned_to_one_shard() {
        let set = ShardSet::new(4, 400, 100);
        for _ in 0..16 {
            set.push(job(7), 1).unwrap();
        }
        let populated: Vec<usize> = (0..4).filter(|&i| set.shard(i).len() > 0).collect();
        assert_eq!(populated.len(), 1, "one session must live in one shard");
        assert_eq!(set.shard(populated[0]).len(), 16);
    }

    #[test]
    fn two_choices_balances_many_sessions() {
        let set = ShardSet::new(4, 100_000, 100);
        for session in 0..400 {
            set.push(job(session), 1).unwrap();
        }
        for i in 0..4 {
            let len = set.shard(i).len();
            // Perfect balance is 100/shard; two-choices stays well inside
            // a 2x envelope with overwhelming probability.
            assert!(
                (40..=200).contains(&len),
                "shard {i} got {len} of 400 sessions"
            );
        }
    }

    #[test]
    fn per_shard_capacity_rejects_without_pinning_empty_sessions() {
        // 2 shards x 1 slot each.
        let set = ShardSet::new(2, 2, 8);
        set.push(job(1), 1).unwrap();
        set.push(job(2), 1).unwrap();
        // Both shards are now full; a third session is rejected...
        assert!(set.push(job(3), 1).is_err());
        // ...but once a slot frees up, the same session can land there.
        assert!(set.shard(0).pop().is_some());
        assert!(set.shard(1).pop().is_some());
        set.push(job(3), 1)
            .expect("rejection did not poison the pin");
    }

    proptest::proptest! {
        /// No starvation, for any submission pattern: every pushed job is
        /// retrievable by draining the shards, each session's jobs all
        /// live on one shard (affinity), and their FIFO order survives.
        #[test]
        fn two_choices_never_strands_a_job(
            sessions in proptest::collection::vec(0u64..32, 1..200),
            shards in 1usize..8,
        ) {
            let set = ShardSet::new(shards, 100_000, 10_000);
            let mut expected: std::collections::HashMap<u64, usize> =
                std::collections::HashMap::new();
            for &s in &sessions {
                set.push(job(s), 1).unwrap();
                *expected.entry(s).or_default() += 1;
            }
            proptest::prop_assert_eq!(set.len(), sessions.len());

            // Drain flips pop() to non-blocking; collect everything.
            set.drain();
            let mut seen: std::collections::HashMap<u64, usize> =
                std::collections::HashMap::new();
            let mut home: std::collections::HashMap<u64, usize> =
                std::collections::HashMap::new();
            for i in 0..set.shard_count() {
                while let Some(j) = set.shard(i).pop() {
                    *seen.entry(j.session).or_default() += 1;
                    let shard = *home.entry(j.session).or_insert(i);
                    proptest::prop_assert_eq!(
                        shard, i,
                        "session {} popped from shards {} and {}", j.session, shard, i
                    );
                }
            }
            proptest::prop_assert_eq!(seen, expected, "every pushed job was served");
        }
    }

    #[test]
    fn drain_propagates_to_all_shards() {
        let set = ShardSet::new(3, 30, 10);
        set.push(job(1), 1).unwrap();
        set.drain();
        assert!(set.push(job(2), 1).is_err());
        // Queued work survives; empty shards answer None immediately.
        assert!(set.shard_count() == 3);
        let drained: usize = (0..3).map(|i| set.shard(i).pop().into_iter().count()).sum();
        assert_eq!(drained, 1);
    }
}
