//! The simulator's future-event list.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Events ordered by `(time, insertion sequence)`: the earliest time pops
/// first and events at the same instant pop in the order they were
/// pushed. That is a total order (`f64::total_cmp`, then a counter that
/// never repeats), so a run is a function of its pushes alone.
pub(super) struct EventQueue<K> {
    heap: BinaryHeap<Entry<K>>,
    next_seq: u64,
}

struct Entry<K> {
    t: f64,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for Entry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K> Eq for Entry<K> {}
impl<K> PartialOrd for Entry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Entry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap and the earliest entry wins.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<K> EventQueue<K> {
    pub(super) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `kind` at absolute time `t` (seconds). Validated requests
    /// and fault plans only ever produce finite, non-negative times.
    pub(super) fn push(&mut self, t: f64, kind: K) {
        debug_assert!(!t.is_nan(), "event scheduled at a NaN time");
        self.heap.push(Entry {
            t,
            seq: self.next_seq,
            kind,
        });
        self.next_seq += 1;
    }

    /// The next event and its time.
    pub(super) fn pop(&mut self) -> Option<(f64, K)> {
        self.heap.pop().map(|e| (e.t, e.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_first_and_ties_in_insertion_order() {
        let mut q = EventQueue::new();
        for (t, name) in [(2.0, "c"), (1.0, "a"), (2.0, "d"), (1.0, "b"), (0.0, "z")] {
            q.push(t, name);
        }
        let order: Vec<(f64, &str)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [(0.0, "z"), (1.0, "a"), (1.0, "b"), (2.0, "c"), (2.0, "d")]
        );
    }

    #[test]
    fn ties_survive_interleaved_pops() {
        // The sequence keeps counting across pops, so an event pushed
        // later never overtakes an earlier one at the same instant.
        let mut q = EventQueue::new();
        q.push(1.0, 0);
        q.push(1.0, 1);
        assert_eq!(q.pop(), Some((1.0, 0)));
        q.push(1.0, 2);
        q.push(0.5, 3);
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
        assert_eq!(rest, [3, 1, 2]);
    }
}
