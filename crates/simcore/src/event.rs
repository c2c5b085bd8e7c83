//! The lazy-cancellation binary-heap event queue, kept as a test oracle.
//!
//! A `BinaryHeap` of `(time, rank, seq)` entries with lazy cancellation
//! through side `cancelled`/`pending` sets: the simplest queue with the
//! engine's semantics. It is compiled only under `cfg(test)` and exists so
//! the property tests of [`crate::fel`] can assert *observational
//! equivalence* against it — pop order, rank tie-breaks, same-key FIFO,
//! cancel verdicts, `len()` exactness, clock behaviour.
//!
//! Known (and deliberate) differences from [`crate::fel::EventQueue`],
//! which the oracle tests do not observe through the public API:
//! * `HeapEventId` is a bare per-queue seq — the aliasing-across-queues
//!   bug the tagged generational ids fix.
//! * Cancelled payloads and their seqs stay in the heap and the
//!   `cancelled` set until the clock reaches them — the unbounded-churn
//!   leak that eager payload drop plus compaction fixes.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque handle for cancelling a scheduled event (oracle flavour: a bare
/// per-queue sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeapEventId(u64);

struct Entry<E> {
    time: SimTime,
    rank: u64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.rank == other.rank && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The heap-based deterministic future-event list (oracle).
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    cancelled: crate::hash::FxHashSet<u64>,
    /// Seqs scheduled but neither fired nor cancelled. Needed so `len` and
    /// `cancel` can tell a pending id from one that already fired (lazy
    /// deletion leaves fired/cancelled seqs indistinguishable otherwise).
    pending: crate::hash::FxHashSet<u64>,
}

impl<E> HeapEventQueue<E> {
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            cancelled: crate::hash::FxHashSet::default(),
            pending: crate::hash::FxHashSet::default(),
        }
    }

    /// Current simulation clock: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not cancelled) events still pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Schedule `payload` at absolute time `at`, rank 0.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> HeapEventId {
        self.schedule_ranked(at, 0, payload)
    }

    /// Schedule `payload` at `at`; equal times pop by `(rank, seq)`.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock.
    pub fn schedule_ranked(&mut self, at: SimTime, rank: u64, payload: E) -> HeapEventId {
        assert!(
            at >= self.now,
            "scheduling event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.heap.push(Entry {
            time: at,
            rank,
            seq,
            payload,
        });
        HeapEventId(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending. Cancelling an already-fired or unknown id is a no-op.
    pub fn cancel(&mut self, id: HeapEventId) -> bool {
        // Lazy deletion: mark and skip at pop time.
        if !self.pending.remove(&id.0) {
            return false; // already fired, already cancelled, or unknown
        }
        self.cancelled.insert(id.0)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.time >= self.now, "event queue time inversion");
            self.pending.remove(&entry.seq);
            self.now = entry.time;
            return Some((entry.time, entry.payload));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The oracle must itself stay trustworthy: pin its core semantics so a
    // drive-by edit cannot silently weaken the equivalence property.
    #[test]
    fn oracle_pops_in_time_order_with_fifo_ties() {
        let mut q = HeapEventQueue::new();
        q.schedule(SimTime(30), 2);
        q.schedule(SimTime(10), 0);
        q.schedule(SimTime(10), 1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn oracle_cancel_and_len_semantics() {
        let mut q = HeapEventQueue::new();
        let a = q.schedule(SimTime(1), "a");
        let b = q.schedule(SimTime(2), "b");
        assert!(q.cancel(b));
        assert!(!q.cancel(b));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert!(!q.cancel(a));
        assert!(q.pop().is_none());
    }
}
