//! Future-event list: a binary heap of `(time, rank, seq)` keys over the
//! generational [`Slab`] that holds the payloads.
//!
//! * **Storage.** [`EventId`] wraps the payload's [`SlabKey`] plus a
//!   per-queue instance tag. `cancel` is an eager `Slab::remove` (the
//!   payload drops at once), a stale id misses on the generation check,
//!   and an id minted by another queue instance is rejected by the tag
//!   before it can alias an unrelated slot.
//! * **Ordering.** Pop order is exactly ascending `(time, rank, seq)`:
//!   `rank` is a caller-chosen tie-break for equal times
//!   ([`EventQueue::schedule_ranked`]; plain [`EventQueue::schedule`] uses
//!   0) and `seq` the scheduling order, so equal `(time, rank)` pops FIFO.
//!   A property test holds this against the lazy-cancellation heap oracle
//!   in the `event` test module across arbitrary interleavings.
//! * **Cancelled entries.** `cancel` leaves the heap entry behind and
//!   `pop` skips entries whose key no longer resolves. If a later
//!   `schedule` reused the slot, the leftover carries the old generation,
//!   so it can neither deliver the new payload early nor twice. Whenever
//!   the heap exceeds `2 * len() + 1` entries it is compacted with
//!   `BinaryHeap::retain`, so leftovers never outnumber live events by
//!   more than one.

use crate::slab::{Slab, SlabKey};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Opaque handle that identifies a scheduled event so it can be cancelled.
/// Carries the issuing queue's instance tag: a handle presented to any
/// other queue instance is rejected instead of aliasing an unrelated slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    queue: u64,
    key: SlabKey,
}

/// Monotone source of queue-instance tags. A tag only tells `EventId`s of
/// different queues apart (it never orders events or reaches any output),
/// so cross-thread allocation order cannot affect replay determinism.
static QUEUE_TAGS: AtomicU64 = AtomicU64::new(1);

/// Pop-order key `(time, rank, seq)` and the payload's slot. `seq` is
/// unique, so the slot never takes part in a comparison.
type Entry = Reverse<(SimTime, u64, u64, SlabKey)>;

/// A deterministic future-event list; [`EventQueue::schedule_ranked`]
/// adds a tie-break between equal times.
pub struct EventQueue<E> {
    /// Payloads of the live events: scheduled, neither fired nor cancelled.
    slab: Slab<E>,
    /// Live events plus the leftovers of cancelled ones.
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    now: SimTime,
    tag: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            slab: Slab::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            tag: QUEUE_TAGS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Current simulation clock: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not cancelled) events still pending. Exact: the
    /// slab holds precisely the scheduled-but-neither-fired-nor-cancelled
    /// payloads.
    #[inline]
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots ever allocated: the queue's high-water mark of simultaneously
    /// live events. Cancellation frees its slot eagerly, so churn (endless
    /// schedule/cancel) does not grow this — the churn regression test
    /// pins that down.
    pub fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    /// Schedule `payload` at absolute time `at`, rank 0.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock — an event in the past is
    /// always a simulation bug, and catching it here localises the error.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        self.schedule_ranked(at, 0, payload)
    }

    /// Schedule `payload` at absolute time `at`; among events at the same
    /// time, lower `rank` pops first, and equal ranks pop in scheduling
    /// order.
    ///
    /// # Panics
    /// As [`EventQueue::schedule`].
    pub fn schedule_ranked(&mut self, at: SimTime, rank: u64, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.slab.insert(payload);
        self.heap.push(Reverse((at, rank, seq, key)));
        EventId {
            queue: self.tag,
            key,
        }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending. Cancelling an already-fired id, a stale id, or an id
    /// minted by a different queue instance is a no-op returning `false`.
    ///
    /// Eager: the payload drops here; only its heap entry stays behind,
    /// until `pop` skips it or a compaction removes it.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // A foreign handle could name a live slot here (twin queues hand
        // out identical key sequences): reject it before the slab.
        if id.queue != self.tag || self.slab.remove(id.key).is_none() {
            return false;
        }
        self.compact_if_sparse();
        true
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(Reverse((t, _, _, key))) = self.heap.pop() {
            if let Some(payload) = self.slab.remove(key) {
                debug_assert!(t >= self.now, "event queue time inversion");
                self.now = t;
                self.compact_if_sparse();
                return Some((t, payload));
            }
        }
        None
    }

    /// Drop the entries of cancelled events once they outnumber the live
    /// ones by more than one. Each compaction removes at least half the
    /// heap, so its cost is amortised over the cancels that made it.
    fn compact_if_sparse(&mut self) {
        if self.heap.len() > 2 * self.slab.len() + 1 {
            let slab = &self.slab;
            self.heap.retain(|Reverse((.., key))| slab.contains(*key));
        }
    }

    /// Test hook: heap entries, live or left behind by a cancel.
    #[cfg(test)]
    fn heap_entries(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::HeapEventQueue;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_after_fire_is_noop_and_len_stays_consistent() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime(1), "a");
        q.schedule(SimTime(2), "b");
        assert_eq!(q.len(), 2);
        let _ = q.pop(); // "a" fires
        assert!(!q.cancel(id), "cancelling a fired event must be a no-op");
        assert_eq!(q.len(), 1);
        let id2 = q.schedule(SimTime(3), "c");
        assert!(q.cancel(id2));
        assert!(!q.cancel(id2), "double cancel must be a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.schedule(SimTime(10), ());
        q.schedule(SimTime(42), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
        assert_eq!(last, SimTime(42));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), "a");
        q.schedule(SimTime(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_fired_event_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        // Already fired; cancel is accepted but has no effect on future pops.
        q.cancel(a);
        q.schedule(SimTime(2), "b");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancellation_has_one_source_of_truth() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), "a");
        let b = q.schedule(SimTime(2), "b");
        let c = q.schedule(SimTime(3), "c");
        assert!(q.cancel(b));
        // Cancel, then cancel again: second is a no-op and len is exact.
        assert!(!q.cancel(b));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
        assert!(q.pop().is_none());
        // Cancelling fired ids after drain stays a no-op.
        assert!(!q.cancel(a));
        assert!(!q.cancel(c));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn rescheduling_at_same_time_preserves_order_across_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 0);
        q.pop();
        q.schedule(SimTime(1), 1);
        q.schedule(SimTime(1), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn events_across_tick_and_level_boundaries_pop_in_order() {
        // Deltas from 1 ns to two hours, scheduled out of order, must pop
        // in global (time, seq) order.
        let mut q = EventQueue::new();
        let times: Vec<u64> = vec![
            1,
            1023,
            1024,
            1 << 18,
            (1 << 18) + 1,
            1 << 26,
            3_600_000_000_000, // one hour
            7_200_000_000_000,
            5,
            1 << 30,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort();
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.nanos(), e)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn foreign_and_stale_ids_cancel_nothing() {
        // Regression (the EventId-aliasing bug): the old queue's bare
        // per-queue seq meant q2.cancel(q1's id) could kill an unrelated
        // pending event. Twin queues now hand out identical slab keys but
        // distinct instance tags, so the foreign id must bounce.
        let mut q1 = EventQueue::new();
        let mut q2 = EventQueue::new();
        let id1 = q1.schedule(SimTime(10), "q1-event");
        let _id2 = q2.schedule(SimTime(10), "q2-event");
        assert!(!q2.cancel(id1), "foreign id must be rejected");
        assert_eq!(q2.len(), 1, "foreign cancel must not touch q2's event");
        assert_eq!(q2.pop().map(|(_, e)| e), Some("q2-event"));
        // Stale id: fired on its own queue, then its slot gets reused.
        assert_eq!(q1.pop().map(|(_, e)| e), Some("q1-event"));
        let id3 = q1.schedule(SimTime(20), "reuses-slot");
        assert!(!q1.cancel(id1), "stale id must miss the reused slot");
        assert_eq!(q1.len(), 1);
        assert!(q1.cancel(id3));
    }

    #[test]
    fn churn_stays_bounded_by_live_events() {
        // Regression (the lazy-deletion leak): schedule/cancel churn over
        // simulated hours used to leave every cancelled entry in the heap
        // and the cancelled-set until the clock reached it. With eager
        // payload drop and compaction, slab capacity stays at peak
        // liveness (2 here) and heap entries at most `2 * len() + 1`,
        // however long the churn runs.
        let mut q = EventQueue::new();
        let hour = 3_600_000_000_000u64;
        let mut keep = q.schedule(SimTime(hour), 0u64);
        for i in 1..10_000u64 {
            let id = q.schedule(SimTime(i.saturating_mul(hour)), i);
            assert!(q.cancel(keep));
            keep = id;
            assert_eq!(q.len(), 1);
            assert!(
                q.heap_entries() <= 2 * q.len() + 1,
                "cancelled entries lingering in the heap: {}",
                q.heap_entries()
            );
        }
        assert!(
            q.capacity() <= 2,
            "slab grew to {} slots under churn with 1 live event",
            q.capacity()
        );
        // Interleave pops so the clock also advances across hours.
        let mut last = SimTime::ZERO;
        q.schedule(SimTime(2 * hour), 100);
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.heap_entries(), 0);
    }

    #[test]
    fn stale_entry_of_a_reused_slot_never_fires() {
        // A cancelled event's heap entry outlives its payload. When a later
        // schedule reuses the freed slab slot, that leftover entry (earlier
        // in time) names the same slot: it must be skipped, not deliver the
        // new payload early, and the new payload must fire exactly once.
        let mut q = EventQueue::new();
        let cancelled = q.schedule(SimTime(10), "cancelled");
        q.schedule(SimTime(15), "middle");
        assert!(q.cancel(cancelled));
        let reused = q.schedule(SimTime(20), "reuses-slot");
        let slot = |id: EventId| id.key.raw() & 0xFFFF_FFFF;
        assert_eq!(slot(reused), slot(cancelled), "the freed slot is reused");
        assert_eq!(q.heap_entries(), 3, "the leftover entry is still queued");
        assert_eq!(q.pop(), Some((SimTime(15), "middle")));
        assert_eq!(q.pop(), Some((SimTime(20), "reuses-slot")));
        assert_eq!(q.now(), SimTime(20));
        assert!(q.pop().is_none());
        assert!(!q.cancel(cancelled) && !q.cancel(reused));
    }

    #[test]
    fn rank_breaks_time_ties_before_fifo() {
        let mut q = EventQueue::new();
        q.schedule_ranked(SimTime(5), 2, "r2");
        q.schedule_ranked(SimTime(5), 1, "r1-first");
        q.schedule(SimTime(6), "later");
        q.schedule_ranked(SimTime(5), 1, "r1-second");
        q.schedule(SimTime(5), "r0");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["r0", "r1-first", "r1-second", "r2", "later"]);
    }

    /// One scripted operation over both queues.
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule at `now + delta` with a rank.
        Schedule(u64, u64),
        /// Cancel the id issued `k` schedules ago (mod issued), if any.
        Cancel(usize),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Deltas from zero to five simulated seconds.
            (0u64..5_000_000_000, 0u64..3).prop_map(|(d, r)| Op::Schedule(d, r)),
            // Same-instant ties, where the rank decides.
            (0u64..3).prop_map(|r| Op::Schedule(0, r)),
            (0usize..64).prop_map(Op::Cancel),
            Just(Op::Pop),
        ]
    }

    proptest! {
        /// The queue is observationally equivalent to the lazy-cancellation
        /// heap oracle across arbitrary schedule/cancel/pop interleavings:
        /// identical pop sequences (rank tie-breaks and same-key FIFO
        /// included), identical cancel verdicts and an exact `len()` at
        /// every step, with the heap never above `2 * len() + 1` entries.
        #[test]
        fn fel_matches_heap_oracle(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut fel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut ids = Vec::new();
            for op in ops {
                match op {
                    Op::Schedule(delta, rank) => {
                        let at = fel.now().saturating_add(crate::SimDuration(delta));
                        let fid = fel.schedule_ranked(at, rank, ids.len());
                        let hid = heap.schedule_ranked(at, rank, ids.len());
                        ids.push((fid, hid));
                    }
                    Op::Cancel(k) => {
                        if !ids.is_empty() {
                            let (fid, hid) = ids[k % ids.len()];
                            prop_assert_eq!(fel.cancel(fid), heap.cancel(hid));
                        }
                    }
                    Op::Pop => {
                        prop_assert_eq!(fel.pop(), heap.pop());
                        prop_assert_eq!(fel.now(), heap.now());
                    }
                }
                prop_assert_eq!(fel.len(), heap.len());
                prop_assert!(fel.heap_entries() <= 2 * fel.len() + 1);
            }
            // Drain both: the tails must agree event-for-event.
            loop {
                let (f, h) = (fel.pop(), heap.pop());
                prop_assert_eq!(f, h);
                if f.is_none() {
                    break;
                }
            }
        }
    }
}
