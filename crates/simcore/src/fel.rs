//! Future-event list: a binary min-heap of `(time, rank, seq, payload)`
//! entries, the payload stored inline.
//!
//! Pop order is exactly ascending `(time, rank, seq)`: `rank` is a
//! caller-chosen tie-break for equal times ([`EventQueue::schedule_ranked`];
//! plain [`EventQueue::schedule`] uses 0) and `seq` the scheduling order, so
//! equal `(time, rank)` pops FIFO. The payload never takes part in a
//! comparison.
//!
//! Most event handlers schedule an event right after the pop that woke
//! them, so the heap fuses the two. [`EventQueue::pop`] copies the root out
//! and leaves its slot *vacant*; the next schedule writes its entry into
//! that slot and sifts it down once. A pop that finds the root still vacant
//! (the handler scheduled nothing) first refills it from the last entry.
//! [`EventQueue::len`] never counts the vacant slot.
//!
//! An entry keeps its key in two words, the time and a tie word packing
//! `rank` (16 bits) above `seq` (48 bits), and a comparison reads them as
//! one `u128`.

use crate::time::SimTime;

/// Bits of the tie word that hold `rank`: ranks below 2¹⁶.
const RANK_BITS: u32 = 16;
/// Bits of the tie word that hold `seq`: 2⁴⁸ schedules per queue.
const SEQ_BITS: u32 = u64::BITS - RANK_BITS;

/// One queued event; only the key (`at`, `tie`) takes part in the order.
#[derive(Clone, Copy)]
struct Entry<E> {
    at: SimTime,
    /// `rank << SEQ_BITS | seq`.
    tie: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The order key `(time, rank, seq)` as one integer.
    #[inline(always)]
    fn key(&self) -> u128 {
        (u128::from(self.at.0) << u64::BITS) | u128::from(self.tie)
    }
}

/// A deterministic future-event list; [`EventQueue::schedule_ranked`]
/// adds a tie-break between equal times.
pub struct EventQueue<E> {
    /// A binary min-heap on `key`; `heap[0]` is stale while `vacant`.
    heap: Vec<Entry<E>>,
    /// The root was popped and has not been refilled yet.
    vacant: bool,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            vacant: false,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation clock: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events scheduled and not yet popped.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.vacant)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E: Copy> EventQueue<E> {
    /// Schedule `payload` at absolute time `at`, rank 0.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock — an event in the past is
    /// always a simulation bug, and catching it here localises the error.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.schedule_ranked(at, 0, payload);
    }

    /// Schedule `payload` at absolute time `at`; among events at the same
    /// time, lower `rank` pops first, and equal ranks pop in scheduling
    /// order.
    ///
    /// # Panics
    /// As [`EventQueue::schedule`]; also if `rank` is 2¹⁶ or more, or the
    /// queue has taken 2⁴⁸ schedules.
    pub fn schedule_ranked(&mut self, at: SimTime, rank: u64, payload: E) {
        assert!(
            at >= self.now,
            "scheduling event in the past: at={at} now={}",
            self.now
        );
        assert!(
            rank >> RANK_BITS == 0,
            "event rank {rank} needs over {RANK_BITS} bits"
        );
        let seq = self.next_seq;
        assert!(seq >> SEQ_BITS == 0, "event sequence past {SEQ_BITS} bits");
        self.next_seq += 1;
        let entry = Entry {
            at,
            tie: (rank << SEQ_BITS) | seq,
            payload,
        };
        if self.vacant {
            self.vacant = false;
            sift_down(&mut self.heap, entry);
        } else {
            self.heap.push(entry);
            let last = self.heap.len() - 1;
            sift_up(&mut self.heap, last, entry);
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.vacant {
            self.vacant = false;
            match self.heap.pop() {
                Some(last) if !self.heap.is_empty() => sift_down(&mut self.heap, last),
                // The vacant root was the only slot.
                _ => return None,
            }
        }
        let root = *self.heap.first()?;
        self.vacant = true;
        let t = root.at;
        debug_assert!(t >= self.now, "event queue time inversion");
        self.now = t;
        Some((t, root.payload))
    }
}

/// Write `entry` into the root slot of `heap` and sift it down to its
/// place.
fn sift_down<E: Copy>(heap: &mut [Entry<E>], entry: Entry<E>) {
    let len = heap.len();
    let mut hole = 0;
    let mut child = 1;
    while child + 1 < len {
        // The lesser of the two children.
        child += usize::from(heap[child + 1].key() < heap[child].key());
        if entry.key() < heap[child].key() {
            break;
        }
        heap[hole] = heap[child];
        hole = child;
        child = 2 * hole + 1;
    }
    // A last parent with one child, reached only if the loop ran out.
    if child + 1 == len && heap[child].key() < entry.key() {
        heap[hole] = heap[child];
        hole = child;
    }
    heap[hole] = entry;
}

/// Sift `entry` up from the empty slot `hole` of `heap` to its place.
fn sift_up<E: Copy>(heap: &mut [Entry<E>], mut hole: usize, entry: Entry<E>) {
    while hole > 0 {
        let parent = (hole - 1) / 2;
        if heap[parent].key() < entry.key() {
            break;
        }
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = entry;
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let got: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.nanos(), e))
            .collect();
        assert_eq!(got, expect);
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

    #[test]
    fn the_highest_rank_orders_after_every_lower_one() {
        let mut q = EventQueue::new();
        let top = (1 << RANK_BITS) - 1;
        q.schedule_ranked(SimTime(5), top, "top");
        q.schedule_ranked(SimTime(5), top - 1, "below");
        q.schedule_ranked(SimTime(4), top, "earlier");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["earlier", "below", "top"]);
    }

    #[test]
    #[should_panic(expected = "needs over 16 bits")]
    fn a_rank_past_its_bits_panics() {
        EventQueue::new().schedule_ranked(SimTime(1), 1 << RANK_BITS, ());
    }

    #[test]
    #[should_panic(expected = "sequence past 48 bits")]
    fn a_sequence_past_its_bits_panics() {
        let mut q = EventQueue::new();
        q.next_seq = 1 << SEQ_BITS;
        q.schedule(SimTime(1), ());
    }

    #[test]
    fn len_and_is_empty_do_not_count_the_vacant_root() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 'a');
        q.schedule(SimTime(2), 'b');
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn two_pops_without_a_schedule_refill_the_root() {
        let mut q = EventQueue::new();
        for (t, e) in [(30, 'c'), (10, 'a'), (40, 'd'), (20, 'b')] {
            q.schedule(SimTime(t), e);
        }
        assert_eq!(q.pop(), Some((SimTime(10), 'a')));
        assert_eq!(q.pop(), Some((SimTime(20), 'b')));
        assert_eq!(q.len(), 2);
        q.schedule(SimTime(25), 'x');
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!['x', 'c', 'd']);
    }

    #[test]
    fn a_lower_rank_scheduled_into_the_vacant_root_at_now_pops_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), "wake");
        q.schedule_ranked(SimTime(5), 2, "queued");
        assert_eq!(q.pop(), Some((SimTime(5), "wake")));
        q.schedule_ranked(q.now(), 1, "rank1");
        assert_eq!(q.pop(), Some((SimTime(5), "rank1")));
        assert_eq!(q.pop(), Some((SimTime(5), "queued")));
    }

    #[test]
    fn a_late_schedule_into_the_vacant_root_sinks_below_queued_events() {
        let mut q = EventQueue::new();
        for t in [10, 20, 30, 50, 60] {
            q.schedule(SimTime(t), t);
        }
        assert_eq!(q.pop(), Some((SimTime(10), 10)));
        q.schedule(SimTime(40), 40);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![20, 30, 40, 50, 60]);
    }

    #[test]
    fn a_pop_that_empties_the_queue_then_a_schedule() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(3), 'a');
        assert_eq!(q.pop(), Some((SimTime(3), 'a')));
        assert!(q.is_empty());
        q.schedule(SimTime(7), 'b');
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime(7), 'b')));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime(7));
        q.schedule(SimTime(9), 'c');
        assert_eq!(q.pop(), Some((SimTime(9), 'c')));
    }

    /// One scripted operation on the queue and its model.
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule at `now + delta` with a rank.
        Schedule(u64, u64),
        Pop,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // A few distinct deltas, so equal times are common.
            (0u64..4, 0u64..3).prop_map(|(d, r)| Op::Schedule(d, r)),
            // Deltas up to five simulated seconds.
            (0u64..5_000_000_000, 0u64..3).prop_map(|(d, r)| Op::Schedule(d, r)),
            Just(Op::Pop),
        ]
    }

    proptest! {
        /// The queue matches a sorted-`Vec` model across arbitrary
        /// schedule/pop interleavings: the model keeps `(time, rank, seq,
        /// payload)` and pops its least element, so every pop (rank
        /// tie-breaks and same-key FIFO included), the clock and `len()`
        /// agree at every step.
        #[test]
        fn fel_matches_sorted_vec_model(ops in proptest::collection::vec(op_strategy(), 1..300)) {
            let mut fel = EventQueue::new();
            let mut model: Vec<(SimTime, u64, usize, usize)> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut scheduled = 0usize;
            for op in ops {
                match op {
                    Op::Schedule(delta, rank) => {
                        let at = now.saturating_add(crate::SimDuration(delta));
                        fel.schedule_ranked(at, rank, scheduled);
                        model.push((at, rank, scheduled, scheduled));
                        scheduled += 1;
                    }
                    Op::Pop => {
                        model.sort_unstable();
                        let expect = (!model.is_empty()).then(|| model.remove(0));
                        if let Some((t, ..)) = expect {
                            now = t;
                        }
                        prop_assert_eq!(fel.pop(), expect.map(|(t, .., e)| (t, e)));
                        prop_assert_eq!(fel.now(), now);
                    }
                }
                prop_assert_eq!(fel.len(), model.len());
            }
            // Drain both: the tails must agree event for event.
            model.sort_unstable();
            let tail: Vec<_> = model.into_iter().map(|(t, .., e)| (t, e)).collect();
            let got: Vec<_> = std::iter::from_fn(|| fel.pop()).collect();
            prop_assert_eq!(got, tail);
            prop_assert!(fel.is_empty());
        }
    }
}
