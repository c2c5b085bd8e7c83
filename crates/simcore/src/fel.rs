//! Future-event list: one binary heap of `(time, rank, seq, payload)`
//! entries, the payload stored inline.
//!
//! Pop order is exactly ascending `(time, rank, seq)`: `rank` is a
//! caller-chosen tie-break for equal times ([`EventQueue::schedule_ranked`];
//! plain [`EventQueue::schedule`] uses 0) and `seq` the scheduling order, so
//! equal `(time, rank)` pops FIFO. The payload never takes part in a
//! comparison.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    key: (SimTime, u64, u64),
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        other.key.cmp(&self.key)
    }
}

/// A deterministic future-event list; [`EventQueue::schedule_ranked`]
/// adds a tie-break between equal times.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
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
            heap: BinaryHeap::new(),
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
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

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
    /// As [`EventQueue::schedule`].
    pub fn schedule_ranked(&mut self, at: SimTime, rank: u64, payload: E) {
        assert!(
            at >= self.now,
            "scheduling event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            key: (at, rank, seq),
            payload,
        });
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        let t = entry.key.0;
        debug_assert!(t >= self.now, "event queue time inversion");
        self.now = t;
        Some((t, entry.payload))
    }
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
