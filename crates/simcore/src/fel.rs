//! Indexed future-event list: a hierarchical timing wheel over the
//! generational [`Slab`].
//!
//! The previous [`EventQueue`] was a `BinaryHeap` with two side
//! `FxHashSet`s (`cancelled`, `pending`): every schedule/cancel/pop paid
//! O(log n) sift work plus two hash probes, and a cancelled-but-unreached
//! entry stayed in the heap (and the `cancelled` set) for the rest of the
//! run — lazy deletion never compacts. This replacement indexes events
//! instead of comparing them:
//!
//! * **Storage.** Every scheduled event lives in a generational
//!   [`Slab`] slot; [`EventId`] wraps the slot's [`SlabKey`] plus a
//!   per-queue instance tag. `cancel` is an O(1) eager `Slab::remove`
//!   (the payload drops immediately — no tombstones, no unbounded
//!   growth), a stale id misses on the generation check, and an id minted
//!   by a *different* queue instance is rejected by the tag before it can
//!   alias an unrelated slot.
//! * **Ordering.** Time is bucketed into ticks of 2^[`TICK_SHIFT`] ns.
//!   The wheel has [`LEVELS`] levels of [`SLOTS`] buckets; an event's
//!   level is the highest [`LEVEL_BITS`]-bit block where its tick differs
//!   from the cursor, its slot that block's value — near-horizon events
//!   land in level 0 (one tick per bucket), far events coarsen into the
//!   overflow levels and cascade down as the cursor approaches (each
//!   event moves at most `LEVELS - 1` times, so scheduling stays
//!   amortised O(1)). Per-level occupancy bitmaps make "next non-empty
//!   bucket" a handful of word scans.
//! * **Determinism.** Pop order is exactly ascending `(time, seq)` — the
//!   same total order the old heap produced. Bucket membership only
//!   partitions events by tick; within the current tick the drained
//!   bucket is sorted by `(time, seq)` into the `ready` run, and late
//!   arrivals for the same tick insert in sorted position. Same-time
//!   FIFO therefore survives any schedule/cancel interleaving, which the
//!   oracle-equivalence property test (against the retained heap
//!   implementation in the `event` test module) pins down.
//! * **Peeking.** The cluster's window loop polls every server queue at
//!   least once per window, and most of those polls find an empty ready
//!   run: without help each would pay a bitmap scan for the first
//!   occupied bucket plus a min-scan of that bucket. The queue therefore
//!   memoizes the earliest *wheel* event time. A `schedule` into the
//!   wheel lowers the memo; a `cancel` of a wheel entry at the memo time
//!   invalidates it, as does every `refill` (the cursor moves and buckets
//!   cascade). [`EventQueue::peek_time`] answers from the ready run, else
//!   from the memo, and rescans the wheel only after an invalidation —
//!   O(1) for the idle polls that dominate the window loop.
//!
//! The cursor only advances inside [`EventQueue::pop`], and only to the
//! tick actually popped, so `tick(now) == cur_tick` holds at every public
//! API boundary — the invariant that lets `schedule` route same-tick
//! events straight into the ready run and place everything else strictly
//! ahead of the cursor. [`EventQueue::peek_time`] deliberately does *not*
//! advance the cursor (a later `schedule` may still target any time
//! `>= now`, which can precede the next queued event); it only refreshes
//! the memo.

use crate::slab::{Slab, SlabKey};
use crate::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};

/// Opaque handle that identifies a scheduled event so it can be cancelled.
/// Carries the issuing queue's instance tag: a handle presented to any
/// other queue instance is rejected instead of aliasing an unrelated slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    queue: u64,
    key: SlabKey,
}

/// Nanoseconds per tick, as a shift: 1 tick = 1024 ns (~1 µs). Finer than
/// any scheduling quantum in the engine (cache hits are hundreds of ns but
/// same-tick events are ordered exactly by `(time, seq)` anyway), coarse
/// enough that one 256-slot level spans ~262 µs of near horizon.
const TICK_SHIFT: u32 = 10;
/// Bits per wheel level: 256 slots each.
const LEVEL_BITS: u32 = 8;
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels needed to cover the full 54-bit tick space (the top levels are
/// the far-event overflow: one level-6 bucket spans ~9 simulated years).
const LEVELS: usize = (64 - TICK_SHIFT as usize).div_ceil(LEVEL_BITS as usize);
const WORDS: usize = SLOTS / 64;
/// `Entry::bucket` sentinel for "in the ready run".
const LOC_READY: u16 = u16::MAX;

// The wheel must be able to index every representable tick.
const _: () = assert!(LEVELS * LEVEL_BITS as usize >= 64 - TICK_SHIFT as usize);
const _: () = assert!(LEVELS * SLOTS < LOC_READY as usize);

/// Monotone source of queue-instance tags. The tag only discriminates
/// `EventId`s between queue instances (it never orders events or reaches
/// any serialized output), so cross-thread allocation order is harmless
/// for replay determinism.
static QUEUE_TAGS: AtomicU64 = AtomicU64::new(1);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    /// Bucket index (`level * SLOTS + slot`), or [`LOC_READY`].
    bucket: u16,
    /// Position inside the bucket's vec (meaningless in the ready run,
    /// whose order is maintained by binary search instead).
    pos: u32,
    payload: E,
}

/// Memo of the earliest wheel (non-ready) event time.
#[derive(Clone, Copy)]
enum WheelMin {
    /// Exact: the earliest wheel event's time, or `None` if the wheel is
    /// empty.
    Known(Option<SimTime>),
    /// Invalidated; the next `peek_time` with an empty ready run rescans.
    Stale,
}

/// A deterministic future-event list. Drop-in API replacement for the old
/// binary-heap queue: `schedule`/`cancel`/`pop`/`peek_time`/`len`/`now`
/// behave identically (the property tests compare against the retained
/// heap oracle), only `EventId` changed representation.
pub struct EventQueue<E> {
    slab: Slab<Entry<E>>,
    /// `LEVELS * SLOTS` buckets of slab keys. Intra-bucket order is
    /// immaterial (drains sort by `(time, seq)`), so cancellation can
    /// `swap_remove`.
    buckets: Vec<Vec<SlabKey>>,
    /// One bit per bucket, per level: "this bucket is non-empty".
    occupancy: [[u64; WORDS]; LEVELS],
    /// The current tick's events, sorted *descending* by `(time, seq)`:
    /// pop takes the minimum from the back in O(1).
    ready: Vec<(SimTime, u64, SlabKey)>,
    /// Cursor: every wheel event's tick is strictly greater; the ready
    /// run holds exactly the events at this tick.
    cur_tick: u64,
    /// Earliest wheel event time, for `peek_time` (see the module doc).
    wheel_min: WheelMin,
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
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [[0; WORDS]; LEVELS],
            ready: Vec::new(),
            cur_tick: 0,
            wheel_min: WheelMin::Known(None),
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
    /// entries.
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

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock — an event in the past is
    /// always a simulation bug, and catching it here localises the error.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling event in the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.slab.insert(Entry {
            time: at,
            seq,
            bucket: LOC_READY,
            pos: 0,
            payload,
        });
        let tick = at.nanos() >> TICK_SHIFT;
        if tick == self.cur_tick {
            self.ready_insert(at, seq, key);
        } else {
            self.place(key, tick);
            if let WheelMin::Known(m) = self.wheel_min {
                self.wheel_min = WheelMin::Known(Some(m.map_or(at, |m| m.min(at))));
            }
        }
        EventId {
            queue: self.tag,
            key,
        }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending. Cancelling an already-fired id, a stale id, or an id
    /// minted by a different queue instance is a no-op returning `false`.
    ///
    /// Eager: the slot is freed and the entry leaves its bucket here, so
    /// cancelled events occupy nothing until the clock reaches them.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.queue != self.tag {
            // Foreign queue's handle: its key could coincidentally name a
            // live slot here (twin queues hand out identical key
            // sequences), so reject before touching the slab.
            return false;
        }
        let Some(entry) = self.slab.remove(id.key) else {
            return false; // already fired or already cancelled
        };
        if entry.bucket == LOC_READY {
            let pos = self
                .ready
                .partition_point(|&(t, s, _)| (t, s) > (entry.time, entry.seq));
            crate::strict_assert!(
                self.ready.get(pos).is_some_and(|&(_, _, k)| k == id.key),
                "cancelled entry missing from its ready slot"
            );
            self.ready.remove(pos);
        } else {
            let b = entry.bucket as usize;
            let pos = entry.pos as usize;
            crate::strict_assert!(
                self.buckets[b].get(pos).copied() == Some(id.key),
                "cancelled entry missing from its bucket slot"
            );
            self.buckets[b].swap_remove(pos);
            if let Some(&moved) = self.buckets[b].get(pos) {
                let Some(m) = self.slab.get_mut(moved) else {
                    unreachable!("bucket holds only live keys")
                };
                m.pos = entry.pos;
            }
            if self.buckets[b].is_empty() {
                let (level, slot) = (b / SLOTS, b % SLOTS);
                self.occupancy[level][slot / 64] &= !(1u64 << (slot % 64));
            }
            if matches!(self.wheel_min, WheelMin::Known(Some(m)) if m == entry.time) {
                self.wheel_min = WheelMin::Stale;
            }
        }
        true
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        let (t, _seq, key) = self.ready.pop()?;
        let Some(entry) = self.slab.remove(key) else {
            unreachable!("ready run holds only live keys")
        };
        debug_assert!(t >= self.now, "event queue time inversion");
        self.now = t;
        Some((t, entry.payload))
    }

    /// Timestamp of the next live event without popping it: the back of
    /// the ready run, else the memoized earliest wheel time. The memo is
    /// lowered by `schedule` into the wheel and invalidated by a `cancel`
    /// of a wheel entry at the memo time and by `refill`; only then does
    /// this rescan the wheel, so repeated polls of an idle queue are O(1).
    ///
    /// Does not move the wheel cursor: a later `schedule` may target any
    /// time `>= now`, which can still precede the next queued event, and
    /// must then land in the ready run or ahead of the cursor. Only the
    /// memo is refreshed.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(&(t, _, _)) = self.ready.last() {
            return Some(t);
        }
        if let WheelMin::Known(m) = self.wheel_min {
            return m;
        }
        // The first bucket in cursor order covers the earliest occupied
        // tick range, so the global minimum timestamp is its minimum.
        let m = self.first_bucket().and_then(|(level, slot)| {
            self.buckets[level * SLOTS + slot]
                .iter()
                .filter_map(|&k| self.slab.get(k))
                .map(|e| e.time)
                .min()
        });
        self.wheel_min = WheelMin::Known(m);
        m
    }

    /// Insert into the ready run, keeping it sorted descending by
    /// `(time, seq)`.
    fn ready_insert(&mut self, t: SimTime, seq: u64, key: SlabKey) {
        let pos = self.ready.partition_point(|&(rt, rs, _)| (rt, rs) > (t, seq));
        self.ready.insert(pos, (t, seq, key));
    }

    /// File `key` into the wheel bucket for `tick`. The level is the
    /// highest bit-block where `tick` differs from the cursor; the slot is
    /// that block's value in `tick`.
    fn place(&mut self, key: SlabKey, tick: u64) {
        debug_assert!(tick > self.cur_tick, "wheel placement behind the cursor");
        let diff = tick ^ self.cur_tick;
        let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((tick >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
        let b = level * SLOTS + slot;
        let pos = self.buckets[b].len() as u32;
        self.buckets[b].push(key);
        self.occupancy[level][slot / 64] |= 1u64 << (slot % 64);
        let Some(e) = self.slab.get_mut(key) else {
            unreachable!("placing a key that was just inserted")
        };
        e.bucket = b as u16;
        e.pos = pos;
    }

    /// First non-empty bucket in cursor order — the one holding the
    /// globally earliest events — or `None` if the wheel is empty. Scan
    /// order is level 0 upward; within a level only slots strictly after
    /// the cursor's position can be occupied (same-tick events live in the
    /// ready run, never the wheel).
    fn first_bucket(&self) -> Option<(usize, usize)> {
        for (level, words) in self.occupancy.iter().enumerate() {
            let p = ((self.cur_tick >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize;
            if let Some(slot) = first_set_after(words, p) {
                return Some((level, slot));
            }
        }
        None
    }

    /// Advance the cursor to the earliest occupied tick, cascading
    /// higher-level buckets down until that tick's events sit sorted in
    /// `ready`. Returns `false` when no events remain anywhere.
    fn refill(&mut self) -> bool {
        debug_assert!(self.ready.is_empty());
        self.wheel_min = WheelMin::Stale;
        loop {
            let Some((level, slot)) = self.first_bucket() else {
                return false;
            };
            let shift = LEVEL_BITS as usize * level;
            // Jump to the bucket's base tick: blocks above `level` keep the
            // cursor's values, block `level` becomes `slot`, lower blocks
            // zero. Every event in the bucket has a tick >= this base, so
            // the cursor never overtakes an event.
            let low_mask = (1u64 << (shift + LEVEL_BITS as usize)) - 1;
            self.cur_tick = (self.cur_tick & !low_mask) | ((slot as u64) << shift);
            let b = level * SLOTS + slot;
            self.occupancy[level][slot / 64] &= !(1u64 << (slot % 64));
            while let Some(key) = self.buckets[b].pop() {
                let Some(e) = self.slab.get_mut(key) else {
                    unreachable!("bucket holds only live keys")
                };
                let (t, seq) = (e.time, e.seq);
                let tick = t.nanos() >> TICK_SHIFT;
                if tick == self.cur_tick {
                    e.bucket = LOC_READY;
                    self.ready.push((t, seq, key));
                } else {
                    self.place(key, tick);
                }
            }
            if !self.ready.is_empty() {
                // Descending (time, seq): pop takes the minimum from the
                // back. One sort per drained tick replaces per-pop sifts.
                self.ready
                    .sort_unstable_by_key(|&(t, s, _)| std::cmp::Reverse((t, s)));
                return true;
            }
        }
    }

    /// Test hook: total keys parked in wheel buckets (excludes the ready
    /// run). With eager cancellation this tracks live far events only.
    #[cfg(test)]
    fn bucket_entries(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

/// Lowest set bit at an index strictly greater than `p`, if any.
#[inline]
fn first_set_after(bits: &[u64; WORDS], p: usize) -> Option<usize> {
    let start = p + 1;
    if start >= SLOTS {
        return None;
    }
    let mut w = start / 64;
    let mut word = bits[w] & (!0u64 << (start % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == WORDS {
            return None;
        }
        word = bits[w];
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
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), "a");
        q.schedule(SimTime(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime(2)));
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
        // Peek must skip the cancelled entry without resurrecting it.
        assert_eq!(q.peek_time(), Some(SimTime(1)));
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
        // Straddle level-0/level-1/far boundaries: ns deltas from sub-tick
        // to hours, interleaved, must still pop in global (time, seq) order.
        let mut q = EventQueue::new();
        let times: Vec<u64> = vec![
            1,
            1023,
            1024, // next tick
            1 << 18,
            (1 << 18) + 1,
            1 << 26, // level-2 territory
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
        // cancellation, slab capacity and bucket occupancy stay bounded by
        // peak liveness (2 here), however long the churn runs.
        let mut q = EventQueue::new();
        let hour = 3_600_000_000_000u64;
        let mut keep = q.schedule(SimTime(hour), 0u64);
        for i in 1..10_000u64 {
            let id = q.schedule(SimTime(i.saturating_mul(hour)), i);
            assert!(q.cancel(keep));
            keep = id;
            assert_eq!(q.len(), 1);
        }
        assert!(
            q.capacity() <= 2,
            "slab grew to {} slots under churn with 1 live event",
            q.capacity()
        );
        assert!(
            q.bucket_entries() <= 1,
            "cancelled entries lingering in buckets: {}",
            q.bucket_entries()
        );
        // Interleave pops so the wheel also advances across hours.
        let mut last = SimTime::ZERO;
        q.schedule(SimTime(2 * hour), 100);
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.bucket_entries(), 0);
    }

    #[test]
    fn peek_memo_tracks_cancel_and_earlier_schedule() {
        // Milliseconds ahead of a cursor at tick 0: level >= 1 of the
        // wheel, ready run empty, so every peek here is answered by the
        // wheel-min memo or its rescan.
        let ms = 1_000_000u64;
        let (a, b, c) = (SimTime(5 * ms), SimTime(9 * ms), SimTime(7 * ms));
        let mut q = EventQueue::new();
        let ida = q.schedule(a, "a");
        q.schedule(b, "b");
        assert!(q.bucket_entries() == 2 && q.ready.is_empty());
        assert_eq!(q.peek_time(), Some(a));
        // Cancelling the memoized minimum must invalidate it.
        assert!(q.cancel(ida));
        assert_eq!(q.peek_time(), Some(b));
        // An earlier schedule into the wheel must lower it.
        q.schedule(c, "c");
        assert_eq!(q.peek_time(), Some(c));
        // Each pop refills from the wheel; the memo must not outlive it.
        let mut order = Vec::new();
        while let Some(t) = q.peek_time() {
            let (popped, e) = q.pop().expect("peeked event present");
            assert_eq!(popped, t);
            order.push(e);
        }
        assert_eq!(order, vec!["c", "b"]);
        assert!(q.pop().is_none());
    }

    /// One scripted operation over both queues.
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule at `now + delta`.
        Schedule(u64),
        /// Cancel the id issued `k` schedules ago (mod issued), if any.
        Cancel(usize),
        Pop,
        Peek,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Deltas spanning same-tick, near-horizon, and far-overflow.
            (0u64..5_000_000_000).prop_map(Op::Schedule),
            (0usize..64).prop_map(Op::Cancel),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Peek),
        ]
    }

    proptest! {
        /// The wheel is observationally equivalent to the old binary-heap
        /// queue across arbitrary schedule/cancel/pop/peek interleavings:
        /// identical pop sequences (same-time FIFO included), identical
        /// cancel verdicts, exact `len()` and identical peeks at every
        /// step (the peek after each op exercises the wheel-min memo).
        #[test]
        fn fel_matches_heap_oracle(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut fel = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut ids = Vec::new();
            for op in ops {
                match op {
                    Op::Schedule(delta) => {
                        let at = fel.now().saturating_add(crate::SimDuration(delta));
                        let fid = fel.schedule(at, ids.len());
                        let hid = heap.schedule(at, ids.len());
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
                    Op::Peek => {
                        prop_assert_eq!(fel.peek_time(), heap.peek_time());
                    }
                }
                prop_assert_eq!(fel.len(), heap.len());
                // Every op is a potential memo transition (lower,
                // invalidate, rescan): check the peek after each one.
                prop_assert_eq!(fel.peek_time(), heap.peek_time());
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
