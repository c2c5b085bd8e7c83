//! A behavioural model of Linux CFQ (Completely Fair Queuing), the paper's
//! disk scheduler.
//!
//! Each data server does its disk I/O from one server process, so CFQ sees
//! one I/O context per disk (DESIGN.md §7) and this model keeps one queue.
//! The properties that matter for reproducing the paper:
//!
//! 1. **Sorting only among the requests it can see.** The queue is served
//!    by a circular elevator from the head, so CFQ can create a good order
//!    only among the requests queued at the moment. A trickle of prefetch
//!    requests (Strategy 2) gives it one or two outstanding requests at a
//!    time — service order ≈ arrival order (Fig. 1c). Two `mpi-io-test`
//!    instances on one disk interleave their requests in that one queue,
//!    and the head moves between their regions — the long-distance
//!    thrashing of Fig. 6(a). A pre-sorted batch from DualPar's CRM arrives
//!    together and sweeps cleanly (Fig. 1d).
//! 2. **Time slices.** Service runs in slices of `slice`; one that expires
//!    with requests queued is followed at once by a new one, and the
//!    elevator goes on from the head.
//! 3. **Idle anticipation** (`slice_idle`): after serving the last queued
//!    request CFQ keeps the disk idle briefly, expecting another nearby
//!    request — good for sequential streams, wasted time for interleaved
//!    ones.

use super::{Decision, Scheduler, DEFAULT_MAX_MERGE_SECTORS};
use crate::model::Lbn;
use crate::request::{DiskRequest, IoKind};
use dualpar_sim::{SimDuration, SimTime};

/// CFQ tunables (Linux defaults).
#[derive(Debug, Clone)]
pub struct CfqConfig {
    /// Length of a service slice — Linux `slice_sync` default.
    pub slice: SimDuration,
    /// Anticipatory idle window after the queue empties — Linux
    /// `slice_idle` default.
    pub slice_idle: SimDuration,
    /// Cap on merged request size.
    pub max_merge_sectors: u64,
}

impl Default for CfqConfig {
    fn default() -> Self {
        CfqConfig {
            slice: SimDuration::from_millis(100),
            slice_idle: SimDuration::from_millis(8),
            max_merge_sectors: DEFAULT_MAX_MERGE_SECTORS,
        }
    }
}

/// The queue operations CFQ is built from. [`SortedQueue`] is the one the
/// simulator runs; the tests check it against a linear-scan oracle of the
/// same operations.
trait Queue: Default {
    /// Add `req`, back-merging it into the first request (in `(lbn, id)`
    /// order) it continues within `max_merge` sectors.
    fn insert(&mut self, req: DiskRequest, max_merge: u64);
    /// Remove the next request in circular-SCAN order from `head`.
    fn pop_elevator(&mut self, head: Lbn) -> Option<DiskRequest>;
    /// Remove the first request starting at `end`, if it has `kind`.
    fn take_starting_at(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest>;
    /// Remove the first request of `kind` ending at `start`.
    fn take_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest>;
    fn len(&self) -> usize;
}

/// The disk's sorted queue.
#[derive(Debug, Default)]
struct SortedQueue {
    /// `(lbn, slot)` of every queued request, sorted by the requests'
    /// `(lbn, id)`. Every search runs over these 16-byte keys, and an
    /// insert or a remove shifts them, not the 80-byte requests.
    order: Vec<(Lbn, u32)>,
    /// The requests, at the slots `order` names; `None` marks a free slot.
    slots: Vec<Option<DiskRequest>>,
    /// Free slots, the last freed first.
    free: Vec<u32>,
    /// The longest request this queue has held, merges included. Never
    /// lowered, so a request ending at `start` starts no earlier than
    /// `start - longest`.
    longest: u64,
}

impl SortedQueue {
    /// The request at position `i` of `order`.
    fn at(&self, i: usize) -> Option<&DiskRequest> {
        let &(_, slot) = self.order.get(i)?;
        self.slots.get(slot as usize)?.as_ref()
    }

    /// The first position before `pos` from which every request up to
    /// `pos` starts at or after `lo`. Merge windows hold a request or two,
    /// so a backward scan beats a second binary search.
    fn window_start(&self, pos: usize, lo: Lbn) -> usize {
        let below = self.order.get(..pos).unwrap_or_default();
        pos.saturating_sub(below.iter().rev().take_while(|&&(l, _)| l >= lo).count())
    }

    fn remove(&mut self, i: usize) -> DiskRequest {
        // Must be the shifting `remove`, not `swap_remove`: every search
        // assumes `order` stays sorted. The shift moves 16-byte keys; the
        // `dispatch` and `disk_path` criterion groups in
        // `crates/bench/benches/hot_path.rs` are the regression guard.
        let (_, slot) = self.order.remove(i);
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("order names a queued request")
    }
}

impl Queue for SortedQueue {
    fn insert(&mut self, req: DiskRequest, max_merge: u64) {
        let mut pos = self.order.partition_point(|&(l, _)| l < req.lbn);
        // A back-merge target ends at `req.lbn` and leaves `req` room under
        // the cap, so it starts in `[req.lbn - room, req.lbn)`.
        if let Some(room) = max_merge.checked_sub(req.sectors) {
            let first = self.window_start(pos, req.lbn.saturating_sub(room));
            let target = (first..pos).find(|&i| {
                self.at(i)
                    .is_some_and(|r| r.can_back_merge(&req, max_merge))
            });
            if let Some(i) = target {
                let slot = self.order[i].1 as usize;
                let prev = self.slots[slot]
                    .as_mut()
                    .expect("order names a queued request");
                prev.back_merge(req);
                self.longest = self.longest.max(prev.sectors);
                return;
            }
        }
        // Equal LBNs order by id.
        while self.order.get(pos).is_some_and(|&(l, _)| l == req.lbn)
            && self.at(pos).is_some_and(|r| r.id < req.id)
        {
            pos = pos.saturating_add(1);
        }
        self.longest = self.longest.max(req.sectors);
        let lbn = req.lbn;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(req);
                slot
            }
            None => {
                self.slots.push(Some(req));
                u32::try_from(self.slots.len().saturating_sub(1))
                    .expect("a queue holds under 2^32 requests")
            }
        };
        self.order.insert(pos, (lbn, slot));
    }

    fn pop_elevator(&mut self, head: Lbn) -> Option<DiskRequest> {
        if self.order.is_empty() {
            return None;
        }
        let i = self.order.partition_point(|&(l, _)| l < head);
        let i = if i == self.order.len() { 0 } else { i };
        Some(self.remove(i))
    }

    fn take_starting_at(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let i = self.order.partition_point(|&(l, _)| l < end);
        let hit = self.order.get(i).is_some_and(|&(l, _)| l == end)
            && self.at(i).is_some_and(|r| r.kind == kind);
        hit.then(|| self.remove(i))
    }

    fn take_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let pos = self.order.partition_point(|&(l, _)| l < start);
        let first = self.window_start(pos, start.saturating_sub(self.longest));
        let i = (first..pos).find(|&i| {
            self.at(i)
                .is_some_and(|r| r.end() == start && r.kind == kind)
        })?;
        Some(self.remove(i))
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// The CFQ scheduler state.
#[derive(Debug)]
pub struct CfqScheduler(Cfq<SortedQueue>);

/// CFQ over a queue of type `Q`.
#[derive(Debug)]
struct Cfq<Q> {
    cfg: CfqConfig,
    queue: Q,
    /// End of the running slice; at or before `now` when none runs.
    slice_end: SimTime,
    /// Deadline of the current anticipation window, if idling.
    idle_until: Option<SimTime>,
    /// Whether anticipation is worth arming. Real CFQ tracks the queue's
    /// think time and stops idling while the next request does not arrive
    /// promptly; this keeps a one-way latch: the first idle window that
    /// expires unrewarded ends idling on this disk for good.
    idle_ok: bool,
}

impl CfqScheduler {
    /// Build a CFQ instance.
    pub fn new(cfg: CfqConfig) -> Self {
        CfqScheduler(Cfq::new(cfg))
    }
}

impl Scheduler for CfqScheduler {
    fn enqueue(&mut self, req: DiskRequest) {
        self.0.enqueue(req);
    }

    fn decide(&mut self, now: SimTime, head: Lbn) -> Decision {
        self.0.decide(now, head)
    }

    fn absorb_contiguous(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
        self.0.queue.take_starting_at(end, kind)
    }

    fn absorb_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
        self.0.queue.take_ending_at(start, kind)
    }

    fn queued(&self) -> usize {
        self.0.queue.len()
    }
}

impl<Q: Queue> Cfq<Q> {
    fn new(cfg: CfqConfig) -> Self {
        Cfq {
            cfg,
            queue: Q::default(),
            slice_end: SimTime::ZERO,
            idle_until: None,
            idle_ok: true,
        }
    }

    fn enqueue(&mut self, req: DiskRequest) {
        self.queue.insert(req, self.cfg.max_merge_sectors);
        // A new request cancels the idle wait — the caller re-decides on
        // enqueue, so just clear the deadline.
        self.idle_until = None;
    }

    fn decide(&mut self, now: SimTime, head: Lbn) -> Decision {
        // Serve within the running slice while it lasts. Note anticipation
        // must run even when nothing at all is queued — that is the point
        // of `slice_idle`.
        if now < self.slice_end {
            if let Some(r) = self.queue.pop_elevator(head) {
                return Decision::Dispatch(r);
            }
            // Nothing queued: anticipate briefly, unless anticipation has
            // failed on this disk. A window is armed only on an empty
            // queue, and an enqueue clears it.
            match self.idle_until {
                None if self.idle_ok => {
                    let until = now
                        .saturating_add(self.cfg.slice_idle)
                        .min_of(self.slice_end);
                    if until > now {
                        self.idle_until = Some(until);
                        return Decision::IdleUntil(until);
                    }
                }
                Some(until) if now < until => {
                    return Decision::IdleUntil(until);
                }
                // The idle window expired unrewarded.
                Some(_) => self.idle_ok = false,
                _ => {}
            }
        }
        // Slice expired or idle window elapsed: start a new slice if there
        // is work.
        self.idle_until = None;
        let Some(r) = self.queue.pop_elevator(head) else {
            self.slice_end = now;
            return Decision::Empty;
        };
        self.slice_end = now.saturating_add(self.cfg.slice);
        Decision::Dispatch(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(id: u64, lbn: Lbn, t: SimTime) -> DiskRequest {
        DiskRequest::new(id, IoKind::Read, lbn, 8, t)
    }

    #[test]
    fn single_context_served_in_elevator_order() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        for (id, lbn) in [(1, 900), (2, 100), (3, 500)] {
            s.enqueue(req(id, lbn, SimTime::ZERO));
        }
        let mut order = Vec::new();
        let mut head = 0;
        while let Decision::Dispatch(r) = s.decide(SimTime::ZERO, head) {
            head = r.end();
            order.push(r.lbn);
        }
        assert_eq!(order, vec![100, 500, 900]);
    }

    #[test]
    fn anticipation_idles_after_context_drains() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        s.enqueue(req(1, 100, SimTime::ZERO));
        match s.decide(SimTime::ZERO, 0) {
            Decision::Dispatch(r) => assert_eq!(r.id, 1),
            other => panic!("{other:?}"),
        }
        // The queue is now empty but the slice is live: CFQ idles.
        match s.decide(SimTime::from_millis(1), 108) {
            Decision::IdleUntil(t) => assert_eq!(t, SimTime::from_millis(9)),
            other => panic!("expected idle, got {other:?}"),
        }
        // The queue stays empty, so after the idle window it reports Empty.
        match s.decide(SimTime::from_millis(9), 108) {
            Decision::Empty => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn new_request_from_active_context_breaks_idle() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        s.enqueue(req(1, 100, SimTime::ZERO));
        let _ = s.decide(SimTime::ZERO, 0);
        let _ = s.decide(SimTime::from_millis(1), 108); // starts idling
        s.enqueue(req(2, 108, SimTime::from_millis(2)));
        match s.decide(SimTime::from_millis(2), 108) {
            Decision::Dispatch(r) => assert_eq!(r.id, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_expired_slice_restarts_with_service_from_the_head() {
        let cfg = CfqConfig {
            slice: SimDuration::from_millis(10),
            ..CfqConfig::default()
        };
        let mut s = CfqScheduler::new(cfg);
        for (id, lbn) in [(1, 100), (2, 500), (3, 900), (4, 1300)] {
            s.enqueue(req(id, lbn, SimTime::ZERO));
        }
        let mut serve = |ms: u64, head: Lbn| match s.decide(SimTime::from_millis(ms), head) {
            Decision::Dispatch(r) => r.lbn,
            other => panic!("expected a dispatch at {ms} ms, got {other:?}"),
        };
        assert_eq!(serve(0, 0), 100);
        // The slice ended at 10 ms with three requests queued: a new one
        // starts at 11 ms, and the elevator goes on from the head, wrapping.
        assert_eq!(serve(11, 700), 900);
        assert_eq!(serve(12, 908), 1300);
        assert_eq!(serve(13, 1308), 500);
        // The idle window after the queue drains ends with the new slice
        // (11 + 10 ms), not 8 ms after 19 ms.
        assert_eq!(
            s.decide(SimTime::from_millis(19), 508),
            Decision::IdleUntil(SimTime::from_millis(21))
        );
        assert_eq!(s.decide(SimTime::from_millis(21), 508), Decision::Empty);
    }

    #[test]
    fn one_unrewarded_idle_window_ends_idling_for_good() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        s.enqueue(req(1, 100, SimTime::ZERO));
        assert!(matches!(s.decide(SimTime::ZERO, 0), Decision::Dispatch(_)));
        assert_eq!(
            s.decide(SimTime::from_millis(1), 108),
            Decision::IdleUntil(SimTime::from_millis(9))
        );
        // Nothing arrives in the window.
        assert_eq!(s.decide(SimTime::from_millis(9), 108), Decision::Empty);
        // From now on a drained queue is reported empty at once, within a
        // slice and across new ones.
        for (i, ms) in [10u64, 12, 200, 201].into_iter().enumerate() {
            let id = 2 + i as u64;
            s.enqueue(req(id, 108 + 8 * i as u64, SimTime::from_millis(ms)));
            match s.decide(SimTime::from_millis(ms), 108) {
                Decision::Dispatch(r) => assert_eq!(r.id, id),
                other => panic!("{other:?}"),
            }
            assert_eq!(s.decide(SimTime::from_millis(ms + 1), 116), Decision::Empty);
        }
    }

    #[test]
    fn merges_within_context() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        s.enqueue(req(1, 100, SimTime::ZERO));
        s.enqueue(req(2, 108, SimTime::ZERO));
        assert_eq!(s.queued(), 1);
    }

    #[test]
    fn empty_scheduler_reports_empty() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        assert_eq!(s.decide(SimTime::ZERO, 0), Decision::Empty);
        assert!(s.is_empty());
    }

    /// The queue as it was before the key array and windowed searches:
    /// every merge probe is a linear scan of the whole queue. The oracle
    /// [`SortedQueue`] must agree with.
    #[derive(Debug, Default)]
    struct LinearQueue {
        sorted: Vec<DiskRequest>,
    }

    impl Queue for LinearQueue {
        fn insert(&mut self, req: DiskRequest, max_merge: u64) {
            if let Some(prev) = self
                .sorted
                .iter_mut()
                .find(|r| r.can_back_merge(&req, max_merge))
            {
                prev.back_merge(req);
                return;
            }
            let pos = self
                .sorted
                .partition_point(|r| (r.lbn, r.id) < (req.lbn, req.id));
            self.sorted.insert(pos, req);
        }

        fn pop_elevator(&mut self, head: Lbn) -> Option<DiskRequest> {
            if self.sorted.is_empty() {
                return None;
            }
            let idx = self.sorted.partition_point(|r| r.lbn < head);
            let idx = if idx == self.sorted.len() { 0 } else { idx };
            Some(self.sorted.remove(idx))
        }

        fn take_starting_at(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
            let idx = self.sorted.partition_point(|r| r.lbn < end);
            let r = self.sorted.get(idx)?;
            (r.lbn == end && r.kind == kind).then(|| self.sorted.remove(idx))
        }

        fn take_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
            let idx = self
                .sorted
                .iter()
                .position(|r| r.end() == start && r.kind == kind)?;
            Some(self.sorted.remove(idx))
        }

        fn len(&self) -> usize {
            self.sorted.len()
        }
    }

    /// One step of the oracle comparison.
    #[derive(Debug, Clone)]
    enum Step {
        Enqueue {
            write: bool,
            lbn: Lbn,
            sectors: u64,
            id_hi: u64,
        },
        Decide {
            after_us: u64,
        },
        AbsorbContiguous {
            end: Lbn,
            write: bool,
        },
        AbsorbEndingAt {
            start: Lbn,
            write: bool,
        },
    }

    /// The merge cap of the comparison: small, so that sums landing on it
    /// exactly and requests longer than it are both common.
    const CAP: u64 = 16;

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sector counts drawn from 0..64 stay far from overflow"
    )]
    fn step() -> impl Strategy<Value = Step> {
        let enqueue = || {
            // Mostly short requests, so merges outgrow every request a
            // queue was handed; one in eight reaches near or past the cap.
            let sectors =
                (0u64..64).prop_map(|x| if x < 56 { 1 + x % 6 } else { CAP - 4 + x % 13 });
            (any::<bool>(), 0u64..128, sectors, 0u64..4).prop_map(|(write, lbn, sectors, id_hi)| {
                Step::Enqueue {
                    write,
                    lbn,
                    sectors,
                    id_hi,
                }
            })
        };
        prop_oneof![
            enqueue(),
            enqueue(),
            (0u64..4_000).prop_map(|after_us| Step::Decide { after_us }),
            (0u64..160, any::<bool>())
                .prop_map(|(end, write)| Step::AbsorbContiguous { end, write }),
            (0u64..160, any::<bool>())
                .prop_map(|(start, write)| Step::AbsorbEndingAt { start, write }),
        ]
    }

    fn kind(write: bool) -> IoKind {
        if write {
            IoKind::Write
        } else {
            IoKind::Read
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The windowed `SortedQueue` makes exactly the linear oracle's
        /// decisions: the same dispatches and absorbed requests, with the
        /// same merged tag lists, through random interleavings.
        #[test]
        fn windowed_queue_matches_the_linear_oracle(
            steps in proptest::collection::vec(step(), 1..160),
        ) {
            let cfg = CfqConfig {
                slice: SimDuration::from_millis(3),
                slice_idle: SimDuration::from_micros(500),
                max_merge_sectors: CAP,
            };
            let mut fast: Cfq<SortedQueue> = Cfq::new(cfg.clone());
            let mut slow: Cfq<LinearQueue> = Cfq::new(cfg);
            let (mut now, mut head, mut seq) = (SimTime::ZERO, 0, 0u64);
            for step in steps {
                match step {
                    Step::Enqueue { write, lbn, sectors, id_hi } => {
                        // Ids are unique but not in arrival order, and
                        // equal LBNs are common.
                        seq = seq.wrapping_add(1);
                        let id = (id_hi << 32) | seq;
                        let req = DiskRequest::new(id, kind(write), lbn, sectors, now);
                        fast.enqueue(req.clone());
                        slow.enqueue(req);
                    }
                    Step::Decide { after_us } => {
                        now = now.saturating_add(SimDuration::from_micros(after_us));
                        let d = fast.decide(now, head);
                        prop_assert_eq!(&d, &slow.decide(now, head));
                        if let Decision::Dispatch(mut r) = d {
                            // Chain merges onto the dispatch as
                            // `Disk::try_start` does.
                            while r.sectors < CAP {
                                let next = fast.queue.take_starting_at(r.end(), r.kind);
                                prop_assert_eq!(&next, &slow.queue.take_starting_at(r.end(), r.kind));
                                let Some(next) = next else { break };
                                r.back_merge(next);
                            }
                            while r.sectors < CAP {
                                let prev = fast.queue.take_ending_at(r.lbn, r.kind);
                                prop_assert_eq!(&prev, &slow.queue.take_ending_at(r.lbn, r.kind));
                                let Some(mut prev) = prev else { break };
                                prev.back_merge(r);
                                r = prev;
                            }
                            head = r.end();
                        }
                    }
                    Step::AbsorbContiguous { end, write } => {
                        let got = fast.queue.take_starting_at(end, kind(write));
                        prop_assert_eq!(got, slow.queue.take_starting_at(end, kind(write)));
                    }
                    Step::AbsorbEndingAt { start, write } => {
                        let got = fast.queue.take_ending_at(start, kind(write));
                        prop_assert_eq!(got, slow.queue.take_ending_at(start, kind(write)));
                    }
                }
                prop_assert_eq!(fast.queue.len(), slow.queue.len());
            }
            // Drain: the rest comes out in the same order too.
            loop {
                now = now.saturating_add(SimDuration::from_millis(1));
                let d = fast.decide(now, head);
                prop_assert_eq!(&d, &slow.decide(now, head));
                match d {
                    Decision::Dispatch(r) => head = r.end(),
                    Decision::IdleUntil(_) => {}
                    Decision::Empty => break,
                }
            }
        }
    }
}
