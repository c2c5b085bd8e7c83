//! A behavioural model of Linux CFQ (Completely Fair Queuing), the paper's
//! disk scheduler.
//!
//! The properties that matter for reproducing the paper:
//!
//! 1. **Per-context queues served round-robin in time slices.** Requests from
//!    different processes (or programs) are *not* globally sorted; the head
//!    moves to wherever the next context's data lives when a slice expires.
//!    With two `mpi-io-test` instances on one disk this is exactly the
//!    long-distance head thrashing of Fig. 6(a).
//! 2. **Sorting only within a context's current queue.** CFQ can create a
//!    good order only among the requests it can *see*. A trickle of prefetch
//!    requests (Strategy 2) gives it one or two outstanding requests at a
//!    time — service order ≈ arrival order (Fig. 1c). A pre-sorted batch
//!    from DualPar's CRM arrives together and sweeps cleanly (Fig. 1d).
//! 3. **Idle anticipation** (`slice_idle`): after serving a context's last
//!    request CFQ keeps the disk idle briefly, expecting another nearby
//!    request from the same context — good for per-process sequential
//!    streams, wasted time for interleaved ones.

use super::{Decision, Scheduler, DEFAULT_MAX_MERGE_SECTORS};
use crate::ctxmap::CtxMap;
use crate::model::Lbn;
use crate::request::{DiskRequest, IoCtx, IoKind};
use dualpar_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// CFQ tunables (Linux defaults).
#[derive(Debug, Clone)]
pub struct CfqConfig {
    /// Length of a context's service slice — Linux `slice_sync` default.
    pub slice: SimDuration,
    /// Anticipatory idle window after a context's queue empties —
    /// Linux `slice_idle` default.
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

/// The per-context queue operations CFQ is built from. [`CtxQueue`] is
/// the one the simulator runs; the tests check it against a linear-scan
/// oracle of the same operations.
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

/// One context's sorted queue.
#[derive(Debug, Default)]
struct CtxQueue {
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

impl CtxQueue {
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
        // assumes `order` stays sorted. Per-context queues are short (the
        // slice quantum bounds them), so the shift is a small memmove; the
        // `dispatch` and `disk_path` criterion groups in
        // `crates/bench/benches/hot_path.rs` are the regression guard.
        let (_, slot) = self.order.remove(i);
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("order names a queued request")
    }
}

impl Queue for CtxQueue {
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

/// A context's queue and its anticipation verdict.
#[derive(Debug)]
struct CtxState<Q> {
    queue: Q,
    /// Whether anticipation is worth arming for this context. Real CFQ
    /// tracks per-queue think time and stops idling for queues whose next
    /// request does not arrive promptly; we keep the boolean distillation:
    /// an idle window that expires unrewarded disables idling for the
    /// context until an armed idle is rewarded again.
    idle_ok: bool,
}

impl<Q: Default> Default for CtxState<Q> {
    fn default() -> Self {
        CtxState {
            queue: Q::default(),
            idle_ok: true,
        }
    }
}

/// The CFQ scheduler state.
#[derive(Debug)]
pub struct CfqScheduler(Cfq<CtxQueue>);

/// CFQ over per-context queues of type `Q`.
#[derive(Debug)]
struct Cfq<Q> {
    cfg: CfqConfig,
    /// Per-context queues, dense-indexed by context id ([`CtxMap`]): the
    /// enqueue/decide hot paths do an array load instead of a hash probe,
    /// and the merge-absorption scans iterate in context-id order — a
    /// deterministic-by-construction order, unlike the retired hash map's
    /// table order.
    queues: CtxMap<CtxState<Q>>,
    /// Round-robin order of contexts that have (or recently had) requests.
    rr: VecDeque<IoCtx>,
    /// The context currently holding the slice.
    active: Option<IoCtx>,
    slice_end: SimTime,
    /// Deadline of the current anticipation window, if idling.
    idle_until: Option<SimTime>,
    total_queued: usize,
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
        self.0.absorb_contiguous(end, kind)
    }

    fn absorb_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
        self.0.absorb_ending_at(start, kind)
    }

    fn queued(&self) -> usize {
        self.0.total_queued
    }
}

impl<Q: Queue> Cfq<Q> {
    fn new(cfg: CfqConfig) -> Self {
        Cfq {
            cfg,
            queues: CtxMap::new(),
            rr: VecDeque::new(),
            active: None,
            slice_end: SimTime::ZERO,
            idle_until: None,
            total_queued: 0,
        }
    }

    fn queue_len(&self, ctx: IoCtx) -> usize {
        self.queues.get(ctx).map_or(0, |s| s.queue.len())
    }

    /// Select the next context with queued requests, starting a new slice.
    fn switch_context(&mut self, now: SimTime) -> Option<IoCtx> {
        self.idle_until = None;
        let rounds = self.rr.len();
        for _ in 0..rounds {
            let ctx = self.rr.pop_front().expect("rr nonempty within rounds");
            if self.queue_len(ctx) > 0 {
                self.rr.push_back(ctx);
                self.active = Some(ctx);
                self.slice_end = now.saturating_add(self.cfg.slice);
                return Some(ctx);
            }
            // Context idle: drop it from the RR ring; it re-registers on
            // its next request. The queue entry (and its anticipation
            // verdict) is kept.
        }
        self.active = None;
        None
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "total_queued counts the requests held in the queues"
    )]
    fn enqueue(&mut self, req: DiskRequest) {
        let ctx = req.ctx;
        let before;
        {
            let q = &mut self.queues.get_or_insert_default(ctx).queue;
            before = q.len();
            q.insert(req, self.cfg.max_merge_sectors);
            let after = q.len();
            if after > before {
                self.total_queued += 1;
            }
        }
        if before == 0 && !self.rr.contains(&ctx) {
            self.rr.push_back(ctx);
        }
        // A new request for the anticipated context cancels the idle wait —
        // the caller re-decides on enqueue, so just clear the deadline.
        // An armed idle that gets its request is a success: anticipation
        // stays enabled for this context.
        if self.active == Some(ctx) {
            if self.idle_until.is_some() {
                if let Some(s) = self.queues.get_mut(ctx) {
                    s.idle_ok = true;
                }
            }
            self.idle_until = None;
        }
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "total_queued counts the requests held in the queues"
    )]
    fn decide(&mut self, now: SimTime, head: Lbn) -> Decision {
        // Serve within the active slice while it lasts. Note anticipation
        // must run even when nothing at all is queued — that is the point
        // of `slice_idle`.
        if let Some(ctx) = self.active {
            if now < self.slice_end {
                if let Some(s) = self.queues.get_mut(ctx) {
                    if let Some(r) = s.queue.pop_elevator(head) {
                        self.total_queued -= 1;
                        self.idle_until = None;
                        return Decision::Dispatch(r);
                    }
                }
                // Active context has nothing queued: anticipate briefly,
                // unless anticipation last failed for this context.
                let idle_ok = self.queues.get(ctx).is_none_or(|s| s.idle_ok);
                match self.idle_until {
                    None if idle_ok => {
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
                    Some(_) => {
                        // The idle window expired unrewarded: disable
                        // anticipation for this context until it earns it
                        // back.
                        if let Some(s) = self.queues.get_mut(ctx) {
                            s.idle_ok = false;
                        }
                    }
                    _ => {}
                }
            }
        }
        if self.total_queued == 0 {
            self.active = None;
            self.idle_until = None;
            return Decision::Empty;
        }
        // Slice expired or idle window elapsed: move to the next context.
        match self.switch_context(now) {
            Some(ctx) => {
                let s = self.queues.get_mut(ctx).expect("selected ctx has queue");
                let r = s.queue.pop_elevator(head).expect("selected ctx nonempty");
                self.total_queued -= 1;
                Decision::Dispatch(r)
            }
            None => Decision::Empty,
        }
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "total_queued counts the requests held in the queues"
    )]
    fn absorb_contiguous(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
        // Context-id iteration order: when several contexts hold a
        // mergeable request at the same LBN, the lowest context id wins —
        // a documented rule, where the hash map's table order was
        // arbitrary (though seed-stable).
        let r = self
            .queues
            .values_mut()
            .find_map(|s| s.queue.take_starting_at(end, kind))?;
        self.total_queued -= 1;
        Some(r)
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "total_queued counts the requests held in the queues"
    )]
    fn absorb_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let r = self
            .queues
            .values_mut()
            .find_map(|s| s.queue.take_ending_at(start, kind))?;
        self.total_queued -= 1;
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(id: u64, ctx: u32, lbn: Lbn, t: SimTime) -> DiskRequest {
        DiskRequest::new(id, IoCtx(ctx), IoKind::Read, lbn, 8, t)
    }

    #[test]
    fn single_context_served_in_elevator_order() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        for (id, lbn) in [(1, 900), (2, 100), (3, 500)] {
            s.enqueue(req(id, 1, lbn, SimTime::ZERO));
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
        s.enqueue(req(1, 1, 100, SimTime::ZERO));
        match s.decide(SimTime::ZERO, 0) {
            Decision::Dispatch(r) => assert_eq!(r.id, 1),
            other => panic!("{other:?}"),
        }
        // Context 1's queue is now empty but its slice is live: CFQ idles.
        match s.decide(SimTime::from_millis(1), 108) {
            Decision::IdleUntil(t) => assert_eq!(t, SimTime::from_millis(9)),
            other => panic!("expected idle, got {other:?}"),
        }
        // Queue stays empty overall though — with no other context, after the
        // idle window it reports Empty.
        match s.decide(SimTime::from_millis(9), 108) {
            Decision::Empty => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn new_request_from_active_context_breaks_idle() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        s.enqueue(req(1, 1, 100, SimTime::ZERO));
        let _ = s.decide(SimTime::ZERO, 0);
        let _ = s.decide(SimTime::from_millis(1), 108); // starts idling
        s.enqueue(req(2, 1, 108, SimTime::from_millis(2)));
        match s.decide(SimTime::from_millis(2), 108) {
            Decision::Dispatch(r) => assert_eq!(r.id, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn slice_expiry_rotates_contexts() {
        let cfg = CfqConfig {
            slice: SimDuration::from_millis(10),
            slice_idle: SimDuration::from_millis(2),
            ..CfqConfig::default()
        };
        let mut s = CfqScheduler::new(cfg);
        // Two contexts, each with requests in a distinct disk region.
        for i in 0..3 {
            s.enqueue(req(i, 1, 1000 + i * 1000, SimTime::ZERO));
            s.enqueue(req(100 + i, 2, 900_000 + i * 1000, SimTime::ZERO));
        }
        // First slice: context 1.
        let mut served_ctx1 = 0;
        let mut now = SimTime::ZERO;
        let mut head = 0;
        loop {
            match s.decide(now, head) {
                Decision::Dispatch(r) => {
                    if r.ctx == IoCtx(1) {
                        served_ctx1 += 1;
                        head = r.end();
                    } else {
                        // Rotation happened.
                        break;
                    }
                }
                Decision::IdleUntil(t) => now = t,
                Decision::Empty => break,
            }
            // Advance time past the slice midway to force expiry.
            if served_ctx1 == 2 {
                now = SimTime::from_millis(11);
            }
        }
        assert_eq!(served_ctx1, 2, "slice expiry should preempt context 1");
    }

    #[test]
    fn round_robin_alternates_between_contexts() {
        let cfg = CfqConfig {
            slice: SimDuration::from_millis(10),
            slice_idle: SimDuration::ZERO,
            ..CfqConfig::default()
        };
        let mut s = CfqScheduler::new(cfg);
        for i in 0..2u64 {
            s.enqueue(req(i, 1, 100 + i * 1000, SimTime::ZERO));
            s.enqueue(req(10 + i, 2, 50_000 + i * 1000, SimTime::ZERO));
        }
        let mut ctx_sequence = Vec::new();
        let mut now = SimTime::ZERO;
        while let Decision::Dispatch(r) = {
            // Each service takes 20 ms (longer than the slice), so every
            // dispatch exhausts the slice and rotation occurs.
            let d = s.decide(now, 0);
            now += SimDuration::from_millis(20);
            d
        } {
            ctx_sequence.push(r.ctx.0);
        }
        assert_eq!(ctx_sequence, vec![1, 2, 1, 2]);
    }

    #[test]
    fn merges_within_context() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        s.enqueue(req(1, 1, 100, SimTime::ZERO));
        s.enqueue(req(2, 1, 108, SimTime::ZERO));
        assert_eq!(s.queued(), 1);
    }

    #[test]
    fn does_not_merge_across_contexts() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        s.enqueue(req(1, 1, 100, SimTime::ZERO));
        s.enqueue(req(2, 2, 108, SimTime::ZERO));
        assert_eq!(s.queued(), 2);
    }

    #[test]
    fn empty_scheduler_reports_empty() {
        let mut s = CfqScheduler::new(CfqConfig::default());
        assert_eq!(s.decide(SimTime::ZERO, 0), Decision::Empty);
        assert!(s.is_empty());
    }

    /// The per-context queue as it was before the key array and windowed
    /// searches: every merge probe is a linear scan of the whole queue.
    /// The oracle [`CtxQueue`] must agree with.
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
            ctx: u32,
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
            // Contexts 0-3 plus the flush daemon's sentinel (the CtxMap
            // spill).
            let ctx = prop_oneof![0u32..4, Just(0xFFFF_FFFF)];
            // Mostly short requests, so merges outgrow every request a
            // queue was handed; one in eight reaches near or past the cap.
            let sectors =
                (0u64..64).prop_map(|x| if x < 56 { 1 + x % 6 } else { CAP - 4 + x % 13 });
            (ctx, any::<bool>(), 0u64..128, sectors, 0u64..4).prop_map(
                |(ctx, write, lbn, sectors, id_hi)| Step::Enqueue {
                    ctx,
                    write,
                    lbn,
                    sectors,
                    id_hi,
                },
            )
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

        /// The windowed `CtxQueue` makes exactly the linear oracle's
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
            let mut fast: Cfq<CtxQueue> = Cfq::new(cfg.clone());
            let mut slow: Cfq<LinearQueue> = Cfq::new(cfg);
            let (mut now, mut head, mut seq) = (SimTime::ZERO, 0, 0u64);
            for step in steps {
                match step {
                    Step::Enqueue { ctx, write, lbn, sectors, id_hi } => {
                        // Ids are unique but not in arrival order, and
                        // equal LBNs are common.
                        seq = seq.wrapping_add(1);
                        let id = (id_hi << 32) | seq;
                        let req = DiskRequest::new(id, IoCtx(ctx), kind(write), lbn, sectors, now);
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
                                let next = fast.absorb_contiguous(r.end(), r.kind);
                                prop_assert_eq!(&next, &slow.absorb_contiguous(r.end(), r.kind));
                                let Some(next) = next else { break };
                                r.back_merge(next);
                            }
                            while r.sectors < CAP {
                                let prev = fast.absorb_ending_at(r.lbn, r.kind);
                                prop_assert_eq!(&prev, &slow.absorb_ending_at(r.lbn, r.kind));
                                let Some(mut prev) = prev else { break };
                                prev.back_merge(r);
                                r = prev;
                            }
                            head = r.end();
                        }
                    }
                    Step::AbsorbContiguous { end, write } => {
                        let got = fast.absorb_contiguous(end, kind(write));
                        prop_assert_eq!(got, slow.absorb_contiguous(end, kind(write)));
                    }
                    Step::AbsorbEndingAt { start, write } => {
                        let got = fast.absorb_ending_at(start, kind(write));
                        prop_assert_eq!(got, slow.absorb_ending_at(start, kind(write)));
                    }
                }
                prop_assert_eq!(fast.total_queued, slow.total_queued);
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
