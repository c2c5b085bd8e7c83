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
use crate::request::{DiskRequest, IoCtx};
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

/// One context's sorted queue.
#[derive(Debug)]
struct CtxQueue {
    /// Requests sorted by LBN. Small queues dominate, so a sorted Vec beats
    /// a tree in practice.
    sorted: Vec<DiskRequest>,
    /// Whether anticipation is worth arming for this context. Real CFQ
    /// tracks per-queue think time and stops idling for queues whose next
    /// request does not arrive promptly; we keep the boolean distillation:
    /// an idle window that expires unrewarded disables idling for the
    /// context until an armed idle is rewarded again.
    idle_ok: bool,
}

impl Default for CtxQueue {
    fn default() -> Self {
        CtxQueue {
            sorted: Vec::new(),
            idle_ok: true,
        }
    }
}

impl CtxQueue {
    fn insert(&mut self, req: DiskRequest, max_merge: u64) {
        // Attempt a back merge with the request ending at req.lbn.
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

    /// Next request in circular-SCAN order from `head`.
    fn pop_elevator(&mut self, head: Lbn) -> Option<DiskRequest> {
        if self.sorted.is_empty() {
            return None;
        }
        let idx = self.sorted.partition_point(|r| r.lbn < head);
        let idx = if idx == self.sorted.len() { 0 } else { idx };
        // Must be the shifting `remove`, not `swap_remove`: the
        // `partition_point` C-SCAN pick above and the merge probes in
        // `absorb_contiguous` both assume `sorted` stays ordered by
        // `(lbn, id)`. Per-context queues are short (slice quantum bounds
        // them), so the shift is a small memmove; the `dispatch` criterion
        // group in `crates/bench/benches/hot_path.rs` is the regression
        // guard.
        Some(self.sorted.remove(idx))
    }

    fn len(&self) -> usize {
        self.sorted.len()
    }
}

/// The CFQ scheduler state.
#[derive(Debug)]
pub struct CfqScheduler {
    cfg: CfqConfig,
    /// Per-context queues, dense-indexed by context id ([`CtxMap`]): the
    /// enqueue/decide hot paths do an array load instead of a hash probe,
    /// and the merge-absorption scans iterate in context-id order — a
    /// deterministic-by-construction order, unlike the retired hash map's
    /// table order.
    queues: CtxMap<CtxQueue>,
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
        CfqScheduler {
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
        self.queues.get(ctx).map_or(0, CtxQueue::len)
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
}

impl Scheduler for CfqScheduler {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "total_queued counts the requests held in the queues"
    )]
    fn enqueue(&mut self, req: DiskRequest) {
        let ctx = req.ctx;
        let before;
        {
            let q = self.queues.get_or_insert_default(ctx);
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
                if let Some(q) = self.queues.get_mut(ctx) {
                    q.idle_ok = true;
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
                if let Some(q) = self.queues.get_mut(ctx) {
                    if let Some(r) = q.pop_elevator(head) {
                        self.total_queued -= 1;
                        self.idle_until = None;
                        return Decision::Dispatch(r);
                    }
                }
                // Active context has nothing queued: anticipate briefly,
                // unless anticipation last failed for this context.
                let idle_ok = self.queues.get(ctx).is_none_or(|q| q.idle_ok);
                match self.idle_until {
                    None if idle_ok => {
                        let until = now.saturating_add(self.cfg.slice_idle).min_of(self.slice_end);
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
                        if let Some(q) = self.queues.get_mut(ctx) {
                            q.idle_ok = false;
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
                let q = self.queues.get_mut(ctx).expect("selected ctx has queue");
                let r = q.pop_elevator(head).expect("selected ctx nonempty");
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
    fn absorb_contiguous(&mut self, end: Lbn, kind: crate::request::IoKind) -> Option<DiskRequest> {
        // Context-id iteration order: when several contexts hold a
        // mergeable request at the same LBN, the lowest context id wins —
        // a documented rule, where the hash map's table order was
        // arbitrary (though seed-stable).
        for q in self.queues.values_mut() {
            let idx = q.sorted.partition_point(|r| r.lbn < end);
            if let Some(r) = q.sorted.get(idx) {
                if r.lbn == end && r.kind == kind {
                    self.total_queued -= 1;
                    return Some(q.sorted.remove(idx));
                }
            }
        }
        None
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "total_queued counts the requests held in the queues"
    )]
    fn absorb_ending_at(&mut self, start: Lbn, kind: crate::request::IoKind) -> Option<DiskRequest> {
        for q in self.queues.values_mut() {
            if let Some(idx) = q
                .sorted
                .iter()
                .position(|r| r.end() == start && r.kind == kind)
            {
                self.total_queued -= 1;
                return Some(q.sorted.remove(idx));
            }
        }
        None
    }

    fn queued(&self) -> usize {
        self.total_queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoKind;

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
}
