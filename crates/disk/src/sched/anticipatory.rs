//! The anticipatory scheduler (Iyer & Druschel, SOSP '01 — the paper's
//! reference [17], and Linux's `as` elevator of the same era).
//!
//! A seek-minimising elevator with one twist: after serving a request, if
//! the *same context* is likely to issue a nearby request imminently, the
//! disk idles briefly instead of moving the head away — defeating the
//! "deceptive idleness" of synchronous I/O. Unlike CFQ there are no
//! per-context queues or time slices; anticipation is the only
//! context-aware mechanism.

use super::{Decision, Scheduler, DEFAULT_MAX_MERGE_SECTORS};
use crate::ctxmap::CtxMap;
use crate::model::Lbn;
use crate::request::{DiskRequest, IoCtx, IoKind};
use dualpar_sim::{SimDuration, SimTime};

/// Anticipatory-scheduler tunables.
#[derive(Debug, Clone)]
pub struct AnticipatoryConfig {
    /// Maximum anticipation wait (Linux `antic_expire` default 6 ms).
    pub antic_window: SimDuration,
    /// Cap on merged request size.
    pub max_merge_sectors: u64,
}

impl Default for AnticipatoryConfig {
    fn default() -> Self {
        AnticipatoryConfig {
            antic_window: SimDuration::from_millis(6),
            max_merge_sectors: DEFAULT_MAX_MERGE_SECTORS,
        }
    }
}

/// The anticipatory scheduler state.
#[derive(Debug)]
pub struct AnticipatoryScheduler {
    cfg: AnticipatoryConfig,
    /// Global LBN-sorted queue.
    sorted: Vec<DiskRequest>,
    /// Context whose follow-up we are (or would be) anticipating.
    last_ctx: Option<IoCtx>,
    /// Armed anticipation deadline.
    antic_until: Option<SimTime>,
    /// Per-context verdict: did the last armed anticipation pay off?
    /// Dense-indexed by context id ([`CtxMap`]) — the decide hot path
    /// reads this on every empty-queue check.
    antic_ok: CtxMap<bool>,
}

impl AnticipatoryScheduler {
    /// Build an instance.
    pub fn new(cfg: AnticipatoryConfig) -> Self {
        AnticipatoryScheduler {
            cfg,
            sorted: Vec::new(),
            last_ctx: None,
            antic_until: None,
            antic_ok: CtxMap::new(),
        }
    }

    fn pop_elevator(&mut self, head: Lbn) -> DiskRequest {
        let idx = self.sorted.partition_point(|r| r.lbn < head);
        let idx = if idx == self.sorted.len() { 0 } else { idx };
        // The shifting `remove` is load-bearing: `partition_point` here and
        // in `absorb_contiguous` requires `sorted` to stay ordered by
        // `(lbn, id)`, so a `swap_remove` would corrupt C-SCAN selection
        // and merge lookups. At realistic depths (tens of requests) the
        // shift is a short memmove; the `dispatch` criterion group in
        // `crates/bench/benches/hot_path.rs` guards against it regressing.
        self.sorted.remove(idx)
    }
}

impl Scheduler for AnticipatoryScheduler {
    fn enqueue(&mut self, req: DiskRequest) {
        // Back-merge against any queued request.
        for q in &mut self.sorted {
            if q.can_back_merge(&req, self.cfg.max_merge_sectors) {
                q.back_merge(req);
                return;
            }
        }
        // An arrival from the anticipated context rewards the wait.
        if self.antic_until.is_some() && self.last_ctx == Some(req.ctx) {
            self.antic_ok.set(req.ctx, true);
            self.antic_until = None;
        }
        let pos = self
            .sorted
            .partition_point(|r| (r.lbn, r.id) < (req.lbn, req.id));
        self.sorted.insert(pos, req);
    }

    fn decide(&mut self, now: SimTime, head: Lbn) -> Decision {
        // Anticipation: the last context's queue-relevant request may still
        // be on its way.
        if let Some(ctx) = self.last_ctx {
            let has_from_ctx = self.sorted.iter().any(|r| r.ctx == ctx);
            if !has_from_ctx {
                let ok = self.antic_ok.get(ctx).copied().unwrap_or(true);
                match self.antic_until {
                    None if ok => {
                        let until = now.saturating_add(self.cfg.antic_window);
                        self.antic_until = Some(until);
                        return Decision::IdleUntil(until);
                    }
                    Some(until) if now < until => return Decision::IdleUntil(until),
                    Some(_) => {
                        // Expired unrewarded.
                        self.antic_ok.set(ctx, false);
                        self.antic_until = None;
                        self.last_ctx = None;
                    }
                    None => {}
                }
            } else {
                self.antic_until = None;
            }
        }
        if self.sorted.is_empty() {
            self.last_ctx = None;
            return Decision::Empty;
        }
        let req = self.pop_elevator(head);
        self.last_ctx = Some(req.ctx);
        Decision::Dispatch(req)
    }

    fn absorb_contiguous(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let idx = self
            .sorted
            .iter()
            .position(|r| r.lbn == end && r.kind == kind)?;
        Some(self.sorted.remove(idx))
    }

    fn absorb_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let idx = self
            .sorted
            .iter()
            .position(|r| r.end() == start && r.kind == kind)?;
        Some(self.sorted.remove(idx))
    }

    fn queued(&self) -> usize {
        self.sorted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, ctx: u32, lbn: Lbn) -> DiskRequest {
        DiskRequest::new(id, IoCtx(ctx), IoKind::Read, lbn, 8, SimTime::ZERO)
    }

    #[test]
    fn serves_in_elevator_order() {
        let mut s = AnticipatoryScheduler::new(AnticipatoryConfig::default());
        for (id, lbn) in [(1, 9000), (2, 1000), (3, 5000)] {
            s.enqueue(req(id, 1, lbn));
        }
        let mut order = Vec::new();
        let mut head = 0;
        let mut now = SimTime::ZERO;
        loop {
            match s.decide(now, head) {
                Decision::Dispatch(r) => {
                    head = r.end();
                    order.push(r.lbn);
                }
                Decision::IdleUntil(t) => now = t,
                Decision::Empty => break,
            }
        }
        assert_eq!(order, vec![1000, 5000, 9000]);
    }

    #[test]
    fn anticipates_last_context_over_other_work() {
        let mut s = AnticipatoryScheduler::new(AnticipatoryConfig::default());
        s.enqueue(req(1, 1, 100));
        let _ = s.decide(SimTime::ZERO, 0); // serves ctx 1
        s.enqueue(req(2, 2, 900_000)); // far-away work from someone else
        // AS idles, hoping ctx 1 comes back with something nearby.
        match s.decide(SimTime::from_millis(1), 108) {
            Decision::IdleUntil(t) => assert_eq!(t, SimTime::from_millis(7)),
            other => panic!("expected idle, got {other:?}"),
        }
        // It does: the nearby request is serviced before the far one.
        s.enqueue(req(3, 1, 108));
        match s.decide(SimTime::from_millis(2), 108) {
            Decision::Dispatch(r) => assert_eq!(r.id, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn failed_anticipation_disables_itself() {
        let mut s = AnticipatoryScheduler::new(AnticipatoryConfig::default());
        s.enqueue(req(1, 1, 100));
        let _ = s.decide(SimTime::ZERO, 0);
        s.enqueue(req(2, 2, 900_000));
        let until = match s.decide(SimTime::from_millis(1), 108) {
            Decision::IdleUntil(t) => t,
            other => panic!("{other:?}"),
        };
        // ctx 1's window expires unrewarded; the far request is served.
        match s.decide(until, 108) {
            Decision::Dispatch(r) => assert_eq!(r.id, 2),
            other => panic!("{other:?}"),
        }
        // ctx 2 gets (and wastes) its own anticipation window.
        s.enqueue(req(3, 1, 200));
        let until2 = match s.decide(until, 108) {
            Decision::IdleUntil(t) => t,
            other => panic!("expected idle for ctx2, got {other:?}"),
        };
        match s.decide(until2, 108) {
            Decision::Dispatch(r) => assert_eq!(r.id, 3),
            other => panic!("{other:?}"),
        }
        // ctx 1 burned its credit earlier: after serving it, no idle.
        assert_eq!(s.decide(until2, 208), Decision::Empty);
    }

    #[test]
    fn empty_is_empty() {
        let mut s = AnticipatoryScheduler::new(AnticipatoryConfig::default());
        assert_eq!(s.decide(SimTime::ZERO, 0), Decision::Empty);
    }
}
