//! The anticipatory scheduler (Iyer & Druschel, SOSP '01 — the paper's
//! reference [17], and Linux's `as` elevator of the same era).
//!
//! A seek-minimising elevator with one twist: after serving a request, if
//! nothing else is queued, the disk idles briefly instead of moving the
//! head away, expecting the issuer's next nearby request — defeating the
//! "deceptive idleness" of synchronous I/O. Each data server issues all of
//! its disk I/O from one process (DESIGN.md §7), so every queued request
//! is that issuer's, and anticipation arms only on an empty queue. Unlike
//! CFQ there are no time slices.

use super::{Decision, Scheduler, DEFAULT_MAX_MERGE_SECTORS};
use crate::model::Lbn;
use crate::request::{DiskRequest, IoKind};
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
    /// Set by a dispatch, cleared when the disk goes empty: a follow-up to
    /// the last dispatched request may still be on its way.
    dispatched: bool,
    /// Armed anticipation deadline.
    antic_until: Option<SimTime>,
    /// Whether anticipation is worth arming. A one-way latch: the first
    /// armed window that expires unrewarded ends anticipation on this disk
    /// for good.
    antic_ok: bool,
}

impl AnticipatoryScheduler {
    /// Build an instance.
    pub fn new(cfg: AnticipatoryConfig) -> Self {
        AnticipatoryScheduler {
            cfg,
            sorted: Vec::new(),
            dispatched: false,
            antic_until: None,
            antic_ok: true,
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
        // An arrival ends the anticipation wait. A window is armed only on
        // an empty queue, so no request merges while one is armed.
        self.antic_until = None;
        let pos = self
            .sorted
            .partition_point(|r| (r.lbn, r.id) < (req.lbn, req.id));
        self.sorted.insert(pos, req);
    }

    fn decide(&mut self, now: SimTime, head: Lbn) -> Decision {
        if self.sorted.is_empty() {
            // Anticipation: the last dispatched request's follow-up may
            // still be on its way.
            if self.dispatched {
                match self.antic_until {
                    None if self.antic_ok => {
                        let until = now.saturating_add(self.cfg.antic_window);
                        self.antic_until = Some(until);
                        return Decision::IdleUntil(until);
                    }
                    Some(until) if now < until => return Decision::IdleUntil(until),
                    Some(_) => {
                        // Expired unrewarded.
                        self.antic_ok = false;
                        self.antic_until = None;
                    }
                    None => {}
                }
            }
            self.dispatched = false;
            return Decision::Empty;
        }
        let req = self.pop_elevator(head);
        self.dispatched = true;
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

    fn req(id: u64, lbn: Lbn) -> DiskRequest {
        DiskRequest::new(id, IoKind::Read, lbn, 8, SimTime::ZERO)
    }

    #[test]
    fn serves_in_elevator_order() {
        let mut s = AnticipatoryScheduler::new(AnticipatoryConfig::default());
        for (id, lbn) in [(1, 9000), (2, 1000), (3, 5000)] {
            s.enqueue(req(id, lbn));
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
    fn failed_anticipation_disables_itself() {
        let mut s = AnticipatoryScheduler::new(AnticipatoryConfig::default());
        let dispatch = |s: &mut AnticipatoryScheduler, ms: u64, head: Lbn| match s
            .decide(SimTime::from_millis(ms), head)
        {
            Decision::Dispatch(r) => r.id,
            other => panic!("expected a dispatch at {ms} ms, got {other:?}"),
        };
        s.enqueue(req(1, 100));
        assert_eq!(dispatch(&mut s, 0, 0), 1);
        // The queue is empty: AS idles, hoping for a nearby follow-up.
        assert_eq!(
            s.decide(SimTime::from_millis(1), 108),
            Decision::IdleUntil(SimTime::from_millis(7))
        );
        // It comes, and the wait was worth it.
        s.enqueue(req(2, 108));
        assert_eq!(dispatch(&mut s, 2, 108), 2);
        assert_eq!(
            s.decide(SimTime::from_millis(3), 116),
            Decision::IdleUntil(SimTime::from_millis(9))
        );
        // This window expires unrewarded.
        assert_eq!(s.decide(SimTime::from_millis(9), 116), Decision::Empty);
        // From now on a drained queue is reported empty at once.
        s.enqueue(req(3, 116));
        assert_eq!(dispatch(&mut s, 10, 116), 3);
        assert_eq!(s.decide(SimTime::from_millis(11), 124), Decision::Empty);
    }

    #[test]
    fn empty_is_empty() {
        let mut s = AnticipatoryScheduler::new(AnticipatoryConfig::default());
        assert_eq!(s.decide(SimTime::ZERO, 0), Decision::Empty);
    }
}
