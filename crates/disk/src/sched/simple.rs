//! NOOP, SSTF and SCAN schedulers.

use super::{Decision, Scheduler, DEFAULT_MAX_MERGE_SECTORS};
use crate::model::Lbn;
use crate::request::{DiskRequest, IoKind};
use dualpar_sim::SimTime;
use std::collections::VecDeque;

/// FIFO with back-merging of contiguous requests — Linux `noop`.
#[derive(Debug, Default)]
pub struct NoopScheduler {
    queue: VecDeque<DiskRequest>,
    max_merge: u64,
}

impl NoopScheduler {
    /// Build a NOOP instance.
    pub fn new() -> Self {
        NoopScheduler {
            queue: VecDeque::new(),
            max_merge: DEFAULT_MAX_MERGE_SECTORS,
        }
    }
}

impl Scheduler for NoopScheduler {
    fn enqueue(&mut self, req: DiskRequest) {
        if let Some(tail) = self.queue.back_mut() {
            if tail.can_back_merge(&req, self.max_merge) {
                tail.back_merge(req);
                return;
            }
        }
        self.queue.push_back(req);
    }

    fn decide(&mut self, _now: SimTime, _head: Lbn) -> Decision {
        match self.queue.pop_front() {
            Some(r) => Decision::Dispatch(r),
            None => Decision::Empty,
        }
    }

    fn absorb_contiguous(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let idx = self
            .queue
            .iter()
            .position(|r| r.lbn == end && r.kind == kind)?;
        self.queue.remove(idx)
    }

    fn absorb_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let idx = self
            .queue
            .iter()
            .position(|r| r.end() == start && r.kind == kind)?;
        self.queue.remove(idx)
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// Shortest-seek-time-first: greedy nearest request to the head. Maximises
/// short-term efficiency but can starve distant requests — included for the
/// scheduler ablation.
#[derive(Debug, Default)]
pub struct SstfScheduler {
    queue: Vec<DiskRequest>,
    max_merge: u64,
}

impl SstfScheduler {
    /// Build an SSTF instance.
    pub fn new() -> Self {
        SstfScheduler {
            queue: Vec::new(),
            max_merge: DEFAULT_MAX_MERGE_SECTORS,
        }
    }
}

impl Scheduler for SstfScheduler {
    fn enqueue(&mut self, req: DiskRequest) {
        // Try a back merge against any queued request ending at req.lbn.
        for q in &mut self.queue {
            if q.can_back_merge(&req, self.max_merge) {
                q.back_merge(req);
                return;
            }
        }
        self.queue.push(req);
    }

    fn decide(&mut self, _now: SimTime, head: Lbn) -> Decision {
        if self.queue.is_empty() {
            return Decision::Empty;
        }
        let (idx, _) = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(i, r)| (r.lbn.abs_diff(head), r.lbn, *i))
            .expect("non-empty");
        Decision::Dispatch(self.queue.swap_remove(idx))
    }


    fn absorb_contiguous(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let idx = self
            .queue
            .iter()
            .position(|r| r.lbn == end && r.kind == kind)?;
        Some(self.queue.swap_remove(idx))
    }

    fn absorb_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let idx = self
            .queue
            .iter()
            .position(|r| r.end() == start && r.kind == kind)?;
        Some(self.queue.swap_remove(idx))
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// Circular SCAN (elevator): sweep upward from the head, wrapping to the
/// lowest queued LBN when the top is reached.
#[derive(Debug, Default)]
pub struct ScanScheduler {
    queue: Vec<DiskRequest>,
    max_merge: u64,
}

impl ScanScheduler {
    /// Build a SCAN instance.
    pub fn new() -> Self {
        ScanScheduler {
            queue: Vec::new(),
            max_merge: DEFAULT_MAX_MERGE_SECTORS,
        }
    }
}

impl Scheduler for ScanScheduler {
    fn enqueue(&mut self, req: DiskRequest) {
        for q in &mut self.queue {
            if q.can_back_merge(&req, self.max_merge) {
                q.back_merge(req);
                return;
            }
        }
        self.queue.push(req);
    }

    fn decide(&mut self, _now: SimTime, head: Lbn) -> Decision {
        if self.queue.is_empty() {
            return Decision::Empty;
        }
        // Smallest LBN at or above the head, else the global smallest.
        let pick = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, r)| r.lbn >= head)
            .min_by_key(|(i, r)| (r.lbn, *i))
            .or_else(|| self.queue.iter().enumerate().min_by_key(|(i, r)| (r.lbn, *i)))
            .map(|(i, _)| i)
            .expect("non-empty");
        Decision::Dispatch(self.queue.swap_remove(pick))
    }


    fn absorb_contiguous(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let idx = self
            .queue
            .iter()
            .position(|r| r.lbn == end && r.kind == kind)?;
        Some(self.queue.swap_remove(idx))
    }

    fn absorb_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let idx = self
            .queue
            .iter()
            .position(|r| r.end() == start && r.kind == kind)?;
        Some(self.queue.swap_remove(idx))
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{IoCtx, IoKind};

    fn req(id: u64, lbn: Lbn, sectors: u64) -> DiskRequest {
        DiskRequest::new(id, IoCtx(0), IoKind::Read, lbn, sectors, SimTime::ZERO)
    }

    fn drain(s: &mut dyn Scheduler, head: Lbn) -> Vec<Lbn> {
        let mut out = Vec::new();
        let mut h = head;
        loop {
            match s.decide(SimTime::ZERO, h) {
                Decision::Dispatch(r) => {
                    h = r.end();
                    out.push(r.lbn);
                }
                Decision::Empty => break,
                Decision::IdleUntil(_) => unreachable!("simple schedulers never idle"),
            }
        }
        out
    }

    #[test]
    fn noop_preserves_fifo() {
        let mut s = NoopScheduler::new();
        for (id, lbn) in [(1, 500), (2, 100), (3, 900)] {
            s.enqueue(req(id, lbn, 8));
        }
        assert_eq!(drain(&mut s, 0), vec![500, 100, 900]);
    }

    #[test]
    fn noop_back_merges_contiguous_tail() {
        let mut s = NoopScheduler::new();
        s.enqueue(req(1, 100, 8));
        s.enqueue(req(2, 108, 8));
        assert_eq!(s.queued(), 1);
        match s.decide(SimTime::ZERO, 0) {
            Decision::Dispatch(r) => {
                assert_eq!(r.sectors, 16);
                assert_eq!(r.merged, vec![1, 2]);
            }
            other => panic!("expected dispatch, got {other:?}"),
        }
    }

    #[test]
    fn sstf_picks_nearest() {
        let mut s = SstfScheduler::new();
        s.enqueue(req(1, 1000, 8));
        s.enqueue(req(2, 90, 8));
        s.enqueue(req(3, 200, 8));
        // head at 100: nearest is 90, then (head=98) 200, then 1000
        assert_eq!(drain(&mut s, 100), vec![90, 200, 1000]);
    }

    #[test]
    fn scan_sweeps_upward_then_wraps() {
        let mut s = ScanScheduler::new();
        for (id, lbn) in [(1, 50), (2, 500), (3, 300), (4, 10)] {
            s.enqueue(req(id, lbn, 8));
        }
        // head at 200: services 300, 500, wraps to 10, 50.
        assert_eq!(drain(&mut s, 200), vec![300, 500, 10, 50]);
    }

    #[test]
    fn scan_from_zero_is_fully_sorted() {
        let mut s = ScanScheduler::new();
        for (id, lbn) in [(1, 700), (2, 100), (3, 400), (4, 900), (5, 250)] {
            s.enqueue(req(id, lbn, 8));
        }
        let order = drain(&mut s, 0);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn sstf_merges_mid_queue() {
        let mut s = SstfScheduler::new();
        s.enqueue(req(1, 100, 8));
        s.enqueue(req(2, 5000, 8));
        s.enqueue(req(3, 108, 8)); // merges into request 1
        assert_eq!(s.queued(), 2);
    }
}
