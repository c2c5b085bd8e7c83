//! NOOP and SSTF schedulers.

use super::queue::SortedQueue;
use super::{Scheduler, MAX_MERGE_SECTORS};
use crate::model::Lbn;
use crate::request::{DiskRequest, IoKind};
use std::collections::VecDeque;

/// FIFO with back-merging of contiguous requests — Linux `noop`.
#[derive(Debug, Default)]
pub struct NoopScheduler {
    queue: VecDeque<DiskRequest>,
}

impl NoopScheduler {
    /// Build a NOOP instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for NoopScheduler {
    fn enqueue(&mut self, req: DiskRequest) {
        if let Some(tail) = self.queue.back_mut() {
            if tail.can_back_merge(&req, MAX_MERGE_SECTORS) {
                tail.back_merge(req);
                return;
            }
        }
        self.queue.push_back(req);
    }

    fn decide(&mut self, _head: Lbn) -> Option<DiskRequest> {
        self.queue.pop_front()
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
pub struct SstfScheduler(SortedQueue);

impl SstfScheduler {
    /// Build an SSTF instance.
    pub fn new() -> Self {
        Self::default()
    }
}

sorted_scheduler!(SstfScheduler, pop_nearest);

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, lbn: Lbn, sectors: u64) -> DiskRequest {
        DiskRequest::new(id, IoKind::Read, lbn, sectors)
    }

    fn drain(s: &mut dyn Scheduler, head: Lbn) -> Vec<Lbn> {
        let mut out = Vec::new();
        let mut h = head;
        while let Some(r) = s.decide(h) {
            h = r.end();
            out.push(r.lbn);
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
        let r = s.decide(0).expect("one merged request queued");
        assert_eq!(r.sectors, 16);
        assert_eq!(r.merged, vec![1, 2]);
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
    fn sstf_merges_mid_queue() {
        let mut s = SstfScheduler::new();
        s.enqueue(req(1, 100, 8));
        s.enqueue(req(2, 5000, 8));
        s.enqueue(req(3, 108, 8)); // merges into request 1
        assert_eq!(s.queued(), 2);
    }
}
