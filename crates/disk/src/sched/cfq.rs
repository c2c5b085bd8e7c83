//! A behavioural model of Linux CFQ (Completely Fair Queuing), the paper's
//! disk scheduler, as it behaves with one I/O context.
//!
//! Each data server does its disk I/O from one server process, so CFQ sees
//! one I/O context per disk (DESIGN.md §7). With one context its time
//! slices and idle window cannot change the order of service: a slice that
//! expires with requests queued is followed at once by another, and the
//! idle window is armed only on an empty queue, which any arrival ends. What
//! is left is the property the paper relies on, **sorting only among the
//! requests it can see**: the queue is served by a circular elevator from
//! the head, with merging, so CFQ can create a good order only among the
//! requests queued at the moment. A trickle of prefetch requests
//! (Strategy 2) gives it one or two outstanding requests at a time —
//! service order ≈ arrival order (Fig. 1c). Two `mpi-io-test` instances on
//! one disk interleave their requests in that one queue, and the head moves
//! between their regions — the long-distance thrashing of Fig. 6(a). A
//! pre-sorted batch from DualPar's CRM arrives together and sweeps cleanly
//! (Fig. 1d).

use super::queue::SortedQueue;
use super::{Scheduler, MAX_MERGE_SECTORS};
use crate::model::Lbn;
use crate::request::{DiskRequest, IoKind};

/// CFQ with one context: a circular elevator (C-SCAN) over one LBN-sorted
/// queue, sweeping upward from the head and wrapping to the lowest queued
/// LBN when the top is reached.
#[derive(Debug, Default)]
pub struct CfqScheduler(SortedQueue);

impl CfqScheduler {
    /// Build a CFQ instance.
    pub fn new() -> Self {
        Self::default()
    }
}

sorted_scheduler!(CfqScheduler, pop_elevator);

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, lbn: Lbn) -> DiskRequest {
        DiskRequest::new(id, IoKind::Read, lbn, 8)
    }

    /// Serve the whole queue from `head`, returning the dispatched LBNs.
    fn drain(s: &mut CfqScheduler, mut head: Lbn) -> Vec<Lbn> {
        let mut order = Vec::new();
        while let Some(r) = s.decide(head) {
            head = r.end();
            order.push(r.lbn);
        }
        order
    }

    #[test]
    fn single_context_served_in_elevator_order() {
        let mut s = CfqScheduler::new();
        for (id, lbn) in [(1, 900), (2, 100), (3, 500)] {
            s.enqueue(req(id, lbn));
        }
        assert_eq!(drain(&mut s, 0), vec![100, 500, 900]);
    }

    #[test]
    fn scan_sweeps_upward_then_wraps() {
        let mut s = CfqScheduler::new();
        for (id, lbn) in [(1, 50), (2, 500), (3, 300), (4, 10)] {
            s.enqueue(req(id, lbn));
        }
        // head at 200: services 300, 500, wraps to 10, 50.
        assert_eq!(drain(&mut s, 200), vec![300, 500, 10, 50]);
    }

    #[test]
    fn merges_within_context() {
        let mut s = CfqScheduler::new();
        s.enqueue(req(1, 100));
        s.enqueue(req(2, 108));
        assert_eq!(s.queued(), 1);
    }

    #[test]
    fn empty_scheduler_reports_empty() {
        let mut s = CfqScheduler::new();
        assert_eq!(s.decide(0), None);
        assert!(s.is_empty());
    }
}
