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
//! 2. **Time slices.** Service runs in slices of [`SLICE`]; one that expires
//!    with requests queued is followed at once by a new one, and the
//!    elevator goes on from the head.
//! 3. **Idle anticipation** ([`SLICE_IDLE`]): after serving the last queued
//!    request CFQ keeps the disk idle briefly, expecting another nearby
//!    request — good for sequential streams, wasted time for interleaved
//!    ones.

use super::queue::SortedQueue;
use super::{Decision, Scheduler, MAX_MERGE_SECTORS};
use crate::model::Lbn;
use crate::request::{DiskRequest, IoKind};
use dualpar_sim::{SimDuration, SimTime};

/// Length of a service slice — Linux `slice_sync` default.
const SLICE: SimDuration = SimDuration::from_millis(100);
/// Anticipatory idle window after the queue empties — Linux `slice_idle`
/// default.
const SLICE_IDLE: SimDuration = SimDuration::from_millis(8);

/// The CFQ scheduler state.
#[derive(Debug, Default)]
pub struct CfqScheduler {
    queue: SortedQueue,
    /// End of the running slice; at or before `now` when none runs.
    slice_end: SimTime,
    /// Deadline of the current anticipation window, if idling.
    idle_until: Option<SimTime>,
    /// Whether anticipation has stopped paying. Real CFQ tracks the
    /// queue's think time and stops idling while the next request does not
    /// arrive promptly; this keeps a one-way latch: the first idle window
    /// that expires unrewarded ends idling on this disk for good.
    idle_failed: bool,
}

impl CfqScheduler {
    /// Build a CFQ instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for CfqScheduler {
    fn enqueue(&mut self, req: DiskRequest) {
        self.queue.insert(req, MAX_MERGE_SECTORS);
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
                None if !self.idle_failed => {
                    let until = now.saturating_add(SLICE_IDLE).min_of(self.slice_end);
                    if until > now {
                        self.idle_until = Some(until);
                        return Decision::IdleUntil(until);
                    }
                }
                Some(until) if now < until => {
                    return Decision::IdleUntil(until);
                }
                // The idle window expired unrewarded.
                Some(_) => self.idle_failed = true,
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
        self.slice_end = now.saturating_add(SLICE);
        Decision::Dispatch(r)
    }

    fn absorb_contiguous(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
        self.queue.take_starting_at(end, kind)
    }

    fn absorb_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
        self.queue.take_ending_at(start, kind)
    }

    fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, lbn: Lbn, t: SimTime) -> DiskRequest {
        DiskRequest::new(id, IoKind::Read, lbn, 8, t)
    }

    #[test]
    fn single_context_served_in_elevator_order() {
        let mut s = CfqScheduler::new();
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
        let mut s = CfqScheduler::new();
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
        let mut s = CfqScheduler::new();
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
        let mut s = CfqScheduler::new();
        for (id, lbn) in [(1, 100), (2, 500), (3, 900), (4, 1300)] {
            s.enqueue(req(id, lbn, SimTime::ZERO));
        }
        let mut serve = |ms: u64, head: Lbn| match s.decide(SimTime::from_millis(ms), head) {
            Decision::Dispatch(r) => r.lbn,
            other => panic!("expected a dispatch at {ms} ms, got {other:?}"),
        };
        assert_eq!(serve(0, 0), 100);
        // The slice ended at 100 ms with three requests queued: a new one
        // starts at 101 ms, and the elevator goes on from the head,
        // wrapping.
        assert_eq!(serve(101, 700), 900);
        assert_eq!(serve(102, 908), 1300);
        assert_eq!(serve(103, 1308), 500);
        // The idle window after the queue drains ends with the new slice
        // (101 + 100 ms), not 8 ms after 195 ms.
        assert_eq!(
            s.decide(SimTime::from_millis(195), 508),
            Decision::IdleUntil(SimTime::from_millis(201))
        );
        assert_eq!(s.decide(SimTime::from_millis(201), 508), Decision::Empty);
    }

    #[test]
    fn one_unrewarded_idle_window_ends_idling_for_good() {
        let mut s = CfqScheduler::new();
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
        let mut s = CfqScheduler::new();
        s.enqueue(req(1, 100, SimTime::ZERO));
        s.enqueue(req(2, 108, SimTime::ZERO));
        assert_eq!(s.queued(), 1);
    }

    #[test]
    fn empty_scheduler_reports_empty() {
        let mut s = CfqScheduler::new();
        assert_eq!(s.decide(SimTime::ZERO, 0), Decision::Empty);
        assert!(s.is_empty());
    }
}
