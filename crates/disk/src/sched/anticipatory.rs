//! The anticipatory scheduler (Iyer & Druschel, SOSP '01 — the paper's
//! reference \[17\], and Linux's `as` elevator of the same era).
//!
//! A seek-minimising elevator with one twist: after serving a request, if
//! nothing else is queued, the disk idles briefly instead of moving the
//! head away, expecting the issuer's next nearby request — defeating the
//! "deceptive idleness" of synchronous I/O. Each data server issues all of
//! its disk I/O from one process (DESIGN.md §7), so every queued request
//! is that issuer's, and anticipation arms only on an empty queue. Unlike
//! CFQ there are no time slices.

use super::queue::SortedQueue;
use super::{Decision, Scheduler, MAX_MERGE_SECTORS};
use crate::model::Lbn;
use crate::request::{DiskRequest, IoKind};
use dualpar_sim::{SimDuration, SimTime};

/// Maximum anticipation wait — Linux `antic_expire` default.
const ANTIC_WINDOW: SimDuration = SimDuration::from_millis(6);

/// The anticipatory scheduler state.
#[derive(Debug, Default)]
pub struct AnticipatoryScheduler {
    queue: SortedQueue,
    /// Set by a dispatch, cleared when the disk goes empty: a follow-up to
    /// the last dispatched request may still be on its way.
    dispatched: bool,
    /// Armed anticipation deadline.
    antic_until: Option<SimTime>,
    /// Whether anticipation has stopped paying. A one-way latch: the first
    /// armed window that expires unrewarded ends anticipation on this disk
    /// for good.
    antic_failed: bool,
}

impl AnticipatoryScheduler {
    /// Build an instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for AnticipatoryScheduler {
    fn enqueue(&mut self, req: DiskRequest) {
        self.queue.insert(req, MAX_MERGE_SECTORS);
        // An arrival ends the anticipation wait.
        self.antic_until = None;
    }

    fn decide(&mut self, now: SimTime, head: Lbn) -> Decision {
        if let Some(req) = self.queue.pop_elevator(head) {
            self.dispatched = true;
            return Decision::Dispatch(req);
        }
        // Anticipation: the last dispatched request's follow-up may still
        // be on its way.
        if self.dispatched {
            match self.antic_until {
                None if !self.antic_failed => {
                    let until = now.saturating_add(ANTIC_WINDOW);
                    self.antic_until = Some(until);
                    return Decision::IdleUntil(until);
                }
                Some(until) if now < until => return Decision::IdleUntil(until),
                Some(_) => {
                    // Expired unrewarded.
                    self.antic_failed = true;
                    self.antic_until = None;
                }
                None => {}
            }
        }
        self.dispatched = false;
        Decision::Empty
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

    fn req(id: u64, lbn: Lbn) -> DiskRequest {
        DiskRequest::new(id, IoKind::Read, lbn, 8, SimTime::ZERO)
    }

    #[test]
    fn serves_in_elevator_order() {
        let mut s = AnticipatoryScheduler::new();
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
        let mut s = AnticipatoryScheduler::new();
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
        let mut s = AnticipatoryScheduler::new();
        assert_eq!(s.decide(SimTime::ZERO, 0), Decision::Empty);
    }
}
