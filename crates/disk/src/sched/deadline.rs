//! The deadline scheduler: one LBN-sorted dispatch sweep, with per-request
//! expiry times that force service of starving requests.

use super::queue::SortedQueue;
use super::{Decision, Scheduler, MAX_MERGE_SECTORS};
use crate::model::Lbn;
use crate::request::{DiskRequest, IoKind};
use dualpar_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Read expiry — Linux default.
const READ_EXPIRE: SimDuration = SimDuration::from_millis(500);
/// Write expiry — Linux default.
const WRITE_EXPIRE: SimDuration = SimDuration::from_secs(5);

/// Simplified mq-deadline: a sorted queue for the elevator sweep plus FIFO
/// queues carrying deadlines. When the head-of-FIFO deadline has passed, the
/// sweep jumps to that request; otherwise it continues in ascending LBN.
#[derive(Debug, Default)]
pub struct DeadlineScheduler {
    queue: SortedQueue,
    /// `(deadline, lbn, id)` of each arrival, per direction. An entry whose
    /// request has left the queue (dispatched, absorbed, or merged into
    /// another on arrival) is stale and dropped when it reaches the front.
    read_fifo: VecDeque<(SimTime, Lbn, u64)>,
    write_fifo: VecDeque<(SimTime, Lbn, u64)>,
}

impl DeadlineScheduler {
    /// Build a deadline instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for DeadlineScheduler {
    fn enqueue(&mut self, req: DiskRequest) {
        // A request that back-merges on arrival leaves the merged request
        // with the *earlier* deadline (its own FIFO entry).
        let (fifo, expire) = match req.kind {
            IoKind::Read => (&mut self.read_fifo, READ_EXPIRE),
            IoKind::Write => (&mut self.write_fifo, WRITE_EXPIRE),
        };
        fifo.push_back((req.arrival.saturating_add(expire), req.lbn, req.id));
        self.queue.insert(req, MAX_MERGE_SECTORS);
    }

    fn decide(&mut self, now: SimTime, head: Lbn) -> Decision {
        // The first expired request, reads before writes.
        for fifo in [&mut self.read_fifo, &mut self.write_fifo] {
            while let Some(&(deadline, lbn, id)) = fifo.front() {
                if self.queue.find(lbn, id).is_none() {
                    fifo.pop_front();
                    continue;
                }
                if deadline <= now {
                    fifo.pop_front();
                    let r = self.queue.take(lbn, id).expect("found above");
                    return Decision::Dispatch(r);
                }
                break;
            }
        }
        // Elevator: first request at or above head, else wrap to lowest.
        self.queue
            .pop_elevator(head)
            .map_or(Decision::Empty, Decision::Dispatch)
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

    fn req_at(id: u64, lbn: Lbn, t: SimTime) -> DiskRequest {
        DiskRequest::new(id, IoKind::Read, lbn, 8, t)
    }

    #[test]
    fn sweeps_in_lbn_order_when_no_expiry() {
        let mut s = DeadlineScheduler::new();
        for (id, lbn) in [(1, 900), (2, 100), (3, 500)] {
            s.enqueue(req_at(id, lbn, SimTime::ZERO));
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
    fn expired_read_jumps_the_sweep() {
        let mut s = DeadlineScheduler::new();
        s.enqueue(req_at(1, 1_000_000, SimTime::ZERO)); // old, far away
        s.enqueue(req_at(2, 10, SimTime::from_millis(600)));
        // At t=600ms the first request (deadline 500ms) has expired, so it is
        // served even though LBN 10 is right at the head.
        match s.decide(SimTime::from_millis(600), 0) {
            Decision::Dispatch(r) => assert_eq!(r.id, 1),
            other => panic!("expected dispatch, got {other:?}"),
        }
    }

    #[test]
    fn writes_expire_later_than_reads() {
        let mut s = DeadlineScheduler::new();
        let mut w = req_at(1, 1_000_000, SimTime::ZERO);
        w.kind = IoKind::Write;
        s.enqueue(w);
        s.enqueue(req_at(2, 10, SimTime::from_secs(1)));
        // 1 s: write (5 s expiry) is not yet expired — sweep picks LBN 10.
        match s.decide(SimTime::from_secs(1), 0) {
            Decision::Dispatch(r) => assert_eq!(r.id, 2),
            other => panic!("{other:?}"),
        }
        // 6 s: write has expired.
        match s.decide(SimTime::from_secs(6), 0) {
            Decision::Dispatch(r) => assert_eq!(r.id, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wraps_to_lowest_lbn() {
        let mut s = DeadlineScheduler::new();
        s.enqueue(req_at(1, 100, SimTime::ZERO));
        match s.decide(SimTime::ZERO, 500) {
            Decision::Dispatch(r) => assert_eq!(r.lbn, 100),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merge_keeps_single_queue_entry() {
        let mut s = DeadlineScheduler::new();
        s.enqueue(req_at(1, 100, SimTime::ZERO));
        s.enqueue(req_at(2, 108, SimTime::ZERO));
        assert_eq!(s.queued(), 1);
        match s.decide(SimTime::ZERO, 0) {
            Decision::Dispatch(r) => assert_eq!(r.merged, vec![1, 2]),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.queued(), 0);
    }
}
