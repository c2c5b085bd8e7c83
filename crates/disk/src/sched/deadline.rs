//! The deadline scheduler: one LBN-sorted dispatch sweep, with per-request
//! expiry times that force service of starving requests.

use super::{Decision, Scheduler, DEFAULT_MAX_MERGE_SECTORS};
use crate::model::Lbn;
use crate::request::{DiskRequest, IoKind};
use dualpar_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Deadline-scheduler tunables (Linux defaults).
#[derive(Debug, Clone)]
pub struct DeadlineConfig {
    /// Read expiry — Linux default 500 ms.
    pub read_expire: SimDuration,
    /// Write expiry — Linux default 5 s.
    pub write_expire: SimDuration,
    /// Cap on merged request size.
    pub max_merge_sectors: u64,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        DeadlineConfig {
            read_expire: SimDuration::from_millis(500),
            write_expire: SimDuration::from_secs(5),
            max_merge_sectors: DEFAULT_MAX_MERGE_SECTORS,
        }
    }
}

/// Simplified mq-deadline: a sorted list for the elevator sweep plus FIFO
/// queues carrying deadlines. When the head-of-FIFO deadline has passed, the
/// sweep jumps to that request; otherwise it continues in ascending LBN.
#[derive(Debug)]
pub struct DeadlineScheduler {
    cfg: DeadlineConfig,
    /// All queued requests, kept sorted by (lbn, insertion order is
    /// irrelevant because lbns of live requests are distinct per merge).
    sorted: Vec<DiskRequest>,
    /// FIFO of (deadline, request id) per direction.
    read_fifo: VecDeque<(SimTime, u64)>,
    write_fifo: VecDeque<(SimTime, u64)>,
}

impl DeadlineScheduler {
    /// Build a deadline instance.
    pub fn new(cfg: DeadlineConfig) -> Self {
        DeadlineScheduler {
            cfg,
            sorted: Vec::new(),
            read_fifo: VecDeque::new(),
            write_fifo: VecDeque::new(),
        }
    }

    fn fifo_for(&mut self, kind: IoKind) -> &mut VecDeque<(SimTime, u64)> {
        match kind {
            IoKind::Read => &mut self.read_fifo,
            IoKind::Write => &mut self.write_fifo,
        }
    }

    fn take_by_id(&mut self, id: u64) -> Option<DiskRequest> {
        let idx = self.sorted.iter().position(|r| r.id == id)?;
        Some(self.sorted.remove(idx))
    }

    /// First expired request id at `now`, if any (reads take priority).
    /// Callers must purge stale FIFO entries first.
    fn expired(&mut self, now: SimTime) -> Option<u64> {
        for fifo in [&mut self.read_fifo, &mut self.write_fifo] {
            if let Some(&(dl, id)) = fifo.front() {
                if dl <= now {
                    fifo.pop_front();
                    return Some(id);
                }
            }
        }
        None
    }

    fn purge_stale_fifo(&mut self) {
        let live: dualpar_sim::FxHashSet<u64> = self.sorted.iter().map(|r| r.id).collect();
        self.read_fifo.retain(|(_, id)| live.contains(id));
        self.write_fifo.retain(|(_, id)| live.contains(id));
    }
}

impl Scheduler for DeadlineScheduler {
    fn enqueue(&mut self, req: DiskRequest) {
        // Back-merge against an existing request; the merged request keeps
        // the *earlier* deadline (its own FIFO entry).
        for q in &mut self.sorted {
            if q.can_back_merge(&req, self.cfg.max_merge_sectors) {
                q.back_merge(req);
                return;
            }
        }
        let expire = match req.kind {
            IoKind::Read => self.cfg.read_expire,
            IoKind::Write => self.cfg.write_expire,
        };
        let deadline = req.arrival.saturating_add(expire);
        let id = req.id;
        let kind = req.kind;
        let pos = self
            .sorted
            .partition_point(|r| (r.lbn, r.id) < (req.lbn, req.id));
        self.sorted.insert(pos, req);
        self.fifo_for(kind).push_back((deadline, id));
    }

    fn decide(&mut self, now: SimTime, head: Lbn) -> Decision {
        if self.sorted.is_empty() {
            return Decision::Empty;
        }
        self.purge_stale_fifo();
        if let Some(id) = self.expired(now) {
            if let Some(r) = self.take_by_id(id) {
                return Decision::Dispatch(r);
            }
        }
        // Elevator: first request at or above head, else wrap to lowest.
        let idx = self
            .sorted
            .partition_point(|r| r.lbn < head)
            .min(self.sorted.len());
        let idx = if idx == self.sorted.len() { 0 } else { idx };
        Decision::Dispatch(self.sorted.remove(idx))
    }

    fn absorb_contiguous(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let idx = self.sorted.iter().position(|r| r.lbn == end && r.kind == kind)?;
        let req = self.sorted.remove(idx);
        // Its FIFO entry is purged lazily by purge_stale_fifo.
        Some(req)
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
    use crate::request::IoCtx;

    fn req_at(id: u64, lbn: Lbn, t: SimTime) -> DiskRequest {
        DiskRequest::new(id, IoCtx(0), IoKind::Read, lbn, 8, t)
    }

    #[test]
    fn sweeps_in_lbn_order_when_no_expiry() {
        let mut s = DeadlineScheduler::new(DeadlineConfig::default());
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
        let mut s = DeadlineScheduler::new(DeadlineConfig::default());
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
        let cfg = DeadlineConfig::default();
        let mut s = DeadlineScheduler::new(cfg);
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
        let mut s = DeadlineScheduler::new(DeadlineConfig::default());
        s.enqueue(req_at(1, 100, SimTime::ZERO));
        match s.decide(SimTime::ZERO, 500) {
            Decision::Dispatch(r) => assert_eq!(r.lbn, 100),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merge_keeps_single_queue_entry() {
        let mut s = DeadlineScheduler::new(DeadlineConfig::default());
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
