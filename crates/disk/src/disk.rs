//! The disk device: mechanical model + scheduler + trace, with an explicit
//! start/complete protocol driven by the owning event loop.

use crate::model::{DiskParams, Lbn};
use crate::request::DiskRequest;
use crate::sched::{Decision, Scheduler, SchedulerKind};
use crate::trace::{BlockTrace, TraceRecord};
use dualpar_sim::{SimDuration, SimTime};

/// Outcome of asking the disk to start its next piece of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartOutcome {
    /// Service began; a completion should be delivered at `finish`.
    Started {
        /// When the in-flight request completes.
        finish: SimTime,
    },
    /// Scheduler wants anticipation; poke the disk again at `until`
    /// (or earlier, if a request arrives).
    Idle {
        /// End of the anticipation window.
        until: SimTime,
    },
    /// Nothing to do.
    Quiescent,
}

/// A single simulated disk.
pub struct Disk {
    params: DiskParams,
    sched: Box<dyn Scheduler>,
    trace: BlockTrace,
    head: Lbn,
    in_flight: Option<DiskRequest>,
    total_busy: SimDuration,
    bytes_serviced: u64,
    total_seek: u64,
}

impl Disk {
    /// Build a disk with the given mechanical model and scheduler.
    pub fn new(params: DiskParams, sched_kind: SchedulerKind, trace_enabled: bool) -> Self {
        Disk {
            params,
            sched: sched_kind.build(),
            trace: BlockTrace::new(trace_enabled),
            head: 0,
            in_flight: None,
            total_busy: SimDuration::ZERO,
            bytes_serviced: 0,
            total_seek: 0,
        }
    }

    /// The mechanical parameters in use.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// The block trace (read-only).
    pub fn trace(&self) -> &BlockTrace {
        &self.trace
    }

    /// The block trace (mutable, e.g. for windowed sampling).
    pub fn trace_mut(&mut self) -> &mut BlockTrace {
        &mut self.trace
    }

    /// Current head position (one past the last serviced sector).
    pub fn head(&self) -> Lbn {
        self.head
    }

    /// Is a request currently being serviced?
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// The request currently being serviced, if any.
    pub fn in_flight(&self) -> Option<&DiskRequest> {
        self.in_flight.as_ref()
    }

    /// Requests waiting in the scheduler.
    pub fn queued(&self) -> usize {
        self.sched.queued()
    }

    /// Cumulative service time.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Cumulative bytes moved (reads + writes).
    pub fn bytes_serviced(&self) -> u64 {
        self.bytes_serviced
    }

    /// Cumulative head travel (sectors) across all dispatched requests.
    pub fn total_seek_distance(&self) -> u64 {
        self.total_seek
    }

    /// Queue a request. The caller should then call [`Disk::try_start`] and
    /// act on the outcome (unless the disk is already busy).
    pub fn enqueue(&mut self, req: DiskRequest) {
        dualpar_sim::strict_assert!(req.sectors > 0, "zero-length disk request id={}", req.id);
        debug_assert!(
            req.lbn.saturating_add(req.sectors) <= self.params.capacity_sectors,
            "request beyond end of disk: lbn={} sectors={} cap={}",
            req.lbn,
            req.sectors,
            self.params.capacity_sectors
        );
        self.sched.enqueue(req);
    }

    /// If idle, pick the next request (or anticipation window). The caller
    /// must schedule the completion / poke event it is told about.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "lifetime statistics: seek sectors and bytes summed over serviced requests"
    )]
    pub fn try_start(&mut self, now: SimTime) -> StartOutcome {
        if self.in_flight.is_some() {
            return StartOutcome::Quiescent; // busy; completion will re-poke
        }
        match self.sched.decide(now, self.head) {
            Decision::Dispatch(mut req) => {
                // Dispatch-time elevator merge: chain any queued requests
                // that continue this one, up to the block layer's merge cap.
                while req.sectors < crate::sched::MAX_MERGE_SECTORS {
                    match self.sched.absorb_contiguous(req.end(), req.kind) {
                        Some(next) => req.back_merge(next),
                        None => break,
                    }
                }
                while req.sectors < crate::sched::MAX_MERGE_SECTORS {
                    match self.sched.absorb_ending_at(req.lbn, req.kind) {
                        Some(mut prev) => {
                            prev.back_merge(req);
                            req = prev;
                        }
                        None => break,
                    }
                }
                let (dist, service) = self.params.service_time(self.head, req.lbn, req.sectors);
                self.trace.record(TraceRecord {
                    at: now,
                    lbn: req.lbn,
                    sectors: req.sectors,
                    kind: req.kind,
                    seek_distance: dist,
                });
                dualpar_sim::strict_assert!(
                    req.end() <= self.params.capacity_sectors,
                    "post-merge request beyond end of disk: lbn={} sectors={} cap={}",
                    req.lbn,
                    req.sectors,
                    self.params.capacity_sectors
                );
                let finish = now.saturating_add(service);
                self.total_busy += service;
                self.total_seek += dist;
                self.bytes_serviced += req.sectors.saturating_mul(crate::model::SECTOR_BYTES);
                self.head = req.end();
                self.in_flight = Some(req);
                StartOutcome::Started { finish }
            }
            Decision::IdleUntil(until) => StartOutcome::Idle { until },
            Decision::Empty => StartOutcome::Quiescent,
        }
    }

    /// Complete the in-flight request, returning it (with all merged ids).
    /// The caller should immediately `try_start` again.
    ///
    /// # Panics
    /// Panics if no request is in flight — calling this without a matching
    /// `Started` outcome is an event-loop bug.
    pub fn complete(&mut self) -> DiskRequest {
        self.in_flight
            .take()
            .expect("Disk::complete called with no request in flight")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoKind;

    fn disk(kind: SchedulerKind) -> Disk {
        Disk::new(DiskParams::hdd_7200rpm(), kind, true)
    }

    fn req(id: u64, lbn: Lbn, sectors: u64) -> DiskRequest {
        DiskRequest::new(id, IoKind::Read, lbn, sectors, SimTime::ZERO)
    }

    #[test]
    fn start_complete_cycle() {
        let mut d = disk(SchedulerKind::Noop);
        d.enqueue(req(1, 1000, 8));
        let finish = match d.try_start(SimTime::ZERO) {
            StartOutcome::Started { finish } => finish,
            other => panic!("{other:?}"),
        };
        assert!(d.is_busy());
        assert!(finish > SimTime::ZERO);
        let done = d.complete();
        assert_eq!(done.id, 1);
        assert!(!d.is_busy());
        assert_eq!(d.head(), 1008);
        assert_eq!(d.try_start(finish), StartOutcome::Quiescent);
    }

    #[test]
    fn busy_disk_rejects_start() {
        let mut d = disk(SchedulerKind::Noop);
        d.enqueue(req(1, 0, 8));
        d.enqueue(req(2, 100, 8));
        let _ = d.try_start(SimTime::ZERO);
        assert_eq!(d.try_start(SimTime::ZERO), StartOutcome::Quiescent);
        let _ = d.complete();
        assert!(matches!(
            d.try_start(SimTime::from_millis(1)),
            StartOutcome::Started { .. }
        ));
    }

    #[test]
    fn sequential_stream_is_fast() {
        // 128 sequential 64 KB requests ≈ 8 MiB at ~130 MB/s ⇒ ~64 ms.
        let mut d = disk(SchedulerKind::Noop);
        let sectors = 128; // 64 KB
        for i in 0..128u64 {
            d.enqueue(req(i, i * sectors, sectors));
        }
        let mut now = SimTime::ZERO;
        while let StartOutcome::Started { finish } = d.try_start(now) {
            now = finish;
            d.complete();
        }
        let mb = d.bytes_serviced() as f64 / 1e6;
        let thr = mb / now.as_secs_f64();
        assert!(thr > 100.0, "sequential throughput {thr:.0} MB/s too low");
    }

    #[test]
    fn scattered_stream_is_slow_then_sorted_is_faster() {
        // Same set of requests; once in a scattered arrival order served
        // FIFO (noop), once pre-sorted. Sorted must be much faster.
        let lbns: Vec<Lbn> = (0..64u64).map(|i| (i * 37) % 64).collect(); // permuted
        let run = |order: &[Lbn]| {
            let mut d = disk(SchedulerKind::Noop);
            for (i, &l) in order.iter().enumerate() {
                d.enqueue(req(i as u64, l * 1_000_000, 8));
            }
            let mut now = SimTime::ZERO;
            while let StartOutcome::Started { finish } = d.try_start(now) {
                now = finish;
                d.complete();
            }
            now
        };
        let scattered = run(&lbns);
        let mut sorted = lbns.clone();
        sorted.sort_unstable();
        let ordered = run(&sorted);
        let speedup = scattered.as_secs_f64() / ordered.as_secs_f64();
        assert!(speedup > 1.5, "sorting should help, got {speedup:.2}x");
    }

    #[test]
    fn trace_records_every_service() {
        let mut d = disk(SchedulerKind::Noop);
        for i in 0..10u64 {
            d.enqueue(req(i, i * 1000, 8));
        }
        let mut now = SimTime::ZERO;
        while let StartOutcome::Started { finish } = d.try_start(now) {
            now = finish;
            d.complete();
        }
        assert_eq!(d.trace().records().len(), 10);
        assert_eq!(d.trace().serviced(), 10);
    }

    #[test]
    #[should_panic(expected = "no request in flight")]
    fn complete_without_start_panics() {
        let mut d = disk(SchedulerKind::Noop);
        let _ = d.complete();
    }

    #[test]
    fn cfq_idle_outcome_propagates() {
        let mut d = disk(SchedulerKind::Cfq);
        d.enqueue(req(1, 0, 8));
        let finish = match d.try_start(SimTime::ZERO) {
            StartOutcome::Started { finish } => finish,
            o => panic!("{o:?}"),
        };
        d.complete();
        // Queue empty but CFQ anticipates another request.
        match d.try_start(finish) {
            StartOutcome::Idle { until } => assert!(until > finish),
            o => panic!("expected idle anticipation, got {o:?}"),
        }
    }
}
