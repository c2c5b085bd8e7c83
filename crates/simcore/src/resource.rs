//! Simple queueing resources shared by the network and server models.

use crate::time::{SimDuration, SimTime};

/// A work-conserving FIFO server: requests are serialised, each occupying the
/// resource for its service time. Models a NIC or any single-channel link.
///
/// The caller asks "if a job arrives at `now` needing `service` time, when
/// does it start and finish?"; the resource tracks its own backlog.
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    /// Time the resource becomes free of all currently accepted work.
    free_at: SimTime,
    /// Total busy time accepted, for utilisation accounting.
    busy: SimDuration,
}

impl FifoResource {
    pub fn new() -> Self {
        Self::default()
    }

    /// Accept a job arriving at `now` with the given service demand.
    /// Returns `(start, end)` of its service interval.
    pub fn accept(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let start = now.max_of(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.busy += service;
        (start, end)
    }

    /// When the current backlog drains.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Queueing delay a job arriving `now` would experience before service.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.free_at.since(now)
    }

    pub fn total_busy(&self) -> SimDuration {
        self.busy
    }

    /// Fraction of `[0, horizon]` spent busy.
    pub fn utilisation(&self, horizon: SimTime) -> f64 {
        if horizon.nanos() == 0 {
            return 0.0;
        }
        (self.busy.nanos() as f64 / horizon.nanos() as f64).min(1.0)
    }
}

/// A bandwidth-and-latency pipe: service time is `latency + size/bandwidth`,
/// serialised FIFO. This is the model used for every NIC in the cluster.
#[derive(Debug, Clone)]
pub struct Link {
    resource: FifoResource,
    pub latency: SimDuration,
    pub bytes_per_sec: u64,
}

impl Link {
    pub fn new(latency: SimDuration, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "link bandwidth must be positive");
        Link {
            resource: FifoResource::new(),
            latency,
            bytes_per_sec,
        }
    }

    /// Time to push `bytes` through an unloaded link (excluding queueing).
    pub fn unloaded_transfer(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::for_transfer(bytes, self.bytes_per_sec)
    }

    /// Send a message of `bytes` entering the link at `now`; returns delivery
    /// time at the far end. The wire occupancy (serialisation) queues behind
    /// earlier messages; the propagation latency is added after transmission.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let serialisation = SimDuration::for_transfer(bytes, self.bytes_per_sec);
        let (_, tx_done) = self.resource.accept(now, serialisation);
        tx_done + self.latency
    }

    pub fn utilisation(&self, horizon: SimTime) -> f64 {
        self.resource.utilisation(horizon)
    }

    pub fn total_busy(&self) -> SimDuration {
        self.resource.total_busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_serialises_jobs() {
        let mut r = FifoResource::new();
        let (s1, e1) = r.accept(SimTime(0), SimDuration(100));
        let (s2, e2) = r.accept(SimTime(10), SimDuration(50));
        assert_eq!((s1, e1), (SimTime(0), SimTime(100)));
        assert_eq!((s2, e2), (SimTime(100), SimTime(150)));
    }

    #[test]
    fn fifo_idle_gap_not_counted_busy() {
        let mut r = FifoResource::new();
        r.accept(SimTime(0), SimDuration(100));
        r.accept(SimTime(1000), SimDuration(100));
        assert_eq!(r.total_busy(), SimDuration(200));
        assert_eq!(r.free_at(), SimTime(1100));
        assert!((r.utilisation(SimTime(2000)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn backlog_reflects_queue() {
        let mut r = FifoResource::new();
        r.accept(SimTime(0), SimDuration(100));
        assert_eq!(r.backlog(SimTime(30)), SimDuration(70));
        assert_eq!(r.backlog(SimTime(200)), SimDuration::ZERO);
    }

    #[test]
    fn link_adds_latency_after_serialisation() {
        // 1000 B at 1000 B/s = 1 s serialisation, plus 10 ms latency.
        let mut l = Link::new(SimDuration::from_millis(10), 1000);
        let delivered = l.send(SimTime::ZERO, 1000);
        assert_eq!(delivered, SimTime(1_010_000_000));
        // Second message queues behind the first's serialisation only.
        let d2 = l.send(SimTime::ZERO, 1000);
        assert_eq!(d2, SimTime(2_010_000_000));
    }

    #[test]
    fn link_unloaded_estimate() {
        let l = Link::new(SimDuration::from_micros(50), 125_000_000);
        let d = l.unloaded_transfer(125_000); // 1 ms at 125 MB/s
        assert_eq!(d, SimDuration::from_micros(1050));
    }
}
