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
    /// Total busy time accepted.
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

    pub fn total_busy(&self) -> SimDuration {
        self.busy
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

    /// Send a message of `bytes` entering the link at `now`; returns delivery
    /// time at the far end. The wire occupancy (serialisation) queues behind
    /// earlier messages; the propagation latency is added after transmission.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let serialisation = SimDuration::for_transfer(bytes, self.bytes_per_sec);
        let (_, tx_done) = self.resource.accept(now, serialisation);
        tx_done + self.latency
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
}
