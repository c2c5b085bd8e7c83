//! The network link model shared by the client and server NICs.

use crate::time::{SimDuration, SimTime};

/// A bandwidth-and-latency pipe: service time is `latency + size/bandwidth`,
/// serialised FIFO. This is the model used for every NIC in the cluster.
#[derive(Debug, Clone)]
pub struct Link {
    /// When the wire finishes serialising every message sent so far.
    free_at: SimTime,
    pub latency: SimDuration,
    pub bytes_per_sec: u64,
}

impl Link {
    pub fn new(latency: SimDuration, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "link bandwidth must be positive");
        Link {
            free_at: SimTime::ZERO,
            latency,
            bytes_per_sec,
        }
    }

    /// Send a message of `bytes` entering the link at `now`; returns delivery
    /// time at the far end. The wire occupancy (serialisation) queues behind
    /// earlier messages; the propagation latency is added after transmission.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let serialisation = SimDuration::for_transfer(bytes, self.bytes_per_sec);
        self.free_at = now.max_of(self.free_at) + serialisation;
        self.free_at + self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fifo_serialises_jobs() {
        // 100 B at 1 GB/s = 100 ns serialisation, plus 5 ns latency.
        let mut l = Link::new(SimDuration(5), 1_000_000_000);
        assert_eq!(l.send(SimTime(0), 100), SimTime(105));
        // Sent while the wire is busy: queues behind the first message.
        assert_eq!(l.send(SimTime(10), 50), SimTime(155));
    }

    #[test]
    fn fifo_idle_gap_not_counted_busy() {
        let mut l = Link::new(SimDuration(5), 1_000_000_000);
        assert_eq!(l.send(SimTime(0), 100), SimTime(105));
        // Sent after an idle gap: starts on arrival, the gap is not
        // carried forward as wire occupancy.
        assert_eq!(l.send(SimTime(1000), 100), SimTime(1105));
        assert_eq!(l.send(SimTime(1000), 100), SimTime(1205));
    }
}
