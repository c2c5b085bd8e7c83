//! The network link model shared by the client and server NICs.

use crate::time::{SimDuration, SimTime, NANOS_PER_SEC};

/// A bandwidth-and-latency pipe: service time is `latency + size/bandwidth`,
/// serialised FIFO. This is the model used for every NIC in the cluster.
#[derive(Debug, Clone)]
pub struct Link {
    /// When the wire finishes serialising every message sent so far.
    free_at: SimTime,
    latency: SimDuration,
    bytes_per_sec: u64,
    /// `10⁹ / bytes_per_sec` when the rate divides 10⁹ (125 MB/s is 8 ns
    /// a byte): a message then serialises in exactly `bytes × ns_per_byte`
    /// nanoseconds, with no division.
    ns_per_byte: Option<u64>,
}

impl Link {
    pub fn new(latency: SimDuration, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "link bandwidth must be positive");
        Link {
            free_at: SimTime::ZERO,
            latency,
            bytes_per_sec,
            ns_per_byte: NANOS_PER_SEC
                .is_multiple_of(bytes_per_sec)
                .then(|| NANOS_PER_SEC / bytes_per_sec),
        }
    }

    /// Send a message of `bytes` entering the link at `now`; returns delivery
    /// time at the far end. The wire occupancy (serialisation) queues behind
    /// earlier messages; the propagation latency is added after transmission.
    #[inline]
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.free_at = now.max_of(self.free_at) + self.serialisation(bytes);
        self.free_at + self.latency
    }

    /// [`SimDuration::for_transfer`] of `bytes` at the link's rate. With an
    /// integer `ns_per_byte` the quotient is exact, so no rounding is lost,
    /// and the product saturates where the wide division clamps.
    #[inline]
    fn serialisation(&self, bytes: u64) -> SimDuration {
        match self.ns_per_byte {
            Some(ns) => SimDuration(bytes.saturating_mul(ns)),
            None => SimDuration::for_transfer(bytes, self.bytes_per_sec),
        }
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// The serialisation time equals `SimDuration::for_transfer`, on
        /// the integer path (rates dividing 10⁹) and the dividing one.
        #[test]
        fn serialisation_equals_for_transfer(
            divisor in 0usize..DIVISORS.len(),
            other in 1u64..u64::MAX,
            pick in 0u8..4,
            bytes in proptest::prop_oneof![0u64..1 << 20, 0u64..u64::MAX, proptest::prelude::Just(u64::MAX)],
        ) {
            let rate = match pick {
                0 | 1 => DIVISORS[divisor],
                2 => other,
                _ => other % 1_000_000_000 + 1,
            };
            let link = Link::new(SimDuration::ZERO, rate);
            if pick < 2 {
                assert!(link.ns_per_byte.is_some(), "{rate} divides 10^9");
            }
            assert_eq!(link.serialisation(bytes), SimDuration::for_transfer(bytes, rate));
        }
    }

    /// Every divisor of 10⁹ = 2⁹·5⁹.
    const DIVISORS: [u64; 100] = {
        let mut out = [0u64; 100];
        let mut i = 0;
        while i < 100 {
            out[i] = 2u64.pow((i / 10) as u32) * 5u64.pow((i % 10) as u32);
            i += 1;
        }
        out
    };

    #[test]
    fn every_nic_serialises_without_a_division() {
        // 125 MB/s, the cluster's NIC rate, is 8 ns a byte.
        let link = Link::new(SimDuration::ZERO, 125_000_000);
        assert_eq!(link.ns_per_byte, Some(8));
        assert_eq!(Link::new(SimDuration::ZERO, 3).ns_per_byte, None);
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
