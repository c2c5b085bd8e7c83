//! Mechanical hard-disk service-time model.
//!
//! The paper's entire premise rests on one physical fact: a disk serving
//! sorted, mostly-sequential requests is one to two orders of magnitude
//! faster than the same disk serving small random requests. We model this
//! with the classic three-component service time:
//!
//! * **seek**: zero for sequential access (head already there), otherwise
//!   `base + k·√distance` capped at the full-stroke time — the standard
//!   square-root seek curve used by DiskSim and most analytic models;
//! * **rotation**: half a revolution on average after any repositioning;
//! * **transfer**: bytes ÷ media rate.
//!
//! Defaults are calibrated to a 7200-RPM SATA drive of the paper's era
//! (HP MM0500FAMYT-class): ~130 MB/s streaming, ~8.5 ms average seek,
//! which yields ~0.45 MB/s on random 4 KB reads — the >10× gap §I cites.

use dualpar_sim::{SimDuration, NANOS_PER_MILLI, NANOS_PER_SEC};
use serde::{Deserialize, Serialize};

/// Logical block (sector) number on a disk. Sectors are 512 bytes.
pub type Lbn = u64;

/// Bytes per disk sector.
pub const SECTOR_BYTES: u64 = 512;

/// Convert a byte count to sectors, rounding up.
#[inline]
pub fn bytes_to_sectors(bytes: u64) -> u64 {
    bytes.div_ceil(SECTOR_BYTES)
}

/// Static parameters of the mechanical model.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DiskParams {
    /// Total addressable sectors.
    pub capacity_sectors: u64,
    /// Media transfer rate, bytes per second.
    pub transfer_bytes_per_sec: u64,
    /// Shortest possible repositioning (track-to-track), nanoseconds.
    pub seek_base_ns: u64,
    /// Seek curve coefficient: ns per √sector of seek distance.
    pub seek_coef_ns: f64,
    /// Full-stroke seek cap, nanoseconds.
    pub seek_max_ns: u64,
    /// Average rotational latency (half a revolution), nanoseconds.
    pub rotational_ns: u64,
    /// Fixed per-request controller/command overhead, nanoseconds.
    pub overhead_ns: u64,
}

impl DiskParams {
    /// A 7200-RPM SATA drive of roughly the paper's vintage.
    ///
    /// 300 GB capacity, 130 MB/s streaming, 4.17 ms average rotational
    /// latency (7200 RPM), ~8.5 ms average seek.
    pub fn hdd_7200rpm() -> Self {
        let capacity_sectors = (300u64 << 30) / SECTOR_BYTES;
        // Calibrate the √-curve so a third-of-stroke seek costs ~8.5 ms.
        let third = (capacity_sectors / 3) as f64;
        let base = 300_000u64; // 0.3 ms track-to-track
        let coef = (8_500_000.0 - base as f64) / third.sqrt();
        DiskParams {
            capacity_sectors,
            transfer_bytes_per_sec: 130_000_000,
            seek_base_ns: base,
            seek_coef_ns: coef,
            seek_max_ns: 16 * NANOS_PER_MILLI,
            rotational_ns: 4_170_000,
            overhead_ns: 50_000, // 50 µs command overhead
        }
    }

    /// Seek time for a head movement of `distance` sectors.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates; the result is capped at seek_max_ns"
    )]
    pub fn seek_time(&self, distance: u64) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let t = self.seek_base_ns as f64 + self.seek_coef_ns * (distance as f64).sqrt();
        SimDuration((t as u64).min(self.seek_max_ns))
    }

    /// Transfer time for `sectors` at the flat media rate.
    #[inline]
    fn transfer_time(&self, sectors: u64) -> SimDuration {
        SimDuration::for_transfer(
            sectors.saturating_mul(SECTOR_BYTES),
            self.transfer_bytes_per_sec,
        )
    }

    /// Full service time for a request starting at `lbn` of `sectors`
    /// length, with the head currently at `head`. Returns the (absolute)
    /// seek distance alongside so callers can account `SeekDist`.
    ///
    /// A small *forward* gap can be cheaper to read through (the head
    /// passes over the skipped sectors at media rate) than to seek over —
    /// this is what drive firmware and OS readahead achieve for strided
    /// but nearly-sequential streams; the model takes whichever is faster.
    pub fn service_time(&self, head: Lbn, lbn: Lbn, sectors: u64) -> (u64, SimDuration) {
        self.service_time_within(head, lbn, sectors, u64::MAX)
    }

    /// The longest forward distance that reading through can still cover
    /// in less time than the longest repositioning
    /// (`seek_max_ns + rotational_ns`). Past it the read-through time is
    /// never the smaller one, so [`DiskParams::service_time_within`] need
    /// not compute it. `u64::MAX` when no distance qualifies, as at a zero
    /// (infinite) media rate.
    pub(crate) fn read_through_limit(&self) -> u64 {
        if self.transfer_bytes_per_sec == 0 {
            return u64::MAX;
        }
        let longest = u128::from(self.seek_max_ns.saturating_add(self.rotational_ns));
        // Reading `d` sectors takes ceil(d·512·10⁹ / rate) ns, at least
        // `longest` once d·512·10⁹ ≥ longest·rate.
        const PER_SECTOR: u128 = SECTOR_BYTES as u128 * NANOS_PER_SEC as u128;
        // Two u64 factors: the product fits a u128.
        let slow_from = longest
            .saturating_mul(u128::from(self.transfer_bytes_per_sec))
            .div_ceil(PER_SECTOR);
        // Beyond u64::MAX / 512 sectors the byte count saturates and the
        // bound above no longer holds.
        match u64::try_from(slow_from) {
            Ok(d) if d <= u64::MAX / SECTOR_BYTES => d.saturating_sub(1),
            _ => u64::MAX,
        }
    }

    /// [`DiskParams::service_time`], computing the read-through time only
    /// for forward distances up to `read_through_limit`. Equal to it when
    /// the limit is [`DiskParams::read_through_limit`] or above.
    #[inline]
    pub(crate) fn service_time_within(
        &self,
        head: Lbn,
        lbn: Lbn,
        sectors: u64,
        read_through_limit: u64,
    ) -> (u64, SimDuration) {
        let distance = head.abs_diff(lbn);
        let mut t = SimDuration(self.overhead_ns);
        if distance != 0 {
            let reposition = self
                .seek_time(distance)
                .saturating_add(SimDuration(self.rotational_ns));
            if lbn > head && distance <= read_through_limit {
                t = t.saturating_add(reposition.min(self.transfer_time(distance)));
            } else {
                t += reposition;
            }
        }
        t = t.saturating_add(self.transfer_time(sectors));
        (distance, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sequential_has_no_seek() {
        let p = DiskParams::hdd_7200rpm();
        let (dist, t) = p.service_time(1000, 1000, 8);
        assert_eq!(dist, 0);
        // overhead + transfer only: well under a rotational latency.
        assert!(t.nanos() < p.rotational_ns);
    }

    #[test]
    fn random_4k_much_slower_than_sequential() {
        let p = DiskParams::hdd_7200rpm();
        let sectors_4k = bytes_to_sectors(4096);
        // Sequential service of 4 KB:
        let (_, seq) = p.service_time(0, 0, sectors_4k);
        // Random service: a third-of-stroke seek away.
        let (_, rnd) = p.service_time(0, p.capacity_sectors / 3, sectors_4k);
        let ratio = rnd.nanos() as f64 / seq.nanos() as f64;
        assert!(
            ratio > 10.0,
            "paper requires >10x random/sequential gap, got {ratio:.1}"
        );
    }

    #[test]
    fn seek_curve_monotonic_and_capped() {
        let p = DiskParams::hdd_7200rpm();
        let mut last = SimDuration::ZERO;
        for d in [0u64, 1, 100, 10_000, 1_000_000, 100_000_000] {
            let t = p.seek_time(d);
            assert!(t >= last, "seek time must grow with distance");
            last = t;
        }
        assert!(p.seek_time(u64::MAX / 2).nanos() <= p.seek_max_ns);
    }

    #[test]
    fn third_stroke_seek_is_calibrated() {
        let p = DiskParams::hdd_7200rpm();
        let t = p.seek_time(p.capacity_sectors / 3);
        let ms = t.nanos() as f64 / 1e6;
        assert!((ms - 8.5).abs() < 0.1, "expected ~8.5 ms, got {ms:.2} ms");
    }

    #[test]
    fn random_4k_throughput_order_of_magnitude() {
        let p = DiskParams::hdd_7200rpm();
        let sectors = bytes_to_sectors(4096);
        let (_, t) = p.service_time(0, p.capacity_sectors / 3, sectors);
        let mbps = 4096.0 / t.as_secs_f64() / 1e6;
        assert!(
            (0.2..1.5).contains(&mbps),
            "random 4 KB should be sub-MB/s territory, got {mbps:.2} MB/s"
        );
    }

    /// The service time as it was before the read-through limit: the
    /// forward read-through time computed at every distance.
    fn every_distance(p: &DiskParams, head: Lbn, lbn: Lbn, sectors: u64) -> (u64, SimDuration) {
        let distance = head.abs_diff(lbn);
        let mut t = SimDuration(p.overhead_ns);
        if distance != 0 {
            let reposition = p
                .seek_time(distance)
                .saturating_add(SimDuration(p.rotational_ns));
            if lbn > head {
                t = t.saturating_add(reposition.min(p.transfer_time(distance)));
            } else {
                t += reposition;
            }
        }
        (distance, t.saturating_add(p.transfer_time(sectors)))
    }

    /// Mechanical parameters with every field drawn at random, the media
    /// rate included (zero among them).
    fn params() -> impl Strategy<Value = DiskParams> {
        let rate = prop_oneof![
            Just(0u64),
            1u64..1_000,
            1u64..1_000_000_000_000,
            Just(u64::MAX)
        ];
        (
            rate,
            0u64..1_000_000,
            prop_oneof![0.0f64..10_000.0, -10_000.0f64..0.0],
            prop_oneof![0u64..50_000_000, Just(u64::MAX)],
            0u64..10_000_000,
            0u64..100_000,
        )
            .prop_map(|(rate, base, coef, max, rot, overhead)| DiskParams {
                capacity_sectors: u64::MAX,
                transfer_bytes_per_sec: rate,
                seek_base_ns: base,
                seek_coef_ns: coef,
                seek_max_ns: max,
                rotational_ns: rot,
                overhead_ns: overhead,
            })
    }

    /// A head position and a request near it (within a few read-through
    /// limits of a 7200-RPM drive), or anywhere.
    fn positions() -> impl Strategy<Value = (Lbn, Lbn, u64)> {
        let lbn = || prop_oneof![0u64..20_000, 0u64..1 << 40, Just(u64::MAX)];
        (lbn(), lbn(), 1u64..4096)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Past the read-through limit the service time is still the
        /// smaller of repositioning and reading through, on the
        /// 7200-RPM drive.
        #[test]
        fn the_read_through_limit_keeps_the_7200rpm_service_time(
            (head, lbn, sectors) in positions(),
        ) {
            let p = DiskParams::hdd_7200rpm();
            let limit = p.read_through_limit();
            prop_assert_eq!(
                p.service_time_within(head, lbn, sectors, limit),
                every_distance(&p, head, lbn, sectors)
            );
            prop_assert_eq!(p.service_time(head, lbn, sectors), every_distance(&p, head, lbn, sectors));
        }

        /// The same for random parameters.
        #[test]
        fn the_read_through_limit_keeps_every_service_time(
            p in params(),
            (head, lbn, sectors) in positions(),
            near in 0u64..2,
        ) {
            let limit = p.read_through_limit();
            // Also probe the distances just around the limit.
            let lbn = if near == 1 { head.saturating_add(limit) } else { lbn };
            for lbn in [lbn, lbn.saturating_add(1), lbn.saturating_sub(1)] {
                prop_assert_eq!(
                    p.service_time_within(head, lbn, sectors, limit),
                    every_distance(&p, head, lbn, sectors)
                );
            }
        }
    }

    #[test]
    fn the_7200rpm_read_through_limit_is_tight() {
        let p = DiskParams::hdd_7200rpm();
        let limit = p.read_through_limit();
        let longest = SimDuration(p.seek_max_ns + p.rotational_ns);
        assert!(p.transfer_time(limit) < longest);
        assert!(p.transfer_time(limit + 1) >= longest);
    }

    #[test]
    fn bytes_to_sectors_rounds_up() {
        assert_eq!(bytes_to_sectors(0), 0);
        assert_eq!(bytes_to_sectors(1), 1);
        assert_eq!(bytes_to_sectors(512), 1);
        assert_eq!(bytes_to_sectors(513), 2);
        assert_eq!(bytes_to_sectors(65536), 128);
    }
}
