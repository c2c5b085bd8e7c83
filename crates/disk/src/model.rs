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

use dualpar_sim::{SimDuration, NANOS_PER_MILLI};
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
    /// Zoned-bit-recording factor: the innermost track's media rate as a
    /// fraction of `transfer_bytes_per_sec` (outermost). 1.0 disables
    /// zoning. Real 3.5" drives are ~0.5.
    pub inner_rate_fraction: f64,
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
            inner_rate_fraction: 1.0,
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

    /// Media rate at a given LBN under zoned bit recording: outer tracks
    /// (low LBNs) stream at the full rate, the innermost at
    /// `inner_rate_fraction` of it, linearly interpolated in between.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates; the result is at most transfer_bytes_per_sec"
    )]
    pub fn rate_at(&self, lbn: Lbn) -> u64 {
        if self.inner_rate_fraction >= 1.0 {
            return self.transfer_bytes_per_sec;
        }
        let frac = (lbn as f64 / self.capacity_sectors.max(1) as f64).clamp(0.0, 1.0);
        let scale = 1.0 - frac * (1.0 - self.inner_rate_fraction);
        (self.transfer_bytes_per_sec as f64 * scale) as u64
    }

    /// Transfer time for `sectors` starting at `lbn`, honouring zoning.
    #[inline]
    pub fn transfer_time_at(&self, lbn: Lbn, sectors: u64) -> SimDuration {
        SimDuration::for_transfer(sectors.saturating_mul(SECTOR_BYTES), self.rate_at(lbn))
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
        let distance = head.abs_diff(lbn);
        let mut t = SimDuration(self.overhead_ns);
        if distance != 0 {
            let reposition = self
                .seek_time(distance)
                .saturating_add(SimDuration(self.rotational_ns));
            if lbn > head {
                t = t.saturating_add(reposition.min(self.transfer_time_at(head, distance)));
            } else {
                t += reposition;
            }
        }
        t = t.saturating_add(self.transfer_time_at(lbn, sectors));
        (distance, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn zoning_slows_inner_tracks() {
        let mut p = DiskParams::hdd_7200rpm();
        p.inner_rate_fraction = 0.5;
        assert_eq!(p.rate_at(0), p.transfer_bytes_per_sec);
        let mid = p.rate_at(p.capacity_sectors / 2);
        let inner = p.rate_at(p.capacity_sectors);
        assert!(mid < p.transfer_bytes_per_sec && mid > inner);
        assert!((inner as f64 - p.transfer_bytes_per_sec as f64 * 0.5).abs() < 2.0);
        // Sequential service at the inner edge is ~2x slower.
        let (_, outer_t) = p.service_time(0, 0, 1024);
        let lbn = p.capacity_sectors - 2048;
        let (_, inner_t) = p.service_time(lbn, lbn, 1024);
        let ratio = inner_t.nanos() as f64 / outer_t.nanos() as f64;
        assert!(ratio > 1.6, "expected ~2x, got {ratio:.2}");
    }

    #[test]
    fn zoning_disabled_by_default() {
        let p = DiskParams::hdd_7200rpm();
        assert_eq!(p.rate_at(0), p.rate_at(p.capacity_sectors));
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
