//! Simulated time.
//!
//! All simulation time is kept in integer nanoseconds. A `u64` of nanoseconds
//! covers ~584 years, far beyond any experiment in the paper (the longest runs
//! are a few hundred simulated seconds), while keeping arithmetic exact and
//! the event queue totally ordered without floating-point tie ambiguity.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};
use serde::{Deserialize, Serialize};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative sim time");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Saturating difference `self - earlier` (zero if `earlier` is later).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating `self + d`, pinned at [`SimTime::MAX`] on overflow. Use
    /// for open-ended deadlines (idle windows, slice expiries) where a
    /// pathological duration must clamp rather than wrap the clock.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    #[inline]
    pub fn min_of(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    #[inline]
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative sim duration");
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Duration to transfer `bytes` at `bytes_per_sec`, rounded up to 1 ns
    /// granularity so nonzero transfers always take nonzero time.
    #[inline]
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> Self {
        if bytes == 0 || bytes_per_sec == 0 {
            return SimDuration::ZERO;
        }
        // ns = bytes * 1e9 / rate. Every transfer the simulator makes is
        // far below 18.4 GB, where `bytes * 1e9` still fits a u64, so the
        // u128 divide (a library call) runs only for larger ones.
        if let Some(scaled) = bytes.checked_mul(NANOS_PER_SEC) {
            return SimDuration(scaled.div_ceil(bytes_per_sec));
        }
        Self::for_transfer_wide(bytes, bytes_per_sec)
    }

    /// [`SimDuration::for_transfer`] in u128, clamped to the longest
    /// duration.
    #[inline(never)]
    fn for_transfer_wide(bytes: u64, bytes_per_sec: u64) -> Self {
        let ns = (bytes as u128 * NANOS_PER_SEC as u128).div_ceil(bytes_per_sec as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }

    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating `self + other`, pinned at the maximum representable
    /// duration on overflow. Use for open-ended accumulators (per-program
    /// I/O-time sums) where a pathological run must clamp rather than wrap.
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        // Saturate: a wrapped simulated timestamp would silently reorder
        // the whole event queue; pinning at the far future fails loudly
        // (monotone-time audit) instead.
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(5);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).nanos(), 5_250_000_000);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn transfer_time() {
        // 1 MiB at 1 MiB/s is exactly one second.
        let d = SimDuration::for_transfer(1 << 20, 1 << 20);
        assert_eq!(d, SimDuration::from_secs(1));
        // zero bytes takes zero time
        assert_eq!(SimDuration::for_transfer(0, 1000), SimDuration::ZERO);
        // nonzero transfer at huge rate still rounds up to >= 1 ns
        assert!(SimDuration::for_transfer(1, u64::MAX / 2).nanos() >= 1);
    }

    #[test]
    fn transfer_no_overflow() {
        // 16 GiB at 100 MB/s: would overflow u64 in naive bytes * 1e9.
        let d = SimDuration::for_transfer(16 << 30, 100_000_000);
        let expect = (16u128 << 30) * 1_000_000_000 / 100_000_000;
        let rem = !((16u128 << 30) * 1_000_000_000).is_multiple_of(100_000_000) as u128;
        assert_eq!(d.nanos() as u128, expect + rem);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// The u64 path equals the u128 formula, on both sides of the
        /// `u64::MAX / 1e9` boundary where the two paths meet.
        #[test]
        fn transfer_u64_path_equals_the_u128_formula(
            bytes in proptest::prop_oneof![
                proptest::any::<u64>(),
                0u64..=1 << 40,
                (u64::MAX / NANOS_PER_SEC - 4096)..=(u64::MAX / NANOS_PER_SEC + 4096),
            ],
            rate in proptest::prop_oneof![
                proptest::any::<u64>(),
                1u64..=1 << 40,
                (u64::MAX - 4096)..=u64::MAX,
            ],
        ) {
            let rate = rate.max(1);
            let wide = (bytes as u128 * NANOS_PER_SEC as u128).div_ceil(rate as u128);
            let want = if bytes == 0 { 0 } else { wide.min(u64::MAX as u128) as u64 };
            proptest::prop_assert_eq!(SimDuration::for_transfer(bytes, rate).nanos(), want);
        }
    }

    #[test]
    fn transfer_paths_meet_at_the_boundary() {
        let edge = u64::MAX / NANOS_PER_SEC;
        for bytes in [edge - 1, edge, edge + 1, u64::MAX] {
            for rate in [1, 3, 1_000_000_007, u64::MAX] {
                let wide = (bytes as u128 * NANOS_PER_SEC as u128).div_ceil(rate as u128);
                let want = wide.min(u64::MAX as u128) as u64;
                assert_eq!(
                    SimDuration::for_transfer(bytes, rate).nanos(),
                    want,
                    "{bytes} at {rate}"
                );
            }
        }
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn secs_f64_roundtrip() {
        let t = SimTime::from_secs_f64(1.25);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
    }
}
