//! Block-level tracing — the simulator's Blktrace.
//!
//! Records every serviced request (dispatch time, LBN, length, context) plus
//! the head seek distance incurred, so the figures can regenerate the LBN
//! scatter plots of Figs. 1(c,d) and 6(a,b) and the seek-distance timeline of
//! Fig. 7(b), and so EMC can sample `aveSeekDist` exactly as the paper's
//! locality daemon does from the kernel statistic.

#![expect(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    reason = "statistics only: u64 sums of serviced requests and seek sectors cannot approach u64::MAX, and bin indices are bounded by the horizon"
)]

use crate::model::Lbn;
use crate::request::{IoCtx, IoKind};
use dualpar_sim::{SimDuration, SimTime};
use serde::Serialize;

/// One serviced block request.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TraceRecord {
    /// Dispatch (service start) time.
    pub at: SimTime,
    /// First sector serviced.
    pub lbn: Lbn,
    /// Sectors serviced.
    pub sectors: u64,
    /// Read or write.
    pub kind: IoKind,
    /// Issuing context.
    pub ctx: IoCtx,
    /// |head - lbn| at dispatch.
    pub seek_distance: u64,
}

/// Rolling trace of serviced requests on one disk.
#[derive(Debug, Default)]
pub struct BlockTrace {
    records: Vec<TraceRecord>,
    enabled: bool,
    /// Running total of seek distance & count, independent of `enabled` so
    /// EMC sampling works even when full tracing is off.
    seek_sum: u64,
    seek_count: u64,
    /// Snapshot markers for windowed averages.
    window_sum: u64,
    window_count: u64,
}

impl BlockTrace {
    /// Create a trace; `enabled` controls full record retention (the
    /// seek-distance counters always run).
    pub fn new(enabled: bool) -> Self {
        BlockTrace {
            enabled,
            ..Default::default()
        }
    }

    /// Record one serviced request.
    pub fn record(&mut self, rec: TraceRecord) {
        self.seek_sum += rec.seek_distance;
        self.seek_count += 1;
        self.window_sum = self.window_sum.saturating_add(rec.seek_distance);
        self.window_count += 1;
        if self.enabled {
            self.records.push(rec);
        }
    }

    /// All retained records (empty when retention is disabled).
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records whose dispatch time lies in `[from, to)` — a Blktrace window.
    pub fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.at >= from && r.at < to)
    }

    /// Lifetime average seek distance (sectors per serviced request).
    pub fn avg_seek_distance(&self) -> f64 {
        if self.seek_count == 0 {
            0.0
        } else {
            self.seek_sum as f64 / self.seek_count as f64
        }
    }

    /// Average seek distance since the last call, then reset the window.
    /// This is what the per-server locality daemon reports to EMC each slot.
    pub fn take_window_avg_seek(&mut self) -> Option<f64> {
        if self.window_count == 0 {
            return None;
        }
        let avg = self.window_sum as f64 / self.window_count as f64;
        self.window_sum = 0;
        self.window_count = 0;
        Some(avg)
    }

    /// Total requests serviced (independent of retention).
    pub fn serviced(&self) -> u64 {
        self.seek_count
    }

    /// Mean absolute LBN step between *consecutive* serviced requests in a
    /// time window — a direct measure of how sequential the service order
    /// was (small = smooth sweep, large = thrashing).
    pub fn window_mean_lbn_step(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut prev_end: Option<Lbn> = None;
        let mut sum = 0u64;
        let mut n = 0u64;
        for r in self.window(from, to) {
            if let Some(pe) = prev_end {
                sum += pe.abs_diff(r.lbn);
                n += 1;
            }
            prev_end = Some(r.lbn.saturating_add(r.sectors));
        }
        if n == 0 {
            None
        } else {
            Some(sum as f64 / n as f64)
        }
    }

    /// Seek-distance averages in fixed time bins across `[0, horizon)` —
    /// feeds Fig. 7(b).
    pub fn seek_distance_bins(&self, bin: SimDuration, horizon: SimTime) -> Vec<f64> {
        let nbins = (horizon.nanos() / bin.nanos()) as usize + 1;
        let mut sums = vec![0.0; nbins];
        let mut counts = vec![0u64; nbins];
        for r in &self.records {
            let idx = (r.at.nanos() / bin.nanos()) as usize;
            if idx < nbins {
                sums[idx] += r.seek_distance as f64;
                counts[idx] += 1;
            }
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ms: u64, lbn: Lbn, seek: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_millis(at_ms),
            lbn,
            sectors: 8,
            kind: IoKind::Read,
            ctx: IoCtx(0),
            seek_distance: seek,
        }
    }

    #[test]
    fn windowing_selects_half_open_interval() {
        let mut t = BlockTrace::new(true);
        t.record(rec(10, 0, 0));
        t.record(rec(20, 0, 0));
        t.record(rec(30, 0, 0));
        let n = t
            .window(SimTime::from_millis(10), SimTime::from_millis(30))
            .count();
        assert_eq!(n, 2);
    }

    #[test]
    fn seek_average_tracks_all_records() {
        let mut t = BlockTrace::new(false); // disabled tracing still counts
        t.record(rec(0, 0, 100));
        t.record(rec(1, 0, 300));
        assert_eq!(t.avg_seek_distance(), 200.0);
        assert!(t.records().is_empty());
    }

    #[test]
    fn window_avg_resets() {
        let mut t = BlockTrace::new(false);
        t.record(rec(0, 0, 100));
        assert_eq!(t.take_window_avg_seek(), Some(100.0));
        assert_eq!(t.take_window_avg_seek(), None);
        t.record(rec(1, 0, 50));
        assert_eq!(t.take_window_avg_seek(), Some(50.0));
    }

    #[test]
    fn mean_lbn_step_measures_sequentiality() {
        let mut t = BlockTrace::new(true);
        // Perfectly sequential: 0..8, 8..16, 16..24 — zero step.
        for i in 0..3 {
            t.record(rec(i, i * 8, 0));
        }
        let step = t
            .window_mean_lbn_step(SimTime::ZERO, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(step, 0.0);
    }

    #[test]
    fn seek_bins_average_per_bin() {
        let mut t = BlockTrace::new(true);
        t.record(rec(100, 0, 10));
        t.record(rec(200, 0, 30));
        t.record(rec(1100, 0, 50));
        let bins = t.seek_distance_bins(SimDuration::from_secs(1), SimTime::from_secs(2));
        assert_eq!(bins[0], 20.0);
        assert_eq!(bins[1], 50.0);
    }
}
