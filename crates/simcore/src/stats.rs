//! The time-series recorder used by the metric collectors.

use crate::time::{SimDuration, SimTime};
use serde::Serialize;

/// A time-binned counter, used to build throughput timelines (Fig. 7a) and
/// per-window averages such as seek distance per sampling slot (Fig. 7b).
#[derive(Debug, Clone, Serialize)]
pub struct TimeSeries {
    bin: SimDuration,
    /// Sum of values per bin.
    sums: Vec<f64>,
    /// Sample count per bin.
    counts: Vec<u64>,
}

impl TimeSeries {
    pub fn new(bin: SimDuration) -> Self {
        assert!(bin.nanos() > 0, "bin width must be positive");
        TimeSeries {
            bin,
            sums: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn bin_index(&self, at: SimTime) -> usize {
        (at.nanos() / self.bin.nanos()) as usize
    }

    /// Add `value` to the bin containing `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let idx = self.bin_index(at);
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
    }

    pub fn num_bins(&self) -> usize {
        self.sums.len()
    }

    /// Per-bin sums (e.g. bytes per second for throughput timelines).
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Per-bin averages; bins with no samples yield 0.
    pub fn averages(&self) -> Vec<f64> {
        self.sums
            .iter()
            .zip(&self.counts)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect()
    }

    /// Sum of a bin expressed as a rate per second.
    pub fn rate_per_sec(&self, bin_idx: usize) -> f64 {
        let secs = self.bin.as_secs_f64();
        self.sums.get(bin_idx).copied().unwrap_or(0.0) / secs
    }

    pub fn total(&self) -> f64 {
        self.sums.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let ts = TimeSeries::new(SimDuration::from_secs(1));
        assert_eq!(ts.total(), 0.0);
        assert_eq!(ts.rate_per_sec(0), 0.0);
    }

    #[test]
    fn timeseries_bins_and_rates() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_millis(100), 10.0);
        ts.record(SimTime::from_millis(900), 20.0);
        ts.record(SimTime::from_millis(1500), 5.0);
        assert_eq!(ts.num_bins(), 2);
        assert_eq!(ts.sums(), &[30.0, 5.0]);
        assert_eq!(ts.rate_per_sec(0), 30.0);
        assert_eq!(ts.averages(), vec![15.0, 5.0]);
        assert_eq!(ts.total(), 35.0);
    }

    #[test]
    fn timeseries_empty_bins_average_zero() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_secs(2), 6.0);
        assert_eq!(ts.averages(), vec![0.0, 0.0, 6.0]);
    }
}
