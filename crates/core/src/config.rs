//! DualPar's tunables, with the paper's defaults (§IV, §V).

use dualpar_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Identifies a registered parallel program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProgramId(
    /// Index assigned at registration.
    pub u32,
);

/// Disable the data-driven mode when a program's average mis-prefetch
/// ratio exceeds this — 20 % (§IV-C).
pub const MISPREFETCH_THRESHOLD: f64 = 0.2;

/// Ghost pre-executions that exceed `expected fill time × this factor` are
/// stopped so one slow rank cannot stall the phase (§IV-C).
pub const GHOST_TIMEOUT_FACTOR: f64 = 2.0;

/// DualPar's tunables (paper defaults in [`Default`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DualParConfig {
    /// Per-process cache quota — 1 MB default (§V).
    pub cache_quota: u64,
    /// Programs with I/O ratio above this are candidates for the
    /// data-driven mode — 80 % (§IV-B).
    pub io_ratio_threshold: f64,
    /// `T_improvement`: switch when `aveSeekDist / aveReqDist` exceeds
    /// this — 3 by default (§IV-B).
    pub t_improvement: f64,
    /// EMC sampling slot ("constant time slots", §IV-B) — 1 s.
    pub sample_slot: SimDuration,
    /// Maximum hole absorbed when CRM merges requests (§IV-D): holes
    /// smaller than this are filled (reads) or read-modify-written
    /// (writes). One stripe unit by default.
    pub max_hole: u64,
    /// Slice computation out of ghost pre-execution (the Strategy-2 /
    /// Chen-et-al. approach). The paper retains computation for prediction
    /// accuracy and source independence; this knob exists for the
    /// `ablation_ghost` bench.
    pub ghost_slice_compute: bool,
}

impl Default for DualParConfig {
    fn default() -> Self {
        DualParConfig {
            cache_quota: 1 << 20,
            io_ratio_threshold: 0.8,
            t_improvement: 3.0,
            sample_slot: SimDuration::from_secs(1),
            max_hole: 64 * 1024,
            ghost_slice_compute: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DualParConfig::default();
        assert_eq!(c.cache_quota, 1 << 20);
        assert_eq!(c.io_ratio_threshold, 0.8);
        assert_eq!(c.t_improvement, 3.0);
        assert_eq!(c.sample_slot, SimDuration::from_secs(1));
        assert_eq!(MISPREFETCH_THRESHOLD, 0.2);
        assert_eq!(GHOST_TIMEOUT_FACTOR, 2.0);
    }
}
