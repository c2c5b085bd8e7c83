//! Process Execution Control — the MPI-IO library hooks (§IV-C).
//!
//! In the data-driven mode, a synchronous read that misses the global cache
//! does not go to the data servers. Instead the process blocks and a ghost
//! process pre-executes the same script, *recording* the I/O it encounters.
//! The ghost carries out all computation (DualPar deliberately retains it
//! for prediction accuracy and source-code independence), so ghost time is
//! real compute time on the node. Pre-execution pauses when the space the
//! recorded calls would occupy reaches the process's cache quota.
//!
//! This module provides the ghost walk as a pure function over a process
//! script plus the per-program phase bookkeeping; the cluster's event loop
//! supplies timing and actually moves the data.

use crate::config::{DualParConfig, GHOST_TIMEOUT_FACTOR};
use dualpar_mpiio::{IoKind, Op, ProcessScript};
use dualpar_pfs::{FileId, FileRegion};
use dualpar_sim::SimDuration;
use serde::Serialize;

/// Why a ghost walk stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GhostStop {
    /// Recorded calls would fill the cache quota.
    QuotaFull,
    /// Reached the end of the script.
    ScriptEnd,
}

/// The result of pre-executing one process from a script position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GhostRun {
    /// Read regions to prefetch, in recording order (the CRM sorts them).
    /// These are the *predicted* regions — wrong for data-dependent I/O.
    pub prefetch: Vec<(FileId, FileRegion)>,
    /// Compute time the ghost burned re-executing computation.
    pub compute: SimDuration,
    /// Bytes of cache space the recorded calls (reads and writes) would
    /// occupy — the quota measure of §IV-C.
    pub space: u64,
    /// Script index one past the last op the ghost examined.
    pub end_pos: usize,
    /// Why the walk ended.
    pub stop: GhostStop,
}

/// Pre-execute `script` starting at op index `start` until the recorded
/// calls would occupy `quota` bytes of cache.
///
/// Reads are recorded for prefetching (using each call's ghost-visible
/// regions); writes are recorded only as space (they will be produced —
/// and buffered — by the normal execution that follows). Barriers cost the
/// ghost nothing: all ranks' ghosts run the same region concurrently.
pub fn ghost_walk(script: &ProcessScript, start: usize, quota: u64) -> GhostRun {
    let mut prefetch = Vec::new();
    let mut compute = SimDuration::ZERO;
    let mut space = 0u64;
    let mut pos = start;
    while pos < script.ops.len() {
        match &script.ops[pos] {
            Op::Compute(d) => compute += *d,
            Op::Barrier(_) => {}
            Op::Io(call) => {
                let ghost = script.ghost_regions(pos).expect("op is an I/O call");
                let call_bytes = ghost.bytes();
                if space + call_bytes > quota && space > 0 {
                    // Recording this call would overflow the quota: pause
                    // *before* it so the phase stays within the cache.
                    return GhostRun {
                        prefetch,
                        compute,
                        space,
                        end_pos: pos,
                        stop: GhostStop::QuotaFull,
                    };
                }
                space += call_bytes;
                if call.kind == IoKind::Read {
                    prefetch.extend(ghost.iter().map(|r| (call.file, r)));
                }
                if space >= quota {
                    return GhostRun {
                        prefetch,
                        compute,
                        space,
                        end_pos: pos + 1,
                        stop: GhostStop::QuotaFull,
                    };
                }
            }
        }
        pos += 1;
    }
    GhostRun {
        prefetch,
        compute,
        space,
        end_pos: pos,
        stop: GhostStop::ScriptEnd,
    }
}

/// Expected time for a process to fill its cache quota, from its recent
/// average I/O throughput (§IV-C): ghosts still running past
/// `expected ×` [`GHOST_TIMEOUT_FACTOR`] are stopped by the phase coordinator.
pub fn expected_fill_time(cfg: &DualParConfig, recent_bytes_per_sec: f64) -> SimDuration {
    if recent_bytes_per_sec <= 0.0 {
        // No throughput estimate yet: fall back to one sampling slot.
        return cfg.sample_slot;
    }
    let secs = cfg.cache_quota as f64 / recent_bytes_per_sec * GHOST_TIMEOUT_FACTOR;
    SimDuration::from_secs_f64(secs.max(1e-6))
}

/// Tracks a process's recent I/O throughput and I/O-vs-compute split for
/// EMC reporting, fed by the instrumented ADIO call boundaries.
#[derive(Debug, Default, Clone)]
pub struct IoClock {
    io_ns: u64,
    other_ns: u64,
    io_bytes: u64,
}

impl IoClock {
    /// A zeroed clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed I/O call of `bytes` that took `dur`.
    pub fn record_io(&mut self, dur: SimDuration, bytes: u64) {
        self.io_ns += dur.nanos();
        self.io_bytes += bytes;
    }

    /// Record time between I/O calls (computation + communication — the
    /// paper treats everything between two ADIO calls as compute).
    pub fn record_other(&mut self, dur: SimDuration) {
        self.other_ns += dur.nanos();
    }

    /// Fraction of recorded time spent in I/O.
    pub fn io_ratio(&self) -> f64 {
        let total = self.io_ns + self.other_ns;
        if total == 0 {
            0.0
        } else {
            self.io_ns as f64 / total as f64
        }
    }

    /// Average I/O throughput over the recorded I/O time.
    pub fn io_bytes_per_sec(&self) -> f64 {
        if self.io_ns == 0 {
            0.0
        } else {
            self.io_bytes as f64 / (self.io_ns as f64 / 1e9)
        }
    }

    /// Drain the accumulated (io_ns, total_ns) for an EMC report.
    pub fn take_sample(&mut self) -> (u64, u64) {
        let s = (self.io_ns, self.io_ns + self.other_ns);
        self.io_ns = 0;
        self.other_ns = 0;
        self.io_bytes = 0;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualpar_mpiio::IoCall;

    fn read_op(file: u32, off: u64, len: u64) -> Op {
        Op::Io(IoCall::read(FileId(file), vec![FileRegion::new(off, len)]))
    }

    fn write_op(file: u32, off: u64, len: u64) -> Op {
        Op::Io(IoCall::write(FileId(file), vec![FileRegion::new(off, len)]))
    }

    #[test]
    fn ghost_records_reads_until_quota() {
        let script = ProcessScript::new((0..10).map(|i| read_op(1, i * 1000, 1000)).collect());
        let run = ghost_walk(&script, 0, 3500);
        // 3 reads fit (3000); the 4th would overflow.
        assert_eq!(run.prefetch.len(), 3);
        assert_eq!(run.space, 3000);
        assert_eq!(run.end_pos, 3);
        assert_eq!(run.stop, GhostStop::QuotaFull);
    }

    #[test]
    fn ghost_counts_write_space_but_does_not_prefetch_writes() {
        let script = ProcessScript::new(vec![
            write_op(1, 0, 2000),
            read_op(1, 5000, 1000),
            write_op(1, 9000, 10_000),
        ]);
        let run = ghost_walk(&script, 0, 4000);
        assert_eq!(run.prefetch, vec![(FileId(1), FileRegion::new(5000, 1000))]);
        assert_eq!(run.space, 3000); // write + read; big write excluded
        assert_eq!(run.end_pos, 2);
    }

    #[test]
    fn ghost_burns_compute_time() {
        let script = ProcessScript::new(vec![
            Op::Compute(SimDuration::from_millis(5)),
            read_op(1, 0, 100),
            Op::Compute(SimDuration::from_millis(7)),
            read_op(1, 1000, 100),
        ]);
        let run = ghost_walk(&script, 0, 1 << 20);
        assert_eq!(run.compute, SimDuration::from_millis(12));
        assert_eq!(run.stop, GhostStop::ScriptEnd);
        assert_eq!(run.end_pos, 4);
    }

    #[test]
    fn ghost_resumes_mid_script() {
        let script = ProcessScript::new((0..4).map(|i| read_op(1, i * 100, 100)).collect());
        let first = ghost_walk(&script, 0, 250);
        assert_eq!(first.end_pos, 2);
        let second = ghost_walk(&script, first.end_pos, 250);
        assert_eq!(
            second.prefetch,
            vec![
                (FileId(1), FileRegion::new(200, 100)),
                (FileId(1), FileRegion::new(300, 100))
            ]
        );
        assert_eq!(second.stop, GhostStop::ScriptEnd);
    }

    #[test]
    fn ghost_uses_predictions_for_dependent_io() {
        let script = ProcessScript {
            ops: vec![read_op(1, 0, 100)],
            predicted: vec![(0, FileRegion::new(7777, 100).into())],
        };
        let run = ghost_walk(&script, 0, 1 << 20);
        assert_eq!(run.prefetch, vec![(FileId(1), FileRegion::new(7777, 100))]);
    }

    #[test]
    fn oversized_single_call_still_recorded() {
        // A single call larger than the quota must still make progress.
        let script = ProcessScript::new(vec![read_op(1, 0, 1 << 21)]);
        let run = ghost_walk(&script, 0, 1 << 20);
        assert_eq!(run.prefetch.len(), 1);
        assert_eq!(run.end_pos, 1);
        assert_eq!(run.stop, GhostStop::QuotaFull);
    }

    #[test]
    fn barriers_cost_nothing() {
        let script = ProcessScript::new(vec![Op::Barrier(0), read_op(1, 0, 100), Op::Barrier(1)]);
        let run = ghost_walk(&script, 0, 1 << 20);
        assert_eq!(run.compute, SimDuration::ZERO);
        assert_eq!(run.end_pos, 3);
    }

    #[test]
    fn io_clock_ratio_and_throughput() {
        let mut c = IoClock::new();
        c.record_io(SimDuration::from_millis(900), 9_000_000);
        c.record_other(SimDuration::from_millis(100));
        assert!((c.io_ratio() - 0.9).abs() < 1e-12);
        assert!((c.io_bytes_per_sec() - 10_000_000.0).abs() < 1.0);
        let (io, total) = c.take_sample();
        assert_eq!(io, 900_000_000);
        assert_eq!(total, 1_000_000_000);
        assert_eq!(c.io_ratio(), 0.0);
    }

    #[test]
    fn expected_fill_time_scales_with_throughput() {
        let cfg = DualParConfig::default();
        let fast = expected_fill_time(&cfg, 100e6);
        let slow = expected_fill_time(&cfg, 1e6);
        assert!(slow > fast);
        // 1 MB quota at 1 MB/s with factor 2 ⇒ ~2.1 s.
        assert!((slow.as_secs_f64() - 2.097).abs() < 0.01);
        // No estimate ⇒ one slot.
        assert_eq!(expected_fill_time(&cfg, 0.0), cfg.sample_slot);
    }
}
