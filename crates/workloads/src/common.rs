//! Shared helpers for workload generators.

use dualpar_mpiio::{IoCall, IoKind, Op, ProcessScript, ProgramScript, Regions};
use dualpar_pfs::{FileId, FileRegion};
use dualpar_sim::SimDuration;

/// Build a [`ProgramScript`] from a per-rank op generator.
pub fn build_program(
    name: &str,
    nprocs: usize,
    mut rank_ops: impl FnMut(usize) -> Vec<Op>,
) -> ProgramScript {
    ProgramScript {
        name: name.to_string(),
        ranks: (0..nprocs)
            .map(|r| ProcessScript::new(rank_ops(r)))
            .collect(),
    }
}

/// An I/O op on a single contiguous region (stored inline; no regions
/// when `len` is zero).
pub fn io_region(kind: IoKind, file: FileId, offset: u64, len: u64, collective: bool) -> Op {
    let region = FileRegion::new(offset, len);
    Op::Io(IoCall {
        kind,
        file,
        regions: if len > 0 {
            region.into()
        } else {
            Regions::default()
        },
        collective,
    })
}

/// A compute burst (skipped entirely when zero).
pub fn compute(d: SimDuration) -> Op {
    Op::Compute(d)
}

/// Derive the per-call compute time that yields a target I/O ratio given an
/// estimated per-call I/O time: `ratio = io / (io + compute)`.
pub fn compute_for_io_ratio(est_io_per_call: SimDuration, io_ratio: f64) -> SimDuration {
    assert!((0.0..=1.0).contains(&io_ratio));
    if io_ratio <= 0.0 {
        return SimDuration::from_secs(3600);
    }
    if io_ratio >= 1.0 {
        return SimDuration::ZERO;
    }
    let io = est_io_per_call.as_secs_f64();
    SimDuration::from_secs_f64(io * (1.0 - io_ratio) / io_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_ratio_math() {
        let io = SimDuration::from_millis(10);
        // 50% ratio: compute equals io time.
        assert_eq!(compute_for_io_ratio(io, 0.5), io);
        // 100% ratio: no compute.
        assert_eq!(compute_for_io_ratio(io, 1.0), SimDuration::ZERO);
        // 25% ratio: compute = 3x io.
        assert_eq!(compute_for_io_ratio(io, 0.25), SimDuration::from_millis(30));
    }

    #[test]
    fn build_program_ranks() {
        let p = build_program("t", 4, |r| {
            vec![io_region(IoKind::Read, FileId(1), r as u64 * 100, 100, false)]
        });
        assert_eq!(p.nprocs(), 4);
        assert_eq!(p.ranks[2].total_io_bytes(), 100);
    }
}
