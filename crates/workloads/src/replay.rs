//! Trace replay: drive the simulator from a recorded I/O trace instead of
//! a synthetic generator — the route in for real application logs (e.g.
//! converted Darshan or Recorder traces).
//!
//! A trace is a flat list of per-rank entries; compute time between two
//! consecutive I/O entries of the same rank is taken from the entries'
//! timestamps (capped so pathological gaps in a recorded log do not stall
//! the simulation).

use crate::common::build_program;
use dualpar_mpiio::{IoCall, IoKind, Op, ProgramScript};
use dualpar_pfs::{FileId, FileRegion};
use dualpar_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// One recorded I/O event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Issuing rank.
    pub rank: u32,
    /// Seconds since the start of the recording.
    pub t_secs: f64,
    /// Read or write.
    pub kind: IoKind,
    /// Logical file index (mapped to created files positionally).
    pub file_index: u32,
    /// Byte offset.
    pub offset: u64,
    /// Byte length.
    pub len: u64,
}

/// A replayable trace plus replay policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceReplay {
    /// The recorded events (any order; sorted per rank by timestamp).
    pub entries: Vec<TraceEntry>,
    /// Ranks in the replayed program (must cover every entry's rank).
    pub nprocs: usize,
    /// Cap on the compute gap reconstructed between two entries.
    pub max_gap: SimDuration,
    /// Scale factor applied to reconstructed compute gaps (1.0 = as
    /// recorded; 0.0 = back-to-back I/O).
    pub gap_scale: f64,
}

impl Default for TraceReplay {
    fn default() -> Self {
        TraceReplay {
            entries: Vec::new(),
            nprocs: 1,
            max_gap: SimDuration::from_secs(5),
            gap_scale: 1.0,
        }
    }
}

impl TraceReplay {
    /// Number of distinct `file_index` values referenced.
    pub fn num_files(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.file_index)
            .max()
            .map_or(0, |m| m as usize + 1)
    }

    /// Minimum size each referenced file must be created with.
    pub fn required_file_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.num_files()];
        for e in &self.entries {
            let end = e.offset + e.len;
            let s = &mut sizes[e.file_index as usize];
            *s = (*s).max(end);
        }
        sizes
    }

    /// Build the program against the created files (positional mapping:
    /// `files[i]` backs `file_index == i`).
    ///
    /// # Panics
    /// Panics if `files` is shorter than [`TraceReplay::num_files`] or an
    /// entry's rank is out of range.
    pub fn build(&self, files: &[FileId]) -> ProgramScript {
        assert!(
            files.len() >= self.num_files(),
            "trace references {} files, {} provided",
            self.num_files(),
            files.len()
        );
        // Partition entries per rank, sorted by timestamp.
        let mut per_rank: Vec<Vec<&TraceEntry>> = vec![Vec::new(); self.nprocs];
        for e in &self.entries {
            assert!(
                (e.rank as usize) < self.nprocs,
                "entry rank {} outside nprocs {}",
                e.rank,
                self.nprocs
            );
            per_rank[e.rank as usize].push(e);
        }
        for list in &mut per_rank {
            list.sort_by(|a, b| a.t_secs.partial_cmp(&b.t_secs).expect("NaN timestamp"));
        }
        build_program("trace-replay", self.nprocs, |rank| {
            let mut ops = Vec::new();
            let mut last_t: Option<f64> = None;
            for e in &per_rank[rank] {
                if let Some(prev) = last_t {
                    let gap_s = ((e.t_secs - prev).max(0.0) * self.gap_scale)
                        .min(self.max_gap.as_secs_f64());
                    if gap_s > 0.0 {
                        ops.push(Op::Compute(SimDuration::from_secs_f64(gap_s)));
                    }
                }
                last_t = Some(e.t_secs);
                if e.len > 0 {
                    ops.push(Op::Io(IoCall {
                        kind: e.kind,
                        file: files[e.file_index as usize],
                        regions: FileRegion::new(e.offset, e.len).into(),
                        collective: false,
                    }));
                }
            }
            ops
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rank: u32, t: f64, kind: IoKind, file: u32, off: u64, len: u64) -> TraceEntry {
        TraceEntry {
            rank,
            t_secs: t,
            kind,
            file_index: file,
            offset: off,
            len,
        }
    }

    #[test]
    fn replay_orders_per_rank_and_reconstructs_gaps() {
        let replay = TraceReplay {
            entries: vec![
                entry(0, 2.0, IoKind::Read, 0, 4096, 4096),
                entry(0, 0.0, IoKind::Read, 0, 0, 4096), // out of order
                entry(1, 0.5, IoKind::Write, 1, 0, 100),
            ],
            nprocs: 2,
            ..Default::default()
        };
        let p = replay.build(&[FileId(1), FileId(2)]);
        assert_eq!(p.nprocs(), 2);
        // Rank 0: read@0, compute 2 s, read@4096.
        let ops = &p.ranks[0].ops;
        assert!(matches!(&ops[0], Op::Io(c) if c.regions.get(0).is_some_and(|r| r.offset == 0)));
        assert!(matches!(ops[1], Op::Compute(d) if d == SimDuration::from_secs(2)));
        assert!(matches!(&ops[2], Op::Io(c) if c.regions.get(0).is_some_and(|r| r.offset == 4096)));
        // Rank 1 writes to the second file.
        assert!(matches!(&p.ranks[1].ops[0], Op::Io(c) if c.file == FileId(2)));
    }

    #[test]
    fn gap_cap_and_scale() {
        let replay = TraceReplay {
            entries: vec![
                entry(0, 0.0, IoKind::Read, 0, 0, 10),
                entry(0, 100.0, IoKind::Read, 0, 10, 10), // huge recorded gap
            ],
            nprocs: 1,
            max_gap: SimDuration::from_secs(2),
            gap_scale: 1.0,
        };
        let p = replay.build(&[FileId(1)]);
        assert!(matches!(p.ranks[0].ops[1], Op::Compute(d) if d == SimDuration::from_secs(2)));

        let squeezed = TraceReplay {
            gap_scale: 0.0,
            ..replay
        };
        let p2 = squeezed.build(&[FileId(1)]);
        assert_eq!(p2.ranks[0].num_io_calls(), 2);
        assert_eq!(p2.ranks[0].total_compute(), SimDuration::ZERO);
    }

    #[test]
    fn required_sizes_cover_every_access() {
        let replay = TraceReplay {
            entries: vec![
                entry(0, 0.0, IoKind::Read, 0, 1000, 24),
                entry(0, 1.0, IoKind::Write, 1, 0, 4096),
                entry(0, 2.0, IoKind::Read, 0, 0, 8),
            ],
            nprocs: 1,
            ..Default::default()
        };
        assert_eq!(replay.num_files(), 2);
        assert_eq!(replay.required_file_sizes(), vec![1024, 4096]);
    }

    #[test]
    #[should_panic(expected = "outside nprocs")]
    fn bad_rank_panics() {
        let replay = TraceReplay {
            entries: vec![entry(5, 0.0, IoKind::Read, 0, 0, 10)],
            nprocs: 2,
            ..Default::default()
        };
        replay.build(&[FileId(1)]);
    }
}
