//! Cache and Request Management — the per-compute-node daemon (§IV-D).
//!
//! CRM turns the raw request recordings of a pre-execution phase (or the
//! dirty contents of the cache at drain time) into the batch the data
//! servers actually see: sorted by file offset, adjacent requests merged,
//! small holes absorbed — reads simply widen, writes must *fill* their
//! holes with reads first to avoid clobbering unwritten bytes. The paper
//! also packs small survivors into list-I/O messages; the simulator charges
//! each cover on its own and does not model the packing.

use crate::config::DualParConfig;
use dualpar_mpiio::{build_batch, CoalescedIo};
use dualpar_pfs::{FileId, FileRegion};

/// A planned prefetch batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefetchPlan {
    /// Coalesced read accesses, sorted by (file, offset).
    pub reads: Vec<CoalescedIo>,
}

/// A planned write-back batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritebackPlan {
    /// Coalesced write accesses (covers include filled holes).
    pub writes: Vec<CoalescedIo>,
    /// Holes inside write covers that must be read before the covering
    /// write can be issued (read-modify-write, §IV-D).
    pub fill_reads: Vec<(FileId, FileRegion)>,
}

/// Build the prefetch batch from the ghost recordings of all processes on
/// (or coordinated by) this node.
pub fn plan_prefetch(cfg: &DualParConfig, recorded: Vec<(FileId, FileRegion)>) -> PrefetchPlan {
    PrefetchPlan {
        reads: build_batch(recorded, cfg.max_hole),
    }
}

/// Build the write-back batch from drained dirty regions.
pub fn plan_writeback(cfg: &DualParConfig, dirty: Vec<(FileId, FileRegion)>) -> WritebackPlan {
    let writes = build_batch(dirty, cfg.max_hole);
    let mut fill_reads = Vec::new();
    for w in &writes {
        // Every gap between useful regions inside the cover must be read
        // before the full cover can be written.
        let mut cursor = w.cover.offset;
        for u in &w.useful {
            if u.offset > cursor {
                fill_reads.push((w.file, FileRegion::new(cursor, u.offset - cursor)));
            }
            cursor = u.end();
        }
        debug_assert_eq!(
            cursor,
            w.cover.end(),
            "useful regions must tile the cover ends"
        );
    }
    WritebackPlan { writes, fill_reads }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DualParConfig {
        DualParConfig::default()
    }

    fn r(o: u64, l: u64) -> FileRegion {
        FileRegion::new(o, l)
    }

    #[test]
    fn prefetch_plan_sorts_and_merges_across_processes() {
        // 8 processes × interleaved 4 KB segments — the demo pattern.
        let mut recorded = Vec::new();
        for rank in 0..8u64 {
            for k in 0..4u64 {
                recorded.push((FileId(1), r((k * 8 + rank) * 4096, 4096)));
            }
        }
        let plan = plan_prefetch(&cfg(), recorded);
        assert_eq!(plan.reads.len(), 1, "fully interleaved batch fuses");
        assert_eq!(plan.reads[0].cover, r(0, 32 * 4096));
        assert_eq!(plan.reads[0].useful_bytes(), 32 * 4096);
        assert_eq!(plan.reads[0].hole_bytes(), 0);
    }

    #[test]
    fn prefetch_average_request_grows_vs_individual() {
        // Strategy-2-style individual requests are 12 KB; the batch should
        // produce much larger average requests (paper: 128 KB).
        let recorded: Vec<_> = (0..64u64)
            .map(|i| (FileId(1), r(i * 16384, 12288))) // 12 KB every 16 KB
            .collect();
        let plan = plan_prefetch(&cfg(), recorded);
        let transfer: u64 = plan.reads.iter().map(|io| io.cover.len).sum();
        assert!(transfer as f64 / plan.reads.len() as f64 > 100.0 * 1024.0);
        assert!(plan.reads.len() < 8);
    }

    #[test]
    fn writeback_holes_require_fill_reads() {
        let dirty = vec![
            (FileId(1), r(0, 1000)),
            (FileId(1), r(1500, 1000)), // 500-byte hole
        ];
        let plan = plan_writeback(&cfg(), dirty);
        assert_eq!(plan.writes.len(), 1);
        assert_eq!(plan.writes[0].cover, r(0, 2500));
        assert_eq!(plan.fill_reads, vec![(FileId(1), r(1000, 500))]);
    }

    #[test]
    fn writeback_without_holes_needs_no_reads() {
        let dirty = vec![(FileId(1), r(0, 1000)), (FileId(1), r(1000, 1000))];
        let plan = plan_writeback(&cfg(), dirty);
        assert_eq!(plan.writes.len(), 1);
        assert!(plan.fill_reads.is_empty());
    }

    #[test]
    fn distant_writes_stay_separate() {
        let dirty = vec![(FileId(1), r(0, 1000)), (FileId(1), r(100 << 20, 1000))];
        let plan = plan_writeback(&cfg(), dirty);
        assert_eq!(plan.writes.len(), 2);
        assert!(plan.fill_reads.is_empty());
    }

    #[test]
    fn zero_max_hole_keeps_every_read_apart() {
        let mut c = cfg();
        c.max_hole = 0;
        let recorded: Vec<_> = (0..10u64)
            .map(|i| (FileId(1), r(i * 1_000_000, 100)))
            .collect();
        let plan = plan_prefetch(&c, recorded);
        assert_eq!(plan.reads.len(), 10);
    }

    #[test]
    fn multi_file_batches_group_by_file() {
        let recorded = vec![
            (FileId(2), r(0, 100)),
            (FileId(1), r(0, 100)),
            (FileId(2), r(100, 100)),
        ];
        let plan = plan_prefetch(&cfg(), recorded);
        assert_eq!(plan.reads.len(), 2);
        assert_eq!(plan.reads[0].file, FileId(1));
        assert_eq!(plan.reads[1].file, FileId(2));
        assert_eq!(plan.reads[1].cover, r(0, 200));
    }

    #[test]
    fn empty_recordings_produce_empty_plans() {
        let plan = plan_prefetch(&cfg(), Vec::new());
        assert!(plan.reads.is_empty());
        let wb = plan_writeback(&cfg(), Vec::new());
        assert!(wb.writes.is_empty());
        assert!(wb.fill_reads.is_empty());
    }
}
