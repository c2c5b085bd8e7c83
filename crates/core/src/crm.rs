//! Cache and Request Management — the per-compute-node daemon (§IV-D).
//!
//! CRM turns the raw request recordings of a pre-execution phase (or the
//! dirty contents of the cache at drain time) into the batch the data
//! servers actually see: sorted by file offset, adjacent requests merged,
//! small holes absorbed — reads simply widen, writes must *fill* their
//! holes with reads first to avoid clobbering unwritten bytes — and small
//! survivors packed with list I/O in ascending offset order.

use crate::config::{DualParConfig, LIST_IO_PACK};
use dualpar_mpiio::{build_batch, pack_list_io, CoalescedIo};
use dualpar_pfs::{FileId, FileRegion};
use serde::Serialize;

/// A planned prefetch batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefetchPlan {
    /// Coalesced read accesses, sorted by (file, offset).
    pub reads: Vec<CoalescedIo>,
    /// List-I/O packs (indices into `reads` are implicit: packs partition
    /// `reads` in order). One network message per pack.
    pub packs: usize,
}

/// A planned write-back batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritebackPlan {
    /// Coalesced write accesses (covers include filled holes).
    pub writes: Vec<CoalescedIo>,
    /// Holes inside write covers that must be read before the covering
    /// write can be issued (read-modify-write, §IV-D).
    pub fill_reads: Vec<(FileId, FileRegion)>,
    /// List-I/O packs, as in [`PrefetchPlan::packs`].
    pub packs: usize,
}

/// Batch statistics, matching the request-size numbers quoted in §II.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct BatchStats {
    /// Coalesced requests in the batch.
    pub requests: usize,
    /// Bytes the application asked for.
    pub useful_bytes: u64,
    /// Bytes actually transferred (holes included).
    pub transfer_bytes: u64,
    /// Mean transfer size per request — §II's "average request size".
    pub avg_request_bytes: f64,
}

fn stats_of(ios: &[CoalescedIo]) -> BatchStats {
    let useful: u64 = ios.iter().map(|io| io.useful_bytes()).sum();
    let transfer: u64 = ios.iter().map(|io| io.cover.len).sum();
    BatchStats {
        requests: ios.len(),
        useful_bytes: useful,
        transfer_bytes: transfer,
        avg_request_bytes: if ios.is_empty() {
            0.0
        } else {
            transfer as f64 / ios.len() as f64
        },
    }
}

/// Build the prefetch batch from the ghost recordings of all processes on
/// (or coordinated by) this node.
pub fn plan_prefetch(cfg: &DualParConfig, recorded: Vec<(FileId, FileRegion)>) -> PrefetchPlan {
    let reads = build_batch(recorded, cfg.max_hole);
    let packs = pack_list_io(&reads, LIST_IO_PACK).len();
    PrefetchPlan { reads, packs }
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
    let packs = pack_list_io(&writes, LIST_IO_PACK).len();
    WritebackPlan {
        writes,
        fill_reads,
        packs,
    }
}

/// Statistics for a prefetch plan.
pub fn prefetch_stats(plan: &PrefetchPlan) -> BatchStats {
    stats_of(&plan.reads)
}

/// Statistics for a write-back plan.
pub fn writeback_stats(plan: &WritebackPlan) -> BatchStats {
    stats_of(&plan.writes)
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
        let s = prefetch_stats(&plan);
        assert_eq!(s.useful_bytes, 32 * 4096);
        assert_eq!(s.transfer_bytes, 32 * 4096);
    }

    #[test]
    fn prefetch_average_request_grows_vs_individual() {
        // Strategy-2-style individual requests are 12 KB; the batch should
        // produce much larger average requests (paper: 128 KB).
        let recorded: Vec<_> = (0..64u64)
            .map(|i| (FileId(1), r(i * 16384, 12288))) // 12 KB every 16 KB
            .collect();
        let plan = plan_prefetch(&cfg(), recorded);
        let s = prefetch_stats(&plan);
        assert!(s.avg_request_bytes > 100.0 * 1024.0);
        assert!(s.requests < 8);
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
    fn pack_count_respects_config() {
        let mut c = cfg();
        c.max_hole = 0;
        let recorded: Vec<_> = (0..10u64)
            .map(|i| (FileId(1), r(i * 1_000_000, 100)))
            .collect();
        let plan = plan_prefetch(&c, recorded);
        assert_eq!(plan.reads.len(), 10);
        assert_eq!(plan.packs, 1); // all ten fit one LIST_IO_PACK message
        assert_eq!(pack_list_io(&plan.reads, 4).len(), 3); // ceil(10/4)
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
        assert_eq!(plan.packs, 0);
        let wb = plan_writeback(&cfg(), Vec::new());
        assert!(wb.writes.is_empty());
        assert!(wb.fill_reads.is_empty());
    }
}
