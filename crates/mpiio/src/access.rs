//! Request algebra: sorting, merging, hole-filling coalescing, and list-I/O
//! packing. This is the machinery CRM applies to the requests recorded by
//! pre-execution (§IV-D): requests from different processes are sorted,
//! adjacent ones merged, small holes absorbed ("for reads the data in the
//! holes are added to the requests; for writes the holes are filled by
//! additional reads"), and small survivors packed with list I/O in ascending
//! offset order.

use dualpar_pfs::{FileId, FileRegion};
use serde::{Deserialize, Serialize};

/// A coalesced I/O covering one contiguous file extent, possibly including
/// small holes between the useful regions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoalescedIo {
    /// File the access targets.
    pub file: FileId,
    /// The contiguous extent actually transferred.
    pub cover: FileRegion,
    /// The caller-requested regions inside `cover`, sorted, disjoint.
    pub useful: Vec<FileRegion>,
}

impl CoalescedIo {
    /// Bytes the caller actually asked for.
    pub fn useful_bytes(&self) -> u64 {
        self.useful.iter().map(|r| r.len).sum()
    }

    /// Bytes transferred that nobody asked for (hole filling overhead).
    pub fn hole_bytes(&self) -> u64 {
        self.cover.len - self.useful_bytes()
    }
}

/// Sort `(file, region)` pairs by (file, offset) and merge overlapping or
/// adjacent regions of the same file. The output is the canonical request
/// order CRM issues to the data servers.
pub fn sort_and_merge(mut items: Vec<(FileId, FileRegion)>) -> Vec<(FileId, FileRegion)> {
    items.retain(|(_, r)| r.len > 0);
    items.sort_by_key(|&(f, r)| (f, r.offset, r.len));
    let mut out: Vec<(FileId, FileRegion)> = Vec::with_capacity(items.len());
    for (f, r) in items {
        if let Some((lf, lr)) = out.last_mut() {
            if *lf == f && r.offset <= lr.end() {
                let new_end = lr.end().max(r.end());
                lr.len = new_end - lr.offset;
                continue;
            }
        }
        out.push((f, r));
    }
    out
}

/// Coalesce sorted, disjoint regions of a single file into covering extents,
/// absorbing holes up to `max_hole` bytes. Returns covers in ascending
/// offset order.
///
/// # Panics
/// Debug-asserts that input is sorted and disjoint (use [`sort_and_merge`]
/// first).
pub fn coalesce_with_holes(
    file: FileId,
    regions: &[FileRegion],
    max_hole: u64,
) -> Vec<CoalescedIo> {
    debug_assert!(
        regions.windows(2).all(|w| w[0].end() <= w[1].offset),
        "coalesce input must be sorted and disjoint"
    );
    let mut out = Vec::new();
    let mut iter = regions.iter().filter(|r| r.len > 0).copied();
    let Some(first) = iter.next() else {
        return out;
    };
    let mut cover = first;
    let mut useful = vec![first];
    for r in iter {
        let gap = r.offset - cover.end();
        if gap <= max_hole {
            cover.len = r.end() - cover.offset;
            useful.push(r);
        } else {
            out.push(CoalescedIo {
                file,
                cover,
                useful: std::mem::take(&mut useful),
            });
            cover = r;
            useful.push(r);
        }
    }
    out.push(CoalescedIo {
        file,
        cover,
        useful,
    });
    out
}

/// Full CRM pipeline over a mixed multi-file request batch: sort, merge,
/// then coalesce per file with the given hole threshold.
pub fn build_batch(items: Vec<(FileId, FileRegion)>, max_hole: u64) -> Vec<CoalescedIo> {
    let merged = sort_and_merge(items);
    let mut out = Vec::new();
    let mut i = 0;
    while i < merged.len() {
        let file = merged[i].0;
        let j = merged[i..]
            .iter()
            .position(|&(f, _)| f != file)
            .map_or(merged.len(), |p| i + p);
        let regions: Vec<FileRegion> = merged[i..j].iter().map(|&(_, r)| r).collect();
        out.extend(coalesce_with_holes(file, &regions, max_hole));
        i = j;
    }
    out
}

/// List-I/O packing (§IV-D, citing Ching et al.): group up to
/// `max_per_pack` small requests into one request message, in ascending
/// offset order. Returns the packs; the network layer charges one message
/// per pack rather than one per region.
pub fn pack_list_io(ios: &[CoalescedIo], max_per_pack: usize) -> Vec<Vec<CoalescedIo>> {
    assert!(max_per_pack > 0);
    ios.chunks(max_per_pack).map(|c| c.to_vec()).collect()
}

/// Average size (bytes) of the covers in a batch — the "average request
/// size" statistic the paper reports (128 KB for Strategy 3 vs 12 KB for
/// Strategy 2 in §II).
pub fn avg_cover_bytes(ios: &[CoalescedIo]) -> f64 {
    if ios.is_empty() {
        return 0.0;
    }
    ios.iter().map(|io| io.cover.len as f64).sum::<f64>() / ios.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(offset: u64, len: u64) -> FileRegion {
        FileRegion::new(offset, len)
    }

    #[test]
    fn sort_and_merge_orders_and_fuses() {
        let items = vec![
            (FileId(2), r(0, 10)),
            (FileId(1), r(100, 50)),
            (FileId(1), r(0, 50)),
            (FileId(1), r(50, 50)), // adjacent to previous: merge
        ];
        let out = sort_and_merge(items);
        assert_eq!(out, vec![(FileId(1), r(0, 150)), (FileId(2), r(0, 10))]);
    }

    #[test]
    fn sort_and_merge_handles_overlap_and_zero_len() {
        let items = vec![
            (FileId(1), r(0, 100)),
            (FileId(1), r(50, 100)), // overlapping
            (FileId(1), r(200, 0)),  // dropped
        ];
        assert_eq!(sort_and_merge(items), vec![(FileId(1), r(0, 150))]);
    }

    #[test]
    fn coalesce_absorbs_small_holes_only() {
        let regions = vec![r(0, 10), r(15, 10), r(1000, 10)];
        let out = coalesce_with_holes(FileId(1), &regions, 8);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].cover, r(0, 25));
        assert_eq!(out[0].useful_bytes(), 20);
        assert_eq!(out[0].hole_bytes(), 5);
        assert_eq!(out[1].cover, r(1000, 10));
        assert_eq!(out[1].hole_bytes(), 0);
    }

    #[test]
    fn coalesce_zero_hole_threshold_merges_only_adjacent() {
        let regions = vec![r(0, 10), r(10, 10), r(21, 10)];
        let out = coalesce_with_holes(FileId(1), &regions, 0);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].cover, r(0, 20));
    }

    #[test]
    fn build_batch_end_to_end() {
        // Interleaved requests from 4 "processes" over two files.
        let mut items = Vec::new();
        for rank in 0..4u64 {
            for call in 0..4u64 {
                items.push((
                    FileId(1),
                    r((call * 4 + rank) * 1024, 1024), // perfectly interleaved
                ));
            }
            items.push((FileId(2), r(rank * 1_000_000, 1024)));
        }
        let batch = build_batch(items, 4096);
        // File 1's 16 interleaved 1 KB requests fuse into one 16 KB cover.
        let f1: Vec<_> = batch.iter().filter(|b| b.file == FileId(1)).collect();
        assert_eq!(f1.len(), 1);
        assert_eq!(f1[0].cover, r(0, 16 * 1024));
        assert_eq!(f1[0].hole_bytes(), 0);
        // File 2's far-apart requests stay separate.
        let f2: Vec<_> = batch.iter().filter(|b| b.file == FileId(2)).collect();
        assert_eq!(f2.len(), 4);
    }

    #[test]
    fn batch_output_is_sorted_within_file() {
        let items = vec![
            (FileId(1), r(5_000_000, 10)),
            (FileId(1), r(0, 10)),
            (FileId(1), r(2_000_000, 10)),
        ];
        let batch = build_batch(items, 0);
        let offsets: Vec<u64> = batch.iter().map(|b| b.cover.offset).collect();
        assert_eq!(offsets, vec![0, 2_000_000, 5_000_000]);
    }

    #[test]
    fn pack_list_io_groups() {
        let ios: Vec<CoalescedIo> = (0..7)
            .map(|i| CoalescedIo {
                file: FileId(1),
                cover: r(i * 100, 10),
                useful: vec![r(i * 100, 10)],
            })
            .collect();
        let packs = pack_list_io(&ios, 3);
        assert_eq!(packs.len(), 3);
        assert_eq!(packs[0].len(), 3);
        assert_eq!(packs[2].len(), 1);
    }

    #[test]
    fn avg_cover_matches_paper_statistic() {
        let ios = vec![
            CoalescedIo {
                file: FileId(1),
                cover: r(0, 128 * 1024),
                useful: vec![r(0, 128 * 1024)],
            },
            CoalescedIo {
                file: FileId(1),
                cover: r(1 << 20, 128 * 1024),
                useful: vec![r(1 << 20, 128 * 1024)],
            },
        ];
        assert_eq!(avg_cover_bytes(&ios), 128.0 * 1024.0);
        assert_eq!(avg_cover_bytes(&[]), 0.0);
    }
}
