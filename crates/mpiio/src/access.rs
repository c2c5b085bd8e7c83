//! Request algebra: sorting, merging and hole-filling coalescing. This is
//! the machinery CRM applies to the requests recorded by pre-execution
//! (§IV-D): requests from different processes are sorted, adjacent ones
//! merged, and small holes absorbed ("for reads the data in the holes are
//! added to the requests; for writes the holes are filled by additional
//! reads").

use crate::regions::Regions;
use dualpar_pfs::{FileId, FileRegion};

/// A coalesced I/O covering one contiguous file extent, possibly including
/// small holes between the useful regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalescedIo {
    /// File the access targets.
    pub file: FileId,
    /// The contiguous extent actually transferred.
    pub cover: FileRegion,
    /// The caller-requested regions inside `cover`, sorted, disjoint. A
    /// cover of one region holds it inline.
    pub useful: Regions,
}

impl CoalescedIo {
    /// Bytes the caller actually asked for.
    pub fn useful_bytes(&self) -> u64 {
        self.useful.bytes()
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
    items.dedup_by(|(f, r), (lf, lr)| {
        let fuses = *lf == *f && r.offset <= lr.end();
        if fuses {
            lr.len = lr.end().max(r.end()) - lr.offset;
        }
        fuses
    });
    items
}

/// Coalesce sorted, disjoint regions of a single file into covering extents,
/// absorbing holes up to `max_hole` bytes. Returns covers in ascending
/// offset order.
///
/// # Panics
/// Debug-asserts that input is sorted and disjoint (use [`sort_and_merge`]
/// first).
pub fn coalesce_with_holes<'a>(
    file: FileId,
    regions: impl IntoIterator<Item = &'a FileRegion, IntoIter: Clone>,
    max_hole: u64,
) -> Vec<CoalescedIo> {
    let mut out = Vec::new();
    coalesce_into(&mut out, file, regions, max_hole);
    out
}

/// [`coalesce_with_holes`], appending the covers to `out`. Each cover's
/// regions are counted before they are copied, so a cover of one region
/// allocates nothing and a longer `useful` list is allocated once, at its
/// final size.
fn coalesce_into<'a>(
    out: &mut Vec<CoalescedIo>,
    file: FileId,
    regions: impl IntoIterator<Item = &'a FileRegion, IntoIter: Clone>,
    max_hole: u64,
) {
    let mut rest = regions.into_iter().filter(|r| r.len > 0).copied();
    while let Some(first) = rest.next() {
        let mut cover = first;
        let mut count = 1;
        for r in rest.clone() {
            debug_assert!(
                cover.end() <= r.offset,
                "coalesce input must be sorted and disjoint"
            );
            if r.offset - cover.end() > max_hole {
                break;
            }
            cover.len = r.end() - cover.offset;
            count += 1;
        }
        let useful = if count == 1 {
            Regions::from(first)
        } else {
            let mut list = Vec::with_capacity(count);
            list.push(first);
            list.extend(rest.by_ref().take(count - 1));
            Regions::from(list)
        };
        out.push(CoalescedIo {
            file,
            cover,
            useful,
        });
    }
}

/// Full CRM pipeline over a mixed multi-file request batch: sort, merge,
/// then coalesce per file with the given hole threshold.
pub fn build_batch(items: Vec<(FileId, FileRegion)>, max_hole: u64) -> Vec<CoalescedIo> {
    let merged = sort_and_merge(items);
    let mut out = Vec::new();
    for same_file in merged.chunk_by(|a, b| a.0 == b.0) {
        let regions = same_file.iter().map(|(_, r)| r);
        coalesce_into(&mut out, same_file[0].0, regions, max_hole);
    }
    out
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
}
