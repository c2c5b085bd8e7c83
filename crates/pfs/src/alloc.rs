//! Per-server extent allocation: where a file's local object lives on disk.
//!
//! Local objects are laid out sequentially on each server's disk, one file
//! after another (optionally with a gap, and optionally fragmented for
//! failure-injection tests). Sequential-per-file allocation preserves the
//! file-offset → LBN monotonicity that both CFQ and DualPar's CRM rely on;
//! distinct files landing in distinct disk regions is what produces the
//! long inter-file seeks of Fig. 6(a) when two programs share a disk.

use crate::layout::FileId;
use dualpar_disk::{bytes_to_sectors, Lbn};
use serde::{Deserialize, Serialize};

/// A contiguous run of sectors on one disk backing part of a local object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Extent {
    /// Byte offset within the local object where this extent begins.
    pub object_offset: u64,
    /// First disk sector of this extent.
    pub lbn: Lbn,
    /// Extent length in bytes.
    pub bytes: u64,
}

/// Allocation policy knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocConfig {
    /// Gap left between consecutive files, in bytes (creates inter-file
    /// seek distance).
    pub inter_file_gap: u64,
    /// If nonzero, split objects into fragments of this many bytes with
    /// `fragment_gap` between them (models an aged file system).
    pub fragment_bytes: u64,
    /// Gap between fragments, in bytes.
    pub fragment_gap: u64,
}

impl Default for AllocConfig {
    fn default() -> Self {
        AllocConfig {
            inter_file_gap: 64 << 20, // 64 MB between files
            fragment_bytes: 0,
            fragment_gap: 0,
        }
    }
}

/// Extent allocator for one server's disk.
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    cfg: AllocConfig,
    capacity_sectors: u64,
    next_lbn: Lbn,
    /// Each file's extents, indexed by `FileId`: `Pvfs` mints ids densely
    /// from 1, so a lookup is an array load. `None` marks a file with no
    /// object on this server.
    objects: Vec<Option<Vec<Extent>>>,
}

impl ExtentAllocator {
    /// Build an allocator for a disk of the given capacity.
    pub fn new(capacity_sectors: u64, cfg: AllocConfig) -> Self {
        ExtentAllocator {
            cfg,
            capacity_sectors,
            // Leave a superblock-ish region at the front.
            next_lbn: 2048,
            objects: Vec::new(),
        }
    }

    /// Allocate the local object for `file` of `bytes` length.
    ///
    /// # Panics
    /// Panics if the disk is full or the file was already allocated —
    /// both are setup bugs in an experiment definition.
    pub fn allocate(&mut self, file: FileId, bytes: u64) {
        assert!(
            self.extents(file).is_none(),
            "file {file:?} allocated twice on this server"
        );
        let mut extents = Vec::new();
        let frag = if self.cfg.fragment_bytes == 0 {
            u64::MAX
        } else {
            self.cfg.fragment_bytes
        };
        let mut remaining = bytes;
        let mut object_offset = 0u64;
        while remaining > 0 {
            let chunk = remaining.min(frag);
            let sectors = bytes_to_sectors(chunk);
            assert!(
                self.next_lbn.saturating_add(sectors) <= self.capacity_sectors,
                "server disk full allocating {file:?}"
            );
            extents.push(Extent {
                object_offset,
                lbn: self.next_lbn,
                bytes: chunk,
            });
            self.next_lbn = self
                .next_lbn
                .saturating_add(sectors)
                .saturating_add(bytes_to_sectors(self.cfg.fragment_gap));
            object_offset += chunk;
            remaining -= chunk;
        }
        self.next_lbn = self
            .next_lbn
            .saturating_add(bytes_to_sectors(self.cfg.inter_file_gap));
        let i = file.0 as usize;
        if self.objects.len() <= i {
            self.objects.resize_with(i + 1, || None);
        }
        self.objects[i] = Some(extents);
    }

    fn extents(&self, file: FileId) -> Option<&[Extent]> {
        self.objects.get(file.0 as usize)?.as_deref()
    }

    /// Translate `(object_offset, len)` into disk LBN runs `(lbn,
    /// sectors)`, one per extent the range touches, in object order.
    /// `Pvfs::resolve` merges the runs that continue each other on disk.
    ///
    /// # Panics
    /// Panics on access beyond the allocated object (an experiment bug).
    #[expect(
        clippy::panic,
        reason = "an unallocated file is a caller bug; the message names the file id, which `expect` cannot format"
    )]
    pub fn translate(
        &self,
        file: FileId,
        object_offset: u64,
        len: u64,
    ) -> impl Iterator<Item = (Lbn, u64)> + '_ {
        let extents = self
            .extents(file)
            .unwrap_or_else(|| panic!("file {file:?} not allocated on this server"));
        let end = object_offset + len;
        // Extents tile the object from offset 0, so the last one ends it.
        let size = extents.last().map_or(0, |e| e.object_offset + e.bytes);
        assert!(
            len == 0 || end <= size,
            "access beyond end of object: file {file:?} offset {object_offset} len {len}"
        );
        let touched = extents.iter().take_while(move |e| e.object_offset < end);
        touched.filter_map(move |e| {
            let seg_start = object_offset.max(e.object_offset);
            let seg_end = end.min(e.object_offset + e.bytes);
            (seg_start < seg_end).then(|| {
                // Sector-granular: sub-sector offsets round the run outward.
                let within = (seg_start - e.object_offset) / dualpar_disk::SECTOR_BYTES;
                (e.lbn.saturating_add(within), bytes_to_sectors(seg_end - seg_start))
            })
        })
    }

    /// LBN of the first extent, if allocated (for locality assertions).
    pub fn base_lbn(&self, file: FileId) -> Option<Lbn> {
        self.extents(file).and_then(|e| e.first()).map(|e| e.lbn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> ExtentAllocator {
        ExtentAllocator::new(1 << 30, AllocConfig::default()) // huge disk
    }

    #[test]
    fn contiguous_allocation_translates_to_one_run() {
        let mut a = alloc();
        a.allocate(FileId(1), 1 << 20);
        let runs: Vec<_> = a.translate(FileId(1), 0, 1 << 20).collect();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].1, bytes_to_sectors(1 << 20));
    }

    #[test]
    fn offsets_map_monotonically() {
        let mut a = alloc();
        a.allocate(FileId(1), 1 << 20);
        let r1: Vec<_> = a.translate(FileId(1), 0, 4096).collect();
        let r2: Vec<_> = a.translate(FileId(1), 65536, 4096).collect();
        assert!(r2[0].0 > r1[0].0, "higher offset ⇒ higher LBN");
        assert_eq!(r2[0].0 - r1[0].0, 65536 / 512);
    }

    #[test]
    fn files_are_separated() {
        let mut a = alloc();
        a.allocate(FileId(1), 1 << 20);
        a.allocate(FileId(2), 1 << 20);
        let b1 = a.base_lbn(FileId(1)).unwrap();
        let b2 = a.base_lbn(FileId(2)).unwrap();
        let gap_sectors = (b2 - b1) - bytes_to_sectors(1 << 20);
        assert_eq!(gap_sectors, bytes_to_sectors(64 << 20));
    }

    #[test]
    fn fragmented_object_yields_multiple_runs() {
        let cfg = AllocConfig {
            inter_file_gap: 0,
            fragment_bytes: 256 * 1024,
            fragment_gap: 1 << 20,
        };
        let mut a = ExtentAllocator::new(1 << 30, cfg);
        a.allocate(FileId(1), 1 << 20); // 4 fragments
        let runs: Vec<_> = a.translate(FileId(1), 0, 1 << 20).collect();
        assert_eq!(runs.len(), 4);
        // Cross-fragment read spans two runs.
        let cross: Vec<_> = a.translate(FileId(1), 200 * 1024, 100 * 1024).collect();
        assert_eq!(cross.len(), 2);
        let total: u64 = cross.iter().map(|r| r.1).sum();
        assert_eq!(total, bytes_to_sectors(56 * 1024) + bytes_to_sectors(44 * 1024));
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn translate_unallocated_panics() {
        let a = alloc();
        let _ = a.translate(FileId(9), 0, 10);
    }

    #[test]
    #[should_panic(expected = "beyond end")]
    fn translate_past_end_panics() {
        let mut a = alloc();
        a.allocate(FileId(1), 4096);
        let _ = a.translate(FileId(1), 0, 8192);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn double_allocate_panics() {
        let mut a = alloc();
        a.allocate(FileId(1), 10);
        a.allocate(FileId(1), 10);
    }

    #[test]
    fn translate_zero_len_inside_object() {
        let mut a = alloc();
        a.allocate(FileId(1), 4096);
        assert_eq!(a.translate(FileId(1), 100, 0).count(), 0);
    }
}
