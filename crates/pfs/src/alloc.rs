//! Per-server extent allocation: where a file's local object lives on disk.
//!
//! Local objects are laid out sequentially on each server's disk, one file
//! after another with a fixed gap, each in one contiguous extent.
//! Sequential-per-file allocation preserves the file-offset → LBN
//! monotonicity that both CFQ and DualPar's CRM rely on; distinct files
//! landing in distinct disk regions is what produces the long inter-file
//! seeks of Fig. 6(a) when two programs share a disk.

use crate::layout::FileId;
use dualpar_disk::{bytes_to_sectors, Lbn};

/// Gap left between consecutive files on a disk, in bytes: the inter-file
/// seek distance.
const INTER_FILE_GAP: u64 = 64 << 20;

/// Extent allocator for one server's disk.
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    capacity_sectors: u64,
    next_lbn: Lbn,
    /// Each file's object as `(first LBN, bytes)`, indexed by `FileId`:
    /// `Pvfs` mints ids densely from 1, so a lookup is an array load.
    /// `None` marks a file with no object on this server.
    objects: Vec<Option<(Lbn, u64)>>,
}

impl ExtentAllocator {
    /// Build an allocator for a disk of the given capacity.
    pub fn new(capacity_sectors: u64) -> Self {
        ExtentAllocator {
            capacity_sectors,
            // Leave a superblock-ish region at the front.
            next_lbn: 2048,
            objects: Vec::new(),
        }
    }

    /// Does the disk have room for the next object of `bytes` length?
    pub fn fits(&self, bytes: u64) -> bool {
        self.next_lbn.saturating_add(bytes_to_sectors(bytes)) <= self.capacity_sectors
    }

    /// Allocate the local object for `file` of `bytes` length.
    ///
    /// # Panics
    /// Panics if the disk is full or the file was already allocated —
    /// both are setup bugs in an experiment definition.
    pub fn allocate(&mut self, file: FileId, bytes: u64) {
        assert!(
            self.object(file).is_none(),
            "file {file:?} allocated twice on this server"
        );
        assert!(self.fits(bytes), "server disk full allocating {file:?}");
        let sectors = bytes_to_sectors(bytes);
        let i = file.0 as usize;
        if self.objects.len() <= i {
            self.objects.resize_with(i + 1, || None);
        }
        self.objects[i] = Some((self.next_lbn, bytes));
        self.next_lbn = self
            .next_lbn
            .saturating_add(sectors)
            .saturating_add(bytes_to_sectors(INTER_FILE_GAP));
    }

    fn object(&self, file: FileId) -> Option<(Lbn, u64)> {
        *self.objects.get(file.0 as usize)?
    }

    /// Translate `(object_offset, len)` into the disk LBN run `(lbn,
    /// sectors)` holding it; `None` for an empty range.
    ///
    /// # Panics
    /// Panics on access beyond the allocated object (an experiment bug).
    #[expect(
        clippy::panic,
        reason = "an unallocated file is a caller bug; the message names the file id, which `expect` cannot format"
    )]
    pub fn translate(&self, file: FileId, object_offset: u64, len: u64) -> Option<(Lbn, u64)> {
        let (base, size) = self
            .object(file)
            .unwrap_or_else(|| panic!("file {file:?} not allocated on this server"));
        assert!(
            len == 0 || object_offset + len <= size,
            "access beyond end of object: file {file:?} offset {object_offset} len {len}"
        );
        // Sector-granular: a sub-sector offset starts the run at its sector.
        (len > 0).then(|| {
            (
                base.saturating_add(object_offset / dualpar_disk::SECTOR_BYTES),
                bytes_to_sectors(len),
            )
        })
    }

    /// First LBN of the object, if allocated (for locality assertions).
    pub fn base_lbn(&self, file: FileId) -> Option<Lbn> {
        self.object(file).map(|(lbn, _)| lbn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> ExtentAllocator {
        ExtentAllocator::new(1 << 30) // huge disk
    }

    #[test]
    fn contiguous_allocation_translates_to_one_run() {
        let mut a = alloc();
        a.allocate(FileId(1), 1 << 20);
        let run = a.translate(FileId(1), 0, 1 << 20).unwrap();
        assert_eq!(run.1, bytes_to_sectors(1 << 20));
    }

    #[test]
    fn offsets_map_monotonically() {
        let mut a = alloc();
        a.allocate(FileId(1), 1 << 20);
        let r1 = a.translate(FileId(1), 0, 4096).unwrap();
        let r2 = a.translate(FileId(1), 65536, 4096).unwrap();
        assert!(r2.0 > r1.0, "higher offset ⇒ higher LBN");
        assert_eq!(r2.0 - r1.0, 65536 / 512);
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
        assert_eq!(a.translate(FileId(1), 100, 0), None);
    }
}
