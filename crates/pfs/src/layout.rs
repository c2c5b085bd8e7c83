//! Round-robin striping, as PVFS2 does it.
//!
//! A file is divided into fixed-size stripe units (64 KB by default, the
//! PVFS2 default the paper uses). Unit `k` lives on server `k mod N`, at
//! local-object offset `(k div N) * stripe + (offset within unit)`. This
//! mapping gives the "good correspondence between file-level addresses and
//! disk-level addresses" (§II) that makes file-level sorting effective.

use serde::{Deserialize, Serialize};

/// Identifies a data server within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ServerId(
    /// Zero-based server index.
    pub u32,
);

/// Identifies a file in the parallel file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FileId(
    /// Opaque file number (assigned at creation).
    pub u32,
);

/// A contiguous byte range within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FileRegion {
    /// Byte offset within the file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl FileRegion {
    /// Build a region.
    pub fn new(offset: u64, len: u64) -> Self {
        FileRegion { offset, len }
    }

    #[inline]
    /// One past the last byte.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Do the two regions share any byte?
    pub fn overlaps(&self, other: &FileRegion) -> bool {
        self.offset < other.end() && other.offset < self.end()
    }

    /// Is `other` entirely inside this region?
    pub fn contains(&self, other: &FileRegion) -> bool {
        self.offset <= other.offset && other.end() <= self.end()
    }
}

/// A piece of a file region that lands on one server's local object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripePiece {
    /// Server holding the piece.
    pub server: ServerId,
    /// Offset of this piece in the original file.
    pub file_offset: u64,
    /// Offset within the server's local object for this file.
    pub local_offset: u64,
    /// Piece length in bytes (at most one stripe unit).
    pub len: u64,
}

/// The striping function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeLayout {
    /// Stripe unit in bytes (64 KB for PVFS2).
    pub stripe_size: u64,
    /// Servers the file is striped over.
    pub num_servers: u32,
}

impl StripeLayout {
    /// Build a layout.
    pub fn new(stripe_size: u64, num_servers: u32) -> Self {
        assert!(stripe_size > 0 && num_servers > 0);
        StripeLayout {
            stripe_size,
            num_servers,
        }
    }

    /// Which server holds the byte at `offset`.
    #[inline]
    pub fn server_of(&self, offset: u64) -> ServerId {
        ServerId(((offset / self.stripe_size) % self.num_servers as u64) as u32)
    }

    /// Local-object offset of the byte at file `offset` on its server.
    #[inline]
    pub fn local_offset_of(&self, offset: u64) -> u64 {
        let unit = offset / self.stripe_size;
        (unit / self.num_servers as u64) * self.stripe_size + offset % self.stripe_size
    }

    /// Inverse mapping: file offset of `(server, local_offset)`.
    #[inline]
    pub fn file_offset_of(&self, server: ServerId, local_offset: u64) -> u64 {
        let row = local_offset / self.stripe_size;
        let within = local_offset % self.stripe_size;
        (row * self.num_servers as u64 + server.0 as u64) * self.stripe_size + within
    }

    /// Split a file region into per-server stripe pieces, in file order.
    /// Consecutive pieces on the same server (i.e. a region no wider than
    /// one stripe row) are NOT merged here; see `Pvfs::resolve` for LBN-run
    /// merging.
    ///
    /// The first piece's unit, server and local offset come from one
    /// division of the offset by the stripe unit and one of the unit by the
    /// server count; each later piece starts a unit, so it steps to the
    /// next server (and row) without dividing.
    pub fn split(&self, region: FileRegion) -> impl Iterator<Item = StripePiece> {
        let (stripe, n) = (self.stripe_size, self.num_servers as u64);
        let end = region.end();
        let mut off = region.offset;
        let unit = off / stripe;
        let mut within = off % stripe;
        let (mut row, mut server) = (unit / n, unit % n);
        let mut unit_end = (unit + 1) * stripe;
        std::iter::from_fn(move || {
            if off >= end {
                return None;
            }
            let len = unit_end.min(end) - off;
            let piece = StripePiece {
                server: ServerId(server as u32),
                file_offset: off,
                local_offset: row * stripe + within,
                len,
            };
            off += len;
            unit_end += stripe;
            within = 0;
            server += 1;
            if server == n {
                server = 0;
                row += 1;
            }
            Some(piece)
        })
    }

    /// Bytes of local object needed on `server` to hold a file of `size`.
    pub fn local_object_size(&self, server: ServerId, size: u64) -> u64 {
        if size == 0 {
            return 0;
        }
        let full_units = size / self.stripe_size;
        let tail = size % self.stripe_size;
        let n = self.num_servers as u64;
        let s = server.0 as u64;
        // Units s, s+n, s+2n, ... < full_units are full on this server.
        let full_on_server = if full_units > s {
            (full_units - s - 1) / n + 1
        } else {
            0
        };
        let mut bytes = full_on_server * self.stripe_size;
        // The partial tail unit (index full_units) may be ours.
        if tail > 0 && full_units % n == s {
            bytes += tail;
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_server_assignment() {
        let l = StripeLayout::new(64 * 1024, 4);
        assert_eq!(l.server_of(0), ServerId(0));
        assert_eq!(l.server_of(64 * 1024), ServerId(1));
        assert_eq!(l.server_of(4 * 64 * 1024), ServerId(0));
        assert_eq!(l.server_of(64 * 1024 - 1), ServerId(0));
    }

    #[test]
    fn local_offset_round_trip() {
        let l = StripeLayout::new(64 * 1024, 3);
        for off in [0u64, 1, 65_535, 65_536, 200_000, 1_000_000, 12_345_678] {
            let s = l.server_of(off);
            let lo = l.local_offset_of(off);
            assert_eq!(l.file_offset_of(s, lo), off, "offset {off}");
        }
    }

    #[test]
    fn split_covers_region_exactly() {
        let l = StripeLayout::new(64 * 1024, 3);
        let region = FileRegion::new(100_000, 300_000);
        let pieces: Vec<_> = l.split(region).collect();
        let mut expect = region.offset;
        for p in &pieces {
            assert_eq!(p.file_offset, expect);
            assert!(p.len <= l.stripe_size);
            expect += p.len;
        }
        assert_eq!(expect, region.end());
    }

    #[test]
    fn split_within_one_unit_is_single_piece() {
        let l = StripeLayout::new(64 * 1024, 3);
        let pieces: Vec<_> = l.split(FileRegion::new(10, 100)).collect();
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].server, ServerId(0));
        assert_eq!(pieces[0].local_offset, 10);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// The division-free stepping of `split` lands every piece where
        /// `server_of`/`local_offset_of` put its first byte, and the pieces
        /// tile the region one unit at a time.
        #[test]
        fn split_matches_the_per_offset_mapping(
            stripe in proptest::prop_oneof![1u64..=8, 1u64..=1 << 20, proptest::Just(64 * 1024)],
            servers in 1u32..=17,
            offset in proptest::prop_oneof![0u64..1 << 20, 0u64..1 << 40],
            len in 0u64..1 << 20,
        ) {
            let l = StripeLayout::new(stripe, servers);
            let region = FileRegion::new(offset, len);
            let mut next = offset;
            for p in l.split(region).take(4096) {
                proptest::prop_assert_eq!(p.file_offset, next);
                proptest::prop_assert_eq!(p.server, l.server_of(p.file_offset));
                proptest::prop_assert_eq!(p.local_offset, l.local_offset_of(p.file_offset));
                let unit_end = (p.file_offset / stripe + 1) * stripe;
                proptest::prop_assert_eq!(p.len, unit_end.min(region.end()) - p.file_offset);
                next += p.len;
            }
            if len / stripe < 4000 {
                proptest::prop_assert_eq!(next, region.end());
            }
        }
    }

    #[test]
    fn local_object_size_sums_to_file_size() {
        let l = StripeLayout::new(64 * 1024, 9);
        for size in [0u64, 1, 64 * 1024, 64 * 1024 + 1, 10_000_000, 1 << 30] {
            let total: u64 = (0..9).map(|s| l.local_object_size(ServerId(s), size)).sum();
            assert_eq!(total, size, "size {size}");
        }
    }

    #[test]
    fn region_predicates() {
        let a = FileRegion::new(0, 100);
        let b = FileRegion::new(50, 100);
        let c = FileRegion::new(100, 10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // half-open ranges: [0,100) vs [100,110)
        assert!(a.contains(&FileRegion::new(10, 20)));
        assert!(!a.contains(&b));
    }
}
