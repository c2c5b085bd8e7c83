//! Property tests for the striping bijection and resolution coverage.

use dualpar_pfs::{FileRegion, Pvfs, ServerId, StripeLayout};
use proptest::prelude::*;

proptest! {
    /// offset → (server, local) → offset is the identity for any layout.
    #[test]
    fn striping_bijection(
        stripe_kb in 1u64..256,
        servers in 1u32..32,
        offset in 0u64..1_000_000_000,
    ) {
        let l = StripeLayout::new(stripe_kb * 1024, servers);
        let s = l.server_of(offset);
        let lo = l.local_offset_of(offset);
        prop_assert_eq!(l.file_offset_of(s, lo), offset);
    }

    /// split() tiles the region exactly: pieces are adjacent, in order, and
    /// each within one stripe unit.
    #[test]
    fn split_tiles_exactly(
        stripe_kb in 1u64..256,
        servers in 1u32..32,
        offset in 0u64..100_000_000,
        len in 1u64..50_000_000,
    ) {
        let l = StripeLayout::new(stripe_kb * 1024, servers);
        let r = FileRegion::new(offset, len);
        let mut expect = offset;
        for p in l.split(r) {
            prop_assert_eq!(p.file_offset, expect);
            prop_assert!(p.len > 0 && p.len <= l.stripe_size);
            prop_assert_eq!(p.server, l.server_of(p.file_offset));
            prop_assert_eq!(p.local_offset, l.local_offset_of(p.file_offset));
            expect += p.len;
        }
        prop_assert_eq!(expect, r.end());
    }

    /// local_object_size never differs across servers by more than one
    /// stripe unit and always sums to the file size.
    #[test]
    fn object_sizes_balanced(
        stripe_kb in 1u64..256,
        servers in 1u32..16,
        size in 0u64..1_000_000_000,
    ) {
        let l = StripeLayout::new(stripe_kb * 1024, servers);
        let sizes: Vec<u64> = (0..servers).map(|s| l.local_object_size(ServerId(s), size)).collect();
        prop_assert_eq!(sizes.iter().sum::<u64>(), size);
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= l.stripe_size);
    }

    /// Full resolution covers the requested bytes exactly once, in order.
    #[test]
    fn resolve_full_coverage(
        servers in 1u32..10,
        offset in 0u64..(8u64 << 20),
        len in 1u64..(4u64 << 20),
    ) {
        let mut p = Pvfs::new(servers, 64 * 1024, 1 << 32);
        let f = p.create("f", 16 << 20);
        let region = FileRegion::new(offset, len);
        let mut runs = Vec::new();
        p.resolve(f, region, &mut runs);
        let mut off = region.offset;
        for r in &runs {
            prop_assert_eq!(r.file_offset, off);
            prop_assert!(r.bytes > 0);
            // each run's sector span is big enough for its bytes
            prop_assert!(r.sectors * 512 >= r.bytes);
            off += r.bytes;
        }
        prop_assert_eq!(off, region.end());
    }

    /// Per-server LBNs are monotone in file offset (the property that makes
    /// file-level sorting effective at the disk).
    #[test]
    fn per_server_lbn_monotone(servers in 1u32..10, step_kb in 1u64..512) {
        let mut p = Pvfs::new(servers, 64 * 1024, 1 << 32);
        let f = p.create("f", 32 << 20);
        let step = step_kb * 1024;
        let mut last: std::collections::BTreeMap<u32, u64> = Default::default();
        let mut off = 0;
        while off + 4096 <= 32 << 20 {
            let mut runs = Vec::new();
            p.resolve(f, FileRegion::new(off, 4096), &mut runs);
            for r in runs {
                if let Some(&prev) = last.get(&r.server.0) {
                    prop_assert!(r.lbn >= prev, "LBN regressed on server {}", r.server.0);
                }
                last.insert(r.server.0, r.lbn);
            }
            off += step;
        }
    }
}
