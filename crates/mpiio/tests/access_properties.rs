//! Property tests for the request algebra: coverage conservation through
//! sort/merge/coalesce, and collective plans covering exactly what ranks
//! asked for.

use dualpar_mpiio::{
    build_batch, plan_collective, plan_strided, sort_and_merge, Regions, SieveConfig,
};
use dualpar_pfs::{FileId, FileRegion, RangeSet};
use proptest::prelude::*;

fn regions() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..1_000_000, 1u64..50_000), 1..60)
}

fn to_rangeset(items: &[(u64, u64)]) -> RangeSet {
    let mut s = RangeSet::new();
    for &(o, l) in items {
        s.insert(o, l);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// sort_and_merge output covers exactly the union of inputs, sorted and
    /// disjoint.
    #[test]
    fn sort_merge_is_union(items in regions()) {
        let input: Vec<(FileId, FileRegion)> =
            items.iter().map(|&(o, l)| (FileId(1), FileRegion::new(o, l))).collect();
        let out = sort_and_merge(input);
        let expect = to_rangeset(&items);
        let mut got = RangeSet::new();
        let mut last_end = 0u64;
        for (f, r) in &out {
            prop_assert_eq!(*f, FileId(1));
            prop_assert!(r.offset >= last_end || last_end == 0 && r.offset == 0,
                "output not sorted/disjoint");
            prop_assert!(r.len > 0);
            last_end = r.end();
            got.insert(r.offset, r.len);
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(out.len(), to_rangeset(&items).num_runs());
    }

    /// build_batch: every requested byte appears in exactly one cover's
    /// useful list; covers are disjoint; hole bytes only appear with a
    /// nonzero hole threshold.
    #[test]
    fn batch_conserves_bytes(items in regions(), max_hole in 0u64..100_000) {
        let input: Vec<(FileId, FileRegion)> =
            items.iter().map(|&(o, l)| (FileId(3), FileRegion::new(o, l))).collect();
        let batch = build_batch(input, max_hole);
        let expect = to_rangeset(&items);
        let mut useful_all = RangeSet::new();
        let mut last_cover_end = None::<u64>;
        for io in &batch {
            if let Some(e) = last_cover_end {
                prop_assert!(io.cover.offset > e, "covers must be disjoint & sorted");
            }
            last_cover_end = Some(io.cover.end());
            let mut last = io.cover.offset;
            for u in &io.useful {
                prop_assert!(u.offset >= last);
                prop_assert!(u.end() <= io.cover.end());
                last = u.end();
                useful_all.insert(u.offset, u.len);
            }
            // Gaps inside a cover never exceed the hole threshold.
            let useful = io.useful.as_slice();
            let mut prev_end = useful[0].end();
            for u in &useful[1..] {
                prop_assert!(u.offset - prev_end <= max_hole);
                prev_end = u.end();
            }
        }
        prop_assert_eq!(useful_all, expect);
    }

    /// Data sieving plans cover all requested bytes and respect the buffer
    /// bound.
    #[test]
    fn sieve_covers_everything(items in regions(), enabled in any::<bool>()) {
        let merged = sort_and_merge(
            items.iter().map(|&(o, l)| (FileId(1), FileRegion::new(o, l))).collect());
        let rs: Vec<FileRegion> = merged.into_iter().map(|(_, r)| r).collect();
        let plan = plan_strided(FileId(1), &rs, &SieveConfig { enabled });
        let mut got = RangeSet::new();
        for io in &plan {
            prop_assert!(io.cover.len <= SieveConfig::BUFFER_BYTES.max(io.useful_bytes()));
            for u in &io.useful {
                got.insert(u.offset, u.len);
            }
        }
        prop_assert_eq!(got, to_rangeset(&items));
    }

    /// Collective plans: aggregator useful bytes equal the union of rank
    /// requests; exchange bytes never exceed total requested bytes.
    #[test]
    fn collective_plan_covers_union(
        rank_items in proptest::collection::vec(regions(), 1..8),
        naggs in 1usize..8,
    ) {
        let per_rank: Vec<Regions> = rank_items
            .iter()
            .map(|items| items.iter().map(|&(o, l)| FileRegion::new(o, l)).collect())
            .collect();
        let plan = plan_collective(FileId(1), &per_rank, naggs).unwrap();
        let mut expect = RangeSet::new();
        let mut total_requested = 0u64;
        for items in &rank_items {
            for &(o, l) in items {
                expect.insert(o, l);
                total_requested += l;
            }
        }
        let mut got = RangeSet::new();
        for agg in &plan.aggregators {
            for io in &agg.ios {
                for u in &io.useful {
                    got.insert(u.offset, u.len);
                }
            }
        }
        prop_assert_eq!(got, expect);
        prop_assert!(plan.exchange_bytes <= total_requested);
        prop_assert_eq!(plan.useful_bytes, total_requested);
    }
}
