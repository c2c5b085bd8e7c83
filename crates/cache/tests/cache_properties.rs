//! Property tests for the global cache: read-your-prefetch, quota
//! consistency, dirty-data conservation through drain, and strided writes
//! equal to their blocks written one at a time.

use dualpar_cache::{CacheConfig, GlobalCache, NodeId, OwnerId};
use dualpar_pfs::{FileId, FileRegion, Strided};
use dualpar_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn cache() -> GlobalCache {
    GlobalCache::new(CacheConfig {
        chunk_size: 4096,
        num_nodes: 4,
        idle_ttl: SimDuration::from_secs(10),
        node_capacity: u64::MAX,
    })
}

/// Bytes per home node of a write's `(home, bytes)` pairs: what the engine
/// charges network transfers on.
fn per_node(homes: impl Iterator<Item = (NodeId, u64)>) -> BTreeMap<NodeId, u64> {
    let mut m = BTreeMap::new();
    for (home, bytes) in homes {
        *m.entry(home).or_insert(0) += bytes;
    }
    m
}

/// Everything observable about a cache, for comparing two of them.
fn observe(c: &GlobalCache, owners: u64) -> String {
    let usage: Vec<u64> = (0..owners).map(|o| c.usage(OwnerId(o))).collect();
    let nodes: Vec<u64> = (0..c.config().num_nodes)
        .map(|n| c.node_bytes(NodeId(n)))
        .collect();
    format!(
        "stats {:?} ledger {:?} usage {usage:?} nodes {nodes:?} dirty {} total {}",
        c.stats(),
        c.prefetch_ledger(),
        c.dirty_bytes(),
        c.total_bytes()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `put_write_strided` is the per-region `put_write` loop over the run's
    /// blocks: same bytes, charges, ledger, stats, evictions and per-node
    /// home bytes, on a bounded cache as well as an unbounded one. The
    /// unbounded path appends exactly one home per chunk the run touches,
    /// holding the run's bytes in that chunk. Runs
    /// include blocks that cross chunk boundaries, dense runs
    /// (`block == stride`), strides wider than a chunk, and empty runs
    /// (`count == 0`, `block == 0`). A prelude of prefetches and writes
    /// leaves clean, dirty and prefetched-unused chunks for the runs to hit.
    /// Then come BTIO-shaped interleaves: `ranks` runs of `cell`-byte blocks
    /// at a shared stride, one per rank, in rank order or shuffled, over
    /// used or fresh chunks, sometimes aligned so that chunk edges fall
    /// between cells (the chunks' byte sets then stay periodic).
    #[test]
    fn strided_write_equals_per_region_loop(
        prelude in proptest::collection::vec(
            (0u64..3, 0u64..60_000, 1u64..6_000, any::<bool>()), 0..16),
        runs in proptest::collection::vec(
            ((0u64..3, 0u64..60_000), (0u64..3_000, 0u64..6_000, 0u64..40), any::<bool>()),
            1..12),
        bounded in any::<bool>(),
        dense in any::<bool>(),
        ((ranks, cell, gap, count), (aligned, shuffled, base)) in (
            (1u64..9, 1u64..700, 0u64..64, 1u64..24),
            (any::<bool>(), any::<bool>(), prop_oneof![0u64..60_000, 500_000u64..560_000]),
        ),
        keys in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let cfg = CacheConfig {
            chunk_size: 4096,
            num_nodes: 3,
            idle_ttl: SimDuration::from_secs(10),
            node_capacity: if bounded { 5 * 4096 } else { u64::MAX },
        };
        let mut strided = GlobalCache::new(cfg.clone());
        let mut looped = GlobalCache::new(cfg);
        let f = FileId(1);
        let mut t = 0u64;
        for &(owner, off, len, is_write) in &prelude {
            t += 1;
            let now = SimTime::from_millis(t);
            let region = FileRegion::new(off, len);
            for c in [&mut strided, &mut looped] {
                if is_write {
                    c.put_write(OwnerId(owner), f, region, now);
                } else {
                    c.put_prefetch(OwnerId(owner), f, region, now);
                }
            }
        }
        let random = runs.iter().map(|&((owner, base), (block, gap, count), drain)| {
            let stride = if dense { block } else { block + gap };
            (owner, Strided::new(base, block, stride, count), drain)
        });
        let (ranks, cell, gap, base) = if aligned {
            // The stride divides the chunk size and the runs start on a
            // chunk boundary.
            (1 << (ranks % 4), 1 << (cell % 8), 0, base / 4096 * 4096)
        } else {
            (ranks, cell, gap, base)
        };
        let mut order: Vec<u64> = (0..ranks).collect();
        if shuffled {
            order.sort_by_key(|&k| keys[k as usize]);
        }
        let interleave = order
            .iter()
            .map(|&k| (k % 3, Strided::new(base + k * cell, cell, ranks * cell + gap, count), false));
        for (owner, run, drain) in random.chain(interleave) {
            t += 1;
            let now = SimTime::from_millis(t);
            // The homes are appended: an entry already there stays first.
            let mut homes = vec![(NodeId(99), 7)];
            strided.put_write_strided(OwnerId(owner), f, run, now, &mut homes);
            prop_assert_eq!(homes[0], (NodeId(99), 7), "appended to {:?}", run);
            let got = per_node(homes[1..].iter().copied());
            let mut want = BTreeMap::new();
            let mut chunk_bytes = BTreeMap::new();
            for block in run.iter() {
                for (home, bytes) in looped.put_write(OwnerId(owner), f, block, now) {
                    *want.entry(home).or_insert(0) += bytes;
                }
                let mut at = block.offset;
                while at < block.end() {
                    let end = block.end().min((at / 4096 + 1) * 4096);
                    *chunk_bytes.entry(at / 4096).or_insert(0u64) += end - at;
                    at = end;
                }
            }
            prop_assert_eq!(got, want, "homes of {:?}", run);
            if !bounded {
                // One entry per touched chunk, in ascending chunk order.
                let pieces: Vec<(NodeId, u64)> = chunk_bytes
                    .iter()
                    .map(|(&idx, &bytes)| (NodeId((idx % 3) as u32), bytes))
                    .collect();
                prop_assert_eq!(&homes[1..], &pieces[..], "pieces of {:?}", run);
            }
            prop_assert_eq!(observe(&strided, 3), observe(&looped, 3), "after {:?}", run);
            if drain {
                prop_assert_eq!(strided.drain_dirty(), looped.drain_dirty());
            }
        }
        prop_assert_eq!(strided.drain_dirty(), looped.drain_dirty());
        strided.assert_conservation();
    }

    /// Anything prefetched is readable in full (read-your-prefetch).
    #[test]
    fn read_your_prefetch(regions in proptest::collection::vec((0u64..100_000, 1u64..10_000), 1..40)) {
        let mut c = cache();
        for &(off, len) in &regions {
            c.put_prefetch(OwnerId(1), FileId(1), FileRegion::new(off, len), SimTime::ZERO);
        }
        for &(off, len) in &regions {
            let r = c.read(FileId(1), FileRegion::new(off, len), SimTime::ZERO);
            prop_assert!(r.hit, "prefetched region {off}+{len} must hit");
        }
    }

    /// Total usage across owners equals total present bytes, regardless of
    /// the interleaving of prefetches and writes.
    #[test]
    fn usage_matches_present(
        ops in proptest::collection::vec(
            (0u64..4, 0u64..50_000, 1u64..5_000, any::<bool>()), 1..60)
    ) {
        let mut c = cache();
        for &(owner, off, len, is_write) in &ops {
            let region = FileRegion::new(off, len);
            if is_write {
                c.put_write(OwnerId(owner), FileId(1), region, SimTime::ZERO);
            } else {
                c.put_prefetch(OwnerId(owner), FileId(1), region, SimTime::ZERO);
            }
        }
        let total_usage: u64 = (0..4).map(|o| c.usage(OwnerId(o))).sum();
        prop_assert_eq!(total_usage, c.total_bytes());
    }

    /// Dirty bytes drained equal dirty bytes written (no loss, no
    /// duplication), and the drained regions are sorted and disjoint.
    #[test]
    fn drain_conserves_dirty(
        writes in proptest::collection::vec((0u64..100_000, 1u64..8_000), 1..40)
    ) {
        let mut c = cache();
        let mut expect = dualpar_pfs::RangeSet::new();
        for &(off, len) in &writes {
            c.put_write(OwnerId(1), FileId(1), FileRegion::new(off, len), SimTime::ZERO);
            expect.insert(off, len);
        }
        prop_assert_eq!(c.dirty_bytes(), expect.covered());
        let drained = c.drain_dirty();
        let mut got = dualpar_pfs::RangeSet::new();
        let mut last_end = 0u64;
        for (file, r) in &drained {
            prop_assert_eq!(*file, FileId(1));
            prop_assert!(r.offset >= last_end, "drained regions must be sorted/disjoint");
            last_end = r.end();
            got.insert(r.offset, r.len);
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(c.dirty_bytes(), 0);
    }

    /// Eviction never removes dirty data and usage never goes negative.
    #[test]
    fn eviction_safe(
        ops in proptest::collection::vec((0u64..50_000, 1u64..4_000, any::<bool>()), 1..40),
        evict_at in 0u64..100,
    ) {
        let mut c = cache();
        for (i, &(off, len, is_write)) in ops.iter().enumerate() {
            let t = SimTime::from_secs(i as u64 / 10);
            if is_write {
                c.put_write(OwnerId(1), FileId(1), FileRegion::new(off, len), t);
            } else {
                c.put_prefetch(OwnerId(1), FileId(1), FileRegion::new(off, len), t);
            }
        }
        let dirty_before = c.dirty_bytes();
        c.evict_idle(SimTime::from_secs(evict_at));
        prop_assert_eq!(c.dirty_bytes(), dirty_before, "eviction must not lose dirty data");
        prop_assert!(c.total_bytes() >= c.dirty_bytes());
    }

    /// Mis-prefetch ratio is always within [0, 1].
    #[test]
    fn misprefetch_ratio_bounded(
        prefetches in proptest::collection::vec((0u64..50_000, 1u64..4_000), 1..20),
        reads in proptest::collection::vec((0u64..50_000, 1u64..4_000), 0..20),
    ) {
        let mut c = cache();
        for &(off, len) in &prefetches {
            c.put_prefetch(OwnerId(1), FileId(1), FileRegion::new(off, len), SimTime::ZERO);
        }
        for &(off, len) in &reads {
            c.read(FileId(1), FileRegion::new(off, len), SimTime::ZERO);
        }
        if let Some(ratio) = c.end_prefetch_epoch(OwnerId(1)) {
            prop_assert!((0.0..=1.0).contains(&ratio), "ratio {ratio}");
        }
    }
}
