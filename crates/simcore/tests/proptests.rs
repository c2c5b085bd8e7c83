//! Property tests for the DES engine invariants promised in DESIGN.md §7.

use dualpar_sim::{DetRng, EventQueue, FifoResource, SimDuration, SimTime, Slab};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// Events always pop in nondecreasing time order, and every live event
    /// is delivered exactly once.
    #[test]
    fn event_queue_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped.push(idx);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    /// A FIFO resource is work-conserving and never overlaps service
    /// intervals; total busy time equals the sum of service demands.
    #[test]
    fn fifo_no_overlap(jobs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100)) {
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|&(arr, _)| arr);
        let mut r = FifoResource::new();
        let mut prev_end = SimTime::ZERO;
        let mut total = 0u64;
        for &(arr, svc) in &sorted {
            let (start, end) = r.accept(SimTime(arr), SimDuration(svc));
            prop_assert!(start >= SimTime(arr));
            prop_assert!(start >= prev_end);
            prop_assert_eq!(end, start + SimDuration(svc));
            prev_end = end;
            total += svc;
        }
        prop_assert_eq!(r.total_busy(), SimDuration(total));
    }

    /// Deterministic RNG streams replay identically.
    #[test]
    fn rng_replays(seed in any::<u64>(), label in "[a-z]{1,12}", n in 1usize..200) {
        let mut a = DetRng::for_stream(seed, &label);
        let mut b = DetRng::for_stream(seed, &label);
        for _ in 0..n {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Generational slab: under any interleaving of inserts and removes,
    /// live keys always resolve to their own value, and a removed key is
    /// dead forever — even after its slot is recycled, the stale key is
    /// detected (returns `None`) rather than aliasing the new occupant.
    /// Raw key values are never repeated, so ids derived from them
    /// (sub-request ids in the cluster engine) can't collide either.
    #[test]
    fn slab_stale_keys_never_alias(ops in proptest::collection::vec((any::<bool>(), 0u16..64), 1..300)) {
        let mut slab: Slab<u64> = Slab::new();
        let mut live: Vec<(dualpar_sim::SlabKey, u64)> = Vec::new();
        let mut dead: Vec<dualpar_sim::SlabKey> = Vec::new();
        let mut raws: BTreeMap<u64, ()> = BTreeMap::new();
        let mut next_val = 0u64;
        for &(is_insert, pick) in &ops {
            if is_insert || live.is_empty() {
                let key = slab.insert(next_val);
                prop_assert!(raws.insert(key.raw(), ()).is_none(), "raw key reused");
                live.push((key, next_val));
                next_val += 1;
            } else {
                let (key, val) = live.swap_remove(pick as usize % live.len());
                prop_assert_eq!(slab.remove(key), Some(val));
                dead.push(key);
            }
            // Every live key still maps to its own value...
            for &(key, val) in &live {
                prop_assert_eq!(slab.get(key).copied(), Some(val));
            }
            // ...and every dead key stays dead, recycled slot or not.
            for &key in &dead {
                prop_assert!(slab.get(key).is_none(), "stale key resolved");
                prop_assert!(!slab.contains(key));
            }
            prop_assert_eq!(slab.len(), live.len());
        }
    }
}
