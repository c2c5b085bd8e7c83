//! Property tests: every scheduler conserves requests — nothing lost,
//! nothing duplicated, byte coverage preserved through merging at enqueue
//! and at dispatch — and the disk drains any queue to completion (no
//! starvation / livelock).

use dualpar_disk::{
    bytes_to_sectors, DiskParams, DiskRequest, IoKind, Scheduler, SchedulerKind, MAX_MERGE_SECTORS,
};
use dualpar_sim::SimDuration;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Arbitrary request workload: (lbn, sectors, is_read), spread out, but
/// collisions and contiguity still occur.
fn workload() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    proptest::collection::vec(
        (0u64..10_000, 1u64..64, any::<bool>()).prop_map(|(blk, s, r)| (blk * 64, s, r)),
        1..120,
    )
}

/// Dense request workload in a 256-sector band: equal LBNs, overlaps and
/// contiguous runs of both kinds are common, so dispatch-time merges fire.
fn dense_workload() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    proptest::collection::vec((0u64..256, 1u64..16, any::<bool>()), 1..120)
}

fn drain_all(sched: &mut dyn Scheduler, start_head: u64) -> Vec<DiskRequest> {
    let mut out = Vec::new();
    let mut head = start_head;
    while let Some(mut r) = sched.decide(head) {
        // Chain dispatch-time merges as `Disk::try_start` does.
        while r.sectors < MAX_MERGE_SECTORS {
            let Some(next) = sched.absorb_contiguous(r.end(), r.kind) else {
                break;
            };
            r.back_merge(next);
        }
        while r.sectors < MAX_MERGE_SECTORS {
            let Some(mut prev) = sched.absorb_ending_at(r.lbn, r.kind) else {
                break;
            };
            prev.back_merge(r);
            r = prev;
        }
        head = r.end();
        out.push(r);
    }
    out
}

fn run_conservation(kind: SchedulerKind, reqs: Vec<(u64, u64, bool)>, start_head: u64) {
    let mut sched = kind.build();
    let mut expected_ids = BTreeSet::new();
    let mut expected_sectors = 0u64;
    for (i, &(lbn, sectors, is_read)) in reqs.iter().enumerate() {
        let id = i as u64;
        expected_ids.insert(id);
        expected_sectors += sectors;
        let kind = if is_read { IoKind::Read } else { IoKind::Write };
        sched.enqueue(DiskRequest::new(id, kind, lbn, sectors));
    }
    let serviced = drain_all(sched.as_mut(), start_head);
    let mut seen_ids = BTreeSet::new();
    let mut seen_sectors = 0u64;
    for r in &serviced {
        seen_sectors += r.sectors;
        for &id in &r.merged {
            assert!(seen_ids.insert(id), "request id {id} serviced twice");
        }
    }
    assert_eq!(
        seen_ids, expected_ids,
        "scheduler lost or invented requests"
    );
    assert_eq!(
        seen_sectors, expected_sectors,
        "merging changed total sector count"
    );
    assert!(sched.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cfq_conserves(reqs in workload(), dense in dense_workload()) {
        run_conservation(SchedulerKind::Cfq, reqs, 0);
        run_conservation(SchedulerKind::Cfq, dense, 0);
    }

    #[test]
    fn noop_conserves(reqs in workload(), dense in dense_workload()) {
        run_conservation(SchedulerKind::Noop, reqs, 0);
        run_conservation(SchedulerKind::Noop, dense, 0);
    }

    #[test]
    fn sstf_conserves(reqs in workload(), dense in dense_workload()) {
        run_conservation(SchedulerKind::Sstf, reqs, 0);
        run_conservation(SchedulerKind::Sstf, dense, 0);
    }

    /// CFQ's circular elevator (the former SCAN scheduler) started with the
    /// head mid-disk: the sweep serves everything above the head, wraps to
    /// the lowest LBN, and still loses and duplicates nothing.
    #[test]
    fn scan_conserves(
        reqs in workload(),
        dense in dense_workload(),
        head in 0u64..640_000,
        dense_head in 0u64..256,
    ) {
        run_conservation(SchedulerKind::Cfq, reqs, head);
        run_conservation(SchedulerKind::Cfq, dense, dense_head);
    }

    /// Service time is monotone in request size and seek distance.
    #[test]
    fn service_time_monotone(lbn in 0u64..500_000_000, sectors in 1u64..2048) {
        let p = DiskParams::hdd_7200rpm();
        let (d1, t1) = p.service_time(0, lbn, sectors);
        let (d2, t2) = p.service_time(0, lbn, sectors + 8);
        prop_assert_eq!(d1, d2);
        prop_assert!(t2 >= t1, "bigger request can't be faster");
        let (_, t3) = p.service_time(0, lbn / 2, sectors);
        if lbn > 0 {
            prop_assert!(t3 <= t1, "shorter seek can't be slower");
        }
    }

    /// Sorted service order is never slower than a random order for the
    /// same request set on a FIFO (noop) disk.
    #[test]
    fn sorted_order_never_slower(mut blocks in proptest::collection::vec(0u64..100_000, 2..60)) {
        let p = DiskParams::hdd_7200rpm();
        let total = |order: &[u64]| {
            let mut head = 0u64;
            let mut t = SimDuration::ZERO;
            for &b in order {
                let lbn = b * 1024;
                let (_, s) = p.service_time(head, lbn, bytes_to_sectors(4096));
                t += s;
                head = lbn + bytes_to_sectors(4096);
            }
            t
        };
        let random_t = total(&blocks);
        blocks.sort_unstable();
        let sorted_t = total(&blocks);
        prop_assert!(sorted_t <= random_t);
    }
}
