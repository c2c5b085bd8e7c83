//! Property tests for the ghost pre-execution walk.

use dualpar_core::{ghost_walk, GhostStop};
use dualpar_mpiio::{IoCall, IoKind, Op, ProcessScript};
use dualpar_pfs::{FileId, FileRegion};
use dualpar_sim::SimDuration;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum G {
    Compute(u32),
    Read(u64, u64),
    Write(u64, u64),
    Barrier,
}

fn gen_ops() -> impl Strategy<Value = Vec<G>> {
    proptest::collection::vec(
        prop_oneof![
            (0u32..10_000).prop_map(G::Compute),
            (0u64..1_000_000, 1u64..100_000).prop_map(|(o, l)| G::Read(o, l)),
            (0u64..1_000_000, 1u64..100_000).prop_map(|(o, l)| G::Write(o, l)),
            Just(G::Barrier),
        ],
        0..60,
    )
}

fn script(ops: &[G]) -> ProcessScript {
    let mut barrier = 0;
    ProcessScript::new(
        ops.iter()
            .map(|g| match *g {
                G::Compute(us) => Op::Compute(SimDuration::from_micros(us as u64)),
                G::Read(o, l) => Op::Io(IoCall::read(FileId(1), vec![FileRegion::new(o, l)])),
                G::Write(o, l) => Op::Io(IoCall::write(FileId(1), vec![FileRegion::new(o, l)])),
                G::Barrier => {
                    barrier += 1;
                    Op::Barrier(barrier)
                }
            })
            .collect(),
    )
}

proptest! {
    /// The walk never overshoots the quota by more than one call, records
    /// only read regions that exist in the walked range, and reports a
    /// consistent end position.
    #[test]
    fn walk_respects_quota(ops in gen_ops(), quota in 1u64..300_000, start in 0usize..10) {
        let s = script(&ops);
        let start = start.min(s.ops.len());
        let run = ghost_walk(&s, start, quota);
        prop_assert!(run.end_pos >= start);
        prop_assert!(run.end_pos <= s.ops.len());
        // Space accounting: at most quota, except when a single oversized
        // call had to be admitted to guarantee progress.
        let mut max_single = 0u64;
        for op in &s.ops[start..run.end_pos] {
            if let Op::Io(c) = op {
                max_single = max_single.max(c.bytes());
            }
        }
        prop_assert!(
            run.space <= quota.max(max_single),
            "space {} quota {} max_single {}", run.space, quota, max_single
        );
        // Every prefetched region corresponds to a read in the walked span.
        let reads: Vec<FileRegion> = s.ops[start..run.end_pos]
            .iter()
            .filter_map(|op| match op {
                Op::Io(c) if c.kind == IoKind::Read => Some(c.regions.iter()),
                _ => None,
            })
            .flatten()
            .collect();
        for (f, r) in &run.prefetch {
            prop_assert_eq!(*f, FileId(1));
            prop_assert!(reads.contains(r), "prefetch {r:?} not a walked read");
        }
        // Stop reason consistency.
        match run.stop {
            GhostStop::ScriptEnd => prop_assert_eq!(run.end_pos, s.ops.len()),
            GhostStop::QuotaFull => prop_assert!(run.end_pos < s.ops.len() || run.space >= quota),
        }
    }

    /// Compute time equals the sum of compute ops in the walked range.
    #[test]
    fn walk_compute_exact(ops in gen_ops(), quota in 1u64..300_000) {
        let s = script(&ops);
        let run = ghost_walk(&s, 0, quota);
        let expect: SimDuration = s.ops[..run.end_pos]
            .iter()
            .filter_map(|op| match op {
                Op::Compute(d) => Some(*d),
                _ => None,
            })
            .sum();
        prop_assert_eq!(run.compute, expect);
    }

    /// Chained walks partition the script: resuming from `end_pos`
    /// eventually reaches the end, never revisiting an op.
    #[test]
    fn chained_walks_terminate(ops in gen_ops(), quota in 1u64..300_000) {
        let s = script(&ops);
        let mut pos = 0;
        let mut rounds = 0;
        while pos < s.ops.len() {
            let run = ghost_walk(&s, pos, quota);
            prop_assert!(run.end_pos > pos || run.end_pos == s.ops.len(),
                "walk must make progress");
            if run.end_pos == pos {
                break;
            }
            pos = run.end_pos;
            rounds += 1;
            prop_assert!(rounds <= s.ops.len() + 1, "too many rounds");
        }
    }
}
