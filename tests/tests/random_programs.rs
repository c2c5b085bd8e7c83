//! Whole-system property tests: randomly generated programs must run to
//! completion under every strategy, move exactly the bytes their scripts
//! describe, and behave bit-identically across repeated runs.

use dualpar_cluster::prelude::*;
use proptest::prelude::*;

const FILE_SIZE: u64 = 8 << 20;

/// A compact op description the generator shrinks well on.
#[derive(Debug, Clone)]
enum GenOp {
    Compute(u32),   // microseconds
    Read(u32, u16), // (offset bucket, length in 512B units)
    Write(u32, u16),
    Barrier,
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (1u32..2_000).prop_map(GenOp::Compute),
        (0u32..1000, 1u16..64).prop_map(|(o, l)| GenOp::Read(o, l)),
        (0u32..1000, 1u16..64).prop_map(|(o, l)| GenOp::Write(o, l)),
        Just(GenOp::Barrier),
    ]
}

fn gen_program() -> impl Strategy<Value = (usize, Vec<Vec<GenOp>>)> {
    (2usize..6).prop_flat_map(|nprocs| {
        // Per-rank bodies; barriers must appear in the same count per rank,
        // so generate a shared barrier skeleton plus per-rank filler.
        let body = proptest::collection::vec(gen_op(), 0..12);
        (
            Just(nprocs),
            proptest::collection::vec(body, nprocs..=nprocs),
        )
    })
}

/// Build consistent rank scripts: barriers are renumbered in order and
/// padded so every rank sees the same barrier sequence.
fn build_script(_nprocs: usize, bodies: &[Vec<GenOp>], rank_region: u64) -> ProgramScript {
    let max_barriers = bodies
        .iter()
        .map(|b| b.iter().filter(|o| matches!(o, GenOp::Barrier)).count())
        .max()
        .unwrap_or(0);
    let ranks = bodies
        .iter()
        .enumerate()
        .map(|(rank, body)| {
            let mut ops = Vec::new();
            let mut barrier = 0u64;
            // Each rank owns a disjoint slab of the file so writes never
            // race reads of other ranks.
            let base = rank as u64 * rank_region;
            for op in body {
                match *op {
                    GenOp::Compute(us) => {
                        ops.push(Op::Compute(SimDuration::from_micros(us as u64)))
                    }
                    GenOp::Read(o, l) => {
                        let len = (l as u64) * 512;
                        let off = base + (o as u64 * 512) % (rank_region - len);
                        ops.push(Op::Io(IoCall::read(
                            dualpar_pfs::FileId(1),
                            vec![FileRegion::new(off, len)],
                        )));
                    }
                    GenOp::Write(o, l) => {
                        let len = (l as u64) * 512;
                        let off = base + (o as u64 * 512) % (rank_region - len);
                        ops.push(Op::Io(IoCall::write(
                            dualpar_pfs::FileId(1),
                            vec![FileRegion::new(off, len)],
                        )));
                    }
                    GenOp::Barrier => {
                        ops.push(Op::Barrier(barrier));
                        barrier += 1;
                    }
                }
            }
            // Pad so all ranks hit the same number of barriers.
            while barrier < max_barriers as u64 {
                ops.push(Op::Barrier(barrier));
                barrier += 1;
            }
            ProcessScript::new(ops)
        })
        .collect();
    ProgramScript {
        name: "random".into(),
        ranks,
    }
}

fn run(script: &ProgramScript, strategy: IoStrategy) -> RunReport {
    let script = script.clone();
    Experiment::darwin()
        .servers(3)
        .compute_nodes(2)
        .file("f", FILE_SIZE)
        .program(strategy, move |files| {
            // Scripts are generated against FileId(1), the first created file.
            assert_eq!(files[0], FileId(1));
            script
        })
        .run()
        .expect("valid experiment")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every strategy completes any well-formed program and accounts for
    /// exactly the scripted bytes.
    #[test]
    fn all_strategies_conserve_bytes((nprocs, bodies) in gen_program()) {
        let rank_region = FILE_SIZE / nprocs as u64;
        let script = build_script(nprocs, &bodies, rank_region);
        let mut expect_read = 0u64;
        let mut expect_write = 0u64;
        for r in &script.ranks {
            for op in &r.ops {
                if let Op::Io(c) = op {
                    match c.kind {
                        IoKind::Read => expect_read += c.bytes(),
                        IoKind::Write => expect_write += c.bytes(),
                    }
                }
            }
        }
        for strategy in [
            IoStrategy::Vanilla,
            IoStrategy::PrefetchOverlap,
            IoStrategy::DualParForced,
            IoStrategy::DualPar,
        ] {
            let r = run(&script, strategy);
            let p = &r.programs[0];
            prop_assert_eq!(
                p.bytes_read, expect_read,
                "read bytes mismatch under {}", strategy.label()
            );
            prop_assert_eq!(
                p.bytes_written, expect_write,
                "write bytes mismatch under {}", strategy.label()
            );
            prop_assert!(p.finish >= p.start);
        }
    }

    /// Simulations are deterministic: identical runs give identical
    /// reports, for every strategy.
    #[test]
    fn runs_are_deterministic((nprocs, bodies) in gen_program()) {
        let rank_region = FILE_SIZE / nprocs as u64;
        let script = build_script(nprocs, &bodies, rank_region);
        for strategy in [
            IoStrategy::Vanilla,
            IoStrategy::PrefetchOverlap,
            IoStrategy::DualParForced,
        ] {
            let a = run(&script, strategy);
            let b = run(&script, strategy);
            prop_assert_eq!(a.sim_end, b.sim_end, "{}", strategy.label());
            prop_assert_eq!(a.events_processed, b.events_processed);
            prop_assert_eq!(a.programs[0].io_time, b.programs[0].io_time);
        }
    }
}
