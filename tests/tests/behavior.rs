//! Behavioural and failure-injection tests for the full system: final
//! flushes, mode reversion, cache pressure, degenerate cluster shapes,
//! and collective edge cases.

use dualpar_cluster::prelude::*;
use dualpar_workloads::{DependentReader, MpiIoTest, Noncontig};

fn small() -> Experiment {
    Experiment::darwin().servers(3).compute_nodes(2)
}

/// Buffered writes that never fill the quota must still reach the disks
/// via the final flush when the program completes.
#[test]
fn final_flush_writes_buffered_data() {
    let w = MpiIoTest {
        nprocs: 4,
        file_size: 4 << 20,
        kind: IoKind::Write,
        ..Default::default()
    };
    let r = small()
        .tune(|cfg| cfg.dualpar.cache_quota = 64 << 20) // far larger than the footprint
        .file("w", w.file_size)
        .program(IoStrategy::DualParForced, move |files| w.build(files[0]))
        .run()
        .expect("valid experiment");
    assert_eq!(r.programs[0].phases, 0, "quota never fills");
    assert_eq!(r.programs[0].bytes_written, 4 << 20);
    // Every buffered byte must have hit a disk (write-through has no other
    // path for DualPar writes).
    assert!(
        r.disk_bytes >= 4 << 20,
        "final flush must write the data to disk (disk moved {} bytes)",
        r.disk_bytes
    );
}

/// Strategy 2 on a fully data-dependent workload: every prediction is
/// wrong, so every read falls back to a direct fetch — it must still
/// complete with the right bytes and not be catastrophically slow.
#[test]
fn s2_survives_total_misprediction() {
    let run = |strategy: IoStrategy| {
        let w = DependentReader {
            nprocs: 4,
            total_bytes: 8 << 20,
            ..Default::default()
        };
        small()
            .file("dep", w.file_size())
            .program(strategy, move |files| w.build(files[0]))
            .run()
            .expect("valid experiment")
    };
    let v = run(IoStrategy::Vanilla);
    let s2 = run(IoStrategy::PrefetchOverlap);
    assert_eq!(s2.programs[0].bytes_read, 8 << 20);
    let slowdown = s2.programs[0].elapsed().as_secs_f64() / v.programs[0].elapsed().as_secs_f64();
    assert!(
        slowdown < 3.0,
        "S2 with useless predictions should degrade gracefully, got {slowdown:.1}x"
    );
}

/// Severe cache pressure: prefetched data can be evicted before the
/// process consumes it. The direct-fetch escape hatch must keep the run
/// correct.
#[test]
fn dualpar_correct_under_cache_pressure() {
    let w = MpiIoTest {
        nprocs: 4,
        file_size: 4 << 20,
        ..Default::default()
    };
    // Room for only two chunks per node: almost everything prefetched is
    // evicted before use; the eviction path still runs at phase boundaries.
    let r = small()
        .tune(|cfg| cfg.dualpar.cache_quota = 1 << 20)
        .file("p", w.file_size)
        .program(IoStrategy::DualParForced, move |files| w.build(files[0]))
        .run()
        .expect("valid experiment");
    assert_eq!(r.programs[0].bytes_read, 4 << 20);
}

/// Degenerate cluster: one server, one compute node.
#[test]
fn single_server_single_node() {
    for strategy in [
        IoStrategy::Vanilla,
        IoStrategy::Collective,
        IoStrategy::PrefetchOverlap,
        IoStrategy::DualParForced,
    ] {
        let w = MpiIoTest {
            nprocs: 2,
            file_size: 1 << 20,
            collective: strategy == IoStrategy::Collective,
            ..Default::default()
        };
        let r = Experiment::darwin()
            .servers(1)
            .compute_nodes(1)
            .file("x", w.file_size)
            .program(strategy, move |files| w.build(files[0]))
            .run()
            .expect("valid experiment");
        assert_eq!(
            r.programs[0].bytes_read,
            1 << 20,
            "under {}",
            strategy.label()
        );
    }
}

/// A collective call where some ranks contribute nothing.
#[test]
fn collective_with_empty_ranks() {
    let r = small()
        .file("x", 1 << 20)
        .program(IoStrategy::Collective, |files| {
            let mk_call = |regions: Vec<FileRegion>| {
                let mut call = IoCall::read(files[0], regions);
                call.collective = true;
                Op::Io(call)
            };
            ProgramScript {
                name: "lopsided".into(),
                ranks: vec![
                    ProcessScript::new(vec![mk_call(vec![FileRegion::new(0, 65536)])]),
                    ProcessScript::new(vec![mk_call(vec![])]), // nothing to read
                    ProcessScript::new(vec![mk_call(vec![FileRegion::new(131072, 65536)])]),
                ],
            }
        })
        .run()
        .expect("valid experiment");
    assert_eq!(r.programs[0].bytes_read, 2 * 65536);
}

/// An entirely empty collective round (all ranks contribute nothing) must
/// not deadlock.
#[test]
fn collective_all_empty_does_not_deadlock() {
    let r = small()
        .file("x", 1 << 20)
        .program(IoStrategy::Collective, |files| {
            let mk = |regions: Vec<FileRegion>| {
                let mut call = IoCall::read(files[0], regions);
                call.collective = true;
                Op::Io(call)
            };
            ProgramScript {
                name: "empty".into(),
                ranks: vec![
                    ProcessScript::new(vec![mk(vec![]), mk(vec![FileRegion::new(0, 4096)])]),
                    ProcessScript::new(vec![mk(vec![]), mk(vec![FileRegion::new(4096, 4096)])]),
                ],
            }
        })
        .run()
        .expect("valid experiment");
    assert_eq!(r.programs[0].bytes_read, 8192);
}

/// Server-side write-back (the paper's literal "force dirty pages being
/// written back every one second"): writes are acknowledged at arrival,
/// so a bursty writer finishes earlier than under write-through, while
/// the flush daemon still pushes every byte to the disks eventually.
#[test]
fn server_writeback_acks_early_and_flushes() {
    let run = |mode: ServerWriteMode| {
        let w = MpiIoTest {
            nprocs: 4,
            file_size: 8 << 20,
            kind: IoKind::Write,
            ..Default::default()
        };
        let mut c = small()
            .server_write_mode(mode)
            .file("wb", w.file_size)
            .program(IoStrategy::Vanilla, move |files| w.build(files[0]))
            .build()
            .expect("valid experiment");
        let r = c.run();
        // Drain any outstanding flush events so disks settle.
        let disk_bytes: u64 = (0..3).map(|s| c.disk(s).bytes_serviced()).sum();
        (r.programs[0].elapsed(), disk_bytes)
    };
    let (through_t, through_bytes) = run(ServerWriteMode::WriteThrough);
    let (back_t, _) = run(ServerWriteMode::WriteBack);
    assert!(
        back_t < through_t,
        "write-back acks early: {back_t} should beat {through_t}"
    );
    assert_eq!(through_bytes, 8 << 20, "write-through moves every byte");
}

/// EMC diagnostics: the improvement signal is recorded for adaptive runs.
#[test]
fn emc_improvement_signal_recorded() {
    let mut exp = small();
    for i in 0..2usize {
        let w = MpiIoTest {
            nprocs: 8,
            file_size: 24 << 20,
            barrier_every: 8,
            ..Default::default()
        };
        exp = exp
            .file(format!("f{i}"), w.file_size)
            .program(IoStrategy::DualPar, move |files| {
                let mut s = w.build(files[i]);
                s.name = format!("i{i}");
                s
            });
    }
    let r = exp.run().expect("valid experiment");
    assert!(
        !r.emc_improvement.is_empty(),
        "adaptive runs must record the EMC improvement signal"
    );
    assert!(r.emc_improvement.iter().all(|&(_, v)| v >= 0.0));
}

/// Collective writes then collective reads in one program: two-phase I/O
/// handles both directions and the bytes balance.
#[test]
fn collective_mixed_read_write() {
    let r = small()
        .file("x", 2 << 20)
        .program(IoStrategy::Collective, |files| {
            let f = files[0];
            let mk = |kind: IoKind, regions: Vec<FileRegion>| {
                Op::Io(IoCall {
                    kind,
                    file: f,
                    regions: regions.into_iter().filter(|r| r.len > 0).collect(),
                    collective: true,
                })
            };
            let nprocs = 4usize;
            let slab = (2 << 20) / nprocs as u64;
            ProgramScript {
                name: "rw".into(),
                ranks: (0..nprocs as u64)
                    .map(|r| {
                        ProcessScript::new(vec![
                            mk(IoKind::Write, vec![FileRegion::new(r * slab, slab)]),
                            Op::Barrier(0),
                            mk(IoKind::Read, vec![FileRegion::new(r * slab, slab)]),
                        ])
                    })
                    .collect(),
            }
        })
        .run()
        .expect("valid experiment");
    assert_eq!(r.programs[0].bytes_written, 2 << 20);
    assert_eq!(r.programs[0].bytes_read, 2 << 20);
}

/// Data sieving enabled on the vanilla path: correctness is unchanged
/// (same useful bytes delivered) even though covers include holes.
#[test]
fn sieving_preserves_correctness() {
    let run = |enabled: bool| {
        let w = Noncontig {
            nprocs: 4,
            elmt_count: 256, // 1 KB cells every 4 KB
            bytes_per_call: 64 * 1024,
            rows: 512,
            ..Default::default()
        };
        small()
            .tune(|cfg| cfg.sieve.enabled = enabled)
            .file("sv", w.file_size())
            .program(IoStrategy::Vanilla, move |files| w.build(files[0]))
            .run()
            .expect("valid experiment")
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.programs[0].bytes_read, on.programs[0].bytes_read);
    // Sieving moves extra (hole) bytes at the disks.
    assert!(on.disk_bytes >= off.disk_bytes);
}

/// Compute-only programs (no I/O at all) run to completion under the
/// adaptive strategy without ever bothering EMC.
#[test]
fn compute_only_program() {
    let r = small()
        .program(IoStrategy::DualPar, |_| ProgramScript {
            name: "compute".into(),
            ranks: (0..4)
                .map(|_| {
                    ProcessScript::new(vec![
                        Op::Compute(SimDuration::from_millis(5)),
                        Op::Barrier(0),
                        Op::Compute(SimDuration::from_millis(5)),
                    ])
                })
                .collect(),
        })
        .run()
        .expect("valid experiment");
    assert_eq!(r.programs[0].bytes_read + r.programs[0].bytes_written, 0);
    assert!(r.programs[0].elapsed() >= SimDuration::from_millis(10));
    assert!(r.mode_events.is_empty());
}
