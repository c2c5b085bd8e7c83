//! Behavioural and failure-injection tests for the full system: final
//! flushes, mode reversion, cache pressure, degenerate cluster shapes,
//! and collective edge cases.

use dualpar_bench::{build_cluster, small_cluster, ExperimentSpec, ProgramEntry};
use dualpar_cluster::prelude::*;
use dualpar_workloads::{DependentReader, MpiIoTest, Noncontig};

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
    let mut cluster = small_cluster();
    cluster.dualpar.cache_quota = 64 << 20; // far larger than the footprint
    let r = build_cluster(&ExperimentSpec {
        cluster,
        programs: vec![ProgramEntry {
            workload: w.into(),
            strategy: IoStrategy::DualParForced,
            start_secs: 0.0,
        }],
        ..ExperimentSpec::default()
    })
    .run();
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
        build_cluster(&ExperimentSpec {
            cluster: small_cluster(),
            programs: vec![ProgramEntry {
                workload: w.into(),
                strategy,
                start_secs: 0.0,
            }],
            ..ExperimentSpec::default()
        })
        .run()
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
    let mut cluster = small_cluster();
    cluster.dualpar.cache_quota = 1 << 20;
    let r = build_cluster(&ExperimentSpec {
        cluster,
        programs: vec![ProgramEntry {
            workload: w.into(),
            strategy: IoStrategy::DualParForced,
            start_secs: 0.0,
        }],
        ..ExperimentSpec::default()
    })
    .run();
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
        let r = build_cluster(&ExperimentSpec {
            cluster: ClusterConfig {
                num_data_servers: 1,
                num_compute_nodes: 1,
                ..ClusterConfig::default()
            },
            programs: vec![ProgramEntry {
                workload: w.into(),
                strategy,
                start_secs: 0.0,
            }],
            ..ExperimentSpec::default()
        })
        .run();
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
    let mut c = Cluster::new(small_cluster());
    let file = c.create_file("x", 1 << 20);
    let mk_call = |regions: Vec<FileRegion>| {
        let mut call = IoCall::read(file, regions);
        call.collective = true;
        Op::Io(call)
    };
    let script = ProgramScript {
        name: "lopsided".into(),
        ranks: vec![
            ProcessScript::new(vec![mk_call(vec![FileRegion::new(0, 65536)])]),
            ProcessScript::new(vec![mk_call(vec![])]), // nothing to read
            ProcessScript::new(vec![mk_call(vec![FileRegion::new(131072, 65536)])]),
        ],
    };
    c.add_program(ProgramSpec::new(script, IoStrategy::Collective));
    let r = c.run();
    assert_eq!(r.programs[0].bytes_read, 2 * 65536);
}

/// An entirely empty collective round (all ranks contribute nothing) must
/// not deadlock.
#[test]
fn collective_all_empty_does_not_deadlock() {
    let mut c = Cluster::new(small_cluster());
    let file = c.create_file("x", 1 << 20);
    let mk = |regions: Vec<FileRegion>| {
        let mut call = IoCall::read(file, regions);
        call.collective = true;
        Op::Io(call)
    };
    let script = ProgramScript {
        name: "empty".into(),
        ranks: vec![
            ProcessScript::new(vec![mk(vec![]), mk(vec![FileRegion::new(0, 4096)])]),
            ProcessScript::new(vec![mk(vec![]), mk(vec![FileRegion::new(4096, 4096)])]),
        ],
    };
    c.add_program(ProgramSpec::new(script, IoStrategy::Collective));
    let r = c.run();
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
        let mut c = build_cluster(&ExperimentSpec {
            cluster: ClusterConfig {
                server_write_mode: mode,
                ..small_cluster()
            },
            programs: vec![ProgramEntry {
                workload: w.into(),
                strategy: IoStrategy::Vanilla,
                start_secs: 0.0,
            }],
            ..ExperimentSpec::default()
        });
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
    let w = MpiIoTest {
        nprocs: 8,
        file_size: 24 << 20,
        barrier_every: 8,
        ..Default::default()
    };
    let program = ProgramEntry {
        workload: w.into(),
        strategy: IoStrategy::DualPar,
        start_secs: 0.0,
    };
    let r = build_cluster(&ExperimentSpec {
        cluster: small_cluster(),
        programs: vec![program.clone(), program],
        ..ExperimentSpec::default()
    })
    .run();
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
    let mut c = Cluster::new(small_cluster());
    let f = c.create_file("x", 2 << 20);
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
    let script = ProgramScript {
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
    };
    c.add_program(ProgramSpec::new(script, IoStrategy::Collective));
    let r = c.run();
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
        let mut cluster = small_cluster();
        cluster.sieve.enabled = enabled;
        build_cluster(&ExperimentSpec {
            cluster,
            programs: vec![ProgramEntry {
                workload: w.into(),
                strategy: IoStrategy::Vanilla,
                start_secs: 0.0,
            }],
            ..ExperimentSpec::default()
        })
        .run()
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
    let mut c = Cluster::new(small_cluster());
    let script = ProgramScript {
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
    };
    c.add_program(ProgramSpec::new(script, IoStrategy::DualPar));
    let r = c.run();
    assert_eq!(r.programs[0].bytes_read + r.programs[0].bytes_written, 0);
    assert!(r.programs[0].elapsed() >= SimDuration::from_millis(10));
    assert!(r.mode_events.is_empty());
}
