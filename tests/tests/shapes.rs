//! Qualitative-shape tests: the paper's headline comparisons must hold in
//! the simulator (who wins, in which regime), independent of absolute
//! numbers.

use dualpar_cluster::prelude::*;
use dualpar_core::ExecMode;
use dualpar_workloads::{compute_for_io_ratio, Demo, DependentReader, MpiIoTest, Noncontig};

fn small() -> Experiment {
    Experiment::darwin().servers(3).compute_nodes(2)
}

fn run_noncontig(strategy: IoStrategy) -> RunReport {
    let w = Noncontig {
        nprocs: 8,
        elmt_count: 128, // 512 B cells
        bytes_per_call: 1 << 20,
        rows: 8192, // 32 MB total
        collective: strategy == IoStrategy::Collective,
        ..Default::default()
    };
    small()
        .file("nc", w.file_size())
        .program(strategy, move |files| w.build(files[0]))
        .run()
        .expect("valid experiment")
}

/// Fig. 3 shape (noncontig): DualPar > collective > vanilla on
/// noncontiguous reads.
#[test]
fn noncontig_read_ordering() {
    let v = run_noncontig(IoStrategy::Vanilla).programs[0].throughput_mbps();
    let co = run_noncontig(IoStrategy::Collective).programs[0].throughput_mbps();
    let dp = run_noncontig(IoStrategy::DualParForced).programs[0].throughput_mbps();
    assert!(
        co > 1.5 * v,
        "collective ({co:.1} MB/s) must clearly beat vanilla ({v:.1} MB/s)"
    );
    assert!(
        dp > co,
        "DualPar ({dp:.1} MB/s) must beat collective ({co:.1} MB/s)"
    );
}

fn run_demo(strategy: IoStrategy, io_ratio: f64, seg: u64) -> RunReport {
    // Calibrate the per-call compute against the *vanilla* per-call I/O
    // time at this segment size (the paper's I/O ratio is defined against
    // the vanilla system).
    let pilot = {
        let w = Demo {
            nprocs: 8,
            file_size: 16 << 20,
            segment_size: seg,
            ..Default::default()
        };
        let calls = (w.file_size / (w.segs_per_call * 8 * seg)).max(1);
        let file_size = w.file_size;
        let r = small()
            .file("demo", file_size)
            .program(IoStrategy::Vanilla, move |files| w.build(files[0]))
            .run()
            .expect("valid experiment");
        SimDuration::from_secs_f64(r.programs[0].elapsed().as_secs_f64() / calls as f64)
    };
    let w = Demo {
        nprocs: 8,
        file_size: 64 << 20,
        segment_size: seg,
        compute_per_call: compute_for_io_ratio(pilot, io_ratio),
        ..Default::default()
    };
    small()
        .file("demo", w.file_size)
        .program(strategy, move |files| w.build(files[0]))
        .run()
        .expect("valid experiment")
}

/// Fig. 1(a) shape: at ~100% I/O ratio, Strategy 3 (data-driven) beats
/// Strategy 2 (prefetch-overlap); at low I/O ratio Strategy 2 wins because
/// it hides I/O behind computation that Strategy 3 re-executes.
#[test]
fn demo_strategy_crossover() {
    // High I/O intensity: S3 wins.
    let s2_high = run_demo(IoStrategy::PrefetchOverlap, 1.0, 4096).programs[0].elapsed();
    let s3_high = run_demo(IoStrategy::DualParForced, 1.0, 4096).programs[0].elapsed();
    assert!(
        s3_high < s2_high,
        "at 100% I/O ratio data-driven ({s3_high}) must beat prefetch-overlap ({s2_high})"
    );
    // Low I/O intensity: S2 wins (it slices computation out of
    // pre-execution and overlaps I/O with compute).
    let s2_low = run_demo(IoStrategy::PrefetchOverlap, 0.2, 4096).programs[0].elapsed();
    let s3_low = run_demo(IoStrategy::DualParForced, 0.2, 4096).programs[0].elapsed();
    assert!(
        s2_low < s3_low,
        "at 20% I/O ratio prefetch-overlap ({s2_low}) must beat data-driven ({s3_low})"
    );
}

/// Fig. 1(b) shape: Strategy 3's advantage shrinks as segments grow.
#[test]
fn demo_segment_size_sensitivity() {
    let gain = |seg: u64| {
        let s2 = run_demo(IoStrategy::PrefetchOverlap, 0.9, seg).programs[0].elapsed();
        let s3 = run_demo(IoStrategy::DualParForced, 0.9, seg).programs[0].elapsed();
        s2.as_secs_f64() / s3.as_secs_f64()
    };
    let small = gain(4 * 1024);
    let large = gain(128 * 1024);
    assert!(
        small > large,
        "S3's edge at 4 KB ({small:.2}x) must exceed its edge at 128 KB ({large:.2}x)"
    );
    assert!(
        small > 1.0,
        "S3 must win at 4 KB segments (got {small:.2}x)"
    );
}

/// Table II shape: two concurrent mpi-io-test instances interfere; DualPar
/// restores most of the lost efficiency. Also checks Fig. 6's trace-level
/// explanation: DualPar's service order has a much smaller mean LBN step.
#[test]
fn interference_removed_by_dualpar() {
    let run_pair = |strategy: IoStrategy| {
        let mut exp = small().trace_disks(true);
        for i in 0..2usize {
            let w = MpiIoTest {
                nprocs: 8,
                file_size: 32 << 20,
                request_size: 16 * 1024,
                barrier_every: 1,
                ..Default::default()
            };
            exp = exp
                .file(format!("file{i}"), w.file_size)
                .program(strategy, move |files| {
                    let mut script = w.build(files[i]);
                    script.name = format!("inst{i}");
                    script
                });
        }
        let mut c = exp.build().expect("valid experiment");
        let report = c.run();
        // Seek overhead per byte serviced: total seek distance over all
        // services divided by bytes moved — the trace-level measure of
        // Fig. 6's "reduced average seek distance".
        let disk = c.disk(0);
        let seek_per_mb = disk.trace().avg_seek_distance() * disk.trace().serviced() as f64
            / (disk.bytes_serviced() as f64 / 1e6);
        (report, seek_per_mb)
    };
    let (v, v_seek) = run_pair(IoStrategy::Vanilla);
    let (d, d_seek) = run_pair(IoStrategy::DualParForced);
    let v_thr = v.aggregate_throughput_mbps();
    let d_thr = d.aggregate_throughput_mbps();
    assert!(
        d_thr > 1.3 * v_thr,
        "DualPar aggregate ({d_thr:.1}) must clearly beat vanilla ({v_thr:.1})"
    );
    assert!(
        d_seek < v_seek / 4.0,
        "DualPar's seek overhead per MB ({d_seek:.0} sectors) must be far below vanilla's ({v_seek:.0})"
    );
}

/// Fig. 7 shape: the adaptive system switches a program into the
/// data-driven mode when interference degrades efficiency.
#[test]
fn adaptive_mode_switches_on_under_interference() {
    let mut exp = small();
    for i in 0..2usize {
        let w = MpiIoTest {
            nprocs: 8,
            file_size: 48 << 20,
            request_size: 16 * 1024,
            // Sparse barriers keep the per-process I/O ratio above EMC's
            // 80% trigger (barrier waits count as computation, §IV-B).
            barrier_every: 8,
            ..Default::default()
        };
        exp = exp
            .file(format!("f{i}"), w.file_size)
            .program(IoStrategy::DualPar, move |files| {
                let mut script = w.build(files[i]);
                script.name = format!("inst{i}");
                script
            });
    }
    let r = exp.run().expect("valid experiment");
    assert!(
        r.mode_events.iter().any(|e| e.mode == ExecMode::DataDriven),
        "EMC should have switched at least one program to data-driven; events: {:?}",
        r.mode_events
    );
    assert!(r.programs.iter().all(|p| p.phases > 0 || p.bytes_read > 0));
}

/// Table III shape: on a fully data-dependent workload, adaptive DualPar's
/// overhead over vanilla is bounded (the paper measures ≤7.2%), because a
/// high mis-prefetch ratio disables the mode after one bad phase.
#[test]
fn misprefetch_disables_mode_with_bounded_overhead() {
    let run = |strategy: IoStrategy| {
        let w = DependentReader {
            nprocs: 8,
            total_bytes: 16 << 20,
            request_size: 64 * 1024,
            ..Default::default()
        };
        small()
            .file("dep", w.file_size())
            .program(strategy, move |files| w.build(files[0]))
            .run()
            .expect("valid experiment")
    };
    let v = run(IoStrategy::Vanilla).programs[0].elapsed();
    let dp_report = run(IoStrategy::DualPar);
    let dp = dp_report.programs[0].elapsed();
    let overhead = dp.as_secs_f64() / v.as_secs_f64() - 1.0;
    assert!(
        overhead < 0.25,
        "dependent-read overhead must stay bounded, got {:.1}%",
        overhead * 100.0
    );
    // The mode must have been vetoed: few phases despite an I/O-bound run.
    assert!(
        dp_report.programs[0].phases <= 3,
        "mis-prefetch should disable the mode after ~one phase, got {} phases",
        dp_report.programs[0].phases
    );
}

/// Write path: DualPar's batched write-back beats vanilla write-through on
/// an interleaved pattern (Fig. 3b shape).
#[test]
fn dualpar_write_batching_wins() {
    let run = |strategy: IoStrategy| {
        let w = Noncontig {
            nprocs: 8,
            elmt_count: 128,
            bytes_per_call: 1 << 20,
            rows: 4096, // 16 MB
            kind: IoKind::Write,
            collective: strategy == IoStrategy::Collective,
            ..Default::default()
        };
        small()
            .file("ncw", w.file_size())
            .program(strategy, move |files| w.build(files[0]))
            .run()
            .expect("valid experiment")
    };
    let v = run(IoStrategy::Vanilla).programs[0].throughput_mbps();
    let dp = run(IoStrategy::DualParForced).programs[0].throughput_mbps();
    assert!(
        dp > 2.0 * v,
        "DualPar writes ({dp:.1} MB/s) must clearly beat vanilla ({v:.1} MB/s)"
    );
}

/// One row of the committed `bench_results/ablation_sched.json`.
#[derive(serde::Deserialize)]
struct SchedRow {
    scheduler: String,
    gain: f64,
}

/// EXPERIMENTS.md, `ablation_sched`: "DualPar's gain over vanilla is
/// scheduler-robust: 9.6–11.0× under CFQ/anticipatory/NOOP/DEADLINE/SSTF/
/// SCAN", row by row against the committed artifact, which
/// `scripts/check.sh` regenerates and compares byte for byte.
#[test]
fn scheduler_ablation_gain_is_scheduler_robust() {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../bench_results/ablation_sched.json"
    ))
    .expect("committed ablation_sched.json is readable");
    let rows: Vec<SchedRow> = serde_json::from_str(&json).expect("ablation rows parse");
    let names: Vec<&str> = rows.iter().map(|r| r.scheduler.as_str()).collect();
    let all: Vec<String> = dualpar_disk::SchedulerKind::ALL
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(
        names, all,
        "one row per scheduler, in SchedulerKind::ALL order"
    );
    for r in &rows {
        assert!(
            (9.6..=11.0).contains(&r.gain),
            "{}: DualPar gain {:.2}x is outside 9.6-11.0x",
            r.scheduler,
            r.gain
        );
    }
}
