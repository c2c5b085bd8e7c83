//! Qualitative-shape tests: the paper's headline comparisons must hold in
//! the simulator (who wins, in which regime), independent of absolute
//! numbers.

use dualpar_bench::{build_cluster, small_cluster, ExperimentSpec, ProgramEntry, WorkloadSpec};
use dualpar_cluster::prelude::*;
use dualpar_core::ExecMode;
use dualpar_workloads::{compute_for_io_ratio, Demo, DependentReader, MpiIoTest, Noncontig};

/// The spec of `workload` running alone under `strategy` on the small
/// cluster.
fn alone(workload: impl Into<WorkloadSpec>, strategy: IoStrategy) -> ExperimentSpec {
    ExperimentSpec {
        cluster: small_cluster(),
        programs: vec![ProgramEntry {
            workload: workload.into(),
            strategy,
            start_secs: 0.0,
        }],
        ..ExperimentSpec::default()
    }
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
    build_cluster(&alone(w, strategy)).run()
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
            file_size: 16 << 20,
            segment_size: seg,
            ..Default::default()
        };
        let calls = (w.file_size / (Demo::SEGS_PER_CALL * 8 * seg)).max(1);
        let r = build_cluster(&alone(w, IoStrategy::Vanilla)).run();
        SimDuration::from_secs_f64(r.programs[0].elapsed().as_secs_f64() / calls as f64)
    };
    let w = Demo {
        file_size: 64 << 20,
        segment_size: seg,
        compute_per_call: compute_for_io_ratio(pilot, io_ratio),
        ..Default::default()
    };
    build_cluster(&alone(w, strategy)).run()
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
        let w = MpiIoTest {
            nprocs: 8,
            file_size: 32 << 20,
            barrier_every: 1,
            ..Default::default()
        };
        let mut spec = alone(w, strategy);
        spec.cluster.trace_disks = true;
        spec.programs.push(spec.programs[0].clone());
        let mut c = build_cluster(&spec);
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
    let w = MpiIoTest {
        nprocs: 8,
        file_size: 48 << 20,
        // Sparse barriers keep the per-process I/O ratio above EMC's
        // 80% trigger (barrier waits count as computation, §IV-B).
        barrier_every: 8,
        ..Default::default()
    };
    let mut spec = alone(w, IoStrategy::DualPar);
    spec.programs.push(spec.programs[0].clone());
    let r = build_cluster(&spec).run();
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
            ..Default::default()
        };
        build_cluster(&alone(w, strategy)).run()
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
        };
        build_cluster(&alone(w, strategy)).run()
    };
    let v = run(IoStrategy::Vanilla).programs[0].throughput_mbps();
    let dp = run(IoStrategy::DualParForced).programs[0].throughput_mbps();
    assert!(
        dp > 2.0 * v,
        "DualPar writes ({dp:.1} MB/s) must clearly beat vanilla ({v:.1} MB/s)"
    );
}

/// Read a committed figure artifact from `bench_results/`.
fn committed<T: serde::Deserialize>(file: &str) -> T {
    let path = format!("{}/../bench_results/{file}", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).expect("committed artifact is readable");
    serde_json::from_str(&json).expect("committed artifact parses")
}

/// One row of the committed `bench_results/fig4_btio_concurrent.json`.
#[derive(serde::Deserialize)]
struct Fig4Row {
    nprocs: u32,
    vanilla_mbps: f64,
    collective_mbps: f64,
    dualpar_mbps: f64,
}

/// `x` rounded to `places` decimals, scaled to an integer: `scaled(23.56,
/// 1)` is 236.0, so a typed cell compares exactly.
fn scaled(x: f64, places: i32) -> f64 {
    (x * 10f64.powi(places)).round()
}

/// EXPERIMENTS.md, Fig. 4, against the committed artifact (which
/// `scripts/check.sh` regenerates and compares byte for byte): every typed
/// cell of the table to its printed precision, and the "Shape ✓" sentence
/// — collective decays 23.6 → 20.4 → 11.9 as processes grow, DualPar is
/// flat at 34.9, DualPar/collective widens from 1.5× to 2.9× — with the
/// stated deviation held as a band: DualPar/vanilla spans 107–196×, against
/// the paper's 35×.
#[test]
fn fig4_btio_collective_decays_while_dualpar_stays_flat() {
    let rows: Vec<Fig4Row> = committed("fig4_btio_concurrent.json");
    // procs, vanilla (2 decimals), collective (1 decimal) and its gain
    // over vanilla, DualPar (1 decimal) and its gain, as typed.
    let table = [
        (16, 33.0, 236.0, 72.0, 349.0, 107.0),
        (64, 20.0, 204.0, 105.0, 349.0, 179.0),
        (256, 18.0, 119.0, 67.0, 349.0, 196.0),
    ];
    assert_eq!(rows.len(), table.len());
    for (r, &(procs, v, co, co_x, dp, dp_x)) in rows.iter().zip(&table) {
        assert_eq!(r.nprocs, procs);
        let cells = [
            scaled(r.vanilla_mbps, 2),
            scaled(r.collective_mbps, 1),
            scaled(r.collective_mbps / r.vanilla_mbps, 0),
            scaled(r.dualpar_mbps, 1),
            scaled(r.dualpar_mbps / r.vanilla_mbps, 0),
        ];
        assert_eq!(cells, [v, co, co_x, dp, dp_x], "{procs} procs");
    }
    assert!(
        rows.windows(2)
            .all(|w| w[1].collective_mbps < w[0].collective_mbps),
        "collective falls as processes grow"
    );
    let over_vanilla: Vec<f64> = rows
        .iter()
        .map(|r| r.dualpar_mbps / r.vanilla_mbps)
        .collect();
    let (lo, hi) = over_vanilla
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    assert_eq!(
        (scaled(lo, 0), scaled(hi, 0)),
        (107.0, 196.0),
        "DualPar/vanilla band"
    );
    let over_collective: Vec<f64> = rows
        .iter()
        .map(|r| r.dualpar_mbps / r.collective_mbps)
        .collect();
    assert!(
        over_collective.windows(2).all(|w| w[1] > w[0]),
        "DualPar/collective widens: {over_collective:?}"
    );
    assert_eq!(scaled(over_collective[0], 1), 15.0);
    assert_eq!(scaled(over_collective[2], 1), 29.0);
}

/// One row of the committed `bench_results/ablation_sched.json`.
#[derive(serde::Deserialize)]
struct SchedRow {
    scheduler: String,
    gain: f64,
}

/// EXPERIMENTS.md, `ablation_sched`: "DualPar's gain over vanilla is
/// scheduler-robust: 9.6–11.0× under each of the three service orders",
/// row by row against the committed artifact, which
/// `scripts/check.sh` regenerates and compares byte for byte.
#[test]
fn scheduler_ablation_gain_is_scheduler_robust() {
    let rows: Vec<SchedRow> = committed("ablation_sched.json");
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

/// The committed `bench_results/fig7_adaptive.json`.
#[derive(serde::Deserialize)]
struct Fig7 {
    vanilla_timeline: Vec<f64>,
    dualpar_timeline: Vec<f64>,
    vanilla_seek: Vec<f64>,
    dualpar_seek: Vec<f64>,
    mode_events: Vec<(f64, usize, String)>,
    join_at_secs: f64,
}

/// EXPERIMENTS.md, Fig. 7, against the committed artifact (which
/// `scripts/check.sh` regenerates and compares byte for byte): 67 MB/s
/// under both systems while the stream runs alone, no mode event before
/// hpio joins at 10 s, and both programs switch to the data-driven mode
/// one slot later, at 11 s; from the join to the end of
/// each run, 55 MB/s (vanilla) against 105 MB/s (DualPar, +91 %) and an
/// average seek distance on server 1 of 124 525 against 22 565 sectors;
/// the runs last 56 and 34 one-second samples.
#[test]
fn fig7_adaptive_switch_recovers_throughput_and_seek() {
    let fig: Fig7 = committed("fig7_adaptive.json");
    assert_eq!(fig.join_at_secs, 10.0);
    assert!(
        fig.mode_events.iter().all(|e| e.0 > fig.join_at_secs),
        "a mode event before the join: {:?}",
        fig.mode_events
    );
    let switched: Vec<(f64, usize)> = fig
        .mode_events
        .iter()
        .filter(|e| e.2 == "DataDriven")
        .map(|e| (e.0, e.1))
        .collect();
    assert_eq!(switched, vec![(11.0, 0), (11.0, 1)]);

    assert_eq!(fig.vanilla_timeline.len(), 56);
    assert_eq!(fig.dualpar_timeline.len(), 34);
    assert_eq!(fig.vanilla_seek.len(), fig.vanilla_timeline.len());
    assert_eq!(fig.dualpar_seek.len(), fig.dualpar_timeline.len());
    // Solo (from 2 s, past the start-up ramp) and join-to-end means, as
    // the figure prints them.
    let join = fig.join_at_secs as usize;
    for solo in [&fig.vanilla_timeline, &fig.dualpar_timeline] {
        let m = solo[2..join].iter().sum::<f64>() / (join - 2) as f64;
        assert_eq!(m.round(), 67.0, "solo window {m:.2} MB/s");
    }
    let mean = |xs: &[f64]| xs[join..].iter().sum::<f64>() / (xs.len() - join) as f64;
    let (v, d) = (mean(&fig.vanilla_timeline), mean(&fig.dualpar_timeline));
    assert_eq!((v * 10.0).round(), 547.0, "vanilla overlap {v:.2} MB/s");
    assert_eq!((d * 10.0).round(), 1049.0, "DualPar overlap {d:.2} MB/s");
    let gain = (d / v - 1.0) * 100.0;
    assert!((91.0..92.0).contains(&gain), "overlap gain {gain:.2} %");
    let (vs, ds) = (mean(&fig.vanilla_seek), mean(&fig.dualpar_seek));
    assert_eq!(vs.round(), 124_525.0, "vanilla overlap seek {vs:.1}");
    assert_eq!(ds.round(), 22_565.0, "DualPar overlap seek {ds:.1}");
}

/// One row of the committed `bench_results/fig5_s3asim.json`.
#[derive(serde::Deserialize)]
struct Fig5Row {
    queries: u32,
    vanilla_io_secs: f64,
    collective_io_secs: f64,
    dualpar_io_secs: f64,
}

/// One row of the committed `bench_results/fig3_single_app.json`.
#[derive(serde::Deserialize)]
struct Fig3Row {
    benchmark: String,
    kind: String,
    collective_mbps: f64,
    dualpar_mbps: f64,
}

/// The throughput rows of the committed
/// `bench_results/table2_mpiio_interference.json`.
#[derive(serde::Deserialize)]
struct Table2 {
    throughput: Vec<Table2Row>,
}

#[derive(serde::Deserialize)]
struct Table2Row {
    vanilla_mbps: f64,
    collective_mbps: f64,
    dualpar_mbps: f64,
}

/// EXPERIMENTS.md, Fig. 5, against the committed artifact (which
/// `scripts/check.sh` regenerates and compares byte for byte): every typed
/// cell of the table to its printed precision; I/O time linear in the
/// query count; the 34 % saving over the best other strategy held as a
/// band against the paper's ≤ 25 %; and DualPar's 1.51–1.52× margin set
/// against the other committed figures: below every margin of Table II,
/// above Fig. 3's mpi-io-test write and Fig. 4 at 16 processes, so it is
/// not the smallest win of the suite.
#[test]
fn fig5_s3asim_saving_is_flat_and_modest() {
    let rows: Vec<Fig5Row> = committed("fig5_s3asim.json");
    // queries, vanilla, collective, DualPar (1 decimal), saving (whole %).
    let table = [
        (16, 1291.0, 922.0, 607.0, 34.0),
        (24, 1965.0, 1381.0, 917.0, 34.0),
        (32, 2640.0, 1849.0, 1220.0, 34.0),
    ];
    assert_eq!(rows.len(), table.len());
    let saving =
        |r: &Fig5Row| 1.0 - r.dualpar_io_secs / r.collective_io_secs.min(r.vanilla_io_secs);
    for (r, &(q, v, co, dp, save)) in rows.iter().zip(&table) {
        assert_eq!(r.queries, q);
        let cells = [
            scaled(r.vanilla_io_secs, 1),
            scaled(r.collective_io_secs, 1),
            scaled(r.dualpar_io_secs, 1),
            scaled(saving(r) * 100.0, 0),
        ];
        assert_eq!(cells, [v, co, dp, save], "{q} queries");
        // The deviation: a third saved, against the paper's ≤ 25 %.
        assert!((0.33..0.35).contains(&saving(r)), "{q} queries");
    }
    // Linear: each strategy's I/O time per query stays within 3 %.
    let per_query: [fn(&Fig5Row) -> f64; 3] = [
        |r| r.vanilla_io_secs,
        |r| r.collective_io_secs,
        |r| r.dualpar_io_secs,
    ];
    for secs in per_query {
        let rates: Vec<f64> = rows.iter().map(|r| secs(r) / r.queries as f64).collect();
        let (lo, hi) = rates
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        assert!(hi / lo < 1.03, "I/O time per query spreads: {rates:?}");
    }
    // DualPar's margin over the best other strategy, against the others'.
    let margins: Vec<f64> = rows
        .iter()
        .map(|r| r.collective_io_secs.min(r.vanilla_io_secs) / r.dualpar_io_secs)
        .collect();
    let (lo, hi) = margins
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    assert_eq!((scaled(lo, 2), scaled(hi, 2)), (151.0, 152.0));
    let table2: Table2 = committed("table2_mpiio_interference.json");
    for t in &table2.throughput {
        let margin = t.dualpar_mbps / t.collective_mbps.max(t.vanilla_mbps);
        assert!(margin > 3.5 && margin > hi, "Table II margin {margin:.2}");
    }
    let fig3: Vec<Fig3Row> = committed("fig3_single_app.json");
    let mpiio_write = fig3
        .iter()
        .find(|r| r.benchmark == "mpi-io-test" && r.kind == "write")
        .expect("fig3 has the mpi-io-test write row");
    let fig3_margin = mpiio_write.dualpar_mbps / mpiio_write.collective_mbps;
    assert_eq!(scaled(fig3_margin, 2), 103.0);
    let fig4: Vec<Fig4Row> = committed("fig4_btio_concurrent.json");
    let fig4_margin = fig4[0].dualpar_mbps / fig4[0].collective_mbps;
    assert_eq!((fig4[0].nprocs, scaled(fig4_margin, 2)), (16, 148.0));
    assert!(fig3_margin < lo && fig4_margin < lo);
}

/// One row of the committed `bench_results/table3_misprefetch.json`.
#[derive(serde::Deserialize)]
struct Table3Row {
    cache_kb: u64,
    no_dualpar_secs: f64,
    dualpar_secs: f64,
    overhead_pct: f64,
    misprefetch_ratio: f64,
    phases: u64,
}

/// EXPERIMENTS.md, Table III, against the committed artifact (which
/// `scripts/check.sh` regenerates and compares byte for byte): every typed
/// cell to its printed precision; a mis-prefetch ratio of at least 0.9;
/// phase counts that stop at 3–10; the +14.0–17.6 % overhead band, about
/// twice the paper's 7.2 %; and its non-monotone shape, flat at about
/// +14 % up to 2 MB and highest at 4 MB.
#[test]
fn table3_misprefetch_overhead_is_bounded_and_peaks_at_4mb() {
    let rows: Vec<Table3Row> = committed("table3_misprefetch.json");
    // cache KB, no DualPar and DualPar (1 decimal), overhead (1 decimal),
    // mis-ratio (2 decimals).
    let table = [
        (512, 63.0, 72.0, 140.0, 99.0),
        (1024, 63.0, 72.0, 145.0, 98.0),
        (2048, 63.0, 72.0, 140.0, 96.0),
        (4096, 63.0, 74.0, 176.0, 93.0),
    ];
    assert_eq!(rows.len(), table.len());
    for (r, &(kb, v, dp, over, mis)) in rows.iter().zip(&table) {
        assert_eq!(r.cache_kb, kb);
        let cells = [
            scaled(r.no_dualpar_secs, 1),
            scaled(r.dualpar_secs, 1),
            scaled(r.overhead_pct, 1),
            scaled(r.misprefetch_ratio, 2),
        ];
        assert_eq!(cells, [v, dp, over, mis], "{kb} KB");
        assert!(r.misprefetch_ratio >= 0.9, "{kb} KB");
        assert!((3..=10).contains(&r.phases), "{kb} KB: {} phases", r.phases);
    }
    let phases: Vec<u64> = rows.iter().map(|r| r.phases).collect();
    assert_eq!(
        (phases.iter().min(), phases.iter().max()),
        (Some(&3), Some(&10))
    );
    let overheads: Vec<f64> = rows.iter().map(|r| r.overhead_pct).collect();
    let (lo, hi) = overheads
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    assert_eq!((scaled(lo, 1), scaled(hi, 1)), (140.0, 176.0));
    assert!(lo > 7.2 * 1.9, "about twice the paper's 7.2 %: {lo:.2}");
    // Not monotone in the quota: flat up to 2 MB, highest at 4 MB.
    assert!(
        overheads[..3].iter().all(|x| (x - 14.0).abs() < 1.0),
        "{overheads:?}"
    );
    assert_eq!(hi, overheads[3]);
}
