//! Figure 1 — the §II motivating experiment.
//!
//! (a) `demo` execution time vs I/O ratio (4 KB segments) under the three
//!     strategies; (b) vs segment size at 90% I/O ratio; (c,d) the LBN
//!     service traces on data server 1 under Strategies 2 and 3.
//!
//! Paper shape: Strategy 2 wins at low I/O ratio; beyond ~70% Strategy 3
//! takes over (36% faster near 100%); the advantage shrinks as segments
//! grow past 32 KB; Strategy 2's trace shows short back-and-forth head
//! runs while Strategy 3's sweeps in one direction.

use super::{demo_spec, print_table, simulate, FigureRun, TracePoint};
use crate::{build_cluster, paper_cluster};
use dualpar_cluster::IoStrategy;
use dualpar_sim::{SimDuration, SimTime};
use serde::Serialize;

const FILE_SIZE: u64 = 256 << 20;
const STRATEGIES: [IoStrategy; 3] = [
    IoStrategy::Vanilla,
    IoStrategy::PrefetchOverlap,
    IoStrategy::DualParForced,
];

#[derive(Serialize)]
struct RatioRow {
    io_ratio: f64,
    strategy1_secs: f64,
    strategy2_secs: f64,
    strategy3_secs: f64,
}

#[derive(Serialize)]
struct SegRow {
    segment_kb: u64,
    strategy1_secs: f64,
    strategy2_secs: f64,
    strategy3_secs: f64,
}

#[derive(Serialize)]
struct Fig1 {
    ratio_sweep: Vec<RatioRow>,
    segment_sweep: Vec<SegRow>,
    strategy2_trace: Vec<TracePoint>,
    strategy3_trace: Vec<TracePoint>,
}

pub(super) fn run(fx: &FigureRun) {
    // Both sweeps share one flat cell list so the worker pool stays full
    // across the (a)/(b) boundary; (a) I/O-ratio sweep at 4 KB segments,
    // (b) segment-size sweep at 90% I/O ratio.
    let ratios = [0.19, 0.31, 0.43, 0.72, 0.86, 1.0];
    let seg_kbs = [4u64, 8, 16, 32, 64, 128];
    let mut cells = Vec::new();
    for &ratio in &ratios {
        for s in STRATEGIES {
            cells.push((ratio, 4096u64, s));
        }
    }
    for &seg_kb in &seg_kbs {
        for s in STRATEGIES {
            cells.push((0.9, seg_kb * 1024, s));
        }
    }
    let times = fx.map(&cells, |&(ratio, seg, s)| {
        let r = build_cluster(&demo_spec(paper_cluster(), s, ratio, seg, FILE_SIZE)).run();
        r.programs[0].elapsed().as_secs_f64()
    });
    let (ratio_times, seg_times) = times.split_at(ratios.len() * STRATEGIES.len());
    let ratio_rows: Vec<RatioRow> = ratios
        .iter()
        .zip(ratio_times.chunks(STRATEGIES.len()))
        .map(|(&ratio, t)| RatioRow {
            io_ratio: ratio,
            strategy1_secs: t[0],
            strategy2_secs: t[1],
            strategy3_secs: t[2],
        })
        .collect();
    print_table(
        "Fig. 1(a): demo execution time vs I/O ratio (4 KB segments)",
        &[
            "I/O ratio",
            "Strategy 1 (s)",
            "Strategy 2 (s)",
            "Strategy 3 (s)",
        ],
        ratio_rows.iter().map(|r| {
            vec![
                format!("{:.0}%", r.io_ratio * 100.0),
                format!("{:.1}", r.strategy1_secs),
                format!("{:.1}", r.strategy2_secs),
                format!("{:.1}", r.strategy3_secs),
            ]
        }),
    );

    let seg_rows: Vec<SegRow> = seg_kbs
        .iter()
        .zip(seg_times.chunks(STRATEGIES.len()))
        .map(|(&seg_kb, t)| SegRow {
            segment_kb: seg_kb,
            strategy1_secs: t[0],
            strategy2_secs: t[1],
            strategy3_secs: t[2],
        })
        .collect();
    print_table(
        "Fig. 1(b): demo execution time vs segment size (I/O ratio 90%)",
        &[
            "Segment",
            "Strategy 1 (s)",
            "Strategy 2 (s)",
            "Strategy 3 (s)",
        ],
        seg_rows.iter().map(|r| {
            vec![
                format!("{}KB", r.segment_kb),
                format!("{:.1}", r.strategy1_secs),
                format!("{:.1}", r.strategy2_secs),
                format!("{:.1}", r.strategy3_secs),
            ]
        }),
    );

    // (c,d) LBN traces on server 1 over a 0.2 s window mid-run, plus the
    // §II average request size reaching the disks (paper: 12 KB under
    // Strategy 2 vs 128 KB under Strategy 3) — one traced run per strategy
    // yields both, fanned over the pool.
    let traced = [IoStrategy::PrefetchOverlap, IoStrategy::DualParForced];
    let mut traces = fx.map(&traced, |&strategy| {
        let mut cfg = paper_cluster();
        cfg.trace_disks = true;
        let (report, cluster) = simulate(&demo_spec(cfg, strategy, 1.0, 4096, FILE_SIZE));
        let mid = SimTime::from_secs_f64(report.sim_end.as_secs_f64() / 2.0);
        let end = mid + SimDuration::from_millis(200);
        let pts: Vec<TracePoint> = cluster
            .disk(1)
            .trace()
            .window(mid, end)
            .map(|rec| TracePoint {
                t_secs: rec.at.as_secs_f64(),
                lbn: rec.lbn,
            })
            .collect();
        let (mut bytes, mut n) = (0u64, 0u64);
        for srv in 0..cluster.config().num_data_servers {
            bytes += cluster.disk(srv).bytes_serviced();
            n += cluster.disk(srv).trace().serviced();
        }
        (pts, bytes as f64 / n.max(1) as f64 / 1024.0)
    });
    let (s3_trace, s3_req_kb) = traces.pop().expect("strategy 3 trace");
    let (s2_trace, s2_req_kb) = traces.pop().expect("strategy 2 trace");
    println!(
        "
avg disk request size: Strategy 2 = {s2_req_kb:.0} KB, Strategy 3 = {s3_req_kb:.0} KB (paper: 12 vs 128)"
    );
    let direction_changes = |pts: &[TracePoint]| {
        pts.windows(3)
            .filter(|w| (w[1].lbn > w[0].lbn) != (w[2].lbn > w[1].lbn))
            .count()
    };
    println!(
        "\nFig. 1(c): Strategy 2 trace: {} services in window, {} direction changes",
        s2_trace.len(),
        direction_changes(&s2_trace)
    );
    println!(
        "Fig. 1(d): Strategy 3 trace: {} services in window, {} direction changes",
        s3_trace.len(),
        direction_changes(&s3_trace)
    );

    fx.save_gnuplot(
        "fig1c_s2_trace",
        "Fig. 1(c): Strategy 2 service order (server 1, 0.2 s window)",
        "time (s)",
        "LBN",
        false,
        &[(
            "strategy 2",
            s2_trace.iter().map(|p| (p.t_secs, p.lbn as f64)).collect(),
        )],
    );
    fx.save_gnuplot(
        "fig1d_s3_trace",
        "Fig. 1(d): Strategy 3 service order (server 1, 0.2 s window)",
        "time (s)",
        "LBN",
        false,
        &[(
            "strategy 3",
            s3_trace.iter().map(|p| (p.t_secs, p.lbn as f64)).collect(),
        )],
    );
    fx.save_json(
        "fig1_motivation",
        &Fig1 {
            ratio_sweep: ratio_rows,
            segment_sweep: seg_rows,
            strategy2_trace: s2_trace,
            strategy3_trace: s3_trace,
        },
    );
}
