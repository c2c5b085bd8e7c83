//! Figure 7 — the varying-workload experiment.
//!
//! `mpi-io-test` streams alone (sequential, efficient — DualPar stays in
//! the computation-driven mode); at t = join, `hpio` starts on the same
//! data servers and the two streams interfere. With vanilla MPI-IO the
//! system throughput drops; adaptive DualPar detects the seek-distance
//! blow-up, switches both programs into the data-driven mode, and recovers
//! most of the loss (paper: +46% while hpio runs). Panel (b) shows the
//! per-slot average seek distance on data server 1.

use super::{print_table, simulate, spec, FigureRun};
use crate::{paper_cluster, WorkloadSpec};
use dualpar_cluster::{Cluster, IoStrategy, RunReport};
use dualpar_sim::{SimDuration, SimTime};
use dualpar_workloads::{Hpio, MpiIoTest};
use serde::Serialize;

#[derive(Serialize)]
struct Fig7 {
    /// Per-second system throughput (MB/s), vanilla run.
    vanilla_timeline: Vec<f64>,
    /// Per-second system throughput (MB/s), adaptive DualPar run.
    dualpar_timeline: Vec<f64>,
    /// Per-second average seek distance on server 1 (sectors).
    vanilla_seek: Vec<f64>,
    dualpar_seek: Vec<f64>,
    /// Mode switches in the DualPar run (time s, program, mode).
    mode_events: Vec<(f64, usize, String)>,
    join_at_secs: f64,
}

pub(super) fn run(fx: &FigureRun) {
    let join = SimTime::from_secs(10);
    let size: u64 = 2 << 30;
    // The vanilla and adaptive runs are independent; fan them out.
    let strategies = [IoStrategy::Vanilla, IoStrategy::DualPar];
    let mut runs = fx.map(&strategies, |&strategy| {
        let mut cfg = paper_cluster();
        cfg.trace_disks = true;
        let stream = MpiIoTest {
            nprocs: 16,
            file_size: size,
            barrier_every: 8,
            ..Default::default()
        };
        let hpio = Hpio {
            nprocs: 16,
            // Size hpio to roughly half the stream so the overlap window is
            // long enough for EMC to react and the effect to be visible.
            region_count: (size / (33 * 1024) / 16 / 2).max(64),
        };
        let mut cell = spec(
            cfg,
            strategy,
            vec![WorkloadSpec::named(stream), WorkloadSpec::named(hpio)],
        );
        cell.programs[1].start_secs = join.as_secs_f64();
        simulate(&cell)
    });
    let (dr, dc) = runs.pop().expect("adaptive run");
    let (vr, vc) = runs.pop().expect("vanilla run");
    let timeline_mbps = |r: &RunReport| -> Vec<f64> {
        (0..r.throughput_timeline.num_bins())
            .map(|i| r.throughput_timeline.rate_per_sec(i) / 1e6)
            .collect()
    };
    let seek_bins = |c: &Cluster, horizon: SimTime| {
        c.disk(1)
            .trace()
            .seek_distance_bins(SimDuration::from_secs(1), horizon)
    };
    let fig = Fig7 {
        vanilla_timeline: timeline_mbps(&vr),
        dualpar_timeline: timeline_mbps(&dr),
        vanilla_seek: seek_bins(&vc, vr.sim_end),
        dualpar_seek: seek_bins(&dc, dr.sim_end),
        mode_events: dr
            .mode_events
            .iter()
            .map(|e| (e.at.as_secs_f64(), e.program_index, format!("{:?}", e.mode)))
            .collect(),
        join_at_secs: join.as_secs_f64(),
    };

    // Print a compact view: averages before the join and during overlap.
    let avg = |xs: &[f64], from: usize, to: usize| {
        let slice = &xs[from.min(xs.len())..to.min(xs.len())];
        if slice.is_empty() {
            0.0
        } else {
            slice.iter().sum::<f64>() / slice.len() as f64
        }
    };
    let j = join.as_secs_f64() as usize;
    let overlap_end_v = fig.vanilla_timeline.len();
    let overlap_end_d = fig.dualpar_timeline.len();
    let rows = vec![
        vec![
            "solo (0..join)".to_string(),
            format!("{:.0}", avg(&fig.vanilla_timeline, 2, j)),
            format!("{:.0}", avg(&fig.dualpar_timeline, 2, j)),
        ],
        vec![
            "overlap (join..end)".to_string(),
            format!("{:.0}", avg(&fig.vanilla_timeline, j, overlap_end_v)),
            format!("{:.0}", avg(&fig.dualpar_timeline, j, overlap_end_d)),
        ],
        vec![
            "avg seek, overlap (sectors)".to_string(),
            format!("{:.0}", avg(&fig.vanilla_seek, j, overlap_end_v)),
            format!("{:.0}", avg(&fig.dualpar_seek, j, overlap_end_d)),
        ],
    ];
    print_table(
        "Fig. 7: throughput (MB/s) & seek distance, mpi-io-test + hpio joining",
        &["window", "vanilla", "adaptive DualPar"],
        rows,
    );
    println!("\nmode switches (DualPar run): {:?}", fig.mode_events);
    println!(
        "runs finished at: vanilla {:.1}s, dualpar {:.1}s",
        vr.sim_end.as_secs_f64(),
        dr.sim_end.as_secs_f64()
    );
    let as_xy = |xs: &[f64]| {
        xs.iter()
            .enumerate()
            .map(|(i, &v)| (i as f64, v))
            .collect::<Vec<_>>()
    };
    fx.save_gnuplot(
        "fig7a_throughput",
        "Fig. 7(a): system throughput, hpio joins at t=10 s",
        "time (s)",
        "MB/s",
        true,
        &[
            ("vanilla", as_xy(&fig.vanilla_timeline)),
            ("adaptive dualpar", as_xy(&fig.dualpar_timeline)),
        ],
    );
    fx.save_gnuplot(
        "fig7b_seek",
        "Fig. 7(b): average seek distance on server 1",
        "time (s)",
        "sectors",
        true,
        &[
            ("vanilla", as_xy(&fig.vanilla_seek)),
            ("adaptive dualpar", as_xy(&fig.dualpar_seek)),
        ],
    );
    fx.save_json("fig7_adaptive", &fig);
}
