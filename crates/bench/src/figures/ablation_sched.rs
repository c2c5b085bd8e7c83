//! Ablation: disk scheduler choice under the Table II workload (two
//! concurrent mpi-io-test readers).
//!
//! Question: how much of DualPar's win depends on CFQ specifically? One
//! row per `SchedulerKind`, each a distinct service order: CFQ's circular
//! elevator, NOOP's FIFO and SSTF's nearest-first.
//! Expectation: vanilla suffers under any scheduler (too few outstanding
//! requests to sort); DualPar's pre-sorted batches are near-optimal under
//! every scheduler, so its advantage is scheduler-robust.

use super::table2_mpiio_interference::pair_spec;
use super::{print_table, FigureRun};
use crate::{build_cluster, paper_cluster};
use dualpar_cluster::IoStrategy;
use dualpar_disk::{IoKind, SchedulerKind};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scheduler: String,
    vanilla_mbps: f64,
    dualpar_mbps: f64,
    gain: f64,
}

pub(super) fn run(fx: &FigureRun) {
    let file: u64 = 256 << 20;
    let mut cells = Vec::new();
    for sched in SchedulerKind::ALL {
        for s in [IoStrategy::Vanilla, IoStrategy::DualParForced] {
            cells.push((sched, s));
        }
    }
    let thr = fx.map(&cells, |&(sched, s)| {
        let mut cfg = paper_cluster();
        cfg.scheduler = sched;
        build_cluster(&pair_spec(cfg, s, IoKind::Read, file))
            .run()
            .aggregate_throughput_mbps()
    });
    let rows: Vec<Row> = cells
        .chunks(2)
        .zip(thr.chunks(2))
        .map(|(cell, t)| Row {
            scheduler: cell[0].0.to_string(),
            vanilla_mbps: t[0],
            dualpar_mbps: t[1],
            gain: t[1] / t[0],
        })
        .collect();
    print_table(
        "Ablation: scheduler × strategy (2 concurrent mpi-io-test, MB/s)",
        &["scheduler", "vanilla", "DualPar", "gain"],
        rows.iter().map(|r| {
            vec![
                r.scheduler.clone(),
                format!("{:.0}", r.vanilla_mbps),
                format!("{:.0}", r.dualpar_mbps),
                format!("{:.1}x", r.gain),
            ]
        }),
    );
    fx.save_json("ablation_sched", &rows);
}
