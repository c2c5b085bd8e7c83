//! Ablation: server-side write handling — write-through (our default
//! steady-state model) vs the paper's literal forced 1-second write-back.
//!
//! Expectation: write-back acknowledges bursts early, so short write
//! workloads *appear* faster; sustained writers converge to the disk's
//! drain rate either way, and DualPar's ordering benefit survives both
//! modes (its batches are sorted before they ever reach the server).

use super::table2_mpiio_interference::pair_spec;
use super::{print_table, FigureRun};
use crate::{build_cluster, paper_cluster};
use dualpar_cluster::{IoStrategy, ServerWriteMode};
use dualpar_disk::IoKind;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    mode: String,
    vanilla_mbps: f64,
    dualpar_mbps: f64,
}

pub(super) fn run(fx: &FigureRun) {
    let file: u64 = 256 << 20;
    let mut cells = Vec::new();
    for mode in [ServerWriteMode::WriteThrough, ServerWriteMode::WriteBack] {
        for s in [IoStrategy::Vanilla, IoStrategy::DualParForced] {
            cells.push((mode, s));
        }
    }
    let thr = fx.map(&cells, |&(mode, s)| {
        let mut cfg = paper_cluster();
        cfg.server_write_mode = mode;
        build_cluster(&pair_spec(cfg, s, IoKind::Write, file))
            .run()
            .aggregate_throughput_mbps()
    });
    let rows: Vec<Row> = cells
        .chunks(2)
        .zip(thr.chunks(2))
        .map(|(cell, t)| Row {
            mode: format!("{:?}", cell[0].0),
            vanilla_mbps: t[0],
            dualpar_mbps: t[1],
        })
        .collect();
    print_table(
        "Ablation: server write mode (2 concurrent mpi-io-test writers, MB/s)",
        &["server mode", "vanilla", "DualPar"],
        rows.iter().map(|r| {
            vec![
                r.mode.clone(),
                format!("{:.0}", r.vanilla_mbps),
                format!("{:.0}", r.dualpar_mbps),
            ]
        }),
    );
    fx.save_json("ablation_writeback", &rows);
}
