//! Ablation: retain vs slice-out computation in ghost pre-execution.
//!
//! DualPar deliberately *retains* computation in pre-execution (prediction
//! accuracy, no source access needed) and pays for it with redundant
//! compute. Slicing computation out (the Chen et al. technique the paper's
//! Strategy 2 borrows) makes phases cheaper but is only safe when the
//! I/O addresses do not depend on computation. This ablation quantifies
//! what retention costs at different I/O intensities.

use super::{demo_spec, print_table, FigureRun};
use crate::{build_cluster, paper_cluster};
use dualpar_cluster::IoStrategy;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    io_ratio: f64,
    retained_secs: f64,
    sliced_secs: f64,
    retention_cost_pct: f64,
}

pub(super) fn run(fx: &FigureRun) {
    let ratios = [0.4, 0.6, 0.8, 1.0];
    let mut cells = Vec::new();
    for ratio in ratios {
        for slice in [false, true] {
            cells.push((ratio, slice));
        }
    }
    let secs = fx.map(&cells, |&(ratio, slice)| {
        let mut cfg = paper_cluster();
        cfg.dualpar.ghost_slice_compute = slice;
        let cell = demo_spec(cfg, IoStrategy::DualParForced, ratio, 4096, 128 << 20);
        build_cluster(&cell).run().programs[0]
            .elapsed()
            .as_secs_f64()
    });
    let rows: Vec<Row> = ratios
        .iter()
        .zip(secs.chunks(2))
        .map(|(&ratio, t)| Row {
            io_ratio: ratio,
            retained_secs: t[0],
            sliced_secs: t[1],
            retention_cost_pct: (t[0] / t[1] - 1.0) * 100.0,
        })
        .collect();
    print_table(
        "Ablation: ghost computation retained vs sliced out (demo)",
        &["I/O ratio", "retained (s)", "sliced (s)", "retention cost"],
        rows.iter().map(|r| {
            vec![
                format!("{:.0}%", r.io_ratio * 100.0),
                format!("{:.1}", r.retained_secs),
                format!("{:.1}", r.sliced_secs),
                format!("{:+.0}%", r.retention_cost_pct),
            ]
        }),
    );
    fx.save_json("ablation_ghost", &rows);
}
