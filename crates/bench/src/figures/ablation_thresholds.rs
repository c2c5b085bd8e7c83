//! Ablation: EMC trigger thresholds.
//!
//! The paper claims "system performance is not sensitive to this threshold"
//! (`T_improvement` = 3). We sweep `T_improvement` and the I/O-ratio
//! trigger on the interference workload and report completion time and
//! whether the mode engaged.

use super::table2_mpiio_interference::pair_spec;
use super::{print_table, FigureRun};
use crate::{build_cluster, paper_cluster};
use dualpar_cluster::IoStrategy;
use dualpar_disk::IoKind;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    t_improvement: f64,
    io_ratio_threshold: f64,
    makespan_secs: f64,
    switched: bool,
    phases: u64,
}

pub(super) fn run(fx: &FigureRun) {
    let file: u64 = 192 << 20;
    let mut cells = Vec::new();
    for t_imp in [1.0, 2.0, 3.0, 5.0, 10.0] {
        for io_thr in [0.5, 0.8, 0.9] {
            cells.push((t_imp, io_thr));
        }
    }
    let rows = fx.map(&cells, |&(t_imp, io_thr)| {
        let mut cfg = paper_cluster();
        cfg.dualpar.t_improvement = t_imp;
        cfg.dualpar.io_ratio_threshold = io_thr;
        let r = build_cluster(&pair_spec(cfg, IoStrategy::DualPar, IoKind::Read, file)).run();
        Row {
            t_improvement: t_imp,
            io_ratio_threshold: io_thr,
            makespan_secs: r.sim_end.as_secs_f64(),
            switched: !r.mode_events.is_empty(),
            phases: r.programs.iter().map(|p| p.phases).sum(),
        }
    });
    print_table(
        "Ablation: EMC thresholds (2 concurrent mpi-io-test, adaptive)",
        &[
            "T_improvement",
            "io-ratio thr",
            "makespan (s)",
            "switched",
            "phases",
        ],
        rows.iter().map(|r| {
            vec![
                format!("{:.0}", r.t_improvement),
                format!("{:.2}", r.io_ratio_threshold),
                format!("{:.1}", r.makespan_secs),
                r.switched.to_string(),
                r.phases.to_string(),
            ]
        }),
    );
    fx.save_json("ablation_thresholds", &rows);
}
