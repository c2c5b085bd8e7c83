//! Figure 4 — three concurrent BTIO instances, system throughput vs the
//! per-instance process count (16, 64, 256).
//!
//! Paper shape: collective I/O and DualPar beat vanilla by up to 24× and
//! 35× respectively (BTIO's raw requests shrink to a few bytes at high
//! process counts); collective I/O's advantage erodes with more processes
//! because each call's fixed data domain is shuffled among ever more
//! ranks, while DualPar keeps scaling.

use super::{collective, print_table, spec, FigureRun, STRATEGIES};
use crate::{build_cluster, paper_cluster, WorkloadSpec};
use dualpar_workloads::Btio;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    nprocs: usize,
    vanilla_mbps: f64,
    collective_mbps: f64,
    dualpar_mbps: f64,
}

pub(super) fn run(fx: &FigureRun) {
    // Scaled dataset: 24 MB per instance (the pattern, not the volume, is
    // what drives the effect — vanilla's per-request cost is so high that
    // larger datasets only stretch the run).
    let dataset: u64 = 24 << 20;
    let mut cells = Vec::new();
    for nprocs in [16usize, 64, 256] {
        for s in STRATEGIES {
            cells.push((nprocs, s));
        }
    }
    let thr = fx.map(&cells, |&(nprocs, s)| {
        let btio = Btio {
            nprocs,
            dataset,
            collective: collective(s),
            ..Default::default()
        };
        let instances = (0..3).map(|_| WorkloadSpec::named(btio.clone())).collect();
        build_cluster(&spec(paper_cluster(), s, instances))
            .run()
            .aggregate_throughput_mbps()
    });
    let mut rows = Vec::new();
    for (cell, thr) in cells
        .chunks(STRATEGIES.len())
        .zip(thr.chunks(STRATEGIES.len()))
    {
        let row = Row {
            nprocs: cell[0].0,
            vanilla_mbps: thr[0],
            collective_mbps: thr[1],
            dualpar_mbps: thr[2],
        };
        println!(
            "nprocs={}: vanilla {:.2} MB/s, collective {:.1} ({}x), dualpar {:.1} ({}x)",
            row.nprocs,
            row.vanilla_mbps,
            row.collective_mbps,
            (row.collective_mbps / row.vanilla_mbps) as u64,
            row.dualpar_mbps,
            (row.dualpar_mbps / row.vanilla_mbps) as u64,
        );
        rows.push(row);
    }
    print_table(
        "Fig. 4: 3 concurrent BTIO instances — system I/O throughput (MB/s)",
        &[
            "procs",
            "vanilla",
            "collective",
            "DualPar",
            "coll/van",
            "dp/van",
        ],
        rows.iter().map(|r| {
            vec![
                r.nprocs.to_string(),
                format!("{:.2}", r.vanilla_mbps),
                format!("{:.1}", r.collective_mbps),
                format!("{:.1}", r.dualpar_mbps),
                format!("{:.0}x", r.collective_mbps / r.vanilla_mbps),
                format!("{:.0}x", r.dualpar_mbps / r.vanilla_mbps),
            ]
        }),
    );
    fx.save_json("fig4_btio_concurrent", &rows);
}
