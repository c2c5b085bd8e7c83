//! Figure 5 — three concurrent S3asim instances, total I/O time vs number
//! of queries (16 and 32).
//!
//! Paper shape: DualPar's I/O times are smaller than vanilla's and
//! collective I/O's by up to 25% (17% on average) — a modest win, because
//! S3asim's requests are much larger than BTIO's.

use super::{collective, print_table, spec, FigureRun, STRATEGIES};
use crate::{build_cluster, paper_cluster, WorkloadSpec};
use dualpar_workloads::S3asim;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    queries: u64,
    vanilla_io_secs: f64,
    collective_io_secs: f64,
    dualpar_io_secs: f64,
}

pub(super) fn run(fx: &FigureRun) {
    let db: u64 = 512 << 20;
    let mut cells = Vec::new();
    for queries in [16u64, 24, 32] {
        for s in STRATEGIES {
            cells.push((queries, s));
        }
    }
    let io_times = fx.map(&cells, |&(queries, s)| {
        let instances = (0..3)
            .map(|i| {
                WorkloadSpec::named(S3asim {
                    queries,
                    db_size: db,
                    result_size: db / 4,
                    collective: collective(s),
                    seed: 7 + i,
                    ..Default::default()
                })
            })
            .collect();
        let r = build_cluster(&spec(paper_cluster(), s, instances)).run();
        r.programs
            .iter()
            .map(|p| p.mean_io_time_secs())
            .sum::<f64>()
    });
    let rows: Vec<Row> = cells
        .chunks(STRATEGIES.len())
        .zip(io_times.chunks(STRATEGIES.len()))
        .map(|(cell, t)| Row {
            queries: cell[0].0,
            vanilla_io_secs: t[0],
            collective_io_secs: t[1],
            dualpar_io_secs: t[2],
        })
        .collect();
    print_table(
        "Fig. 5: 3 concurrent S3asim instances — total I/O time (s)",
        &["queries", "vanilla", "collective", "DualPar", "dp saving"],
        rows.iter().map(|r| {
            let best_other = r.vanilla_io_secs.min(r.collective_io_secs);
            vec![
                r.queries.to_string(),
                format!("{:.1}", r.vanilla_io_secs),
                format!("{:.1}", r.collective_io_secs),
                format!("{:.1}", r.dualpar_io_secs),
                format!("{:.0}%", (1.0 - r.dualpar_io_secs / best_other) * 100.0),
            ]
        }),
    );
    fx.save_json("fig5_s3asim", &rows);
}
