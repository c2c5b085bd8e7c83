//! Figure 3 — single-application I/O throughput under vanilla MPI-IO,
//! collective I/O and DualPar, for reads (a) and writes (b), over
//! mpi-io-test (sequential), noncontig (interleaved tiny), and ior-mpi-io
//! (per-process sequential, random to the storage).
//!
//! Paper shape (read): mpi-io-test 115/117/263 MB/s; noncontig: DualPar
//! +57% over collective; ior-mpi-io: collective ≈ vanilla, DualPar well
//! ahead. Writes show the same ordering with lower absolute numbers.

use super::{collective, print_table, spec, FigureRun, STRATEGIES};
use crate::{build_cluster, paper_cluster, WorkloadSpec};
use dualpar_disk::IoKind;
use dualpar_workloads::{IorMpiIo, MpiIoTest, Noncontig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    kind: String,
    vanilla_mbps: f64,
    collective_mbps: f64,
    dualpar_mbps: f64,
}

const BENCHMARKS: [&str; 3] = ["mpi-io-test", "noncontig", "ior-mpi-io"];
pub(super) fn run(fx: &FigureRun) {
    let mut cells = Vec::new();
    for kind in [IoKind::Read, IoKind::Write] {
        for bench in BENCHMARKS {
            for s in STRATEGIES {
                cells.push((kind, bench, s));
            }
        }
    }
    let throughputs = fx.map(&cells, |&(kind, bench, s)| {
        let collective = collective(s);
        let workload = match bench {
            // mpi-io-test: 1 GB, 16 KB requests, 64 procs.
            "mpi-io-test" => WorkloadSpec::named(MpiIoTest {
                nprocs: 64,
                file_size: 1 << 30,
                kind,
                collective,
                barrier_every: 8,
                ..Default::default()
            }),
            // noncontig: 64 procs, 512 B cells, 16384 rows = 512 MB.
            "noncontig" => WorkloadSpec::named(Noncontig {
                nprocs: 64,
                rows: 16384,
                kind,
                collective,
                ..Default::default()
            }),
            // ior-mpi-io: 4 GB file (scaled from 16 GB), 32 KB requests.
            _ => WorkloadSpec::named(IorMpiIo {
                nprocs: 64,
                file_size: 4 << 30,
                kind,
                collective,
            }),
        };
        build_cluster(&spec(paper_cluster(), s, vec![workload]))
            .run()
            .programs[0]
            .throughput_mbps()
    });
    let rows: Vec<Row> = cells
        .chunks(STRATEGIES.len())
        .zip(throughputs.chunks(STRATEGIES.len()))
        .map(|(cell, thr)| Row {
            benchmark: cell[0].1.into(),
            kind: if cell[0].0 == IoKind::Read {
                "read"
            } else {
                "write"
            }
            .into(),
            vanilla_mbps: thr[0],
            collective_mbps: thr[1],
            dualpar_mbps: thr[2],
        })
        .collect();
    print_table(
        "Fig. 3: single-application system I/O throughput (MB/s)",
        &["benchmark", "kind", "vanilla", "collective", "DualPar"],
        rows.iter().map(|r| {
            vec![
                r.benchmark.clone(),
                r.kind.clone(),
                format!("{:.0}", r.vanilla_mbps),
                format!("{:.0}", r.collective_mbps),
                format!("{:.0}", r.dualpar_mbps),
            ]
        }),
    );
    fx.save_json("fig3_single_app", &rows);
}
