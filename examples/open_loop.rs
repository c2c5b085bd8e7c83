//! Open-loop traffic against a shared cluster, built from the workload DSL.
//!
//! Instead of a fixed list of start times, an [`Arrivals`] process spawns
//! program instances over simulated time — here a Poisson stream of
//! Zipf-hotspot readers arriving while a phased writer runs closed-loop.
//! Every instance is reseeded deterministically, so the whole scenario is
//! reproducible: run it twice and the reports are byte-identical.
//!
//! ```sh
//! cargo run --release -p dualpar-bench --example open_loop
//! ```
//!
//! See `docs/WORKLOADS.md` for the DSL grammar and seeding rules.

use dualpar_bench::{build_cluster, ArrivalEntry, ExperimentSpec, ProgramEntry, WorkloadSpec};
use dualpar_cluster::prelude::*;
use dualpar_workloads::{
    AccessPattern, ArrivalProcess, Arrivals, DslWorkload, OffsetDistr, SizeDistr, WorkloadExpr,
};

fn main() {
    // A closed-loop tenant: four BSP phases of sequential 64 KB reads with
    // half a second of computation per phase.
    let checkpointer = DslWorkload {
        name: "checkpointer".into(),
        nprocs: 4,
        file_size: 8 << 20,
        seed: 5,
        expr: WorkloadExpr::Phased {
            phases: 4,
            compute_secs: 0.5,
            body: Box::new(WorkloadExpr::Pattern(AccessPattern {
                ops: 24,
                write_fraction: 1.0,
                ..AccessPattern::default()
            })),
        },
    };

    // An open-loop tenant class: instances arrive as a Poisson process at
    // 0.5/s over a 6 s horizon, each hammering a Zipf-hotspot head.
    let reader = DslWorkload {
        name: "hot-reader".into(),
        nprocs: 4,
        file_size: 8 << 20,
        seed: 33,
        expr: WorkloadExpr::Pattern(AccessPattern {
            ops: 32,
            size: SizeDistr::Uniform {
                min: 4096,
                max: 32768,
            },
            offsets: OffsetDistr::ZipfHotspot { theta: 0.99 },
            compute_secs_per_op: 0.03,
            ..AccessPattern::default()
        }),
    };
    let poisson = Arrivals {
        process: ArrivalProcess::Poisson { rate_per_sec: 0.5 },
        horizon_secs: 6.0,
        seed: 101,
        ..Arrivals::default()
    };

    // Every instance of the stream is named after it and gets its own file.
    let spec = ExperimentSpec {
        programs: vec![ProgramEntry {
            workload: WorkloadSpec::dsl(checkpointer),
            strategy: IoStrategy::DualPar,
            start_secs: 0.0,
        }],
        arrivals: vec![ArrivalEntry {
            workload: WorkloadSpec::dsl(reader),
            strategy: IoStrategy::DualPar,
            arrivals: poisson,
        }],
        ..ExperimentSpec::default()
    };
    let report = build_cluster(&spec).run();

    println!(
        "{:<16} {:>9} {:>9} {:>8}",
        "program", "start s", "MB/s", "time s"
    );
    for p in &report.programs {
        println!(
            "{:<16} {:>9.2} {:>9.1} {:>8.2}",
            p.name,
            p.start.as_secs_f64(),
            p.throughput_mbps(),
            p.elapsed().as_secs_f64(),
        );
    }
    println!(
        "\n{} programs ({} open-loop arrivals); every run of this example is",
        report.programs.len(),
        report.programs.len() - 1
    );
    println!("byte-identical: arrival times and per-instance seeds are derived");
    println!("deterministically from the two seeds above.");
}
