//! Quickstart: build a simulated cluster, run one MPI-IO workload under
//! vanilla MPI-IO and under DualPar, and compare.
//!
//! ```sh
//! cargo run --release -p dualpar-bench --example quickstart
//! ```

use dualpar_bench::{build_cluster, ExperimentSpec, ProgramEntry};
use dualpar_cluster::prelude::*;
use dualpar_workloads::MpiIoTest;

fn main() {
    for strategy in [IoStrategy::Vanilla, IoStrategy::DualParForced] {
        // The mpi-io-test benchmark: 64 processes cooperatively reading a
        // 256 MB file in interleaved 16 KB segments, on the paper's Darwin
        // platform (nine PVFS2-style data servers, CFQ, 64 KB stripes).
        let workload = MpiIoTest {
            nprocs: 64,
            file_size: 256 << 20,
            ..Default::default()
        };
        let spec = ExperimentSpec {
            cluster: ClusterConfig {
                telemetry: TelemetryConfig::at(TelemetryLevel::Counters),
                ..ClusterConfig::default()
            },
            programs: vec![ProgramEntry {
                workload: workload.into(),
                strategy,
                start_secs: 0.0,
            }],
            ..ExperimentSpec::default()
        };
        let report = build_cluster(&spec).run();
        let p = &report.programs[0];
        let seek = report
            .telemetry
            .as_ref()
            .and_then(|t| t.counters.get("disk.seek_sectors_total").copied())
            .unwrap_or(0);
        println!(
            "{:<16} {:>8.1} MB/s   elapsed {:>6.2} s   {} data-driven phases   {:>12} sectors seeked",
            strategy.label(),
            p.throughput_mbps(),
            p.elapsed().as_secs_f64(),
            p.phases,
            seek,
        );
    }
    println!("\nDualPar suspends the processes, pre-executes them to learn the");
    println!("upcoming requests, and issues one large sorted batch per phase —");
    println!("turning an interleaved 16 KB request stream into sequential sweeps.");
}
