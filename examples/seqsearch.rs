//! Sequence-similarity search — the S3asim scenario: several analysis
//! jobs share the data servers, each issuing mixed-size reads over a
//! database file and writing result records.
//!
//! ```sh
//! cargo run --release -p dualpar-bench --example seqsearch
//! ```

use dualpar_cluster::prelude::*;
use dualpar_workloads::S3asim;

fn main() {
    println!("Three concurrent S3asim instances, 16 queries each\n");
    for strategy in [
        IoStrategy::Vanilla,
        IoStrategy::Collective,
        IoStrategy::DualParForced,
    ] {
        let mut exp = Experiment::darwin();
        for i in 0..3u64 {
            let workload = S3asim {
                nprocs: 32,
                queries: 16,
                db_size: 256 << 20,
                result_size: 64 << 20,
                collective: strategy == IoStrategy::Collective,
                seed: 7 + i,
                ..Default::default()
            };
            exp = exp
                .file(format!("db{i}"), workload.db_size)
                .file(format!("results{i}"), workload.result_size)
                .program(strategy, move |files| {
                    // Files land in declaration order: (db, results) pairs.
                    let (db, res) = (files[2 * i as usize], files[2 * i as usize + 1]);
                    let mut script = workload.build(db, res);
                    script.name = format!("s3asim{i}");
                    script
                });
        }
        let report = exp.run().expect("valid experiment");
        let total_io: f64 = report.programs.iter().map(|p| p.mean_io_time_secs()).sum();
        println!(
            "{:<16} total I/O time {:>7.1} s   makespan {:>6.1} s   aggregate {:>6.1} MB/s",
            strategy.label(),
            total_io,
            report.sim_end.as_secs_f64(),
            report.aggregate_throughput_mbps(),
        );
    }
    println!("\nS3asim's requests are relatively large, so the win is modest —");
    println!("matching the paper's observation (≤25%, 17% on average).");
}
