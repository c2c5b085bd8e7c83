//! Checkpoint writing — the BTIO scenario from the paper's evaluation.
//!
//! A solver writes its solution arrays every few timesteps. Each process
//! owns an interleaved slice of every array row, so its writes are many
//! tiny noncontiguous segments — the worst case for a disk. Compare the
//! three ways of shipping that checkpoint to storage.
//!
//! ```sh
//! cargo run --release -p dualpar-bench --example checkpoint
//! ```

use dualpar_bench::{build_cluster, ExperimentSpec, ProgramEntry};
use dualpar_cluster::prelude::*;
use dualpar_workloads::Btio;

fn main() {
    let strategies = [
        IoStrategy::Vanilla,
        IoStrategy::Collective,
        IoStrategy::DualParForced,
    ];
    println!("BTIO-style checkpoint: 64 processes, 16-byte cells, 24 MB per run\n");
    let mut base = None;
    for strategy in strategies {
        let workload = Btio {
            nprocs: 64,
            dataset: 24 << 20,
            collective: strategy == IoStrategy::Collective,
            ..Default::default()
        };
        let spec = ExperimentSpec {
            programs: vec![ProgramEntry {
                workload: workload.into(),
                strategy,
                start_secs: 0.0,
            }],
            ..ExperimentSpec::default()
        };
        let report = build_cluster(&spec).run();
        let p = &report.programs[0];
        let thr = p.throughput_mbps();
        let speedup = base.map(|b: f64| thr / b).unwrap_or(1.0);
        base.get_or_insert(thr);
        println!(
            "{:<16} {:>9.2} MB/s   checkpoint time {:>8.1} s   {:>5.0}x vs vanilla",
            strategy.label(),
            thr,
            p.elapsed().as_secs_f64(),
            speedup,
        );
    }
    println!("\nCollective I/O fixes each call in isolation; DualPar accumulates a");
    println!("cache quota's worth of calls per process before touching the disks,");
    println!("so its write-back batches are bigger and need no per-call shuffle.");
}
