//! Building a workload by hand — the public API below the benchmark suite.
//!
//! A 2-D field solver: each rank owns a block of a square array (via an
//! `MPI_Type_create_subarray`-style datatype), alternates computation with
//! checkpoint writes, and finally reads a neighbour's block (a halo
//! exchange through the file — deliberately awkward I/O). Runs the same
//! program under vanilla MPI-IO and adaptive DualPar.
//!
//! ```sh
//! cargo run --release -p dualpar-bench --example custom_workload
//! ```

use dualpar_cluster::prelude::*;
use dualpar_mpiio::Datatype;

/// Grid side in elements; 8-byte elements; 4×4 rank blocks.
const GRID: u64 = 2048;
const ELEM: u64 = 8;
const BLOCKS: u64 = 4; // ranks per side ⇒ 16 ranks
const STEPS: u64 = 8;

fn rank_block(rank: u64) -> Datatype {
    let sub = GRID / BLOCKS;
    Datatype::Subarray2 {
        rows: GRID,
        cols: GRID,
        elem_bytes: ELEM,
        row_off: (rank / BLOCKS) * sub,
        col_off: (rank % BLOCKS) * sub,
        sub_rows: sub,
        sub_cols: sub,
    }
}

fn build(file: FileId) -> ProgramScript {
    let nprocs = (BLOCKS * BLOCKS) as usize;
    let ranks = (0..nprocs as u64)
        .map(|rank| {
            let mut ops = Vec::new();
            for step in 0..STEPS {
                ops.push(Op::Compute(SimDuration::from_millis(10)));
                // Checkpoint this rank's block.
                ops.push(Op::Io(IoCall::from_datatype(
                    IoKind::Write,
                    file,
                    &rank_block(rank),
                    0,
                )));
                ops.push(Op::Barrier(step));
            }
            // Halo through the file: read the neighbour's block back.
            let neighbour = (rank + 1) % (BLOCKS * BLOCKS);
            ops.push(Op::Io(IoCall::from_datatype(
                IoKind::Read,
                file,
                &rank_block(neighbour),
                0,
            )));
            ProcessScript::new(ops)
        })
        .collect();
    ProgramScript {
        name: "field-solver".into(),
        ranks,
    }
}

fn main() {
    let bytes = GRID * GRID * ELEM;
    println!(
        "2-D field solver: {GRID}x{GRID} grid ({:.0} MB), {} ranks, {STEPS} checkpoints\n",
        bytes as f64 / 1e6,
        BLOCKS * BLOCKS
    );
    for strategy in [IoStrategy::Vanilla, IoStrategy::DualPar] {
        let report = Experiment::darwin()
            .file("field.dat", bytes)
            .program(strategy, |files| build(files[0]))
            .run()
            .expect("valid experiment");
        let p = &report.programs[0];
        println!(
            "{:<10} {:>7.2} s  wrote {:>6.1} MB  read {:>5.1} MB  {} phases  {} mode switches",
            strategy.label(),
            p.elapsed().as_secs_f64(),
            p.bytes_written as f64 / 1e6,
            p.bytes_read as f64 / 1e6,
            p.phases,
            report.mode_events.len(),
        );
    }
    println!(
        "\nEach rank's block is {} noncontiguous row-strips of {} bytes —",
        GRID / BLOCKS,
        (GRID / BLOCKS) * ELEM
    );
    println!("exactly the access shape the data-driven mode was built to repair.");
}
