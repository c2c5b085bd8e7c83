//! Opportunistic mode switching under interference — the Fig. 7 scenario.
//!
//! `mpi-io-test` streams sequentially and alone: the disks are efficient,
//! so adaptive DualPar leaves it in the computation-driven mode. Twenty
//! seconds in, `hpio` joins on the same data servers and the two request
//! streams shred each other's locality. EMC sees the seek distances blow
//! up while the per-node sorted request streams stay dense, and switches
//! both programs into the data-driven mode.
//!
//! ```sh
//! cargo run --release -p dualpar-bench --example interference
//! ```
//!
//! Flags:
//! - `--small` scales the workloads down (~32 MB instead of 2 GB) so a run
//!   finishes in well under a second — used by `scripts/check.sh` to
//!   produce the golden trace;
//! - `--trace <path>` records the adaptive run's full JSONL event trace to
//!   `<path>` (for `dualpar-audit trace`).
//!
//! A bad command line prints usage and exits 2; a failed trace write exits 1.

use dualpar_cluster::prelude::*;
use dualpar_workloads::{Hpio, MpiIoTest};
use std::io::Write;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: interference [--small] [--trace <out.jsonl>]";

struct Scenario {
    small: bool,
    trace: Option<PathBuf>,
}

fn run(adaptive: bool, scenario: &Scenario) {
    let strategy = if adaptive {
        IoStrategy::DualPar
    } else {
        IoStrategy::Vanilla
    };
    let stream = MpiIoTest {
        nprocs: 16,
        file_size: if scenario.small { 32 << 20 } else { 2 << 30 },
        barrier_every: 8,
        ..Default::default()
    };
    let hpio = Hpio {
        nprocs: 16,
        region_count: if scenario.small { 64 } else { 1024 },
    };
    let hpio_start = if scenario.small { 1 } else { 10 };
    // Trace only the adaptive run: it is the one exercising EMC/PEC/CRM.
    let tracing = adaptive && scenario.trace.is_some();
    let mut cfg = ClusterConfig::default();
    if tracing {
        cfg.telemetry = TelemetryConfig {
            level: TelemetryLevel::Trace,
            trace_capacity: 1 << 22,
            spans: false,
        };
    }
    let mut cluster = Cluster::new(cfg);
    let stream_file = cluster.create_file("stream", stream.file_size);
    let hpio_file = cluster.create_file("hpio", hpio.file_size());
    cluster.add_program(ProgramSpec::new(stream.build(stream_file), strategy));
    let mut late = hpio.build(hpio_file);
    late.name = "hpio".into();
    cluster
        .add_program(ProgramSpec::new(late, strategy).starting_at(SimTime::from_secs(hpio_start)));
    let report = cluster.run();
    if tracing {
        let path = scenario.trace.as_deref().expect("checked above");
        let snapshot = report.telemetry.as_ref().expect("telemetry is on");
        assert_eq!(
            snapshot.trace_dropped, 0,
            "trace ring overflowed; raise trace_capacity"
        );
        if let Err(e) = write_trace(&cluster, path) {
            eprintln!("interference: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "[trace: {} events -> {}]",
            snapshot.trace_events,
            path.display()
        );
    }
    println!("--- {} ---", strategy.label());
    // Per-second throughput timeline (MB/s), decimated for display.
    print!("throughput: ");
    for i in (0..report.throughput_timeline.num_bins()).step_by(2) {
        print!("{:.0} ", report.throughput_timeline.rate_per_sec(i) / 1e6);
    }
    println!("(MB/s, every 2 s)");
    for e in &report.mode_events {
        println!(
            "  t={:.1}s  program {} -> {:?}",
            e.at.as_secs_f64(),
            e.program_index,
            e.mode
        );
    }
    println!(
        "makespan {:.1} s, aggregate {:.1} MB/s\n",
        report.sim_end.as_secs_f64(),
        report.aggregate_throughput_mbps()
    );
}

fn write_trace(cluster: &Cluster, path: &Path) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    cluster.export_trace(&mut file)?;
    file.flush()
}

fn usage_error(msg: &str) -> ! {
    eprintln!("interference: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut scenario = Scenario {
        small: false,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => scenario.small = true,
            "--trace" => match args.next() {
                Some(path) => scenario.trace = Some(PathBuf::from(path)),
                None => usage_error("--trace needs a path"),
            },
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    run(false, &scenario);
    run(true, &scenario);
}
