//! `dualpar` — run simulated experiments from the command line.
//!
//! Single experiment from a JSON specification:
//!
//! ```sh
//! cargo run --release -p dualpar-bench --bin dualpar -- experiment.json
//! cargo run --release -p dualpar-bench --bin dualpar -- --example > spec.json
//! cargo run --release -p dualpar-bench --bin dualpar -- experiment.json \
//!     --telemetry counters            # fold counters into the report JSON
//! cargo run --release -p dualpar-bench --bin dualpar -- experiment.json \
//!     --trace events.jsonl            # full event trace as JSON Lines
//! ```
//!
//! Time-attribution profile of a built-in experiment or a spec (spans
//! forced on; see `docs/PROFILING.md`):
//!
//! ```sh
//! cargo run --release -p dualpar-bench --bin dualpar -- profile quickstart
//! cargo run --release -p dualpar-bench --bin dualpar -- profile interference --folded
//! cargo run --release -p dualpar-bench --bin dualpar -- profile spec.json --json
//! ```
//!
//! The paper's figures, tables and ablations (see DESIGN.md §5), each a
//! registered entry; with no names every figure runs. Artifacts land in
//! `--out` (default `bench_results/` under the current directory):
//!
//! ```sh
//! cargo run --release -p dualpar-bench --bin dualpar -- figure
//! cargo run --release -p dualpar-bench --bin dualpar -- figure fig3_single_app
//! cargo run --release -p dualpar-bench --bin dualpar -- figure table3_misprefetch \
//!     --out /tmp/figs --jobs 2
//! ```
//!
//! Parallel figure-set suite (independent runs fanned over a worker pool;
//! per-run reports are byte-identical at any `--jobs` level):
//!
//! ```sh
//! cargo run --release -p dualpar-bench --bin dualpar -- suite --jobs 4
//! cargo run --release -p dualpar-bench --bin dualpar -- suite \
//!     --scale paper --out bench_results/BENCH_suite.json
//! cargo run --release -p dualpar-bench --bin dualpar -- suite \
//!     --verify-serial                 # re-run serially, compare reports
//! cargo run --release -p dualpar-bench --bin dualpar -- suite \
//!     --filter btio                   # entries whose name contains "btio"
//! cargo run --release -p dualpar-bench --bin dualpar -- suite \
//!     --filter-exact btio_dualpar     # exactly this entry
//! cargo run --release -p dualpar-bench --bin dualpar -- suite \
//!     --spec scenario.json            # entries from a JSON spec file
//! cargo run --release -p dualpar-bench --bin dualpar -- suite \
//!     --timeout-secs 300              # fail (not hang) runs over 5 min
//! cargo run --release -p dualpar-bench --bin dualpar -- suite \
//!     --timeout-secs 300 --retry 2    # re-run failed entries up to twice
//! ```
//!
//! A specification names the cluster configuration (all fields optional —
//! defaults are the paper's platform), a list of programs — each a workload
//! plus an I/O strategy and start time — and optional open-loop `arrivals`
//! streams. Workloads are either named benchmark presets or `dsl`
//! expressions (see `docs/WORKLOADS.md`):
//!
//! ```json
//! {
//!   "version": 1,
//!   "cluster": { "num_data_servers": 9 },
//!   "programs": [
//!     { "workload": { "mpi_io_test": { "nprocs": 64, "file_size": 268435456 } },
//!       "strategy": "DualPar", "start_secs": 0.0 }
//!   ],
//!   "arrivals": [
//!     { "workload": { "dsl": { "name": "hot", "nprocs": 8,
//!         "expr": { "pattern": { "ops": 64,
//!                                "offsets": { "zipf_hotspot": { "theta": 0.99 } } } } } },
//!       "strategy": "DualPar",
//!       "arrivals": { "process": { "poisson": { "rate_per_sec": 0.5 } },
//!                     "horizon_secs": 10.0, "seed": 7 } }
//!   ]
//! }
//! ```
//!
//! `suite --spec` also accepts a whole-suite document,
//! `{"entries": [{"name": ..., "spec": {...}}, ...]}`.

use dualpar_bench::figures::FigureRun;
use dualpar_bench::suite::{
    builtin_suite, entries_from_spec_json, filter_entries, run_entry, run_suite_entries,
    summarize_results, Scale,
};
use dualpar_bench::{build_cluster, ExperimentSpec};
use dualpar_cluster::TelemetryLevel;
use std::time::{Duration, Instant};

/// Pull `--flag value` out of the argument list, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() || args[i + 1].starts_with("--") {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Pull a bare `--flag` out of the argument list. Returns its presence.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// `--jobs N`, defaulting to the machine's available parallelism.
fn take_jobs(args: &mut Vec<String>) -> usize {
    match take_flag(args, "--jobs") {
        None => dualpar_bench::default_jobs(),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs requires a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
    }
}

fn reject_unknown_flags(args: &[String], expected: &str) {
    if let Some(unknown) = args.iter().skip(1).find(|a| a.starts_with("--")) {
        eprintln!("unknown flag {unknown} (expected {expected})");
        std::process::exit(2);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("suite") {
        args.remove(1);
        run_suite_command(args);
        return;
    }
    if args.get(1).map(String::as_str) == Some("figure") {
        args.remove(1);
        run_figure_command(args);
        return;
    }
    if args.get(1).map(String::as_str) == Some("profile") {
        args.remove(1);
        run_profile_command(args);
        return;
    }
    if take_switch(&mut args, "--example") {
        println!(
            "{}",
            serde_json::to_string_pretty(&ExperimentSpec::default()).expect("serialise")
        );
        return;
    }
    let trace_path = take_flag(&mut args, "--trace");
    let telemetry = take_flag(&mut args, "--telemetry").map(|lvl| match lvl.as_str() {
        "off" => TelemetryLevel::Off,
        "counters" => TelemetryLevel::Counters,
        "trace" => TelemetryLevel::Trace,
        other => {
            eprintln!("unknown telemetry level {other:?} (expected off|counters|trace)");
            std::process::exit(2);
        }
    });
    reject_unknown_flags(&args, "--telemetry, --trace or --example");
    let Some(path) = args.get(1) else {
        eprintln!(
            "usage: dualpar <spec.json> [--telemetry off|counters|trace] [--trace <out.jsonl>]"
        );
        eprintln!("       dualpar figure [NAME...] [--out <dir>] [--jobs N]");
        eprintln!("       dualpar suite [--jobs N] [--scale small|paper] [--spec <path>] [--out <path>] [--filter <substr>] [--filter-exact <name>] [--timeout-secs S] [--retry N] [--verify-serial]");
        eprintln!("       (or --example to print a spec template)");
        std::process::exit(2);
    };
    let data = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    // Parses, schema-migrates (v0 specs load unchanged), and validates.
    let mut spec = ExperimentSpec::from_json(&data).unwrap_or_else(|e| {
        eprintln!("invalid spec: {e}");
        std::process::exit(1);
    });
    // Command-line telemetry flags override the spec: --trace needs the
    // full event stream, --telemetry picks the level explicitly.
    if let Some(level) = telemetry {
        spec.cluster.telemetry.level = level;
    }
    if trace_path.is_some() && spec.cluster.telemetry.level != TelemetryLevel::Trace {
        spec.cluster.telemetry.level = TelemetryLevel::Trace;
    }
    let mut cluster = build_cluster(&spec);
    let report = cluster.run();
    if let Some(out) = &trace_path {
        let mut w = std::io::BufWriter::new(std::fs::File::create(out).unwrap_or_else(|e| {
            eprintln!("cannot create {out}: {e}");
            std::process::exit(1);
        }));
        cluster.export_trace(&mut w).unwrap_or_else(|e| {
            eprintln!("cannot write trace to {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("event trace written to {out}");
    }
    eprintln!(
        "{:<14} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "program", "MB/s", "read MB", "write MB", "time s", "phases"
    );
    for p in &report.programs {
        eprintln!(
            "{:<14} {:>10.1} {:>10.1} {:>10.1} {:>8.2} {:>8}",
            p.name,
            p.throughput_mbps(),
            p.bytes_read as f64 / 1e6,
            p.bytes_written as f64 / 1e6,
            p.elapsed().as_secs_f64(),
            p.phases,
        );
    }
    eprintln!(
        "aggregate {:.1} MB/s over {:.2} s; {} events",
        report.aggregate_throughput_mbps(),
        report.sim_end.as_secs_f64(),
        report.events_processed
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("serialise report")
    );
}

/// `dualpar suite`: run the built-in figure-set suite over a worker pool
/// and write the machine-readable summary to `BENCH_suite.json`.
fn run_suite_command(mut args: Vec<String>) {
    let jobs = take_jobs(&mut args);
    let scale = match take_flag(&mut args, "--scale").as_deref() {
        None | Some("small") => Scale::Small,
        Some("paper") => Scale::Paper,
        Some(other) => {
            eprintln!("unknown scale {other:?} (expected small|paper)");
            std::process::exit(2);
        }
    };
    let retries = match take_flag(&mut args, "--retry") {
        None => 0,
        Some(v) => match v.parse::<u32>() {
            Ok(n) => n,
            _ => {
                eprintln!("--retry requires a non-negative integer, got {v:?}");
                std::process::exit(2);
            }
        },
    };
    let out_path = std::path::PathBuf::from(
        take_flag(&mut args, "--out").unwrap_or_else(|| "bench_results/BENCH_suite.json".into()),
    );
    let spec_path = take_flag(&mut args, "--spec");
    let filter = take_flag(&mut args, "--filter");
    let filter_exact = take_flag(&mut args, "--filter-exact");
    let verify_serial = take_switch(&mut args, "--verify-serial");
    let timeout = match take_flag(&mut args, "--timeout-secs") {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(secs) if secs > 0.0 && secs.is_finite() => Some(Duration::from_secs_f64(secs)),
            _ => {
                eprintln!("--timeout-secs requires a positive number of seconds, got {v:?}");
                std::process::exit(2);
            }
        },
    };
    reject_unknown_flags(
        &args,
        "--jobs, --scale, --spec, --out, --filter, --filter-exact, --timeout-secs, --retry or --verify-serial",
    );
    if args.len() > 1 {
        eprintln!("unexpected argument {:?}", args[1]);
        std::process::exit(2);
    }
    if filter.is_some() && filter_exact.is_some() {
        eprintln!("--filter and --filter-exact are mutually exclusive");
        std::process::exit(2);
    }

    let mut entries = match &spec_path {
        None => builtin_suite(scale),
        Some(path) => {
            let data = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            let stem = std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "spec".to_string());
            entries_from_spec_json(&data, &stem).unwrap_or_else(|e| {
                eprintln!("invalid suite spec {path}: {e}");
                std::process::exit(1);
            })
        }
    };
    let (pattern, exact) = match (&filter, &filter_exact) {
        (Some(f), None) => (f.as_str(), false),
        (None, Some(f)) => (f.as_str(), true),
        _ => ("", false),
    };
    if !pattern.is_empty() {
        let available: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
        entries = filter_entries(entries, pattern, exact);
        if entries.is_empty() {
            let flag = if exact { "--filter-exact" } else { "--filter" };
            eprintln!(
                "{flag} {pattern:?} matches no suite entries; available: {}",
                available.join(", ")
            );
            std::process::exit(2);
        }
    }
    eprintln!("running {} experiments with --jobs {jobs}", entries.len());
    #[expect(
        clippy::disallowed_methods,
        reason = "host wall time for the suite summary and CLI footer; nothing simulated reads it"
    )]
    let t0 = Instant::now();
    let results = run_suite_entries(&entries, jobs, timeout, retries);
    let total_wall = t0.elapsed().as_secs_f64();
    let failed = results.iter().filter(|r| r.is_err()).count();

    let mut serial_walls: Option<Vec<f64>> = None;
    if verify_serial {
        // Serial twin: every report must be byte-identical to the pooled
        // run's, or the suite is rightly declared non-deterministic.
        // Failed (timed-out) entries have no report to compare; they are
        // skipped here and already counted toward the exit status.
        let mut mismatches = 0;
        let mut walls = Vec::with_capacity(entries.len());
        for (entry, pooled) in entries.iter().zip(&results) {
            let Ok(pooled) = pooled else { continue };
            let serial = run_entry(entry);
            if serial.report_json != pooled.report_json {
                eprintln!(
                    "DETERMINISM VIOLATION: {} differs from its serial twin",
                    entry.name
                );
                mismatches += 1;
            }
            walls.push(serial.wall_secs);
        }
        if mismatches > 0 {
            eprintln!("{mismatches} run(s) diverged between --jobs {jobs} and serial");
            std::process::exit(1);
        }
        eprintln!(
            "verify-serial: all {} reports byte-identical",
            results.len() - failed
        );
        serial_walls = Some(walls);
    }

    let mut summary = summarize_results(&results, jobs, total_wall);
    if let Some(walls) = serial_walls {
        // Replace the oversubscription-biased in-pool walls with the true
        // serial measurements the verification pass just produced.
        summary.serial_wall_secs_sum = walls.iter().sum();
        summary.speedup_estimate = if total_wall > 0.0 {
            summary.serial_wall_secs_sum / total_wall
        } else {
            0.0
        };
    }
    eprintln!(
        "{:<20} {:>9} {:>12} {:>12} {:>10}",
        "run", "wall s", "sim events", "events/s", "MB/s"
    );
    for r in &summary.runs {
        match &r.error {
            Some(err) => eprintln!("{:<20} FAILED: {err}", r.name),
            None => eprintln!(
                "{:<20} {:>9.3} {:>12} {:>12.0} {:>10.1}",
                r.name, r.wall_secs, r.sim_events, r.sim_events_per_sec, r.aggregate_mbps
            ),
        }
    }
    eprintln!(
        "suite wall {:.2}s, serial-sum {:.2}s, speedup {:.2}x (jobs={})",
        summary.total_wall_secs, summary.serial_wall_secs_sum, summary.speedup_estimate, jobs
    );
    let json = serde_json::to_string_pretty(&summary).expect("serialise summary");
    if let Some(dir) = out_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                eprintln!("cannot create {}: {e}", dir.display());
                std::process::exit(1);
            });
        }
    }
    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    });
    eprintln!("[saved {}]", out_path.display());
    if failed > 0 {
        // The artifact above records each failure; the exit status makes
        // sure no caller mistakes a partial suite for a clean one.
        eprintln!("{failed} run(s) failed (see \"error\" fields in the summary)");
        std::process::exit(1);
    }
}

/// `dualpar figure`: run the named figures (all of them when none is
/// named) on a `--jobs` worker pool, writing their artifacts into `--out`.
fn run_figure_command(mut args: Vec<String>) {
    let jobs = take_jobs(&mut args);
    let out = take_flag(&mut args, "--out").unwrap_or_else(|| "bench_results".into());
    reject_unknown_flags(&args, "--out or --jobs");
    let figures = dualpar_bench::figures::select(&args[1..]).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let fx = FigureRun {
        jobs,
        out: std::path::PathBuf::from(&out),
    };
    std::fs::create_dir_all(&fx.out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        std::process::exit(1);
    });
    for (name, run) in figures {
        eprintln!("== figure {name}");
        run(&fx);
    }
}

/// `dualpar profile`: run one experiment with span recording forced on and
/// print its time-attribution profile.
///
/// The target is either a spec file path or a built-in name: `quickstart`
/// (the quickstart example's workload at smoke scale), `interference` (the
/// two-program interference pair), or any suite entry name such as
/// `btio_dualpar`. Output is simulated-time only, so every mode is
/// byte-identical across repeat runs and `--jobs` levels.
///
/// `--text` (default) renders the time-in-state table, per-stage latency
/// quantiles, and critical path. `--folded` prints flamegraph-collapsed
/// stacks (`parent;child self_us`) for standard flamegraph tooling.
/// `--json` prints the full `RunReport` (profile embedded under
/// `span_profile`) — the input format `dualpar-audit trace --baseline`
/// diffs. `--trace <path>` additionally exports the JSONL event trace,
/// with span open/close events mirrored in, for `dualpar-audit trace`.
fn run_profile_command(mut args: Vec<String>) {
    let as_json = take_switch(&mut args, "--json");
    let as_folded = take_switch(&mut args, "--folded");
    let as_text = take_switch(&mut args, "--text");
    if as_json as u8 + as_folded as u8 + as_text as u8 > 1 {
        eprintln!("--json, --text and --folded are mutually exclusive");
        std::process::exit(2);
    }
    let trace_path = take_flag(&mut args, "--trace");
    reject_unknown_flags(&args, "--json, --text, --folded or --trace");
    let Some(target) = args.get(1).cloned() else {
        eprintln!("usage: dualpar profile <name|spec.json> [--json|--text|--folded] [--trace <out.jsonl>]");
        eprintln!("       built-in names: quickstart, interference, or any suite entry (e.g. btio_dualpar)");
        std::process::exit(2);
    };
    if args.len() > 2 {
        eprintln!("unexpected argument {:?}", args[2]);
        std::process::exit(2);
    }
    let mut spec = resolve_profile_target(&target);
    spec.cluster.telemetry.spans = true;
    if spec.cluster.telemetry.level == TelemetryLevel::Off {
        // Counters carry the span bookkeeping totals into the report.
        spec.cluster.telemetry.level = TelemetryLevel::Counters;
    }
    if trace_path.is_some() {
        spec.cluster.telemetry.level = TelemetryLevel::Trace;
    }
    let mut cluster = build_cluster(&spec);
    let report = cluster.run();
    if let Some(out) = &trace_path {
        let mut w = std::io::BufWriter::new(std::fs::File::create(out).unwrap_or_else(|e| {
            eprintln!("cannot create {out}: {e}");
            std::process::exit(1);
        }));
        cluster.export_trace(&mut w).unwrap_or_else(|e| {
            eprintln!("cannot write trace to {out}: {e}");
            std::process::exit(1);
        });
        eprintln!("event trace written to {out}");
    }
    let profile = report
        .span_profile
        .as_ref()
        .expect("spans were forced on above");
    if as_folded {
        print!("{}", dualpar_cluster::folded(cluster.telemetry().spans()));
    } else if as_json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serialise report")
        );
    } else {
        print!("{}", profile.render_text());
    }
}

/// Map a `profile` target to an experiment spec: an existing file parses
/// as a spec; otherwise the name selects a built-in experiment.
fn resolve_profile_target(target: &str) -> ExperimentSpec {
    if std::path::Path::new(target).is_file() {
        let data = std::fs::read_to_string(target).unwrap_or_else(|e| {
            eprintln!("cannot read {target}: {e}");
            std::process::exit(1);
        });
        return ExperimentSpec::from_json(&data).unwrap_or_else(|e| {
            eprintln!("invalid spec: {e}");
            std::process::exit(1);
        });
    }
    let name = match target {
        // The quickstart example's DualPar leg at suite smoke scale.
        "quickstart" => "mpiio_dualpar",
        "interference" => "interference_pair",
        other => other,
    };
    let entries = builtin_suite(Scale::Small);
    match entries.into_iter().find(|e| e.name == name) {
        Some(entry) => entry.spec,
        None => {
            let names: Vec<String> = builtin_suite(Scale::Small)
                .into_iter()
                .map(|e| e.name)
                .collect();
            eprintln!(
                "unknown profile target {target:?}: not a spec file, and not one of \
                 quickstart, interference, {}",
                names.join(", ")
            );
            std::process::exit(2);
        }
    }
}
