//! # dualpar-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (see DESIGN.md §5 for the index), plus ablation
//! benches for the design choices and criterion micro-benchmarks of the
//! simulator itself.
//!
//! Each harness is a `harness = false` bench target: it runs the relevant
//! simulations, prints the paper-style rows, and writes machine-readable
//! JSON under `bench_results/`.

use dualpar_cluster::{Cluster, ClusterConfig};
use serde::Serialize;
use std::path::PathBuf;

pub mod experiments;
pub mod registry;
pub mod spec;
pub mod suite;

pub use dualpar_sim::default_jobs;
pub use registry::{known_tags, PresetEntry, Workload, PRESETS};
pub use spec::{
    add_workload, build_cluster, expected_cost, workload_cost, ArrivalEntry, ExperimentSpec,
    ProgramEntry, WorkloadSpec, SPEC_VERSION,
};
pub use suite::{
    builtin_suite, entries_from_spec_json, filter_entries, parallel_map, parallel_map_prioritized,
    run_entry, run_parallel, summarize, Scale, SuiteEntry, SuiteRun, SuiteSummary,
};

/// `--jobs N` from the process arguments, defaulting to the machine's
/// available parallelism. Exits with status 2 on a malformed value — user
/// input, so no panics.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--jobs") {
        None => default_jobs(),
        Some(i) => match args.get(i + 1).map(|v| v.parse::<usize>()) {
            Some(Ok(n)) if n >= 1 => n,
            _ => {
                eprintln!("error: --jobs requires a positive integer");
                std::process::exit(2);
            }
        },
    }
}

/// The paper's platform scaled for simulation: nine data servers (as on
/// Darwin), four compute nodes, 64 KB striping, CFQ, GigE.
pub fn paper_cluster() -> ClusterConfig {
    ClusterConfig::default()
}

/// A smaller cluster for quick sanity runs.
pub fn small_cluster() -> ClusterConfig {
    ClusterConfig {
        num_data_servers: 3,
        num_compute_nodes: 2,
        ..ClusterConfig::default()
    }
}

pub fn cluster(cfg: ClusterConfig) -> Cluster {
    Cluster::new(cfg)
}

/// Directory where harnesses drop their JSON results.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → ../../bench_results
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("bench_results");
    std::fs::create_dir_all(&p).expect("create bench_results/");
    p
}

/// Fallible core of [`apply_telemetry_args`], parameterised over the
/// argument list so tests can exercise the error paths. A flag given
/// without a value, a repeated flag, or an unknown telemetry level is an
/// `Err` describing the problem — never a panic, since these are user
/// input, not program bugs. Arguments other than `--telemetry`/`--trace`
/// are ignored (cargo passes harness flags like `--bench` through to
/// `harness = false` targets).
pub fn try_apply_telemetry_args(
    cfg: &mut ClusterConfig,
    args: &[String],
) -> Result<Option<PathBuf>, String> {
    use dualpar_cluster::TelemetryLevel;
    let value_of = |flag: &str| -> Result<Option<&String>, String> {
        let mut hits = args.iter().enumerate().filter(|(_, a)| *a == flag);
        match hits.next() {
            None => Ok(None),
            Some((i, _)) => {
                if hits.next().is_some() {
                    return Err(format!("{flag} given more than once"));
                }
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => Ok(Some(v)),
                    _ => Err(format!("{flag} requires a value")),
                }
            }
        }
    };
    if let Some(level) = value_of("--telemetry")? {
        cfg.telemetry.level = match level.as_str() {
            "off" => TelemetryLevel::Off,
            "counters" => TelemetryLevel::Counters,
            "trace" => TelemetryLevel::Trace,
            other => {
                return Err(format!(
                    "unknown telemetry level {other:?} (expected off|counters|trace)"
                ))
            }
        };
    }
    let path = value_of("--trace")?.map(PathBuf::from);
    if path.is_some() && cfg.telemetry.level != TelemetryLevel::Trace {
        cfg.telemetry.level = TelemetryLevel::Trace;
    }
    Ok(path)
}

/// Parse `--telemetry <off|counters|trace>` and `--trace <path>` from the
/// process arguments (reachable via `cargo bench --bench <name> -- --trace
/// out.jsonl`), apply the level to `cfg`, and return the trace output path
/// if one was requested. `--trace` implies trace-level telemetry.
///
/// On malformed input this prints the problem to stderr and exits with
/// status 2, so a typo'd bench invocation fails loudly instead of silently
/// running with default telemetry.
pub fn apply_telemetry_args(cfg: &mut ClusterConfig) -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    match try_apply_telemetry_args(cfg, &args) {
        Ok(path) => path,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Write a finished run's JSONL event trace where `--trace` asked for it.
#[expect(
    clippy::panic,
    reason = "a fail-fast harness: the message names the path, which `expect` cannot format"
)]
pub fn export_trace_to(cluster: &Cluster, path: &std::path::Path) {
    let file = std::fs::File::create(path).unwrap_or_else(|e| panic!("create {path:?}: {e}"));
    let mut w = std::io::BufWriter::new(file);
    cluster
        .export_trace(&mut w)
        .unwrap_or_else(|e| panic!("write trace {path:?}: {e}"));
    println!("[trace {}]", path.display());
}

/// Persist a harness's structured output.
#[expect(
    clippy::panic,
    reason = "a fail-fast harness: the message names the path, which `expect` cannot format"
)]
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let data = serde_json::to_string_pretty(value).expect("serialise results");
    std::fs::write(&path, data).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    println!("\n[saved {}]", path.display());
}

/// Emit a gnuplot script plus `.dat` files for an x/y plot with one or
/// more series. Render with `gnuplot bench_results/<name>.gp` (produces
/// `<name>.png`). Points are plotted as dots for scatter-style figures
/// (the paper's LBN traces) and connected when `lines` is true.
#[expect(
    clippy::panic,
    reason = "a fail-fast harness: the message names the path, which `expect` cannot format"
)]
pub fn save_gnuplot(
    name: &str,
    title: &str,
    xlabel: &str,
    ylabel: &str,
    lines: bool,
    series: &[(&str, Vec<(f64, f64)>)],
) {
    let dir = results_dir();
    let mut plot_clauses = Vec::new();
    for (label, points) in series {
        let slug: String = label
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let dat = dir.join(format!("{name}_{slug}.dat"));
        let mut body = String::new();
        for (x, y) in points {
            body.push_str(&format!("{x} {y}\n"));
        }
        std::fs::write(&dat, body).unwrap_or_else(|e| panic!("write {dat:?}: {e}"));
        let style = if lines { "with linespoints" } else { "with points pt 7 ps 0.3" };
        plot_clauses.push(format!(
            "'{}' {style} title '{label}'",
            dat.file_name().expect("joined path has a file name").to_string_lossy()
        ));
    }
    let gp = dir.join(format!("{name}.gp"));
    let script = format!(
        "set terminal pngcairo size 900,600\nset output '{name}.png'\nset title '{title}'\nset xlabel '{xlabel}'\nset ylabel '{ylabel}'\nset key outside\nplot {}\n",
        plot_clauses.join(", \\\n     ")
    );
    std::fs::write(&gp, script).unwrap_or_else(|e| panic!("write {gp:?}: {e}"));
    println!("[gnuplot {}]", gp.display());
}

/// Print a fixed-width table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let cols: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", cols.join("  "));
    };
    line(header.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists() {
        let d = results_dir();
        assert!(d.ends_with("bench_results"));
        assert!(d.is_dir());
    }

    #[test]
    fn telemetry_args_parse_and_reject() {
        use dualpar_cluster::TelemetryLevel;
        let argv = |s: &[&str]| -> Vec<String> { s.iter().map(|a| a.to_string()).collect() };

        let mut cfg = small_cluster();
        let out = try_apply_telemetry_args(&mut cfg, &argv(&["bin", "--telemetry", "counters"]));
        assert_eq!(out, Ok(None));
        assert_eq!(cfg.telemetry.level, TelemetryLevel::Counters);

        // --trace implies trace-level telemetry and returns the path.
        let mut cfg = small_cluster();
        let out = try_apply_telemetry_args(&mut cfg, &argv(&["bin", "--trace", "t.jsonl"]));
        assert_eq!(out, Ok(Some(PathBuf::from("t.jsonl"))));
        assert_eq!(cfg.telemetry.level, TelemetryLevel::Trace);

        // Unrelated flags (cargo's --bench) pass through untouched.
        let mut cfg = small_cluster();
        assert_eq!(
            try_apply_telemetry_args(&mut cfg, &argv(&["bin", "--bench"])),
            Ok(None)
        );

        // Error paths: missing value, value swallowed by next flag,
        // unknown level, duplicate flag.
        let mut cfg = small_cluster();
        assert!(try_apply_telemetry_args(&mut cfg, &argv(&["bin", "--telemetry"])).is_err());
        assert!(try_apply_telemetry_args(
            &mut cfg,
            &argv(&["bin", "--trace", "--telemetry", "off"])
        )
        .is_err());
        assert!(
            try_apply_telemetry_args(&mut cfg, &argv(&["bin", "--telemetry", "loud"])).is_err()
        );
        assert!(try_apply_telemetry_args(
            &mut cfg,
            &argv(&["bin", "--telemetry", "off", "--telemetry", "trace"])
        )
        .is_err());
    }

    #[test]
    fn save_and_read_json() {
        #[derive(Serialize)]
        struct T {
            x: u32,
        }
        save_json("selftest", &T { x: 7 });
        let data = std::fs::read_to_string(results_dir().join("selftest.json")).unwrap();
        assert!(data.contains("\"x\": 7"));
        let _ = std::fs::remove_file(results_dir().join("selftest.json"));
    }
}
