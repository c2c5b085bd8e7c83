//! Span-profile golden tests: the time-attribution profile is a pure
//! function of the experiment spec — byte-identical across repeat runs and
//! `--jobs` levels — and structurally sound (states cover the makespan,
//! stages appear with sane quantiles, the critical path reaches t=0, the
//! folded rendering parses as flamegraph-collapsed stacks).

use dualpar_bench::suite::{builtin_suite, run_parallel, Scale, SuiteEntry};
use dualpar_cluster::{folded, RunReport, SpanProfile, TelemetryLevel};

/// The two profiled fixtures: the quickstart workload (single DualPar
/// mpi-io-test) and the two-program interference pair.
fn profiled_entries() -> Vec<SuiteEntry> {
    let mut entries: Vec<SuiteEntry> = builtin_suite(Scale::Small)
        .into_iter()
        .filter(|e| e.name == "mpiio_dualpar" || e.name == "interference_pair")
        .collect();
    assert_eq!(entries.len(), 2, "suite fixtures renamed?");
    for e in &mut entries {
        // Spans are inert below Counters (the all-off fast path stays
        // untouched), so profiling raises the level too.
        e.spec.cluster.telemetry.spans = true;
        e.spec.cluster.telemetry.level = TelemetryLevel::Counters;
    }
    entries
}

#[test]
fn span_profile_is_byte_identical_across_jobs() {
    let entries = profiled_entries();
    let serial = run_parallel(&entries, 1);
    let pooled = run_parallel(&entries, 4);
    for (a, b) in serial.iter().zip(&pooled) {
        assert!(
            a.report.span_profile.is_some(),
            "{}: spans were enabled but no profile was built",
            a.name
        );
        assert_eq!(
            a.report_json, b.report_json,
            "{}: profile differs between --jobs 1 and --jobs 4",
            a.name
        );
    }
}

/// Shared structural checks for one profiled report.
fn check_profile(name: &str, report: &RunReport) -> SpanProfile {
    let profile = report.span_profile.clone().expect("spans on");
    assert_eq!(profile.spans_open, 0, "{name}: unclosed spans");
    assert!(profile.spans_total > 0, "{name}: empty span log");
    assert!(profile.makespan > 0.0);
    // Every program rank gets a time-in-state row, labelled p<prog>/r<rank>.
    let nprocs: usize = report.programs.iter().map(|p| p.nprocs).sum();
    assert_eq!(profile.time_in_state.len(), nprocs);
    for (prog, p) in report.programs.iter().enumerate() {
        for rank in 0..p.nprocs {
            let label = format!("p{prog}/r{rank}");
            assert!(
                profile.time_in_state.iter().any(|r| r.label == label),
                "{name}: missing row {label}"
            );
        }
    }
    for row in &profile.time_in_state {
        for (state, secs) in &row.seconds {
            assert!(
                *secs >= 0.0 && *secs <= profile.makespan + 1e-9,
                "{name}: {} spends {secs}s in {state} over a {}s makespan",
                row.label,
                profile.makespan
            );
        }
    }
    // The full read lifecycle shows up, and quantiles are ordered.
    for stage in [
        "req.life",
        "req.issue",
        "server.queue",
        "disk.service",
        "req.ack",
    ] {
        let h = profile
            .stage_latency
            .get(stage)
            .unwrap_or_else(|| panic!("{name}: stage {stage} missing"));
        assert!(h.count > 0);
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max + 1e-12);
    }
    // The critical path starts at the latest finish and walks back toward
    // t = 0 (it may stop early only at the 256-hop cap).
    let path = &profile.critical_path;
    assert!(!path.is_empty(), "{name}: empty critical path");
    assert!(path[0].close > 0.0);
    assert!(
        path.last().unwrap().open == 0.0 || path.len() == 256,
        "{name}: path stops at t={} after {} hops",
        path.last().unwrap().open,
        path.len()
    );
    for hop in path.windows(2) {
        assert!(
            hop[1].close <= hop[0].open + 1e-12,
            "{name}: path not decreasing"
        );
    }
    profile
}

#[test]
fn span_profile_structure_is_sound() {
    let runs = run_parallel(&profiled_entries(), 1);
    for run in &runs {
        check_profile(&run.name, &run.report);
    }
}

#[test]
fn folded_output_renders_collapsed_stacks() {
    let mut entries = profiled_entries();
    entries.truncate(1); // quickstart fixture is enough
    let entry = &entries[0];
    let mut cluster = dualpar_bench::build_cluster(&entry.spec);
    cluster.run();
    let text = folded(cluster.telemetry().spans());
    assert!(!text.is_empty());
    let mut saw_child = false;
    for line in text.lines() {
        // `name(;name)* <integer-microseconds>` — what flamegraph.pl and
        // inferno consume.
        let (stack, weight) = line.rsplit_once(' ').expect("stack and weight");
        assert!(weight.parse::<u64>().is_ok(), "bad weight in {line:?}");
        assert!(
            weight.parse::<u64>().unwrap() > 0,
            "zero-weight line {line:?}"
        );
        assert!(!stack.is_empty());
        for frame in stack.split(';') {
            assert!(!frame.is_empty(), "empty frame in {line:?}");
            assert!(!frame.contains(' '), "space inside frame in {line:?}");
        }
        saw_child |= stack.contains(';');
    }
    assert!(saw_child, "no parent;child stack in folded output:\n{text}");
}
