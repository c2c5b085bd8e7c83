//! Parallel experiment-suite runner.
//!
//! Independent simulations are pure functions of their [`ExperimentSpec`]
//! (each run builds its own [`Cluster`](dualpar_cluster::Cluster), event
//! queue, RNG streams, and telemetry), so a suite of them fans out over a
//! scoped worker pool with no shared mutable state. Determinism is a hard
//! guarantee: every run produces a byte-identical serialized report and
//! event trace regardless of `jobs` — only the wall-clock numbers vary.
//!
//! The pool itself lives in [`dualpar_sim::pool`] (it is shared with the
//! registered figures): workers claim entries from a shared work queue and
//! deliver `(original_index, result)` over a channel, so no locks are held
//! anywhere. Results are re-ordered by input index before returning.
//!
//! [`run_parallel`] claims in *longest-expected-first* order
//! ([`crate::spec::expected_cost`]): the dominant run (`btio_vanilla`,
//! ~65 % of the suite's serial wall) starts immediately while idle workers
//! steal the remaining entries off the shared queue behind it, instead of
//! discovering it last and serializing the tail. Claim order changes
//! *which worker* runs an entry and *when* — never the entry's private
//! simulation — so reports and traces stay byte-identical at every
//! `--jobs` level, including `--jobs 1` (which short-circuits to a plain
//! serial map).

use crate::spec::{build_cluster, expected_cost, ExperimentSpec, ProgramEntry, WorkloadSpec};
use dualpar_cluster::prelude::IoKind;
use dualpar_cluster::{IoStrategy, RunReport, TelemetryLevel};
pub use dualpar_sim::{parallel_map, parallel_map_prioritized};
use dualpar_sim::{run_with_deadline, DeadlineError, FxHasher};
use dualpar_workloads::{Btio, Hpio, IorMpiIo, MpiIoTest, Noncontig, S3asim};
use serde::{Deserialize, Serialize};
use std::hash::Hasher;
use std::time::{Duration, Instant};

/// One named run of a suite.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    pub name: String,
    pub spec: ExperimentSpec,
}

impl SuiteEntry {
    pub fn new(name: impl Into<String>, spec: ExperimentSpec) -> Self {
        SuiteEntry {
            name: name.into(),
            spec,
        }
    }
}

/// A finished run: the structured report plus its canonical serialized
/// form (what determinism is judged on) and the measured wall time (the
/// one field that legitimately varies between runs).
#[derive(Debug)]
pub struct SuiteRun {
    pub name: String,
    pub report: RunReport,
    /// `serde_json` rendering of `report`; byte-identical across repeat
    /// runs of the same spec at any `jobs` level.
    pub report_json: String,
    /// The JSONL event trace, captured in memory when the spec asked for
    /// trace-level telemetry; byte-identical across repeat runs too.
    pub trace_jsonl: Option<String>,
    pub wall_secs: f64,
    /// Telemetry level the spec ran at (`"off"`, `"counters"`, `"trace"`).
    pub telemetry: &'static str,
    /// Whether span recording was on — spans add per-event bookkeeping, so
    /// wall-clock numbers from a spans-on run are not comparable to a
    /// spans-off baseline.
    pub spans: bool,
}

/// Execute one entry start-to-finish on the calling thread.
pub fn run_entry(entry: &SuiteEntry) -> SuiteRun {
    #[expect(
        clippy::disallowed_methods,
        reason = "host wall time for the suite summary and CLI footer; nothing simulated reads it"
    )]
    let t0 = Instant::now();
    let mut cluster = build_cluster(&entry.spec);
    let report = cluster.run();
    let wall_secs = t0.elapsed().as_secs_f64();
    let trace_jsonl = (entry.spec.cluster.telemetry.level == TelemetryLevel::Trace).then(|| {
        let mut buf = Vec::new();
        cluster
            .export_trace(&mut buf)
            .expect("in-memory trace export cannot fail");
        String::from_utf8(buf).expect("trace is UTF-8 JSONL")
    });
    let report_json = serde_json::to_string_pretty(&report).expect("serialise report");
    SuiteRun {
        name: entry.name.clone(),
        report,
        report_json,
        trace_jsonl,
        wall_secs,
        telemetry: match entry.spec.cluster.telemetry.level {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Trace => "trace",
        },
        spans: entry.spec.cluster.telemetry.spans,
    }
}

/// A suite entry that produced no report: it either overran the per-run
/// deadline or its worker panicked. Carries everything the summary needs
/// to still account for the entry.
#[derive(Debug)]
pub struct FailedRun {
    pub name: String,
    /// Human-readable cause, reproduced verbatim in `BENCH_suite.json`.
    pub error: String,
}

/// Outcome of one suite entry under [`run_parallel_with_timeout`].
pub type SuiteRunResult = Result<SuiteRun, FailedRun>;

/// Run a whole suite, `jobs` entries at a time, claiming entries in
/// longest-expected-first order so the dominant run never serializes the
/// tail. Entry `i` of the result corresponds to entry `i` of the input,
/// whatever order they started or finished in.
pub fn run_parallel(entries: &[SuiteEntry], jobs: usize) -> Vec<SuiteRun> {
    run_parallel_with_timeout(entries, jobs, None)
        .into_iter()
        .map(|r| match r {
            Ok(run) => run,
            Err(f) => unreachable!(
                "{}: failure without a deadline configured: {}",
                f.name, f.error
            ),
        })
        .collect()
}

/// [`run_parallel`] with an optional per-run wall-clock deadline: an entry
/// that overruns `timeout` fails with a reported error instead of hanging
/// the whole suite. The hung simulation's thread is abandoned, not killed
/// (see [`run_with_deadline`]), so a timed-out suite should exit soon
/// after reporting. Without a timeout, entries run directly on the pool
/// workers and a panic propagates as before.
pub fn run_parallel_with_timeout(
    entries: &[SuiteEntry],
    jobs: usize,
    timeout: Option<Duration>,
) -> Vec<SuiteRunResult> {
    run_suite_entries(entries, jobs, timeout, 0)
}

/// One pooled pass over the entries: the building block under
/// [`run_suite_entries`]' retry loop.
fn run_pass(entries: &[SuiteEntry], jobs: usize, timeout: Option<Duration>) -> Vec<SuiteRunResult> {
    let costs: Vec<u64> = entries.iter().map(|e| expected_cost(&e.spec)).collect();
    parallel_map_prioritized(entries, jobs, &costs, |_, e| {
        let Some(limit) = timeout else {
            return Ok(run_entry(e));
        };
        // The deadline thread outlives the borrow of `e`, so it gets its
        // own copy of the entry.
        let owned = e.clone();
        match run_with_deadline(move || run_entry(&owned), limit) {
            Ok(run) => Ok(run),
            Err(DeadlineError::TimedOut) => Err(FailedRun {
                name: e.name.clone(),
                error: format!("timed out after {:.1}s wall-clock", limit.as_secs_f64()),
            }),
            Err(DeadlineError::Panicked) => Err(FailedRun {
                name: e.name.clone(),
                error: "worker panicked before producing a report".into(),
            }),
        }
    })
}

/// The full suite runner behind `dualpar suite`: a pooled pass plus up to
/// `retries` follow-up passes over whichever entries failed (timed out or
/// panicked). Retries change nothing about a run's simulation — a retried
/// entry that completes produces the same byte-identical report it would
/// have produced the first time — they only give transiently overloaded
/// machines another chance before the suite is declared failed. An entry
/// that still fails after every retry keeps its slot, with the attempt
/// count recorded in the error.
pub fn run_suite_entries(
    entries: &[SuiteEntry],
    jobs: usize,
    timeout: Option<Duration>,
    retries: u32,
) -> Vec<SuiteRunResult> {
    let mut results = run_pass(entries, jobs, timeout);
    for _ in 0..retries {
        let failed: Vec<usize> = results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_err())
            .map(|(i, _)| i)
            .collect();
        if failed.is_empty() {
            break;
        }
        let again: Vec<SuiteEntry> = failed.iter().map(|&i| entries[i].clone()).collect();
        for (slot, outcome) in failed.into_iter().zip(run_pass(&again, jobs, timeout)) {
            results[slot] = outcome;
        }
    }
    if retries > 0 {
        for r in &mut results {
            if let Err(f) = r {
                f.error = format!("{} (after {} attempts)", f.error, retries + 1);
            }
        }
    }
    results
}

/// Keep the entries whose name matches `filter`, in their original order:
/// substring containment by default, whole-name equality when `exact`. An
/// empty filter keeps everything (even under `exact` — there is nothing to
/// select by).
pub fn filter_entries(entries: Vec<SuiteEntry>, filter: &str, exact: bool) -> Vec<SuiteEntry> {
    if filter.is_empty() {
        return entries;
    }
    entries
        .into_iter()
        .filter(|e| {
            if exact {
                e.name == filter
            } else {
                e.name.contains(filter)
            }
        })
        .collect()
}

/// Parse suite entries from a JSON document: either a whole suite
/// (`{"entries": [{"name": ..., "spec": {...}}, ...]}`) or a bare
/// [`ExperimentSpec`], which becomes a single entry named `fallback_name`.
/// Every spec is schema-migrated and validated on the way in.
pub fn entries_from_spec_json(json: &str, fallback_name: &str) -> Result<Vec<SuiteEntry>, String> {
    let doc: serde::Value =
        serde_json::from_str(json).map_err(|e| format!("invalid spec JSON: {e}"))?;
    let suite_entries = doc
        .as_map()
        .and_then(|m| serde::find_field(m, "entries"))
        .and_then(serde::Value::as_seq);
    let Some(items) = suite_entries else {
        // Not a suite document: parse the whole thing as one experiment.
        let spec = ExperimentSpec::from_json(json)?;
        return Ok(vec![SuiteEntry::new(fallback_name, spec)]);
    };
    let mut entries = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let map = item
            .as_map()
            .ok_or_else(|| format!("entries[{i}]: expected an object"))?;
        let name = serde::find_field(map, "name")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| format!("entries[{i}]: missing string field \"name\""))?;
        let spec_value = serde::find_field(map, "spec")
            .ok_or_else(|| format!("entries[{i}] ({name}): missing field \"spec\""))?;
        let spec = ExperimentSpec::from_value(spec_value)
            .map_err(|e| format!("entries[{i}] ({name}): {e}"))?
            .upgrade()
            .map_err(|e| format!("entries[{i}] ({name}): {e}"))?;
        spec.validate()
            .map_err(|e| format!("entries[{i}] ({name}): {e}"))?;
        entries.push(SuiteEntry::new(name, spec));
    }
    if entries.is_empty() {
        return Err("suite document has an empty \"entries\" list".into());
    }
    Ok(entries)
}

/// Short stable fingerprint of a serialized report, for summaries and
/// serial-twin verification without embedding whole reports.
pub fn report_fingerprint(report_json: &str) -> String {
    let mut h = FxHasher::default();
    h.write(report_json.as_bytes());
    format!("{:016x}", h.finish())
}

/// Machine-readable per-run line of `BENCH_suite.json`.
#[derive(Debug, Serialize)]
pub struct SuiteRunSummary {
    pub name: String,
    /// Wall-clock of this run, as measured inside the pool. Includes any
    /// telemetry/span overhead the spec enabled — check the two flags
    /// below before comparing against runs with different settings.
    pub wall_secs: f64,
    /// Telemetry level the run used (`"off"`, `"counters"`, `"trace"`).
    pub telemetry: &'static str,
    /// True when span recording (the profiler's input) was on for the run.
    pub spans: bool,
    /// Events the simulation processed.
    pub sim_events: u64,
    /// Events per wall-clock second: the engine-throughput figure of merit.
    pub sim_events_per_sec: f64,
    /// Simulated makespan.
    pub sim_end_secs: f64,
    pub aggregate_mbps: f64,
    /// Fingerprint of the serialized report; equal across `--jobs` levels.
    pub report_fingerprint: String,
    /// `null` for a completed run; the failure cause (timeout, panic) for
    /// an entry that produced no report — every numeric field above is
    /// zero and the fingerprint empty in that case.
    pub error: Option<String>,
}

/// Machine-readable output of `dualpar suite` (`BENCH_suite.json`).
#[derive(Debug, Serialize)]
pub struct SuiteSummary {
    /// Format tag for downstream tooling.
    pub schema: &'static str,
    pub jobs: usize,
    /// Wall-clock for the whole suite, fan-out included.
    pub total_wall_secs: f64,
    /// Sum of the individual run walls. With `--verify-serial` these come
    /// from a true serial pass; otherwise they are the walls observed
    /// inside the parallel run, which oversubscription inflates (workers
    /// timeshare cores), so treat the derived speedup as an upper bound.
    pub serial_wall_secs_sum: f64,
    /// `serial_wall_secs_sum / total_wall_secs`: parallel speedup
    /// realised on this machine (bounded by its core count).
    pub speedup_estimate: f64,
    pub runs: Vec<SuiteRunSummary>,
}

pub const SUITE_SCHEMA: &str = "dualpar-bench-suite/v1";

/// Fold finished runs into the summary written to `BENCH_suite.json`.
pub fn summarize(runs: &[SuiteRun], jobs: usize, total_wall_secs: f64) -> SuiteSummary {
    let serial_wall_secs_sum: f64 = runs.iter().map(|r| r.wall_secs).sum();
    SuiteSummary {
        schema: SUITE_SCHEMA,
        jobs,
        total_wall_secs,
        serial_wall_secs_sum,
        speedup_estimate: if total_wall_secs > 0.0 {
            serial_wall_secs_sum / total_wall_secs
        } else {
            0.0
        },
        runs: runs.iter().map(summarize_run).collect(),
    }
}

fn summarize_run(r: &SuiteRun) -> SuiteRunSummary {
    SuiteRunSummary {
        name: r.name.clone(),
        wall_secs: r.wall_secs,
        telemetry: r.telemetry,
        spans: r.spans,
        sim_events: r.report.events_processed,
        sim_events_per_sec: if r.wall_secs > 0.0 {
            r.report.events_processed as f64 / r.wall_secs
        } else {
            0.0
        },
        sim_end_secs: r.report.sim_end.as_secs_f64(),
        aggregate_mbps: r.report.aggregate_throughput_mbps(),
        report_fingerprint: report_fingerprint(&r.report_json),
        error: None,
    }
}

/// [`summarize`] over deadline-aware results: failed entries keep their
/// slot in `runs` with the error recorded and every measurement zeroed,
/// so a partially-failed suite still writes a complete, honest artifact.
pub fn summarize_results(
    results: &[SuiteRunResult],
    jobs: usize,
    total_wall_secs: f64,
) -> SuiteSummary {
    let serial_wall_secs_sum: f64 = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|r| r.wall_secs)
        .sum();
    SuiteSummary {
        schema: SUITE_SCHEMA,
        jobs,
        total_wall_secs,
        serial_wall_secs_sum,
        speedup_estimate: if total_wall_secs > 0.0 {
            serial_wall_secs_sum / total_wall_secs
        } else {
            0.0
        },
        runs: results
            .iter()
            .map(|r| match r {
                Ok(run) => summarize_run(run),
                Err(f) => SuiteRunSummary {
                    name: f.name.clone(),
                    wall_secs: 0.0,
                    telemetry: "",
                    spans: false,
                    sim_events: 0,
                    sim_events_per_sec: 0.0,
                    sim_end_secs: 0.0,
                    aggregate_mbps: 0.0,
                    report_fingerprint: String::new(),
                    error: Some(f.error.clone()),
                },
            })
            .collect(),
    }
}

/// Suite scale: `Small` keeps every run under a second for smoke tests;
/// `Paper` uses the evaluation's full workload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Small,
    Paper,
}

/// The built-in figure-set suite: each paper benchmark under the vanilla
/// and DualPar strategies, plus a two-program interference pair — the
/// independent single-run configurations behind Figs. 3–5.
pub fn builtin_suite(scale: Scale) -> Vec<SuiteEntry> {
    let cluster = match scale {
        Scale::Small => crate::small_cluster(),
        Scale::Paper => crate::paper_cluster(),
    };
    let shrink = |full: u64, small: u64| match scale {
        Scale::Small => small,
        Scale::Paper => full,
    };
    let nprocs = shrink(64, 16) as usize;
    let strategies = [
        ("vanilla", IoStrategy::Vanilla),
        ("dualpar", IoStrategy::DualParForced),
    ];
    let workloads: Vec<(&str, WorkloadSpec)> = vec![
        (
            "mpiio",
            WorkloadSpec::named(MpiIoTest {
                nprocs,
                file_size: shrink(2 << 30, 32 << 20),
                ..Default::default()
            }),
        ),
        (
            "hpio",
            WorkloadSpec::named(Hpio {
                nprocs,
                region_count: shrink(4096, 256),
                ..Default::default()
            }),
        ),
        (
            "ior",
            WorkloadSpec::named(IorMpiIo {
                nprocs,
                file_size: shrink(16 << 30, 64 << 20),
                ..Default::default()
            }),
        ),
        (
            "noncontig",
            WorkloadSpec::named(Noncontig {
                nprocs,
                rows: shrink(8192, 512),
                ..Default::default()
            }),
        ),
        (
            "btio",
            WorkloadSpec::named(Btio {
                nprocs,
                dataset: shrink(6800 << 20, 16 << 20),
                steps: shrink(40, 4),
                kind: IoKind::Write,
                ..Default::default()
            }),
        ),
        (
            "s3asim",
            WorkloadSpec::named(S3asim {
                nprocs,
                queries: shrink(16, 4),
                db_size: shrink(1 << 30, 64 << 20),
                result_size: shrink(256 << 20, 16 << 20),
                ..Default::default()
            }),
        ),
    ];
    let mut entries = Vec::new();
    for (wname, workload) in &workloads {
        for (sname, strategy) in strategies {
            entries.push(SuiteEntry::new(
                format!("{wname}_{sname}"),
                ExperimentSpec {
                    cluster: cluster.clone(),
                    programs: vec![ProgramEntry {
                        workload: workload.clone(),
                        strategy,
                        start_secs: 0.0,
                    }],
                    ..Default::default()
                },
            ));
        }
    }
    // Interference pair (the Fig. 7 shape): two MPI-IO apps sharing the
    // cluster, the second starting mid-flight of the first.
    let pair = |strategy| ProgramEntry {
        workload: WorkloadSpec::named(MpiIoTest {
            nprocs,
            file_size: shrink(1 << 30, 16 << 20),
            ..Default::default()
        }),
        strategy,
        start_secs: 0.0,
    };
    entries.push(SuiteEntry::new(
        "interference_pair",
        ExperimentSpec {
            cluster,
            programs: vec![
                pair(IoStrategy::DualPar),
                ProgramEntry {
                    start_secs: 0.5,
                    ..pair(IoStrategy::DualPar)
                },
            ],
            ..Default::default()
        },
    ));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    // Workers build private clusters, so suite entries only need to cross
    // the spawn boundary; assert the whole entry type stays Send + Sync.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SuiteEntry>();
    };

    #[test]
    fn parallel_map_preserves_order_and_runs_everything() {
        let items: Vec<u64> = (0..37).collect();
        for jobs in [1, 2, 4, 16] {
            let out = parallel_map(&items, jobs, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
    }

    #[test]
    fn prioritized_map_runs_everything_in_input_order() {
        let items: Vec<u64> = (0..23).collect();
        // Priorities deliberately reverse the input order; results must
        // still come back in input order at every jobs level.
        let priority: Vec<u64> = (0..23).map(|i| 100 - i).collect();
        for jobs in [1, 2, 4, 16] {
            let out = parallel_map_prioritized(&items, jobs, &priority, |i, &x| {
                assert_eq!(i as u64, x);
                x + 1
            });
            assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn suite_costs_put_btio_vanilla_first() {
        // The LPT schedule only helps if the estimator actually ranks the
        // dominant run first; pin that (btio_vanilla is ~65 % of the
        // small suite's serial wall in bench_results/BENCH_suite.json).
        let entries = builtin_suite(Scale::Small);
        let costs: Vec<(String, u64)> = entries
            .iter()
            .map(|e| (e.name.clone(), crate::spec::expected_cost(&e.spec)))
            .collect();
        let max = costs.iter().max_by_key(|(_, c)| *c).expect("non-empty");
        assert_eq!(max.0, "btio_vanilla", "costs: {costs:?}");
        // Sanity: every entry has a nonzero cost so the sort is total.
        assert!(costs.iter().all(|(_, c)| *c > 0));
    }

    #[test]
    fn filter_entries_matches_substrings() {
        let entries = builtin_suite(Scale::Small);
        let total = entries.len();
        let mpiio = filter_entries(builtin_suite(Scale::Small), "mpiio", false);
        assert_eq!(mpiio.len(), 2);
        assert!(mpiio.iter().all(|e| e.name.contains("mpiio")));
        let all = filter_entries(builtin_suite(Scale::Small), "", false);
        assert_eq!(all.len(), total);
        let none = filter_entries(entries, "no_such_entry", false);
        assert!(none.is_empty());
    }

    #[test]
    fn filter_entries_exact_matches_whole_names() {
        // "mpiio_vanilla" is a substring-mode hit for "mpiio", so exact
        // mode must reject the prefix and accept only the full name.
        let one = filter_entries(builtin_suite(Scale::Small), "mpiio_vanilla", true);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name, "mpiio_vanilla");
        let none = filter_entries(builtin_suite(Scale::Small), "mpiio", true);
        assert!(none.is_empty());
        let all = filter_entries(builtin_suite(Scale::Small), "", true);
        assert_eq!(all.len(), builtin_suite(Scale::Small).len());
    }

    #[test]
    fn entries_from_spec_json_accepts_both_shapes() {
        // A bare experiment becomes one entry under the fallback name.
        let single = serde_json::to_string(&ExperimentSpec::default()).expect("json");
        let entries = entries_from_spec_json(&single, "solo").expect("bare spec loads");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "solo");
        // A suite document yields one entry per element, keeping names.
        let suite = format!(
            r#"{{"entries": [{{"name": "a", "spec": {single}}}, {{"name": "b", "spec": {single}}}]}}"#
        );
        let entries = entries_from_spec_json(&suite, "ignored").expect("suite loads");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "a");
        assert_eq!(entries[1].name, "b");
        // Bad documents fail with a located message.
        let broken = r#"{"entries": [{"spec": {}}]}"#;
        let err = entries_from_spec_json(broken, "x").expect_err("missing name");
        assert!(err.contains("entries[0]"), "{err}");
        assert!(entries_from_spec_json(r#"{"entries": []}"#, "x").is_err());
    }

    #[test]
    fn parallel_map_propagates_worker_panics() {
        let items: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, 4, |_, &x| {
                assert!(x != 5, "boom");
                x
            })
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = report_fingerprint("{\"x\":1}");
        assert_eq!(a, report_fingerprint("{\"x\":1}"));
        assert_ne!(a, report_fingerprint("{\"x\":2}"));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn timeout_runner_matches_untimed_results_and_records_failures() {
        let entries: Vec<SuiteEntry> = builtin_suite(Scale::Small)
            .into_iter()
            .filter(|e| e.name.starts_with("mpiio"))
            .collect();
        assert_eq!(entries.len(), 2);
        // A generous deadline changes nothing: same reports as the plain
        // runner, just wrapped in Ok.
        let timed = run_parallel_with_timeout(&entries, 2, Some(Duration::from_secs(600)));
        let plain = run_parallel(&entries, 1);
        for (t, p) in timed.iter().zip(&plain) {
            let t = t.as_ref().expect("well under the deadline");
            assert_eq!(t.name, p.name);
            assert_eq!(t.report_json, p.report_json);
        }
        // A failed entry keeps its slot in the summary with the error
        // recorded and every measurement zeroed.
        let results: Vec<SuiteRunResult> = vec![
            Err(FailedRun {
                name: "hung_entry".into(),
                error: "timed out after 1.0s wall-clock".into(),
            }),
            timed.into_iter().nth(1).expect("two results"),
        ];
        let summary = summarize_results(&results, 2, 1.0);
        assert_eq!(summary.runs.len(), 2);
        let failed = &summary.runs[0];
        assert_eq!(failed.name, "hung_entry");
        assert_eq!(
            failed.error.as_deref(),
            Some("timed out after 1.0s wall-clock")
        );
        assert_eq!(failed.sim_events, 0);
        assert!(failed.report_fingerprint.is_empty());
        let ok = &summary.runs[1];
        assert!(ok.error.is_none());
        assert!(ok.sim_events > 0);
        // Only completed runs contribute to the serial-wall sum.
        assert!((summary.serial_wall_secs_sum - ok.wall_secs).abs() < 1e-12);
    }

    #[test]
    fn small_suite_runs_deterministically_across_jobs() {
        // Three fast entries; the full builtin suite is exercised by the
        // check.sh smoke stage and the integration tests.
        let entries: Vec<SuiteEntry> = builtin_suite(Scale::Small)
            .into_iter()
            .filter(|e| e.name.starts_with("mpiio") || e.name == "interference_pair")
            .collect();
        assert_eq!(entries.len(), 3);
        let serial = run_parallel(&entries, 1);
        let parallel = run_parallel(&entries, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(
                s.report_json, p.report_json,
                "{}: report must not depend on --jobs",
                s.name
            );
        }
        let summary = summarize(&parallel, 4, 1.0);
        assert_eq!(summary.schema, SUITE_SCHEMA);
        assert_eq!(summary.runs.len(), 3);
        assert!(summary.runs.iter().all(|r| r.sim_events > 0));
    }
}
