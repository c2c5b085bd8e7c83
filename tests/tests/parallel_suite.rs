//! Cross-crate tests of the parallel suite runner: fanning independent
//! simulations over a worker pool must not perturb a single bit of any
//! run's serialized report or event trace, and traces produced on worker
//! threads must pass the full invariant audit exactly like serial ones.

use dualpar_audit::baseline::diff_suites;
use dualpar_audit::{audit_jsonl_str, AuditConfig};
use dualpar_bench::suite::{builtin_suite, run_entry, run_parallel, summarize, Scale};
use dualpar_cluster::TelemetryLevel;

/// The small-scale built-in suite with trace-level telemetry switched on,
/// so every run also captures its JSONL event trace in memory.
fn traced_small_suite() -> Vec<dualpar_bench::SuiteEntry> {
    let mut entries = builtin_suite(Scale::Small);
    for e in &mut entries {
        e.spec.cluster.telemetry.level = TelemetryLevel::Trace;
    }
    entries
}

#[test]
fn suite_reports_and_traces_identical_across_jobs() {
    // Keep the runtime in check: the three fastest single-program entries
    // plus the two-program interference pair cover one- and multi-program
    // clusters.
    let entries: Vec<_> = traced_small_suite()
        .into_iter()
        .filter(|e| {
            e.name.starts_with("mpiio")
                || e.name.starts_with("noncontig")
                || e.name == "interference_pair"
        })
        .collect();
    assert_eq!(entries.len(), 5);
    let serial = run_parallel(&entries, 1);
    let pooled = run_parallel(&entries, 4);
    for (s, p) in serial.iter().zip(&pooled) {
        assert_eq!(s.name, p.name, "result order must match input order");
        assert_eq!(
            s.report_json, p.report_json,
            "{}: serialized report differs between jobs=1 and jobs=4",
            s.name
        );
        let st = s.trace_jsonl.as_ref().expect("serial trace captured");
        let pt = p.trace_jsonl.as_ref().expect("pooled trace captured");
        assert!(!st.is_empty(), "{}: trace must not be empty", s.name);
        assert_eq!(
            st, pt,
            "{}: event trace differs between jobs=1 and jobs=4",
            s.name
        );
    }
    // The summary's determinism-bearing fields must agree too; only the
    // wall-clock measurements may differ between the two passes.
    let a = summarize(&serial, 1, 1.0);
    let b = summarize(&pooled, 4, 1.0);
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(ra.report_fingerprint, rb.report_fingerprint);
        assert_eq!(ra.sim_events, rb.sim_events);
        assert_eq!(ra.sim_end_secs, rb.sim_end_secs);
    }
}

#[test]
fn worker_thread_trace_passes_interference_audit() {
    // The interference pair is the audit's richest input: two DualPar
    // programs share the cluster, so the trace exercises mode switches,
    // prefetch accounting, and cross-program completion groups. Produce it
    // on a pool worker (jobs > 1) and hold it to the same standard as any
    // serially produced trace. (btio_vanilla is excluded: its ~2.6M events
    // overflow the 64Ki-event trace ring, and a truncated ring legitimately
    // shows completions whose dispatches were evicted.)
    let entries: Vec<_> = traced_small_suite()
        .into_iter()
        .filter(|e| {
            e.name == "interference_pair" || e.name == "btio_dualpar" || e.name == "hpio_vanilla"
        })
        .collect();
    assert_eq!(entries.len(), 3);
    let runs = run_parallel(&entries, entries.len());
    for run in &runs {
        let trace = run.trace_jsonl.as_ref().expect("trace captured");
        let report = audit_jsonl_str(trace, AuditConfig::default())
            .unwrap_or_else(|e| panic!("{}: trace failed to parse: {e:?}", run.name));
        assert!(report.events > 0, "{}: audited zero events", run.name);
        assert!(
            report.ok(),
            "{}: worker-thread trace violates invariants: {:?}",
            run.name,
            report.violations
        );
    }
}

#[test]
fn truncated_ring_trace_passes_audit_with_tolerance() {
    // A ring overrun drops the oldest records, which can leave a
    // completion whose dispatch was evicted. Construct that dropped-prefix
    // artifact directly, without depending on where an overrun happens to
    // cut: start the captured trace at its final `disk/done`, orphaning
    // exactly one completion. The default audit rightly rejects it; the
    // truncation-tolerant audit must accept it, counting the orphaned
    // pairing as a warning instead.
    let entries: Vec<_> = traced_small_suite()
        .into_iter()
        .filter(|e| e.name.starts_with("mpiio"))
        .take(1)
        .collect();
    assert_eq!(entries.len(), 1);
    let run = run_entry(&entries[0]);
    let full = run.trace_jsonl.as_ref().expect("trace captured");
    let cut = full
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("\"component\":\"disk\"") && l.contains("\"kind\":\"done\""))
        .map(|(i, _)| i)
        .last()
        .expect("trace contains a disk completion");
    let trace: String = full.lines().skip(cut).map(|l| format!("{l}\n")).collect();
    let strict = audit_jsonl_str(&trace, AuditConfig::default()).expect("trace parses");
    assert!(
        !strict.ok(),
        "expected the truncated ring to trip the strict audit"
    );
    let tolerant_cfg = AuditConfig {
        tolerate_truncation: true,
        ..AuditConfig::default()
    };
    let tolerant = audit_jsonl_str(&trace, tolerant_cfg).expect("trace parses");
    assert!(
        tolerant.ok(),
        "tolerant audit still found violations: {:?}",
        tolerant.violations
    );
    assert!(
        tolerant.warnings > 0,
        "truncated prefix should surface as counted warnings"
    );
    assert_eq!(strict.violations.len(), tolerant.warnings);
}

#[test]
fn run_entry_matches_pooled_twin_for_every_small_entry() {
    // Full small suite, one pooled pass against per-entry serial twins:
    // the exact check `dualpar suite --verify-serial` performs.
    let entries = builtin_suite(Scale::Small);
    let pooled = run_parallel(&entries, 4);
    for (entry, run) in entries.iter().zip(&pooled) {
        let twin = run_entry(entry);
        assert_eq!(
            twin.report_json, run.report_json,
            "{}: pooled run diverged from its serial twin",
            entry.name
        );
    }
    // Every run must also reproduce the committed artifact's event count
    // and report fingerprint — the same comparison `check.sh`'s suite
    // gate makes with `dualpar-audit trace --baseline`.
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../bench_results/BENCH_suite.json"
    ))
    .expect("committed BENCH_suite.json is readable");
    let committed = serde_json::from_str(&committed).expect("committed suite parses");
    let fresh = serde_json::to_string(&summarize(&pooled, 4, 1.0)).expect("serialise summary");
    let fresh = serde_json::from_str(&fresh).expect("fresh suite parses");
    let diff = diff_suites(&committed, &fresh).expect("both documents are suite summaries");
    assert!(
        diff.missing_in_new.is_empty(),
        "missing: {:?}",
        diff.missing_in_new
    );
    assert!(
        diff.added_in_new.is_empty(),
        "added: {:?}",
        diff.added_in_new
    );
    for d in &diff.runs {
        assert_eq!(
            d.old_events, d.new_events,
            "{}: sim_events differ from bench_results/BENCH_suite.json",
            d.name
        );
        assert!(
            d.fingerprint_match,
            "{}: report fingerprint differs from bench_results/BENCH_suite.json",
            d.name
        );
    }
}
