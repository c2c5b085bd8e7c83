//! Telemetry integration: trace records, counter reconciliation, and
//! series consistency with the engine's own diagnostics.

use dualpar_bench::{build_cluster, small_cluster, ExperimentSpec, ProgramEntry};
use dualpar_cluster::prelude::*;
use dualpar_telemetry::schema::TRACE_SCHEMA;
use dualpar_telemetry::FieldValue;
use dualpar_workloads::{Hpio, MpiIoTest};
use std::collections::BTreeSet;

/// The spec of `copies` copies of `w` under `strategy` on the small
/// cluster, with telemetry at `level`.
fn spec(
    w: MpiIoTest,
    strategy: IoStrategy,
    copies: usize,
    level: TelemetryLevel,
) -> ExperimentSpec {
    let program = ProgramEntry {
        workload: w.into(),
        strategy,
        start_secs: 0.0,
    };
    ExperimentSpec {
        cluster: ClusterConfig {
            telemetry: TelemetryConfig::at(level),
            ..small_cluster()
        },
        programs: vec![program; copies],
        ..ExperimentSpec::default()
    }
}

/// A forced data-driven run must leave its mode decision in the event
/// trace (reason "forced") — and, per the adaptive-strategy contract,
/// NOT in `RunReport::mode_events`, which records only EMC decisions.
#[test]
fn forced_mode_is_traced_but_not_a_mode_event() {
    let w = MpiIoTest {
        nprocs: 4,
        file_size: 8 << 20,
        ..Default::default()
    };
    let mut c = build_cluster(&spec(
        w,
        IoStrategy::DualParForced,
        1,
        TelemetryLevel::Trace,
    ));
    let r = c.run();
    let forced: Vec<_> = c
        .telemetry()
        .trace()
        .iter()
        .filter(|ev| {
            ev.component == "emc"
                && ev.kind == "mode"
                && ev
                    .fields
                    .iter()
                    .any(|(k, v)| *k == "reason" && *v == FieldValue::Str("forced".into()))
        })
        .collect();
    assert!(
        !forced.is_empty(),
        "a DualParForced run must emit at least one forced-mode trace record"
    );
    assert!(
        r.mode_events.is_empty(),
        "forced-mode records belong to the trace, not RunReport::mode_events"
    );
}

/// The telemetry "emc.improvement" series must be exactly the improvement
/// signal the engine reports in `RunReport::emc_improvement`.
#[test]
fn traced_improvement_matches_engine_signal() {
    let w = MpiIoTest {
        nprocs: 8,
        file_size: 24 << 20,
        barrier_every: 8,
        ..Default::default()
    };
    let r = build_cluster(&spec(w, IoStrategy::DualPar, 2, TelemetryLevel::Counters)).run();
    assert!(!r.emc_improvement.is_empty());
    let snap = r.telemetry.as_ref().expect("counters enabled");
    let series = snap
        .series
        .get("emc.improvement")
        .expect("emc.improvement series present");
    assert_eq!(
        series, &r.emc_improvement,
        "telemetry series must mirror the engine's improvement signal"
    );
}

/// Telemetry byte counters reconcile with the per-program report totals,
/// in both directions, under the data-driven strategy (which moves bytes
/// through every cache path: buffered writes, prefetch hits, flushes).
#[test]
fn byte_counters_reconcile_with_report() {
    for kind in [IoKind::Read, IoKind::Write] {
        let w = MpiIoTest {
            nprocs: 4,
            file_size: 8 << 20,
            kind,
            barrier_every: 4,
            ..Default::default()
        };
        let r = build_cluster(&spec(w, IoStrategy::DualPar, 1, TelemetryLevel::Counters)).run();
        let snap = r.telemetry.as_ref().expect("counters enabled");
        let read: u64 = r.programs.iter().map(|p| p.bytes_read).sum();
        let written: u64 = r.programs.iter().map(|p| p.bytes_written).sum();
        assert_eq!(
            snap.counters.get("io.bytes_read").copied().unwrap_or(0),
            read,
            "read counter must equal the program totals"
        );
        assert_eq!(
            snap.counters.get("io.bytes_written").copied().unwrap_or(0),
            written,
            "write counter must equal the program totals"
        );
    }
}

/// An adaptive run under trace-level telemetry exports a JSONL stream
/// containing per-tick EMC records.
#[test]
fn jsonl_export_contains_emc_ticks() {
    let w = MpiIoTest {
        nprocs: 8,
        file_size: 24 << 20,
        barrier_every: 8,
        ..Default::default()
    };
    let mut c = build_cluster(&spec(w, IoStrategy::DualPar, 2, TelemetryLevel::Trace));
    let _ = c.run();
    let mut out = Vec::new();
    c.export_trace(&mut out).expect("export succeeds");
    let text = String::from_utf8(out).expect("trace is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "trace must not be empty");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"t\":"),
            "every line must be a flat JSON object: {line}"
        );
    }
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"component\":\"emc\"") && l.contains("\"kind\":\"tick\"")),
        "trace must contain EMC tick records"
    );
}

/// Counters-level runs keep the trace ring empty (events are trace-only),
/// and off-level runs produce no snapshot at all.
#[test]
fn levels_gate_what_is_recorded() {
    let run = |level: TelemetryLevel| {
        let w = MpiIoTest {
            nprocs: 4,
            file_size: 4 << 20,
            ..Default::default()
        };
        build_cluster(&spec(w, IoStrategy::DualParForced, 1, level)).run()
    };
    assert!(run(TelemetryLevel::Off).telemetry.is_none());
    let counters = run(TelemetryLevel::Counters);
    let snap = counters.telemetry.expect("counters-level snapshot");
    assert_eq!(snap.trace_events, 0, "no events below Trace level");
    assert!(!snap.counters.is_empty());
    let trace = run(TelemetryLevel::Trace);
    assert!(trace.telemetry.expect("trace-level snapshot").trace_events > 0);
}

/// The interference scenario (`examples/interference.rs --small`, adaptive
/// run) with spans on emits exactly the registered trace kinds: a
/// registered kind nothing emits is a dead audit rule, and an emitted kind
/// nobody registered would escape the auditor's checks.
#[test]
fn interference_trace_emits_exactly_the_schema() {
    let stream = MpiIoTest {
        nprocs: 16,
        file_size: 32 << 20,
        barrier_every: 8,
        ..Default::default()
    };
    let hpio = Hpio {
        nprocs: 16,
        region_count: 64,
    };
    let mut c = build_cluster(&ExperimentSpec {
        cluster: ClusterConfig {
            telemetry: TelemetryConfig {
                level: TelemetryLevel::Trace,
                trace_capacity: 1 << 22,
                spans: true,
            },
            ..ClusterConfig::default()
        },
        programs: vec![
            ProgramEntry {
                workload: stream.into(),
                strategy: IoStrategy::DualPar,
                start_secs: 0.0,
            },
            ProgramEntry {
                workload: hpio.into(),
                strategy: IoStrategy::DualPar,
                start_secs: 1.0,
            },
        ],
        ..ExperimentSpec::default()
    });
    let report = c.run();
    let snap = report.telemetry.as_ref().expect("telemetry is on");
    assert_eq!(snap.trace_dropped, 0, "trace ring overflowed");
    let emitted: BTreeSet<(&str, &str)> = c
        .telemetry()
        .trace()
        .iter()
        .map(|ev| (ev.component, ev.kind))
        .collect();
    let registered: BTreeSet<(&str, &str)> =
        TRACE_SCHEMA.iter().map(|s| (s.component, s.kind)).collect();
    assert_eq!(emitted, registered);
}

/// A vanilla process counts its region's sub-requests itself, with no
/// completion group, yet each region still lands one observation in
/// `group.latency_secs.vanilla_region`.
#[test]
fn every_vanilla_region_observes_its_latency_once() {
    let hpio = Hpio {
        nprocs: 4,
        region_count: 16,
    };
    let mut c = build_cluster(&ExperimentSpec {
        cluster: ClusterConfig {
            telemetry: TelemetryConfig::at(TelemetryLevel::Counters),
            ..small_cluster()
        },
        programs: vec![ProgramEntry {
            workload: hpio.into(),
            strategy: IoStrategy::Vanilla,
            start_secs: 0.0,
        }],
        ..ExperimentSpec::default()
    });
    assert!(!c.config().sieve.enabled, "unsieved: one region, one issue");
    let regions: usize = c
        .scripts()
        .flat_map(|s| &s.ops)
        .map(|op| match op {
            Op::Io(call) => call.regions.len(),
            _ => 0,
        })
        .sum();
    assert_eq!(regions, 4 * 16);
    c.run();
    let latency = c
        .telemetry()
        .registry()
        .histogram("group.latency_secs.vanilla_region")
        .expect("vanilla regions observed");
    assert_eq!(latency.count, regions as u64);
    assert!(latency.min > 0.0, "every region waits for its disk reads");
}
