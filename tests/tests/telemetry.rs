//! Telemetry integration: trace records, counter reconciliation, and
//! series consistency with the engine's own diagnostics.

use dualpar_cluster::prelude::*;
use dualpar_telemetry::schema::TRACE_SCHEMA;
use dualpar_telemetry::FieldValue;
use dualpar_workloads::{Hpio, MpiIoTest};
use std::collections::BTreeSet;

fn small() -> Experiment {
    Experiment::darwin().servers(3).compute_nodes(2)
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
    let mut c = small()
        .telemetry(TelemetryLevel::Trace)
        .file("data", w.file_size)
        .program(IoStrategy::DualParForced, move |files| w.build(files[0]))
        .build()
        .expect("valid experiment");
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
    let mut exp = small().telemetry(TelemetryLevel::Counters);
    for i in 0..2usize {
        let w = MpiIoTest {
            nprocs: 8,
            file_size: 24 << 20,
            barrier_every: 8,
            ..Default::default()
        };
        exp = exp
            .file(format!("f{i}"), w.file_size)
            .program(IoStrategy::DualPar, move |files| {
                let mut s = w.build(files[i]);
                s.name = format!("i{i}");
                s
            });
    }
    let r = exp.run().expect("valid experiment");
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
        let r = small()
            .telemetry(TelemetryLevel::Counters)
            .file("data", w.file_size)
            .program(IoStrategy::DualPar, move |files| w.build(files[0]))
            .run()
            .expect("valid experiment");
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
    let mut exp = small().telemetry(TelemetryLevel::Trace);
    for i in 0..2usize {
        let w = MpiIoTest {
            nprocs: 8,
            file_size: 24 << 20,
            barrier_every: 8,
            ..Default::default()
        };
        exp = exp
            .file(format!("f{i}"), w.file_size)
            .program(IoStrategy::DualPar, move |files| {
                let mut s = w.build(files[i]);
                s.name = format!("i{i}");
                s
            });
    }
    let mut c = exp.build().expect("valid experiment");
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
        small()
            .telemetry(level)
            .file("data", w.file_size)
            .program(IoStrategy::DualParForced, move |files| w.build(files[0]))
            .run()
            .expect("valid experiment")
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
        ..Default::default()
    };
    let mut c = Experiment::darwin()
        .telemetry_config(TelemetryConfig {
            level: TelemetryLevel::Trace,
            trace_capacity: 1 << 22,
            spans: true,
        })
        .file("stream", stream.file_size)
        .file("hpio", hpio.file_size())
        .program(IoStrategy::DualPar, move |files| stream.build(files[0]))
        .program_at(IoStrategy::DualPar, SimTime::from_secs(1), move |files| {
            hpio.build(files[1])
        })
        .build()
        .expect("valid experiment");
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
