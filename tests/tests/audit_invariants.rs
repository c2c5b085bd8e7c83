//! Audit-driven property tests: random workloads must produce traces with
//! zero invariant violations under every disk scheduler, the prefetch
//! ledger must balance under random cache traffic, and a deliberately
//! corrupted trace must be caught with a structured violation report.

use dualpar_audit::{audit_buffer, audit_jsonl_str, AuditConfig};
use dualpar_cache::{CacheConfig, GlobalCache, OwnerId};
use dualpar_cluster::prelude::*;
use dualpar_disk::SchedulerKind;
use dualpar_pfs::{FileId, FileRegion};
use proptest::prelude::*;

const FILE_SIZE: u64 = 8 << 20;

/// A compact op description the generator shrinks well on (mirrors
/// `random_programs.rs`).
#[derive(Debug, Clone)]
enum GenOp {
    Compute(u32), // microseconds
    Read(u32, u16),
    Write(u32, u16),
    Barrier,
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (1u32..2_000).prop_map(GenOp::Compute),
        (0u32..1000, 1u16..64).prop_map(|(o, l)| GenOp::Read(o, l)),
        (0u32..1000, 1u16..64).prop_map(|(o, l)| GenOp::Write(o, l)),
        Just(GenOp::Barrier),
    ]
}

fn gen_program() -> impl Strategy<Value = (usize, Vec<Vec<GenOp>>)> {
    (2usize..5).prop_flat_map(|nprocs| {
        let body = proptest::collection::vec(gen_op(), 0..10);
        (
            Just(nprocs),
            proptest::collection::vec(body, nprocs..=nprocs),
        )
    })
}

/// Build consistent rank scripts: barriers renumbered in order, every rank
/// padded to the same barrier sequence, each rank confined to a disjoint
/// slab of the file.
fn build_script(bodies: &[Vec<GenOp>], rank_region: u64) -> ProgramScript {
    let max_barriers = bodies
        .iter()
        .map(|b| b.iter().filter(|o| matches!(o, GenOp::Barrier)).count())
        .max()
        .unwrap_or(0);
    let ranks = bodies
        .iter()
        .enumerate()
        .map(|(rank, body)| {
            let mut ops = Vec::new();
            let mut barrier = 0u64;
            let base = rank as u64 * rank_region;
            for op in body {
                match *op {
                    GenOp::Compute(us) => {
                        ops.push(Op::Compute(SimDuration::from_micros(us as u64)))
                    }
                    GenOp::Read(o, l) => {
                        let len = (l as u64) * 512;
                        let off = base + (o as u64 * 512) % (rank_region - len);
                        ops.push(Op::Io(IoCall::read(
                            FileId(1),
                            vec![FileRegion::new(off, len)],
                        )));
                    }
                    GenOp::Write(o, l) => {
                        let len = (l as u64) * 512;
                        let off = base + (o as u64 * 512) % (rank_region - len);
                        ops.push(Op::Io(IoCall::write(
                            FileId(1),
                            vec![FileRegion::new(off, len)],
                        )));
                    }
                    GenOp::Barrier => {
                        ops.push(Op::Barrier(barrier));
                        barrier += 1;
                    }
                }
            }
            while barrier < max_barriers as u64 {
                ops.push(Op::Barrier(barrier));
                barrier += 1;
            }
            ProcessScript::new(ops)
        })
        .collect();
    ProgramScript {
        name: "random".into(),
        ranks,
    }
}

/// Run a script with trace-level telemetry and return the cluster so the
/// caller can inspect (or export) the in-process ring buffer.
fn traced_run(script: &ProgramScript, strategy: IoStrategy, sched: SchedulerKind) -> Cluster {
    let script = script.clone();
    let mut cluster = Experiment::darwin()
        .servers(3)
        .compute_nodes(2)
        .scheduler(sched)
        .telemetry_config(TelemetryConfig {
            level: TelemetryLevel::Trace,
            trace_capacity: 1 << 20,
            spans: true,
        })
        .file("f", FILE_SIZE)
        .program(strategy, move |files| {
            assert_eq!(files[0], FileId(1));
            script
        })
        .build()
        .expect("valid experiment");
    let report = cluster.run();
    let snap = report.telemetry.expect("telemetry is on");
    assert_eq!(snap.trace_dropped, 0, "trace ring overflowed in test");
    cluster
}

const ALL_SCHEDULERS: [SchedulerKind; 6] = [
    SchedulerKind::Cfq,
    SchedulerKind::Anticipatory,
    SchedulerKind::Noop,
    SchedulerKind::Deadline,
    SchedulerKind::Sstf,
    SchedulerKind::Scan,
];

/// Random cache traffic for the ledger-conservation property.
#[derive(Debug, Clone)]
enum CacheOp {
    Prefetch(u8, u32, u16),
    Write(u8, u32, u16),
    Read(u32, u16),
    EndEpoch(u8),
    EvictIdle,
    Invalidate,
}

fn gen_cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u8..3, 0u32..512, 1u16..96).prop_map(|(o, off, l)| CacheOp::Prefetch(o, off, l)),
        (0u8..3, 0u32..512, 1u16..96).prop_map(|(o, off, l)| CacheOp::Write(o, off, l)),
        (0u32..512, 1u16..96).prop_map(|(off, l)| CacheOp::Read(off, l)),
        (0u8..3).prop_map(CacheOp::EndEpoch),
        Just(CacheOp::EvictIdle),
        Just(CacheOp::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every disk scheduler yields a trace the auditor accepts: monotone
    /// time, exclusive per-server disk service, paired PEC suspend/resume,
    /// legal EMC transitions, balanced cache ledger — and, since spans are
    /// on, fully-paired well-nested spans whose request stages appear in
    /// pipeline order (the auditor's span-pairing / span-nesting /
    /// span-stage-order checks).
    #[test]
    fn random_workloads_audit_clean((_nprocs, bodies) in gen_program()) {
        let rank_region = FILE_SIZE / bodies.len() as u64;
        let script = build_script(&bodies, rank_region);
        for sched in ALL_SCHEDULERS {
            let cluster = traced_run(&script, IoStrategy::DualPar, sched);
            // The span property must not pass vacuously: state spans are
            // recorded for every run (request spans need actual I/O).
            prop_assert!(!cluster.telemetry().spans().is_empty());
            prop_assert_eq!(cluster.telemetry().spans().open_count(), 0);
            let report = audit_buffer(cluster.telemetry().trace(), AuditConfig::default());
            prop_assert!(
                report.ok(),
                "audit violations under {sched:?}: {}",
                report.to_json()
            );
        }
        // Forced data-driven mode exercises the PEC/CRM paths even when the
        // adaptive controller would not switch.
        let cluster = traced_run(&script, IoStrategy::DualParForced, SchedulerKind::Cfq);
        let report = audit_buffer(cluster.telemetry().trace(), AuditConfig::default());
        prop_assert!(
            report.ok(),
            "audit violations under forced mode: {}",
            report.to_json()
        );
    }

    /// The prefetch ledger stays balanced — inserted bytes are always fully
    /// accounted as consumed/overwritten/evicted/misprefetched/unused —
    /// under arbitrary interleavings of cache operations.
    #[test]
    fn cache_ledger_conserves_bytes(ops in proptest::collection::vec(gen_cache_op(), 1..80)) {
        let mut cache = GlobalCache::new(CacheConfig {
            num_nodes: 2,
            node_capacity: 1 << 20, // small enough that capacity eviction fires
            idle_ttl: SimDuration::from_secs(1),
            ..CacheConfig::default()
        });
        let file = FileId(1);
        let mut now = SimTime::ZERO;
        for op in &ops {
            now += SimDuration::from_millis(100);
            match *op {
                CacheOp::Prefetch(o, off, l) => {
                    let region = FileRegion::new(off as u64 * 512, l as u64 * 512);
                    cache.put_prefetch(OwnerId(o as u64), file, region, now);
                }
                CacheOp::Write(o, off, l) => {
                    let region = FileRegion::new(off as u64 * 512, l as u64 * 512);
                    cache.put_write(OwnerId(o as u64), file, region, now);
                }
                CacheOp::Read(off, l) => {
                    let region = FileRegion::new(off as u64 * 512, l as u64 * 512);
                    cache.read(file, region, now);
                }
                CacheOp::EndEpoch(o) => {
                    cache.end_prefetch_epoch(OwnerId(o as u64));
                }
                CacheOp::EvictIdle => {
                    // +2s so everything older than idle_ttl is fair game.
                    now += SimDuration::from_secs(2);
                    cache.evict_idle(now);
                }
                CacheOp::Invalidate => {
                    // Invalidation requires write-back first (dropping dirty
                    // data is a documented caller bug).
                    cache.drain_dirty();
                    cache.invalidate(file);
                }
            }
            cache.assert_conservation();
        }
        let ledger = cache.prefetch_ledger();
        prop_assert!(ledger.balanced(), "final ledger unbalanced: {ledger:?}");
    }
}

/// Exports a real trace, corrupts it in two distinct ways, and checks that
/// the auditor rejects both with the right structured findings.
#[test]
fn corrupted_trace_is_rejected() {
    let script = ProgramScript {
        name: "corruptme".into(),
        ranks: (0..4)
            .map(|rank| {
                let base = rank as u64 * (FILE_SIZE / 4);
                ProcessScript::new(vec![
                    Op::Io(IoCall::write(
                        FileId(1),
                        vec![FileRegion::new(base, 256 << 10)],
                    )),
                    Op::Barrier(0),
                    Op::Compute(SimDuration::from_millis(5)),
                    Op::Io(IoCall::read(
                        FileId(1),
                        vec![FileRegion::new(base, 512 << 10)],
                    )),
                ])
            })
            .collect(),
    };
    let cluster = traced_run(&script, IoStrategy::DualParForced, SchedulerKind::Cfq);
    let mut raw = Vec::new();
    cluster.export_trace(&mut raw).expect("export to memory");
    let text = String::from_utf8(raw).expect("trace is UTF-8");

    // Sanity: the pristine trace audits clean.
    let clean = audit_jsonl_str(&text, AuditConfig::default()).expect("pristine trace parses");
    assert!(
        clean.ok(),
        "pristine trace has violations: {}",
        clean.to_json()
    );

    // Corruption 1: duplicate a disk/start line — two requests in flight on
    // one server violates scheduler exclusivity.
    let lines: Vec<&str> = text.lines().collect();
    let start_idx = lines
        .iter()
        .position(|l| l.contains("\"component\":\"disk\",\"kind\":\"start\""))
        .expect("trace contains a disk start");
    let mut dup = lines.clone();
    dup.insert(start_idx + 1, lines[start_idx]);
    let report = audit_jsonl_str(&dup.join("\n"), AuditConfig::default())
        .expect("corrupted trace still parses");
    assert!(!report.ok(), "duplicated disk/start not detected");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.check == "disk-exclusivity"),
        "expected a disk-exclusivity finding, got: {}",
        report.to_json()
    );

    // Corruption 2: swap two lines with distinct timestamps — time runs
    // backwards at the swap point.
    // every line starts `{"t":<number>,` — compare the raw digits
    fn t_of(l: &str) -> &str {
        let rest = &l[5..];
        &rest[..rest.find(',').expect("t is not the only field")]
    }
    let swap_idx = (0..lines.len() - 1)
        .find(|&i| t_of(lines[i]) != t_of(lines[i + 1]))
        .expect("trace spans more than one timestamp");
    let mut swapped = lines.clone();
    swapped.swap(swap_idx, swap_idx + 1);
    let report = audit_jsonl_str(&swapped.join("\n"), AuditConfig::default())
        .expect("swapped trace still parses");
    assert!(!report.ok(), "timestamp regression not detected");
    assert!(
        report.violations.iter().any(|v| v.check == "monotone-time"),
        "expected a monotone-time finding, got: {}",
        report.to_json()
    );

    // The report is machine-readable: structured JSON naming the check and
    // the offending event index.
    let json = report.to_json();
    assert!(json.contains("\"ok\":false"));
    assert!(json.contains("\"check\":\"monotone-time\""));
    assert!(json.contains("\"index\":"));
}
