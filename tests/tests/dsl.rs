//! Workload-DSL integration tests: generated expression trees must
//! validate, build, and run byte-identically at any `--jobs` level; the
//! committed example specs must keep parsing (v0 included); and the
//! committed multi-tenant golden must reproduce exactly.

use dualpar_bench::{build_cluster, run_parallel, ExperimentSpec, SuiteEntry, SPEC_VERSION};
use dualpar_cluster::{IoStrategy, TelemetryLevel};
use dualpar_workloads::{AccessPattern, DslWorkload, OffsetDistr, SizeDistr, WorkloadExpr};
use proptest::prelude::*;
use std::path::PathBuf;

/// `examples/specs/` relative to this crate's manifest.
fn specs_dir() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.push("examples");
    p.push("specs");
    p
}

fn read_spec(name: &str) -> String {
    let path = specs_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

// ---------------------------------------------------------------------------
// Generators: bounded-depth expression trees over all leaf distributions.

fn gen_pattern() -> impl Strategy<Value = WorkloadExpr> {
    (
        1u64..6,
        prop_oneof![
            Just(SizeDistr::Fixed { bytes: 16384 }),
            Just(SizeDistr::Uniform {
                min: 4096,
                max: 32768,
            }),
            Just(SizeDistr::Bimodal {
                small: 4096,
                large: 65536,
                large_fraction: 0.25,
            }),
        ],
        prop_oneof![
            Just(OffsetDistr::Sequential),
            Just(OffsetDistr::Strided { stride: 131072 }),
            Just(OffsetDistr::Random),
            Just(OffsetDistr::ZipfHotspot { theta: 0.9 }),
        ],
        0.0f64..1.0,
        0u64..3,
    )
        .prop_map(|(ops, size, offsets, write_fraction, barrier_every)| {
            WorkloadExpr::Pattern(AccessPattern {
                ops,
                size,
                offsets,
                write_fraction,
                barrier_every,
                ..AccessPattern::default()
            })
        })
}

/// Any expression of depth at most `depth` (leaves only at depth 1).
fn gen_expr(depth: u32) -> BoxedStrategy<WorkloadExpr> {
    if depth <= 1 {
        return gen_pattern().boxed();
    }
    let child = gen_expr(depth - 1);
    prop_oneof![
        gen_pattern(),
        proptest::collection::vec(gen_expr(depth - 1), 1..3).prop_map(WorkloadExpr::Seq),
        proptest::collection::vec(gen_expr(depth - 1), 1..3).prop_map(WorkloadExpr::Interleave),
        (1u64..3, gen_expr(depth - 1)).prop_map(|(times, body)| WorkloadExpr::Repeat {
            times,
            body: Box::new(body),
        }),
        (1u64..3, gen_expr(depth - 1)).prop_map(|(phases, body)| WorkloadExpr::Phased {
            phases,
            compute_secs: 0.001,
            body: Box::new(body),
        }),
        child.prop_map(|body| WorkloadExpr::Scaled {
            factor: 1.5,
            body: Box::new(body),
        }),
    ]
    .boxed()
}

fn gen_workload() -> impl Strategy<Value = DslWorkload> {
    (gen_expr(3), 2usize..5, 1u64..1000).prop_map(|(expr, nprocs, seed)| DslWorkload {
        name: "gen".into(),
        nprocs,
        file_size: 4 << 20,
        seed,
        expr,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any bounded-depth expression validates, builds, and produces
    /// byte-identical suite reports whether the runner uses one worker
    /// thread or four.
    #[test]
    fn generated_expressions_run_identically_at_any_jobs_level(
        workloads in proptest::collection::vec(gen_workload(), 2..4),
        strategy_toggle in proptest::collection::vec(0u8..2, 2..4),
    ) {
        let entries: Vec<SuiteEntry> = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                prop_assert!(w.validate().is_ok(), "generated workload must validate");
                let strategy = if strategy_toggle[i % strategy_toggle.len()] == 0 {
                    IoStrategy::Vanilla
                } else {
                    IoStrategy::DualPar
                };
                let mut spec = ExperimentSpec {
                    programs: vec![],
                    ..ExperimentSpec::default()
                };
                spec.cluster.num_data_servers = 3;
                spec.cluster.num_compute_nodes = 2;
                spec.programs.push(dualpar_bench::ProgramEntry {
                    workload: dualpar_bench::WorkloadSpec::dsl(w.clone()),
                    strategy,
                    start_secs: 0.0,
                });
                SuiteEntry::new(format!("gen-{i}"), spec)
            })
            .collect();

        let serial = run_parallel(&entries, 1);
        let parallel = run_parallel(&entries, 4);
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert!(!s.report.programs.is_empty());
            prop_assert_eq!(&s.report_json, &p.report_json, "{} diverged", s.name);
        }
    }
}

// ---------------------------------------------------------------------------
// Committed example specs.

/// Every committed spec parses, upgrades to the current schema, validates,
/// and survives a serialize → parse → serialize round trip.
#[test]
fn committed_specs_round_trip() {
    let dir = specs_dir();
    let mut checked = 0;
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir:?}: {e}"))
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    for name in names {
        let spec =
            ExperimentSpec::from_json(&read_spec(&name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.version, SPEC_VERSION, "{name}: upgrade must stamp");
        let json = serde_json::to_string_pretty(&spec).expect("serialise");
        let back =
            ExperimentSpec::from_json(&json).unwrap_or_else(|e| panic!("{name} reparse: {e}"));
        let json2 = serde_json::to_string_pretty(&back).expect("serialise");
        assert_eq!(json, json2, "{name}: round trip must be a fixed point");
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected the committed example specs, found {checked}"
    );
}

/// A stray key inside a struct variant of a spec enum fails the load, as
/// it does in a spec struct: here `burst_size` in the multi-tenant spec's
/// first Poisson arrival process.
#[test]
fn unknown_keys_in_enum_struct_variants_are_rejected() {
    let raw = read_spec("multitenant.json");
    let poisson = "\"poisson\": {\n            \"rate_per_sec\": 0.5\n          }";
    assert!(raw.contains(poisson), "multitenant.json layout changed");
    let bad = raw.replacen(
        poisson,
        "\"poisson\": {\"rate_per_sec\": 0.5, \"burst_size\": 9}",
        1,
    );
    let err = ExperimentSpec::from_json(&bad).expect_err("unknown poisson key");
    assert!(
        err.contains("unknown field `burst_size`, expected `rate_per_sec`"),
        "{err}"
    );
}

/// The v0-format specs (no `version` field, closed-enum-era tags) load,
/// migrate, and still build runnable clusters — the paper figures rerun
/// unchanged through the redesigned WorkloadSpec.
#[test]
fn v0_specs_migrate_and_run() {
    for name in ["quickstart_v0.json", "interference_v0.json"] {
        let raw = read_spec(name);
        assert!(
            !raw.contains("\"version\""),
            "{name} must stay a v0 document"
        );
        let spec = ExperimentSpec::from_json(&raw).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spec.version, SPEC_VERSION);
        let report = build_cluster(&spec).run();
        assert_eq!(report.programs.len(), spec.programs.len());
        for p in &report.programs {
            assert!(
                p.bytes_read + p.bytes_written > 0,
                "{name}: {} moved no bytes",
                p.name
            );
        }
    }
}

/// The committed multi-tenant golden (3 tenant classes, Zipf-hotspot
/// offsets, Poisson arrivals) reproduces byte-for-byte: same spec, same
/// seeds, same report — including embedded trace counters.
#[test]
fn multitenant_golden_reproduces() {
    let mut spec = ExperimentSpec::from_json(&read_spec("multitenant.json")).expect("parse");
    // scripts/check.sh records the golden with `--trace`, which forces
    // trace-level telemetry before the run; mirror that here.
    spec.cluster.telemetry.level = TelemetryLevel::Trace;
    let report = build_cluster(&spec).run();
    let got = format!(
        "{}\n",
        serde_json::to_string_pretty(&report).expect("serialise report")
    );

    let mut golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    golden_path.pop();
    golden_path.push("bench_results");
    golden_path.push("GOLDEN_dsl_multitenant.json");
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {golden_path:?}: {e}"));
    assert_eq!(
        got, want,
        "multitenant run drifted from the committed golden; regenerate with\n\
         cargo run --release -p dualpar-bench --bin dualpar -- \\\n\
             examples/specs/multitenant.json --trace /dev/null \\\n\
             > bench_results/GOLDEN_dsl_multitenant.json"
    );

    // The scenario really is multi-tenant and open-loop: more programs ran
    // than were listed closed-loop, and at least three distinct names.
    assert!(report.programs.len() >= 4);
    let mut names: Vec<&str> = report.programs.iter().map(|p| p.name.as_str()).collect();
    names.dedup();
    assert!(
        names.len() >= 3,
        "expected >=3 tenant classes, got {names:?}"
    );
}
