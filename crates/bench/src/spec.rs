//! Experiment specifications: a cluster configuration plus closed-loop
//! programs (workload + I/O strategy + start time) and open-loop arrival
//! streams (workload + strategy + arrival process), serializable to the
//! JSON the `dualpar` CLI consumes and buildable into a ready-to-run
//! [`Cluster`]. Shared by the CLI, the parallel suite runner, and the
//! determinism tests.
//!
//! ## Schema versions
//!
//! `version` 0 (implicit — the field was introduced together with the
//! `arrivals` section) is the original schema: `cluster` + `programs`
//! only. Version 1 adds `version` itself and `arrivals`.
//! [`ExperimentSpec::upgrade`] migrates v0 documents in place — workload
//! tags are the same in both versions, so the upgrade is purely a version
//! stamp — and rejects versions newer than [`SPEC_VERSION`]. Always parse
//! user JSON through [`ExperimentSpec::from_json`], which upgrades and
//! validates. Unknown keys are rejected, so a misspelt or retired field
//! fails the load instead of silently running with the default.

use dualpar_cluster::{Cluster, ClusterConfig, IoStrategy, ProgramSpec};
use dualpar_mpiio::ProgramScript;
use dualpar_sim::SimTime;
use dualpar_workloads::{
    instance_seed, Arrivals, Btio, Demo, DependentReader, DslWorkload, Hpio, IorMpiIo, MpiIoTest,
    Noncontig, S3asim,
};
use serde::{Deserialize, Serialize};

/// The newest spec schema this binary reads and the version it writes.
pub const SPEC_VERSION: u32 = 1;

/// A workload choice: one of the paper's benchmarks (§V-A), the §II
/// `Demo` synthetic, the Table III `DependentReader`, or a compositional
/// [DSL](dualpar_workloads::dsl) expression. Externally tagged by the
/// snake_case variant name: `{"mpi_io_test": {...}}`, `{"dsl": {...}}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WorkloadSpec {
    MpiIoTest(MpiIoTest),
    Hpio(Hpio),
    IorMpiIo(IorMpiIo),
    Noncontig(Noncontig),
    S3asim(S3asim),
    Btio(Btio),
    Demo(Demo),
    DependentReader(DependentReader),
    Dsl(DslWorkload),
}

macro_rules! from_preset {
    ($($preset:ident),*) => {$(
        impl From<$preset> for WorkloadSpec {
            fn from(w: $preset) -> Self {
                WorkloadSpec::$preset(w)
            }
        }
    )*};
}

from_preset!(
    MpiIoTest,
    Hpio,
    IorMpiIo,
    Noncontig,
    S3asim,
    Btio,
    Demo,
    DependentReader
);

impl WorkloadSpec {
    /// Wrap a preset workload.
    pub fn named(w: impl Into<WorkloadSpec>) -> Self {
        w.into()
    }

    /// Wrap a DSL workload.
    pub fn dsl(w: DslWorkload) -> Self {
        WorkloadSpec::Dsl(w)
    }

    /// Estimated file requests generated — the suite scheduler's cost
    /// proxy. Only the ordering matters; the estimates are deliberately
    /// crude (no caching/merging/contention modelling).
    pub fn cost(&self) -> u64 {
        match self {
            Self::MpiIoTest(w) => w.file_size / MpiIoTest::REQUEST_SIZE,
            Self::Hpio(w) => w.nprocs as u64 * w.region_count,
            Self::IorMpiIo(w) => w.file_size / IorMpiIo::REQUEST_SIZE,
            Self::Noncontig(w) => w.rows * w.nprocs as u64,
            Self::S3asim(w) => w.queries * S3asim::FRAGMENTS * w.nprocs as u64,
            // BTIO's cell shrinks with the process count, so request count
            // (dataset / cell) is what explodes — the suite's dominant run.
            Self::Btio(w) => w.dataset / w.cell_bytes(),
            Self::Demo(w) => w.file_size / w.segment_size.max(1),
            Self::DependentReader(w) => w.total_bytes / DependentReader::REQUEST_SIZE,
            Self::Dsl(d) => d.cost(),
        }
    }

    /// Reject impossible parameterisations: a malformed DSL expression, a
    /// preset field that a generator divides by set to zero, or a preset
    /// file that would be empty though the generator reads it. The error
    /// names the field as `<preset>.<field>`.
    pub fn validate(&self) -> Result<(), String> {
        let (preset, field) = match self {
            Self::Dsl(d) => return d.validate(),
            Self::MpiIoTest(w) if w.nprocs == 0 => ("mpi_io_test", "nprocs"),
            Self::Hpio(w) if w.nprocs == 0 => ("hpio", "nprocs"),
            Self::IorMpiIo(w) if w.nprocs == 0 => ("ior_mpi_io", "nprocs"),
            Self::Noncontig(w) if w.nprocs == 0 => ("noncontig", "nprocs"),
            Self::Noncontig(w) if w.elmt_count == 0 => ("noncontig", "elmt_count"),
            Self::S3asim(w) if w.nprocs == 0 => ("s3asim", "nprocs"),
            Self::S3asim(w) if w.db_size == 0 => ("s3asim", "db_size"),
            Self::Btio(w) if w.nprocs == 0 => ("btio", "nprocs"),
            Self::Btio(w) if w.steps == 0 => ("btio", "steps"),
            Self::Btio(w) if w.dataset == 0 => ("btio", "dataset"),
            Self::Demo(w) if w.segment_size == 0 => ("demo", "segment_size"),
            Self::DependentReader(w) if w.nprocs == 0 => ("dependent_reader", "nprocs"),
            _ => return Ok(()),
        };
        Err(format!("{preset}.{field} must be at least 1"))
    }

    /// A decorrelated copy for open-loop arrival instance `instance`.
    /// Workloads without internal randomness return a plain clone.
    pub fn reseeded(&self, instance: u64) -> Self {
        match self {
            Self::S3asim(w) => Self::S3asim(S3asim {
                seed: instance_seed(w.seed, instance),
                ..w.clone()
            }),
            Self::DependentReader(w) => Self::DependentReader(DependentReader {
                seed: instance_seed(w.seed, instance),
                ..w.clone()
            }),
            Self::Dsl(d) => Self::Dsl(d.reseeded(instance)),
            other => other.clone(),
        }
    }

    /// Create the workload's backing files on `cluster` (names suffixed
    /// with `label` so concurrent instances stay disjoint) and compile its
    /// program script.
    pub fn materialize(&self, cluster: &mut Cluster, label: &str) -> ProgramScript {
        match self {
            Self::MpiIoTest(w) => {
                w.build(cluster.create_file(&format!("mpiio-{label}"), w.file_size))
            }
            Self::Hpio(w) => w.build(cluster.create_file(&format!("hpio-{label}"), w.file_size())),
            Self::IorMpiIo(w) => w.build(cluster.create_file(&format!("ior-{label}"), w.file_size)),
            Self::Noncontig(w) => {
                w.build(cluster.create_file(&format!("noncontig-{label}"), w.file_size()))
            }
            Self::S3asim(w) => {
                let db = cluster.create_file(&format!("s3db-{label}"), w.db_size);
                let res = cluster.create_file(&format!("s3res-{label}"), w.result_size);
                w.build(db, res)
            }
            Self::Btio(w) => w.build(cluster.create_file(&format!("btio-{label}"), w.file_size())),
            Self::Demo(w) => w.build(cluster.create_file(&format!("demo-{label}"), w.file_size)),
            Self::DependentReader(w) => {
                w.build(cluster.create_file(&format!("dep-{label}"), w.file_size()))
            }
            Self::Dsl(d) => {
                d.build(cluster.create_file(&format!("{}-{label}", d.name), d.file_size))
            }
        }
    }
}

/// One closed-loop program of an experiment: what to run, how, and when.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ProgramEntry {
    pub workload: WorkloadSpec,
    pub strategy: IoStrategy,
    #[serde(default)]
    pub start_secs: f64,
}

/// One open-loop arrival stream: every arrival of `arrivals` spawns a
/// fresh, decorrelated instance of `workload` under `strategy`.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ArrivalEntry {
    pub workload: WorkloadSpec,
    pub strategy: IoStrategy,
    pub arrivals: Arrivals,
}

/// A complete experiment: the cluster, its closed-loop programs, and its
/// open-loop arrival streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ExperimentSpec {
    /// Schema version; see the [module docs](self). Absent (0) in v0 JSON.
    #[serde(default)]
    pub version: u32,
    #[serde(default)]
    pub cluster: ClusterConfig,
    /// Closed-loop programs. Absent means none — an arrival-only spec.
    #[serde(default)]
    pub programs: Vec<ProgramEntry>,
    /// Open-loop arrival streams (v1+).
    #[serde(default)]
    pub arrivals: Vec<ArrivalEntry>,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            version: SPEC_VERSION,
            cluster: ClusterConfig::default(),
            programs: vec![ProgramEntry {
                workload: WorkloadSpec::named(MpiIoTest {
                    file_size: 256 << 20,
                    ..Default::default()
                }),
                strategy: IoStrategy::DualPar,
                start_secs: 0.0,
            }],
            arrivals: Vec::new(),
        }
    }
}

impl ExperimentSpec {
    /// Migrate an older schema to [`SPEC_VERSION`] and reject newer ones.
    /// v0 → v1 is a pure version stamp: workload tags are identical and v0
    /// documents cannot contain `arrivals`.
    pub fn upgrade(mut self) -> Result<Self, String> {
        match self.version {
            0 => {
                self.version = 1;
                Ok(self)
            }
            SPEC_VERSION => Ok(self),
            v => Err(format!(
                "spec version {v} is newer than this binary's v{SPEC_VERSION}; \
                 rebuild or downgrade the spec"
            )),
        }
    }

    /// Reject specs that parse but cannot run.
    pub fn validate(&self) -> Result<(), String> {
        self.cluster
            .validate()
            .map_err(|e| format!("cluster: {e}"))?;
        if self.programs.is_empty() && self.arrivals.is_empty() {
            return Err("spec has neither programs nor arrivals".into());
        }
        for (i, p) in self.programs.iter().enumerate() {
            p.workload
                .validate()
                .map_err(|e| format!("programs[{i}]: {e}"))?;
            if p.start_secs < 0.0 || !p.start_secs.is_finite() {
                return Err(format!(
                    "programs[{i}]: start_secs must be finite and >= 0, got {}",
                    p.start_secs
                ));
            }
        }
        for (i, a) in self.arrivals.iter().enumerate() {
            a.workload
                .validate()
                .map_err(|e| format!("arrivals[{i}]: {e}"))?;
            a.arrivals
                .validate()
                .map_err(|e| format!("arrivals[{i}]: {e}"))?;
        }
        Ok(())
    }

    /// Parse, migrate, and validate a spec document — the one entry point
    /// every JSON consumer (CLI, suite loader) should use.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let spec: ExperimentSpec =
            serde_json::from_str(json).map_err(|e| format!("invalid spec JSON: {e}"))?;
        let spec = spec.upgrade()?;
        spec.validate()?;
        Ok(spec)
    }
}

/// Relative event-count weight of an I/O strategy. Vanilla issues every
/// region synchronously (one network + disk round trip each); DualPar
/// aggregates whole phases into a few large batches, collapsing the event
/// count by orders of magnitude.
fn strategy_weight(s: IoStrategy) -> u64 {
    match s {
        IoStrategy::Vanilla => 8,
        IoStrategy::PrefetchOverlap => 6,
        IoStrategy::Collective => 4,
        IoStrategy::DualPar | IoStrategy::DualParForced => 1,
    }
}

/// Expected relative simulation cost of a whole experiment, for
/// longest-expected-first scheduling. Arrival streams count once per
/// expanded instance. Never zero.
pub fn expected_cost(spec: &ExperimentSpec) -> u64 {
    let programs: u64 = spec
        .programs
        .iter()
        .map(|p| p.workload.cost().max(1) * strategy_weight(p.strategy))
        .sum();
    let arrivals: u64 = spec
        .arrivals
        .iter()
        .map(|a| {
            let instances = a.arrivals.times().len() as u64;
            a.workload.cost().max(1) * strategy_weight(a.strategy) * instances
        })
        .sum();
    programs.saturating_add(arrivals).max(1)
}

/// Build a ready-to-run cluster from a spec. Purely a function of the
/// spec: building the same spec twice yields clusters that simulate
/// identically (the determinism tests rely on this). Arrival streams are
/// expanded here — deterministically, from each stream's own seed — into
/// per-instance programs with labels `a{stream}-{instance}`.
pub fn build_cluster(spec: &ExperimentSpec) -> Cluster {
    let mut cluster = Cluster::new(spec.cluster.clone());
    for (i, entry) in spec.programs.iter().enumerate() {
        let script = entry.workload.materialize(&mut cluster, &i.to_string());
        cluster.add_program(
            ProgramSpec::new(script, entry.strategy)
                .starting_at(SimTime::from_secs_f64(entry.start_secs)),
        );
    }
    for (ai, stream) in spec.arrivals.iter().enumerate() {
        for (inst, t) in stream.arrivals.times().into_iter().enumerate() {
            let workload = stream.workload.reseeded(inst as u64);
            let script = workload.materialize(&mut cluster, &format!("a{ai}-{inst}"));
            cluster.add_program(
                ProgramSpec::new(script, stream.strategy).starting_at(SimTime::from_secs_f64(t)),
            );
        }
    }
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualpar_workloads::{AccessPattern, ArrivalProcess, OffsetDistr, WorkloadExpr};

    #[test]
    fn default_spec_round_trips_through_json() {
        let spec = ExperimentSpec::default();
        let json = serde_json::to_string(&spec).expect("serialise spec");
        let back: ExperimentSpec = serde_json::from_str(&json).expect("parse spec");
        assert_eq!(back.version, SPEC_VERSION);
        assert_eq!(back.programs.len(), spec.programs.len());
        let json2 = serde_json::to_string(&back).expect("serialise again");
        assert_eq!(json, json2);
    }

    #[test]
    fn v0_json_still_loads_and_upgrades() {
        // A v0 document: no version field, closed-enum workload tag.
        let v0 = r#"{
            "programs": [
                {"workload": {"mpi_io_test": {"nprocs": 4, "file_size": 1048576}},
                 "strategy": "DualPar"}
            ]
        }"#;
        let spec = ExperimentSpec::from_json(v0).expect("v0 loads");
        assert_eq!(spec.version, SPEC_VERSION, "upgrade stamps the version");
        assert_eq!(spec.programs.len(), 1);
        assert!(matches!(
            spec.programs[0].workload,
            WorkloadSpec::MpiIoTest(_)
        ));
        assert!(spec.arrivals.is_empty());
        // And it still builds and runs.
        let report = build_cluster(&spec).run();
        assert_eq!(report.programs.len(), 1);
    }

    #[test]
    fn future_versions_are_rejected() {
        let json = format!(r#"{{"version": {}, "programs": []}}"#, SPEC_VERSION + 1);
        let err = ExperimentSpec::from_json(&json).expect_err("future version");
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn unknown_workload_tags_list_the_registry() {
        let json = r#"{"programs": [{"workload": {"bogus": {}}, "strategy": "Vanilla"}]}"#;
        let err = ExperimentSpec::from_json(json).expect_err("unknown tag");
        assert!(err.contains("bogus") && err.contains("hpio"), "{err}");
        assert!(err.contains("dsl"), "{err}");
    }

    #[test]
    fn misspelt_strategies_list_the_variants() {
        let json = r#"{"programs": [{"workload": {"demo": {}}, "strategy": "Dualpar"}]}"#;
        let err = ExperimentSpec::from_json(json).expect_err("unknown strategy");
        assert!(
            err.contains("unknown variant `Dualpar`") && err.contains("`DualPar`"),
            "{err}"
        );
        assert!(err.contains("`Vanilla`"), "{err}");
    }

    #[test]
    fn retired_cluster_keys_are_rejected() {
        // A retired knob and values that became model constants.
        for (cluster, key) in [
            (r#"{"ctx_mode": "PerDisk"}"#, "ctx_mode"),
            (r#"{"s2_window": 4}"#, "s2_window"),
            (r#"{"alloc": {}}"#, "alloc"),
            (r#"{"collective": {}}"#, "collective"),
            (r#"{"dualpar": {"list_io_pack": 64}}"#, "list_io_pack"),
            (r#"{"sieve": {"buffer_bytes": 1024}}"#, "buffer_bytes"),
            (
                r#"{"sieve": {"min_useful_fraction": 0.0}}"#,
                "min_useful_fraction",
            ),
        ] {
            let json = format!(
                r#"{{"cluster": {cluster},
                "programs": [{{"workload": {{"demo": {{}}}}, "strategy": "Vanilla"}}]}}"#
            );
            let err = ExperimentSpec::from_json(&json).expect_err("unknown cluster key");
            assert!(err.contains(&format!("unknown field `{key}`")), "{err}");
        }
    }

    #[test]
    fn zero_cluster_shapes_are_rejected_naming_the_field() {
        let mut cluster = ClusterConfig::default();
        cluster.dualpar.sample_slot = dualpar_sim::SimDuration::ZERO;
        let zero_slot = serde_json::to_string(&cluster).expect("serialise cluster");
        let mut cluster = ClusterConfig::default();
        cluster.disk.transfer_bytes_per_sec = 0;
        let zero_rate = serde_json::to_string(&cluster).expect("serialise cluster");
        for (cluster, field) in [
            (r#"{"num_data_servers": 0}"#, "num_data_servers"),
            (r#"{"num_compute_nodes": 0}"#, "num_compute_nodes"),
            (r#"{"stripe_size": 0}"#, "stripe_size"),
            // Unchecked, EMC's sampling tick reschedules itself at the
            // same instant forever.
            (zero_slot.as_str(), "dualpar.sample_slot"),
            // Unchecked, every transfer takes no time.
            (zero_rate.as_str(), "disk.transfer_bytes_per_sec"),
        ] {
            let json = format!(
                r#"{{"cluster": {cluster},
                "programs": [{{"workload": {{"demo": {{}}}}, "strategy": "DualPar"}}]}}"#
            );
            let err = ExperimentSpec::from_json(&json).expect_err("zero cluster field");
            assert!(err.starts_with("cluster: ") && err.contains(field), "{err}");
        }
    }

    #[test]
    fn zero_preset_divisors_are_rejected_naming_the_field() {
        // Unchecked, each of these divides by zero in its generator,
        // (hpio) builds a program of no ranks, or (btio.dataset,
        // s3asim.db_size) reads a file that was never allocated.
        for (preset, field) in [
            ("mpi_io_test", "nprocs"),
            ("hpio", "nprocs"),
            ("ior_mpi_io", "nprocs"),
            ("noncontig", "nprocs"),
            ("noncontig", "elmt_count"),
            ("s3asim", "nprocs"),
            ("s3asim", "db_size"),
            ("btio", "nprocs"),
            ("btio", "steps"),
            ("btio", "dataset"),
            ("demo", "segment_size"),
            ("dependent_reader", "nprocs"),
        ] {
            let json = format!(
                r#"{{"programs": [{{"workload": {{"{preset}": {{"{field}": 0}}}},
                "strategy": "Vanilla"}}]}}"#
            );
            let err = ExperimentSpec::from_json(&json).expect_err("zero divisor");
            assert_eq!(
                err,
                format!("programs[0]: {preset}.{field} must be at least 1"),
                "{json}"
            );
        }
    }

    #[test]
    fn misspelt_workload_fields_are_rejected() {
        let json = r#"{"programs": [{"workload": {"hpio": {"region_cnt": 8}},
            "strategy": "Vanilla"}]}"#;
        let err = ExperimentSpec::from_json(json).expect_err("unknown hpio key");
        assert!(err.contains("unknown field `region_cnt`"), "{err}");
        assert!(err.contains("`region_count`"), "{err}");
    }

    fn every_workload() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::named(MpiIoTest::default()),
            WorkloadSpec::named(Hpio::default()),
            WorkloadSpec::named(IorMpiIo::default()),
            WorkloadSpec::named(Noncontig::default()),
            WorkloadSpec::named(S3asim::default()),
            WorkloadSpec::named(Btio::default()),
            WorkloadSpec::named(Demo::default()),
            WorkloadSpec::named(DependentReader::default()),
            WorkloadSpec::dsl(zipf_dsl(5)),
        ]
    }

    fn to_json(w: &WorkloadSpec) -> String {
        serde_json::to_string(w).expect("serialise workload")
    }

    #[test]
    fn every_workload_round_trips_through_json() {
        for w in every_workload() {
            let json = to_json(&w);
            let back: WorkloadSpec = serde_json::from_str(&json).expect("parse workload");
            assert_eq!(to_json(&back), json, "payload drifted");
            assert_eq!(back.cost(), w.cost(), "{json}");
        }
    }

    #[test]
    fn reseeding_touches_only_seeded_workloads() {
        for w in every_workload() {
            let seeded = matches!(
                w,
                WorkloadSpec::S3asim(_) | WorkloadSpec::DependentReader(_) | WorkloadSpec::Dsl(_)
            );
            let json = to_json(&w);
            assert_eq!(to_json(&w.reseeded(3)) != json, seeded, "{json}");
        }
    }

    #[test]
    fn build_cluster_submits_every_program() {
        let mut spec = ExperimentSpec {
            cluster: crate::small_cluster(),
            ..Default::default()
        };
        spec.programs.push(ProgramEntry {
            workload: WorkloadSpec::named(Demo::default()),
            strategy: IoStrategy::Vanilla,
            start_secs: 1.0,
        });
        let mut cluster = build_cluster(&spec);
        let report = cluster.run();
        assert_eq!(report.programs.len(), 2);
    }

    fn zipf_dsl(seed: u64) -> DslWorkload {
        DslWorkload {
            name: "hot".into(),
            nprocs: 4,
            file_size: 8 << 20,
            seed,
            expr: WorkloadExpr::Pattern(AccessPattern {
                ops: 32,
                offsets: OffsetDistr::ZipfHotspot { theta: 0.99 },
                ..AccessPattern::default()
            }),
        }
    }

    #[test]
    fn arrival_streams_expand_into_decorrelated_instances() {
        let spec = ExperimentSpec {
            cluster: crate::small_cluster(),
            programs: Vec::new(),
            arrivals: vec![ArrivalEntry {
                workload: WorkloadSpec::dsl(zipf_dsl(7)),
                strategy: IoStrategy::DualPar,
                arrivals: Arrivals {
                    process: ArrivalProcess::Poisson { rate_per_sec: 1.0 },
                    horizon_secs: 5.0,
                    seed: 21,
                    max_instances: 8,
                },
            }],
            ..Default::default()
        };
        spec.validate().expect("valid");
        let n = spec.arrivals[0].arrivals.times().len();
        assert!(n >= 1);
        let report = build_cluster(&spec).run();
        assert_eq!(report.programs.len(), n);
        // Same spec, same bytes: the expansion is deterministic.
        let again = build_cluster(&spec).run();
        assert_eq!(
            serde_json::to_string(&report).expect("json"),
            serde_json::to_string(&again).expect("json")
        );
    }

    #[test]
    fn spec_with_arrivals_round_trips_through_json() {
        let spec = ExperimentSpec {
            cluster: crate::small_cluster(),
            programs: vec![ProgramEntry {
                workload: WorkloadSpec::named(MpiIoTest::default()),
                strategy: IoStrategy::Vanilla,
                start_secs: 0.25,
            }],
            arrivals: vec![ArrivalEntry {
                workload: WorkloadSpec::dsl(zipf_dsl(3)),
                strategy: IoStrategy::DualPar,
                arrivals: Arrivals::default(),
            }],
            ..Default::default()
        };
        let json = serde_json::to_string_pretty(&spec).expect("serialise");
        let back = ExperimentSpec::from_json(&json).expect("parse");
        let json2 = serde_json::to_string_pretty(&back).expect("serialise again");
        assert_eq!(json, json2);
    }

    #[test]
    fn validation_rejects_unrunnable_specs() {
        let empty = ExperimentSpec {
            programs: Vec::new(),
            ..Default::default()
        };
        assert!(empty.validate().is_err());
        let mut bad_dsl = ExperimentSpec::default();
        bad_dsl.programs[0].workload = WorkloadSpec::dsl(DslWorkload {
            expr: WorkloadExpr::Seq(vec![]),
            ..DslWorkload::default()
        });
        assert!(bad_dsl.validate().is_err());
    }
}
