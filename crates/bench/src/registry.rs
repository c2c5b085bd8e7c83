//! The open workload registry behind [`crate::spec::WorkloadSpec`].
//!
//! Each benchmark is a [`Workload`] trait object registered under its
//! stable serde tag (the old closed enum's snake_case variant names, so
//! every committed v0 spec keeps parsing). Adding a workload means
//! implementing the trait and appending one [`PresetEntry`] — no enum to
//! edit, no dispatch `match` to grow.
//!
//! The trait collapses what used to be three separate `match`es (file
//! creation in `add_workload`, cost estimation in `workload_cost`, serde
//! dispatch in the enum) into one object: `materialize` creates the
//! workload's backing files on the cluster and compiles its script,
//! `cost` feeds longest-expected-first suite scheduling, and
//! `tag`/`payload` round-trip it through JSON. `reseeded` hands open-loop
//! arrival instances decorrelated copies (only workloads with internal
//! randomness override it).

use dualpar_cluster::Cluster;
use dualpar_mpiio::ProgramScript;
use dualpar_workloads::{
    instance_seed, Btio, Demo, DependentReader, Hpio, IorMpiIo, MpiIoTest, Noncontig, S3asim,
    TraceReplay,
};
use serde::{Deserialize, Serialize, Value};

/// A benchmark workload as a trait object: serializable parameters plus
/// the behaviour the spec layer needs from them.
pub trait Workload: std::fmt::Debug + Send + Sync {
    /// Stable serde tag (the key this workload appears under in spec
    /// JSON).
    fn tag(&self) -> &'static str;

    /// The parameter payload, in the serde stub's value model.
    fn payload(&self) -> Value;

    /// Estimated file requests generated — the suite scheduler's cost
    /// proxy. Only the ordering matters; the estimates are deliberately
    /// crude (no caching/merging/contention modelling).
    fn cost(&self) -> u64;

    /// Reject impossible parameterisations.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// A decorrelated copy for open-loop arrival instance `instance`.
    /// Workloads without internal randomness return a plain clone.
    fn reseeded(&self, _instance: u64) -> Box<dyn Workload> {
        self.clone_box()
    }

    /// Clone through the trait object.
    fn clone_box(&self) -> Box<dyn Workload>;

    /// Create the workload's backing files on `cluster` (names suffixed
    /// with `label` so concurrent instances stay disjoint) and compile the
    /// program script.
    fn materialize(&self, cluster: &mut Cluster, label: &str) -> ProgramScript;
}

macro_rules! preset {
    ($ty:ty, $tag:literal,
     cost: |$cw:ident| $cost:expr,
     materialize: |$mw:ident, $cluster:ident, $label:ident| $mat:expr
     $(, reseeded: |$rw:ident, $inst:ident| $re:expr)?
    ) => {
        impl Workload for $ty {
            fn tag(&self) -> &'static str {
                $tag
            }
            fn payload(&self) -> Value {
                Serialize::to_value(self)
            }
            fn cost(&self) -> u64 {
                let $cw = self;
                $cost
            }
            fn clone_box(&self) -> Box<dyn Workload> {
                Box::new(self.clone())
            }
            $(
                fn reseeded(&self, $inst: u64) -> Box<dyn Workload> {
                    let $rw = self;
                    Box::new($re)
                }
            )?
            fn materialize(&self, $cluster: &mut Cluster, $label: &str) -> ProgramScript {
                let $mw = self;
                $mat
            }
        }
    };
}

preset!(MpiIoTest, "mpi_io_test",
    cost: |w| w.file_size / w.request_size.max(1),
    materialize: |w, cluster, label| {
        let f = cluster.create_file(&format!("mpiio-{label}"), w.file_size);
        w.build(f)
    }
);

preset!(Hpio, "hpio",
    cost: |w| w.nprocs as u64 * w.region_count,
    materialize: |w, cluster, label| {
        let f = cluster.create_file(&format!("hpio-{label}"), w.file_size());
        w.build(f)
    }
);

preset!(IorMpiIo, "ior_mpi_io",
    cost: |w| w.file_size / w.request_size.max(1),
    materialize: |w, cluster, label| {
        let f = cluster.create_file(&format!("ior-{label}"), w.file_size);
        w.build(f)
    }
);

preset!(Noncontig, "noncontig",
    cost: |w| w.rows * w.nprocs as u64,
    materialize: |w, cluster, label| {
        let f = cluster.create_file(&format!("noncontig-{label}"), w.file_size());
        w.build(f)
    }
);

preset!(S3asim, "s3asim",
    cost: |w| w.queries * w.fragments.max(1) * w.nprocs as u64,
    materialize: |w, cluster, label| {
        let db = cluster.create_file(&format!("s3db-{label}"), w.db_size);
        let res = cluster.create_file(&format!("s3res-{label}"), w.result_size);
        w.build(db, res)
    },
    reseeded: |w, instance| S3asim {
        seed: instance_seed(w.seed, instance),
        ..w.clone()
    }
);

preset!(Btio, "btio",
    cost: |w| {
        // BTIO's cell shrinks with the process count, so request count
        // (dataset / cell) is what explodes — the suite's dominant run.
        let passes = if w.verify { 2 } else { 1 };
        passes * w.dataset / w.cell_bytes().max(1)
    },
    materialize: |w, cluster, label| {
        let f = cluster.create_file(&format!("btio-{label}"), w.file_size());
        w.build(f)
    }
);

preset!(Demo, "demo",
    cost: |w| w.file_size / w.segment_size.max(1),
    materialize: |w, cluster, label| {
        let f = cluster.create_file(&format!("demo-{label}"), w.file_size);
        w.build(f)
    }
);

preset!(DependentReader, "dependent_reader",
    cost: |w| w.total_bytes / w.request_size.max(1),
    materialize: |w, cluster, label| {
        let f = cluster.create_file(&format!("dep-{label}"), w.file_size());
        w.build(f)
    },
    reseeded: |w, instance| DependentReader {
        seed: instance_seed(w.seed, instance),
        ..w.clone()
    }
);

preset!(TraceReplay, "trace_replay",
    cost: |w| w.entries.len() as u64,
    materialize: |w, cluster, label| {
        let files: Vec<_> = w
            .required_file_sizes()
            .iter()
            .enumerate()
            .map(|(i, &sz)| cluster.create_file(&format!("trace-{label}-{i}"), sz.max(1)))
            .collect();
        w.build(&files)
    }
);

/// One registry row: a stable tag plus the deserializer that rebuilds the
/// workload from its payload.
pub struct PresetEntry {
    /// The serde tag.
    pub tag: &'static str,
    /// Payload deserializer.
    pub de: fn(&Value) -> Result<Box<dyn Workload>, serde::Error>,
}

fn de<T: Deserialize + Workload + 'static>(v: &Value) -> Result<Box<dyn Workload>, serde::Error> {
    T::from_value(v).map(|w| Box::new(w) as Box<dyn Workload>)
}

/// Every registered preset. Linear scan is fine: specs are parsed once and
/// the table has single digits of rows.
pub static PRESETS: &[PresetEntry] = &[
    PresetEntry {
        tag: "mpi_io_test",
        de: de::<MpiIoTest>,
    },
    PresetEntry {
        tag: "hpio",
        de: de::<Hpio>,
    },
    PresetEntry {
        tag: "ior_mpi_io",
        de: de::<IorMpiIo>,
    },
    PresetEntry {
        tag: "noncontig",
        de: de::<Noncontig>,
    },
    PresetEntry {
        tag: "s3asim",
        de: de::<S3asim>,
    },
    PresetEntry {
        tag: "btio",
        de: de::<Btio>,
    },
    PresetEntry {
        tag: "demo",
        de: de::<Demo>,
    },
    PresetEntry {
        tag: "dependent_reader",
        de: de::<DependentReader>,
    },
    PresetEntry {
        tag: "trace_replay",
        de: de::<TraceReplay>,
    },
];

/// All registered tags, for error messages and docs.
pub fn known_tags() -> Vec<&'static str> {
    PRESETS.iter().map(|p| p.tag).collect()
}

/// Rebuild a preset workload from its tag and payload.
pub fn deserialize_preset(tag: &str, payload: &Value) -> Result<Box<dyn Workload>, serde::Error> {
    match PRESETS.iter().find(|p| p.tag == tag) {
        Some(p) => (p.de)(payload),
        None => Err(serde::Error::custom(format!(
            "unknown workload {tag:?}; known workloads: dsl, {}",
            known_tags().join(", ")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_round_trips_via_the_registry() {
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(MpiIoTest::default()),
            Box::new(Hpio::default()),
            Box::new(IorMpiIo::default()),
            Box::new(Noncontig::default()),
            Box::new(S3asim::default()),
            Box::new(Btio::default()),
            Box::new(Demo::default()),
            Box::new(DependentReader::default()),
            Box::new(TraceReplay::default()),
        ];
        assert_eq!(workloads.len(), PRESETS.len());
        for w in &workloads {
            let back = deserialize_preset(w.tag(), &w.payload()).expect("registry rebuilds");
            assert_eq!(back.tag(), w.tag());
            assert_eq!(back.payload(), w.payload(), "{} payload drifted", w.tag());
            assert_eq!(back.cost(), w.cost());
        }
    }

    #[test]
    fn unknown_tags_report_the_available_set() {
        let err = deserialize_preset("nope", &Value::Null).expect_err("unknown tag");
        let msg = err.to_string();
        assert!(msg.contains("nope"), "{msg}");
        assert!(msg.contains("mpi_io_test"), "{msg}");
        assert!(msg.contains("dsl"), "{msg}");
    }

    #[test]
    fn reseeding_touches_only_seeded_workloads() {
        let s3 = S3asim::default();
        let r = s3.reseeded(3);
        assert_ne!(
            r.payload(),
            s3.payload(),
            "s3asim must decorrelate per instance"
        );
        let mpiio = MpiIoTest::default();
        assert_eq!(
            mpiio.reseeded(3).payload(),
            mpiio.payload(),
            "deterministic workloads reseed to themselves"
        );
    }
}
