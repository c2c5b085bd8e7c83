//! A fluent builder for assembling experiments.
//!
//! [`Experiment`] wraps the manual `ClusterConfig` → `Cluster::new` →
//! `create_file` → `add_program` sequence in a declarative chain with
//! up-front validation:
//!
//! ```no_run
//! use dualpar_cluster::prelude::*;
//! # fn script(_: &[dualpar_pfs::FileId]) -> dualpar_mpiio::ProgramScript { unimplemented!() }
//!
//! let report = Experiment::darwin()
//!     .servers(9)
//!     .seed(7)
//!     .telemetry(TelemetryLevel::Counters)
//!     .file("dataset.bin", 256 << 20)
//!     .program(IoStrategy::DualPar, |files| script(files))
//!     .run()
//!     .expect("valid experiment");
//! ```
//!
//! Program scripts are built by closures receiving the created [`FileId`]s
//! (in `file()` call order), so workload generators stay decoupled from the
//! cluster crate. `build()` returns the assembled [`Cluster`] for callers
//! that need mid-run access (disk traces, telemetry export); `run()` is the
//! one-shot convenience. The underlying `ClusterConfig`/`ProgramSpec` types
//! remain public — the builder is sugar, not a new abstraction layer.

use crate::config::{ClusterConfig, IoStrategy, ProgramSpec, ServerWriteMode};
use crate::engine::Cluster;
use crate::metrics::RunReport;
use dualpar_disk::SchedulerKind;
use dualpar_mpiio::ProgramScript;
use dualpar_pfs::FileId;
use dualpar_sim::FxHashSet;
use dualpar_sim::SimTime;
use dualpar_telemetry::{TelemetryConfig, TelemetryLevel};

/// Why an [`Experiment`] could not be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// No `program(...)` call was made.
    NoPrograms,
    /// `servers(0)` — the file system needs at least one data server.
    NoServers,
    /// `compute_nodes(0)` — processes need somewhere to run.
    NoComputeNodes,
    /// The stripe unit was set to zero.
    ZeroStripe,
    /// Two `file(...)` calls used the same name.
    DuplicateFile(String),
    /// A file was declared with size zero.
    ZeroFileSize(String),
    /// A program's script has no ranks.
    NoRanks {
        /// The program's label.
        program: String,
    },
    /// A program's ranks disagree on their barrier sequence.
    InconsistentBarriers {
        /// The program's label.
        program: String,
    },
    /// A program references a file that no `file(...)` call created.
    UnknownFile {
        /// The program's label.
        program: String,
        /// The raw file id the script referenced.
        file: u32,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::NoPrograms => write!(f, "experiment has no programs"),
            ExperimentError::NoServers => write!(f, "experiment has zero data servers"),
            ExperimentError::NoComputeNodes => write!(f, "experiment has zero compute nodes"),
            ExperimentError::ZeroStripe => write!(f, "stripe size must be non-zero"),
            ExperimentError::DuplicateFile(name) => {
                write!(f, "file {name:?} declared more than once")
            }
            ExperimentError::ZeroFileSize(name) => {
                write!(f, "file {name:?} declared with size zero")
            }
            ExperimentError::NoRanks { program } => {
                write!(f, "program {program:?} has no ranks")
            }
            ExperimentError::InconsistentBarriers { program } => {
                write!(f, "program {program:?} has inconsistent barrier sequences")
            }
            ExperimentError::UnknownFile { program, file } => {
                write!(
                    f,
                    "program {program:?} references file id {file} that was never declared"
                )
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

type ScriptFn = Box<dyn FnOnce(&[FileId]) -> ProgramScript>;

struct ProgramDef {
    strategy: IoStrategy,
    start_at: SimTime,
    script: ScriptFn,
}

/// Fluent experiment assembly — see the [module docs](self).
pub struct Experiment {
    cfg: ClusterConfig,
    files: Vec<(String, u64)>,
    programs: Vec<ProgramDef>,
}

impl Experiment {
    /// Start from the paper's Darwin platform (nine PVFS2 data servers,
    /// 7200-RPM disks behind CFQ, 64 KB striping, GigE) — i.e.
    /// `ClusterConfig::default()`.
    pub fn darwin() -> Self {
        Experiment::with_config(ClusterConfig::default())
    }

    /// Start from an explicit configuration.
    pub fn with_config(cfg: ClusterConfig) -> Self {
        Experiment {
            cfg,
            files: Vec::new(),
            programs: Vec::new(),
        }
    }

    // ----- platform knobs ------------------------------------------------

    /// Number of data servers (each with one disk).
    pub fn servers(mut self, n: u32) -> Self {
        self.cfg.num_data_servers = n;
        self
    }

    /// Number of compute nodes.
    pub fn compute_nodes(mut self, n: u32) -> Self {
        self.cfg.num_compute_nodes = n;
        self
    }

    /// PVFS2 stripe unit (also the cache chunk size), in bytes.
    pub fn stripe(mut self, bytes: u64) -> Self {
        self.cfg.stripe_size = bytes;
        self
    }

    /// Disk scheduler at every server.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.cfg.scheduler = kind;
        self
    }

    /// Server write handling (write-through vs. periodic write-back).
    pub fn server_write_mode(mut self, mode: ServerWriteMode) -> Self {
        self.cfg.server_write_mode = mode;
        self
    }

    /// Master seed for every deterministic random stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Record full per-request disk traces (needed for LBN figures).
    pub fn trace_disks(mut self, on: bool) -> Self {
        self.cfg.trace_disks = on;
        self
    }

    /// Set the telemetry level (default capacity).
    pub fn telemetry(mut self, level: TelemetryLevel) -> Self {
        self.cfg.telemetry = TelemetryConfig::at(level);
        self
    }

    /// Set the full telemetry configuration (level and trace capacity).
    pub fn telemetry_config(mut self, cfg: TelemetryConfig) -> Self {
        self.cfg.telemetry = cfg;
        self
    }

    /// Escape hatch: tweak any remaining `ClusterConfig` field in place.
    pub fn tune(mut self, f: impl FnOnce(&mut ClusterConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    // ----- contents ------------------------------------------------------

    /// Declare a file to create in the parallel file system. Files are
    /// created in declaration order; program closures receive their ids in
    /// the same order.
    pub fn file(mut self, name: impl Into<String>, size: u64) -> Self {
        self.files.push((name.into(), size));
        self
    }

    /// Number of files declared so far. Extension layers that pair each
    /// program instance with a freshly declared file use this to compute the
    /// index the instance's [`FileId`] will occupy in the slice passed to
    /// program closures.
    pub fn files_declared(&self) -> usize {
        self.files.len()
    }

    /// Add a program starting at time zero. The closure receives the ids of
    /// every declared file (in `file()` order) and returns the program's
    /// script.
    pub fn program(
        self,
        strategy: IoStrategy,
        script: impl FnOnce(&[FileId]) -> ProgramScript + 'static,
    ) -> Self {
        self.program_at(strategy, SimTime::ZERO, script)
    }

    /// Add a program submitted at `start_at`.
    pub fn program_at(
        mut self,
        strategy: IoStrategy,
        start_at: SimTime,
        script: impl FnOnce(&[FileId]) -> ProgramScript + 'static,
    ) -> Self {
        self.programs.push(ProgramDef {
            strategy,
            start_at,
            script: Box::new(script),
        });
        self
    }

    /// Open-loop admission: add one program per entry of `starts`, all
    /// built by a shared factory. Instance `i` is submitted at `starts[i]`;
    /// the factory receives the instance index plus the full declared-file
    /// slice, so each instance can build a distinct (e.g. reseeded) script
    /// against its own file. This is the builder-level hook for arrival
    /// processes: callers expand an arrival process into concrete start
    /// times up front, keeping the assembled cluster a pure function of
    /// those times.
    pub fn program_instances(
        mut self,
        strategy: IoStrategy,
        starts: &[SimTime],
        factory: impl Fn(usize, &[FileId]) -> ProgramScript + 'static,
    ) -> Self {
        let factory = std::rc::Rc::new(factory);
        for (i, &start_at) in starts.iter().enumerate() {
            let f = std::rc::Rc::clone(&factory);
            self.programs.push(ProgramDef {
                strategy,
                start_at,
                script: Box::new(move |files| f(i, files)),
            });
        }
        self
    }

    // ----- assembly ------------------------------------------------------

    /// Validate and assemble the cluster: create every declared file, build
    /// each program's script, and register the programs. The returned
    /// [`Cluster`] is ready to [`Cluster::run`]; use it directly when you
    /// need post-run access to disks or telemetry.
    pub fn build(self) -> Result<Cluster, ExperimentError> {
        if self.programs.is_empty() {
            return Err(ExperimentError::NoPrograms);
        }
        if self.cfg.num_data_servers == 0 {
            return Err(ExperimentError::NoServers);
        }
        if self.cfg.num_compute_nodes == 0 {
            return Err(ExperimentError::NoComputeNodes);
        }
        if self.cfg.stripe_size == 0 {
            return Err(ExperimentError::ZeroStripe);
        }
        let mut names = FxHashSet::default();
        for (name, size) in &self.files {
            if !names.insert(name.clone()) {
                return Err(ExperimentError::DuplicateFile(name.clone()));
            }
            if *size == 0 {
                return Err(ExperimentError::ZeroFileSize(name.clone()));
            }
        }
        let mut cluster = Cluster::new(self.cfg);
        let mut ids = Vec::with_capacity(self.files.len());
        for (name, size) in &self.files {
            ids.push(cluster.create_file(name, *size));
        }
        for def in self.programs {
            let script = (def.script)(&ids);
            if script.ranks.is_empty() {
                return Err(ExperimentError::NoRanks {
                    program: script.name,
                });
            }
            cluster.try_add_program(
                ProgramSpec::new(script, def.strategy).starting_at(def.start_at),
            )?;
        }
        Ok(cluster)
    }

    /// Build and run to completion, returning the report.
    pub fn run(self) -> Result<RunReport, ExperimentError> {
        Ok(self.build()?.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualpar_disk::IoKind;
    use dualpar_mpiio::{IoCall, Op, ProcessScript};
    use dualpar_pfs::FileRegion;
    use dualpar_sim::SimDuration;

    /// One rank reading `len` bytes of the first file in two calls.
    fn reader(files: &[FileId]) -> ProgramScript {
        let f = files[0];
        let call = |off| {
            Op::Io(IoCall {
                kind: IoKind::Read,
                file: f,
                regions: FileRegion::new(off, 64 * 1024).into(),
                collective: false,
            })
        };
        ProgramScript {
            name: "reader".into(),
            ranks: vec![ProcessScript::new(vec![
                Op::Compute(SimDuration::from_millis(1)),
                call(0),
                call(64 * 1024),
            ])],
        }
    }

    #[test]
    fn builder_runs_a_minimal_experiment() {
        let report = Experiment::darwin()
            .servers(3)
            .compute_nodes(2)
            .seed(7)
            .file("data", 1 << 20)
            .program(IoStrategy::Vanilla, reader)
            .run()
            .expect("valid experiment");
        assert_eq!(report.programs.len(), 1);
        assert_eq!(report.programs[0].bytes_read, 128 * 1024);
        assert!(report.telemetry.is_none(), "telemetry defaults to off");
    }

    #[test]
    fn builder_matches_manual_assembly_exactly() {
        let manual = {
            let cfg = ClusterConfig {
                num_data_servers: 3,
                seed: 9,
                ..ClusterConfig::default()
            };
            let mut cluster = Cluster::new(cfg);
            let f = cluster.create_file("data", 1 << 20);
            cluster.add_program(ProgramSpec::new(reader(&[f]), IoStrategy::Vanilla));
            cluster.run()
        };
        let built = Experiment::darwin()
            .servers(3)
            .seed(9)
            .file("data", 1 << 20)
            .program(IoStrategy::Vanilla, reader)
            .run()
            .unwrap();
        assert_eq!(built.sim_end, manual.sim_end);
        assert_eq!(built.events_processed, manual.events_processed);
        assert_eq!(built.programs[0].bytes_read, manual.programs[0].bytes_read);
    }

    #[test]
    fn telemetry_level_flows_into_the_report() {
        let report = Experiment::darwin()
            .servers(3)
            .telemetry(TelemetryLevel::Counters)
            .file("data", 1 << 20)
            .program(IoStrategy::Vanilla, reader)
            .run()
            .unwrap();
        let snap = report.telemetry.expect("counters enabled");
        assert_eq!(
            snap.counters.get("io.bytes_read").copied(),
            Some(128 * 1024),
            "telemetry byte counter must reconcile with the program report"
        );
    }

    #[test]
    fn program_instances_admits_one_program_per_start() {
        let starts = [SimTime::ZERO, SimTime::from_secs(1), SimTime::from_secs(2)];
        let report = Experiment::darwin()
            .servers(3)
            .file("a", 1 << 20)
            .file("b", 1 << 20)
            .file("c", 1 << 20)
            .program_instances(IoStrategy::Vanilla, &starts, |i, files| {
                let mut s = reader(&[files[i]]);
                s.name = format!("inst-{i}");
                s
            })
            .run()
            .expect("valid experiment");
        assert_eq!(report.programs.len(), 3);
        for (i, p) in report.programs.iter().enumerate() {
            assert_eq!(p.name, format!("inst-{i}"));
            assert!(
                p.start >= starts[i],
                "instance {i} started before its arrival"
            );
        }
    }

    #[test]
    fn validation_rejects_bad_experiments() {
        assert_eq!(
            Experiment::darwin().build().err(),
            Some(ExperimentError::NoPrograms)
        );
        assert_eq!(
            Experiment::darwin()
                .servers(0)
                .file("data", 1 << 20)
                .program(IoStrategy::Vanilla, reader)
                .build()
                .err(),
            Some(ExperimentError::NoServers)
        );
        assert_eq!(
            Experiment::darwin()
                .file("data", 1 << 20)
                .file("data", 2 << 20)
                .program(IoStrategy::Vanilla, reader)
                .build()
                .err(),
            Some(ExperimentError::DuplicateFile("data".into()))
        );
        assert_eq!(
            Experiment::darwin()
                .file("data", 0)
                .program(IoStrategy::Vanilla, reader)
                .build()
                .err(),
            Some(ExperimentError::ZeroFileSize("data".into()))
        );
    }

    #[test]
    fn validation_rejects_bad_scripts() {
        let empty = Experiment::darwin()
            .file("data", 1 << 20)
            .program(IoStrategy::Vanilla, |_| ProgramScript {
                name: "empty".into(),
                ranks: vec![],
            })
            .build();
        assert_eq!(
            empty.err(),
            Some(ExperimentError::NoRanks {
                program: "empty".into()
            })
        );
        let unknown = Experiment::darwin()
            .file("data", 1 << 20)
            .program(IoStrategy::Vanilla, |_| {
                reader(&[FileId(999)]) // not a declared file
            })
            .build();
        assert_eq!(
            unknown.err(),
            Some(ExperimentError::UnknownFile {
                program: "reader".into(),
                file: 999
            })
        );
        let skewed = Experiment::darwin()
            .file("data", 1 << 20)
            .program(IoStrategy::Vanilla, |_| ProgramScript {
                name: "skewed".into(),
                ranks: vec![
                    ProcessScript::new(vec![Op::Barrier(1)]),
                    ProcessScript::new(vec![Op::Barrier(2)]),
                ],
            })
            .build();
        assert_eq!(
            skewed.err(),
            Some(ExperimentError::InconsistentBarriers {
                program: "skewed".into()
            })
        );
    }
}
