//! # dualpar-cluster
//!
//! The full-system binding: a deterministic event-driven simulation of the
//! paper's platform — compute nodes running MPI process scripts, PVFS2-like
//! data servers with mechanical disks behind CFQ, a GigE-class network, the
//! global cache, and the DualPar policy modules — executing programs under
//! any of the five I/O strategies (vanilla, collective, prefetch-overlap,
//! forced data-driven, adaptive DualPar).
//!
//! A cluster is assembled with [`Cluster::new`] from a [`ClusterConfig`],
//! [`Cluster::create_file`] for each file, [`Cluster::add_program`] (or
//! [`Cluster::try_add_program`], which returns an [`ExperimentError`]
//! instead of panicking) for each program once the files it names exist,
//! and [`Cluster::run`]. The preset and DSL workloads are assembled this
//! way from a JSON-serializable experiment spec by the `dualpar-bench`
//! crate (`ExperimentSpec` and `build_cluster`).

mod datadriven;
mod engine;
mod events;
mod exec;
mod server;

pub mod config;
pub mod metrics;

pub use config::{ClusterConfig, ExperimentError, IoStrategy, ProgramSpec, ServerWriteMode};
pub use dualpar_telemetry::{
    folded, SpanProfile, Telemetry, TelemetryConfig, TelemetryLevel, TelemetrySnapshot,
};
pub use engine::Cluster;
pub use metrics::{ModeEvent, ProgramReport, RunReport};

/// One-line import for experiment scripts: `use dualpar_cluster::prelude::*;`.
pub mod prelude {
    pub use crate::config::{
        ClusterConfig, ExperimentError, IoStrategy, ProgramSpec, ServerWriteMode,
    };
    pub use crate::engine::Cluster;
    pub use crate::metrics::{ModeEvent, ProgramReport, RunReport};
    pub use dualpar_disk::{IoKind, SchedulerKind};
    pub use dualpar_mpiio::{IoCall, Op, ProcessScript, ProgramScript};
    pub use dualpar_pfs::{FileId, FileRegion};
    pub use dualpar_sim::{SimDuration, SimTime};
    pub use dualpar_telemetry::{SpanProfile, TelemetryConfig, TelemetryLevel};
}
