//! # dualpar-cluster
//!
//! The full-system binding: a deterministic event-driven simulation of the
//! paper's platform — compute nodes running MPI process scripts, PVFS2-like
//! data servers with mechanical disks behind CFQ, a GigE-class network, the
//! global cache, and the DualPar policy modules — executing programs under
//! any of the five I/O strategies (vanilla, collective, prefetch-overlap,
//! forced data-driven, adaptive DualPar).

mod datadriven;
mod engine;
mod events;
mod exec;
mod server;

pub mod builder;
pub mod config;
pub mod metrics;

pub use builder::{Experiment, ExperimentError};
pub use config::{ClusterConfig, CtxMode, IoStrategy, ProgramSpec, ServerWriteMode};
pub use engine::Cluster;
pub use metrics::{ModeEvent, ProgramReport, RunReport};
pub use dualpar_telemetry::{
    folded, SpanProfile, Telemetry, TelemetryConfig, TelemetryLevel, TelemetrySnapshot,
};

/// One-line import for experiment scripts: `use dualpar_cluster::prelude::*;`.
pub mod prelude {
    pub use crate::builder::{Experiment, ExperimentError};
    pub use crate::config::{ClusterConfig, CtxMode, IoStrategy, ProgramSpec, ServerWriteMode};
    pub use crate::engine::Cluster;
    pub use crate::metrics::{ModeEvent, ProgramReport, RunReport};
    pub use dualpar_disk::{IoKind, SchedulerKind};
    pub use dualpar_mpiio::{IoCall, Op, ProcessScript, ProgramScript};
    pub use dualpar_pfs::{FileId, FileRegion};
    pub use dualpar_sim::{SimDuration, SimTime};
    pub use dualpar_telemetry::{SpanProfile, TelemetryConfig, TelemetryLevel};
}
