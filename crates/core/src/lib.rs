//! # dualpar-core
//!
//! The paper's contribution: DualPar's three modules —
//!
//! * [`emc`] — Execution Mode Control (metadata-server daemon): decides per
//!   program whether to run computation-driven or data-driven, from the
//!   I/O ratio, the `aveSeekDist / aveReqDist` improvement estimate, and
//!   the mis-prefetch ratio;
//! * [`pec`] — Process Execution Control (MPI-IO library hooks): blocks and
//!   resumes processes, runs ghost pre-executions that record future
//!   requests, and measures per-process I/O intensity;
//! * [`crm`] — Cache and Request Management (per-node daemon): sorts,
//!   merges, hole-fills and list-I/O-packs the recorded requests into the
//!   batches the data servers service.
//!
//! These are policy components with no event-loop dependencies; the
//! `dualpar-cluster` crate wires them into the simulated cluster.

pub mod config;
pub mod crm;
pub mod emc;
pub mod pec;

pub use config::{DualParConfig, ProgramId};
pub use crm::{
    plan_prefetch, plan_writeback, prefetch_stats, writeback_stats, BatchStats, PrefetchPlan,
    WritebackPlan,
};
pub use emc::{Emc, ExecMode, ModeChange, ReqDistTracker};
pub use pec::{expected_fill_time, ghost_walk, GhostRun, GhostStop, IoClock};
