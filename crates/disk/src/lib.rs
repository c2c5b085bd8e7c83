//! # dualpar-disk
//!
//! Mechanical hard-disk model, I/O schedulers, and block tracing for the
//! DualPar reproduction. This crate stands in for the data servers' physical
//! disks plus the Linux block layer (CFQ et al.) and Blktrace.
//!
//! See DESIGN.md §2 for the substitution rationale: everything the paper
//! measures at the disk level — seek-distance statistics, LBN access traces,
//! the sequential-vs-random throughput gap — is produced by these types.

// Hot path: LBNs and sector counts must not wrap or truncate.
#![warn(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]

pub mod disk;
pub mod model;
pub mod request;
pub mod sched;
pub mod trace;

pub use disk::{Disk, StartOutcome};
pub use model::{bytes_to_sectors, DiskParams, Lbn, SECTOR_BYTES};
pub use request::{DiskRequest, IoKind, MergedIds};
pub use sched::{
    AnticipatoryScheduler, CfqScheduler, DeadlineScheduler, Decision, NoopScheduler, ScanScheduler,
    Scheduler, SchedulerKind, SstfScheduler, MAX_MERGE_SECTORS,
};
pub use trace::{BlockTrace, TraceRecord};
