//! # dualpar-mpiio
//!
//! The MPI-IO layer of the reproduction: derived datatypes, the
//! process-script execution model, request algebra (sort/merge/coalesce/
//! hole-fill), the two-phase collective-I/O planner, and data
//! sieving. These are the mechanisms the paper instruments (ROMIO's ADIO
//! functions) and compares against (collective I/O).

pub mod access;
pub mod collective;
pub mod datatype;
pub mod ops;
pub mod regions;
pub mod sieve;

pub use access::{build_batch, coalesce_with_holes, sort_and_merge, CoalescedIo};
pub use collective::{plan_collective, AggregatorIo, CollectivePlan};
pub use datatype::Datatype;
pub use ops::{IoCall, IoKind, Op, ProcessScript, ProgramScript};
pub use regions::Regions;
pub use sieve::{plan_strided, SieveConfig};
