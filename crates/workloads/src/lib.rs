//! # dualpar-workloads
//!
//! Access-pattern-faithful generators for the paper's benchmarks (§V-A):
//! `mpi-io-test`, `hpio`, `ior-mpi-io`, `noncontig`, `S3asim`, `BTIO`, plus
//! the §II motivating synthetic (`Demo`) and the Table III data-dependent
//! adversary (`DependentReader`).
//!
//! Beyond the fixed benchmarks, the crate provides a compositional workload
//! DSL ([`dsl`]) — access patterns and combinators as serializable data —
//! and an open-loop arrival layer ([`arrivals`]) that spawns decorrelated
//! program instances over simulated time. See `docs/WORKLOADS.md`.

pub mod arrivals;
pub mod common;
pub mod distr;
pub mod dsl;
pub mod suite;

pub use arrivals::{instance_seed, ArrivalProcess, Arrivals};
pub use common::{build_program, compute, compute_for_io_ratio, io_region};
pub use distr::{OffsetDistr, SizeDistr};
pub use dsl::{AccessPattern, DslWorkload, WorkloadExpr};
pub use suite::{Btio, Demo, DependentReader, Hpio, IorMpiIo, MpiIoTest, Noncontig, S3asim};
