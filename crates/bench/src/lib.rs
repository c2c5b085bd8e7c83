//! # dualpar-bench
//!
//! The experiment layer over the simulator: JSON experiment specs over a
//! closed set of workloads (the paper's benchmarks plus the workload DSL),
//! the parallel suite runner, and every table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the index) as a registered entry of
//! the [`figures`] table, plus criterion micro-benchmarks of the simulator
//! itself.
//!
//! `dualpar figure [NAME...] [--out DIR] [--jobs N]` runs the figures: each
//! prints its paper-style rows and writes machine-readable JSON (and
//! gnuplot data) under `--out`, `bench_results/` by default.

use dualpar_cluster::ClusterConfig;

pub mod figures;
pub mod spec;
pub mod suite;

pub use dualpar_sim::default_jobs;
pub use spec::{
    build_cluster, expected_cost, ArrivalEntry, ExperimentSpec, ProgramEntry, WorkloadSpec,
    SPEC_VERSION,
};
pub use suite::{
    builtin_suite, entries_from_spec_json, filter_entries, parallel_map, parallel_map_prioritized,
    run_entry, run_parallel, summarize, Scale, SuiteEntry, SuiteRun, SuiteSummary,
};

/// The paper's platform scaled for simulation: nine data servers (as on
/// Darwin), four compute nodes, 64 KB striping, CFQ, GigE.
pub fn paper_cluster() -> ClusterConfig {
    ClusterConfig::default()
}

/// A smaller cluster for quick sanity runs.
pub fn small_cluster() -> ClusterConfig {
    ClusterConfig {
        num_data_servers: 3,
        num_compute_nodes: 2,
        ..ClusterConfig::default()
    }
}
