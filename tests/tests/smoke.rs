//! Engine smoke tests: tiny workloads under every strategy must run to
//! completion with sane accounting.

use dualpar_bench::{build_cluster, small_cluster, ExperimentSpec, ProgramEntry};
use dualpar_cluster::prelude::*;
use dualpar_workloads::MpiIoTest;

fn run_one(strategy: IoStrategy, kind: IoKind) -> RunReport {
    let w = MpiIoTest {
        nprocs: 4,
        file_size: 8 << 20,
        kind,
        collective: strategy == IoStrategy::Collective,
        barrier_every: 4,
        compute_per_call: SimDuration::from_micros(100),
    };
    build_cluster(&ExperimentSpec {
        cluster: small_cluster(),
        programs: vec![ProgramEntry {
            workload: w.into(),
            strategy,
            start_secs: 0.0,
        }],
        ..ExperimentSpec::default()
    })
    .run()
}

#[test]
fn vanilla_read_completes() {
    let r = run_one(IoStrategy::Vanilla, IoKind::Read);
    let p = &r.programs[0];
    assert_eq!(p.bytes_read, 8 << 20);
    assert_eq!(p.bytes_written, 0);
    assert!(p.finish > p.start);
    assert!(p.throughput_mbps() > 0.1);
}

#[test]
fn vanilla_write_completes() {
    let r = run_one(IoStrategy::Vanilla, IoKind::Write);
    assert_eq!(r.programs[0].bytes_written, 8 << 20);
}

#[test]
fn collective_read_completes() {
    let r = run_one(IoStrategy::Collective, IoKind::Read);
    assert_eq!(r.programs[0].bytes_read, 8 << 20);
}

#[test]
fn collective_write_completes() {
    let r = run_one(IoStrategy::Collective, IoKind::Write);
    assert_eq!(r.programs[0].bytes_written, 8 << 20);
}

#[test]
fn prefetch_overlap_read_completes() {
    let r = run_one(IoStrategy::PrefetchOverlap, IoKind::Read);
    assert_eq!(r.programs[0].bytes_read, 8 << 20);
}

#[test]
fn dualpar_forced_read_completes_with_phases() {
    let r = run_one(IoStrategy::DualParForced, IoKind::Read);
    let p = &r.programs[0];
    assert_eq!(p.bytes_read, 8 << 20);
    assert!(p.phases > 0, "forced data-driven mode must run phases");
    assert_eq!(p.avg_misprefetch, 0.0, "static pattern predicts perfectly");
}

#[test]
fn dualpar_forced_write_completes_with_phases() {
    let r = run_one(IoStrategy::DualParForced, IoKind::Write);
    let p = &r.programs[0];
    assert_eq!(p.bytes_written, 8 << 20);
    assert!(p.phases > 0);
}

#[test]
fn adaptive_dualpar_completes() {
    let r = run_one(IoStrategy::DualPar, IoKind::Read);
    assert_eq!(r.programs[0].bytes_read, 8 << 20);
}

#[test]
fn deterministic_across_runs() {
    let a = run_one(IoStrategy::DualParForced, IoKind::Read);
    let b = run_one(IoStrategy::DualParForced, IoKind::Read);
    assert_eq!(a.sim_end, b.sim_end);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.programs[0].finish, b.programs[0].finish);
}
