//! The data-driven path allocates per phase, not per cache chunk: a
//! forced-DualPar run over four times the data, with a four times larger
//! cache quota so the phase count stays the same, makes about as many heap
//! allocations as the small run.
//!
//! Its own test binary with one test: the counting allocator below sees
//! every allocation of the process, so no other test may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dualpar_bench::{build_cluster, small_cluster, ExperimentSpec, ProgramEntry};
use dualpar_cluster::prelude::*;
use dualpar_workloads::IorMpiIo;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc` or `realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Phases and heap allocations of one run (set-up excluded) of 4 IOR ranks
/// reading `scale` × 8 MiB under forced DualPar, with a quota of `scale`
/// × 256 KiB per process. Each rank reads its own quarter of the file in
/// 32 KiB calls, so one owner fills each 64 KiB cache chunk with one run.
fn run(scale: u64) -> (u64, u64) {
    let mut cluster = small_cluster();
    cluster.dualpar.cache_quota = scale * (256 << 10);
    let spec = ExperimentSpec {
        cluster,
        programs: vec![ProgramEntry {
            workload: IorMpiIo {
                nprocs: 4,
                file_size: scale * (8 << 20),
                ..Default::default()
            }
            .into(),
            strategy: IoStrategy::DualParForced,
            start_secs: 0.0,
        }],
        ..ExperimentSpec::default()
    };
    let mut c = build_cluster(&spec);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = c.run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (report.programs[0].phases, allocations)
}

#[test]
fn allocations_scale_with_phases_not_chunks() {
    const SCALE: u64 = 8;
    let (phases, small) = run(1);
    let (large_phases, large) = run(SCALE);
    assert_eq!(phases, large_phases, "the quota keeps the phase count");
    assert!(phases >= 4, "{phases} phases");
    // The large run fills 896 more 64 KiB chunks. Allocating per chunk
    // (three or four each before the inline chunk storage) would add
    // thousands; a buffer sized by its phase only doubles three more times
    // a phase.
    let extra_chunks = (SCALE - 1) * (8 << 20) / (64 << 10);
    let slack = extra_chunks / 2;
    assert!(
        large < small + slack,
        "allocations grew from {small} to {large} at the same {phases} phases (slack {slack})"
    );
}
