//! Disk I/O schedulers.
//!
//! The scheduler decides the *service order* of queued block requests. The
//! paper's observation is that a scheduler can only exploit locality among
//! the requests it can currently see; all the application-level machinery of
//! DualPar exists to make that visible window large and pre-sorted. Each data
//! server does all of its disk I/O from one server process, so the kernel
//! sees one I/O context per disk (DESIGN.md §7). Each scheduler here is one
//! distinct service order, for the `ablation_sched` bench:
//!
//! * [`CfqScheduler`] — the paper's default, modelled as its one-context
//!   behaviour: a circular elevator with merging;
//! * [`SstfScheduler`] — shortest-seek-time-first (greedy);
//! * [`NoopScheduler`] — FIFO with back-merging only.
//!
//! CFQ and SSTF serve one LBN-sorted queue with back-merging on arrival
//! (`queue.rs`) and differ only in what they pick.

/// The [`Scheduler`] impl of a newtype over the sorted queue (`queue.rs`)
/// that picks with `$pop`. The calling module imports the names it uses.
macro_rules! sorted_scheduler {
    ($ty:ty, $pop:ident) => {
        impl Scheduler for $ty {
            fn enqueue(&mut self, req: DiskRequest) {
                self.0.insert(req, MAX_MERGE_SECTORS);
            }

            fn decide(&mut self, head: Lbn) -> Option<DiskRequest> {
                self.0.$pop(head)
            }

            fn absorb_contiguous(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
                self.0.take_starting_at(end, kind)
            }

            fn absorb_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
                self.0.take_ending_at(start, kind)
            }

            fn queued(&self) -> usize {
                self.0.len()
            }
        }
    };
}

mod cfq;
mod queue;
mod simple;

pub use cfq::CfqScheduler;
pub use simple::{NoopScheduler, SstfScheduler};

use crate::model::Lbn;
use crate::request::DiskRequest;

/// A pluggable disk scheduler. Single-disk, non-reentrant.
pub trait Scheduler: Send {
    /// Add a request to the queue (may merge it into an existing one).
    fn enqueue(&mut self, req: DiskRequest);

    /// Remove and return the next request to serve from head position
    /// `head`; `None` only when nothing is queued.
    fn decide(&mut self, head: Lbn) -> Option<DiskRequest>;

    /// Remove and return a queued request that starts exactly at `end`
    /// with the given kind — the block layer's dispatch-time elevator
    /// merge. The disk calls this in a loop
    /// after each dispatch to chain contiguous requests into one media
    /// access (subject to the merge-size cap it enforces).
    fn absorb_contiguous(&mut self, end: Lbn, kind: crate::request::IoKind) -> Option<DiskRequest>;

    /// Remove and return a queued request that *ends* exactly at `start`
    /// with the given kind — the front-merge counterpart of
    /// [`Scheduler::absorb_contiguous`].
    fn absorb_ending_at(&mut self, start: Lbn, kind: crate::request::IoKind)
        -> Option<DiskRequest>;

    /// Number of queued (not yet dispatched) requests, counting merged
    /// requests once.
    fn queued(&self) -> usize;

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.queued() == 0
    }
}

/// Cap on merged request size: 1024 sectors = 512 KB, matching the Linux
/// block layer's historical `max_sectors_kb` default.
pub const MAX_MERGE_SECTORS: u64 = 1024;

/// Which scheduler to instantiate — convenient for configs and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SchedulerKind {
    /// Completely Fair Queuing (the paper's default): a circular elevator.
    Cfq,
    /// FIFO with merging.
    Noop,
    /// Shortest seek time first.
    Sstf,
}

impl SchedulerKind {
    /// Instantiate the scheduler.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Cfq => Box::new(CfqScheduler::new()),
            SchedulerKind::Noop => Box::new(NoopScheduler::new()),
            SchedulerKind::Sstf => Box::new(SstfScheduler::new()),
        }
    }

    /// Every available scheduler, for sweeps.
    pub const ALL: [SchedulerKind; 3] =
        [SchedulerKind::Cfq, SchedulerKind::Noop, SchedulerKind::Sstf];
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedulerKind::Cfq => "cfq",
            SchedulerKind::Noop => "noop",
            SchedulerKind::Sstf => "sstf",
        };
        f.write_str(s)
    }
}
