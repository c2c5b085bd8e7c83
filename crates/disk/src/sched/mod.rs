//! Disk I/O schedulers.
//!
//! The scheduler decides the *service order* of queued block requests. The
//! paper's observation is that a scheduler can only exploit locality among
//! the requests it can currently see; all the application-level machinery of
//! DualPar exists to make that visible window large and pre-sorted. To show
//! that effect (and for the `ablation_sched` bench) we implement the Linux
//! schedulers of the era, each with the Linux defaults of its tunables as
//! constants. Each data server does all of its disk I/O from one server
//! process, so the kernel sees one I/O context per disk (DESIGN.md §7) and
//! no scheduler here keeps per-context state. Every scheduler but NOOP
//! serves one LBN-sorted queue with back-merging on arrival
//! (`queue.rs`) and differs only in what it picks:
//!
//! * [`CfqScheduler`] — the paper's default: a circular elevator in time
//!   slices, with idle anticipation after the queue drains;
//! * [`AnticipatoryScheduler`] — a circular elevator that idles briefly
//!   after the queue drains;
//! * [`DeadlineScheduler`] — a circular elevator plus per-request expiry;
//! * [`SstfScheduler`] — shortest-seek-time-first (greedy);
//! * [`ScanScheduler`] — the classic circular elevator;
//! * [`NoopScheduler`] — FIFO with back-merging only.

mod anticipatory;
mod cfq;
mod deadline;
mod queue;
mod simple;

pub use anticipatory::AnticipatoryScheduler;
pub use cfq::CfqScheduler;
pub use deadline::DeadlineScheduler;
pub use simple::{NoopScheduler, ScanScheduler, SstfScheduler};

use crate::model::Lbn;
use crate::request::DiskRequest;
use dualpar_sim::SimTime;

/// What the disk should do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Start servicing this request now.
    Dispatch(DiskRequest),
    /// Keep the disk idle until the given time, anticipating another
    /// nearby request (CFQ's `slice_idle`). If a request arrives
    /// earlier the caller will ask again and get a `Dispatch`.
    IdleUntil(SimTime),
    /// Nothing queued.
    Empty,
}

/// A pluggable disk scheduler. Single-disk, non-reentrant.
pub trait Scheduler: Send {
    /// Add a request to the queue (may merge it into an existing one).
    fn enqueue(&mut self, req: DiskRequest);

    /// Choose the next action given the current time and head position.
    /// Must be work-conserving except for explicit anticipation: if the
    /// queue is non-empty the result is `Dispatch` or a bounded `IdleUntil`.
    fn decide(&mut self, now: SimTime, head: Lbn) -> Decision;

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
    /// Completely Fair Queuing (the paper's default).
    Cfq,
    /// The anticipatory scheduler (Iyer & Druschel; Linux `as`).
    Anticipatory,
    /// FIFO with merging.
    Noop,
    /// LBN sweep with per-request expiry.
    Deadline,
    /// Shortest seek time first.
    Sstf,
    /// Circular elevator.
    Scan,
}

impl SchedulerKind {
    /// Instantiate the scheduler.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Cfq => Box::new(CfqScheduler::new()),
            SchedulerKind::Anticipatory => Box::new(AnticipatoryScheduler::new()),
            SchedulerKind::Noop => Box::new(NoopScheduler::new()),
            SchedulerKind::Deadline => Box::new(DeadlineScheduler::new()),
            SchedulerKind::Sstf => Box::new(SstfScheduler::new()),
            SchedulerKind::Scan => Box::new(ScanScheduler::new()),
        }
    }

    /// Every available scheduler, for sweeps.
    pub const ALL: [SchedulerKind; 6] = [
        SchedulerKind::Cfq,
        SchedulerKind::Anticipatory,
        SchedulerKind::Noop,
        SchedulerKind::Deadline,
        SchedulerKind::Sstf,
        SchedulerKind::Scan,
    ];
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchedulerKind::Cfq => "cfq",
            SchedulerKind::Anticipatory => "anticipatory",
            SchedulerKind::Noop => "noop",
            SchedulerKind::Deadline => "deadline",
            SchedulerKind::Sstf => "sstf",
            SchedulerKind::Scan => "scan",
        };
        f.write_str(s)
    }
}
