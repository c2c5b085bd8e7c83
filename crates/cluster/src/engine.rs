//! The cluster simulator: nodes, servers, network, disks, and the event
//! loop. Strategy-specific op handling lives in `exec.rs` (vanilla,
//! barriers, collective I/O) and `datadriven.rs` (DualPar phases and
//! Strategy-2 prefetching).

use crate::config::{
    ClusterConfig, ExperimentError, IoStrategy, ProgramSpec, MEM_BANDWIDTH, MSG_HEADER,
    NET_BANDWIDTH, NET_LATENCY,
};
use crate::events::{Event, EventList};
use crate::metrics::{ModeEvent, ProgramReport, RunReport};
use crate::server::{SEv, Server, SubReq};
use dualpar_cache::{CacheConfig, GlobalCache, NodeId, OwnerId};
use dualpar_core::{Emc, ExecMode, IoClock, ProgramId, ReqDistTracker, MISPREFETCH_THRESHOLD};
use dualpar_disk::{Disk, IoKind};
use dualpar_mpiio::{CoalescedIo, Op, ProcessScript, Regions};
use dualpar_pfs::{FileId, FileRegion, Pvfs, ResolvedIo};
use dualpar_sim::{FxHashMap, FxHashSet};
use dualpar_sim::{Link, SimDuration, SimTime, Slab, SlabKey, TimeSeries};
use dualpar_telemetry::{SpanId, SpanProfile, Telemetry};

/// Safety valve: a single experiment should never need more events.
const MAX_EVENTS: u64 = 2_000_000_000;

/// Events in the client lane (programs, processes, the cache, EMC).
/// Everything server-side is a [`crate::server::SEv`] in its server's lane.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A program begins.
    Start(usize),
    /// A process is ready to advance its script.
    ProcReady(usize),
    /// A response was delivered back; one sub-request of `ack` is done.
    SubDone { ack: Ack },
    /// A ghost pre-execution finished its walk, in the phase `seq` of the
    /// process's program.
    GhostDone { proc: usize, seq: u64 },
    /// Pre-execution phase `seq` hit its fill-time bound.
    PhaseTimeout { prog: usize, seq: u64 },
    /// EMC sampling slot boundary.
    EmcTick,
}

/// Whom a sub-request's completion acknowledges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ack {
    /// A completion group in `Cluster::groups`.
    Group(SlabKey),
    /// A process blocked on a vanilla (independent, synchronous) call. It
    /// has one region in flight, so the process itself counts that
    /// region's outstanding sub-requests (`Proc::region_pending`).
    Proc(u32),
}

/// Why a completion group exists — dispatched when its last sub-request
/// finishes.
#[derive(Debug, Clone)]
pub(crate) enum Purpose {
    /// A Strategy-2 prefetch of a single predicted region.
    S2Prefetch {
        proc: usize,
        file: FileId,
        region: FileRegion,
    },
    /// Direct fetch issued after a mis-predicted region was detected.
    DirectFetch {
        proc: usize,
    },
    /// All aggregator accesses of one collective call.
    CollIo {
        prog: usize,
    },
    /// Collective shuffle phase finished (modelled as a delay event).
    CollResume {
        prog: usize,
    },
    /// DualPar phase stages, in order.
    PhaseFill {
        prog: usize,
    },
    PhaseWriteback {
        prog: usize,
    },
    PhasePrefetch {
        prog: usize,
    },
    /// Stand-alone write-back (program completion or mode revert).
    FlushWriteback {
        prog: usize,
        finalize: bool,
    },
}

impl Purpose {
    /// Short label for per-purpose telemetry (group latency histograms).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Purpose::S2Prefetch { .. } => "s2_prefetch",
            Purpose::DirectFetch { .. } => "direct_fetch",
            Purpose::CollIo { .. } => "coll_io",
            Purpose::CollResume { .. } => "coll_resume",
            Purpose::PhaseFill { .. } => "phase_fill",
            Purpose::PhaseWriteback { .. } => "phase_writeback",
            Purpose::PhasePrefetch { .. } => "phase_prefetch",
            Purpose::FlushWriteback { .. } => "flush_writeback",
        }
    }
}

#[derive(Debug)]
pub(crate) struct Group {
    pub remaining: usize,
    pub purpose: Purpose,
    /// When the group was opened (for completion-latency histograms).
    pub opened: SimTime,
}

/// Process execution state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PState {
    /// Waiting for a scheduled ProcReady (computing, or newly started).
    Computing,
    /// Blocked on a vanilla I/O op; regions are issued one at a time, from
    /// `cur_covers` when the op was `sieved`, else off the call itself.
    VanillaIo {
        op: usize,
        next_region: usize,
        sieved: bool,
    },
    BarrierWait(u64),
    CollWait,
    /// Suspended in a data-driven phase. `retry_op` says whether the
    /// current op must be re-executed on resume (read miss) or was already
    /// applied (write that filled the cache).
    Suspended {
        retry_op: bool,
    },
    /// Strategy 2: waiting for in-flight prefetches covering the op.
    S2Wait {
        op: usize,
    },
    Done,
}

pub(crate) struct Proc {
    pub prog: usize,
    pub rank: usize,
    pub node: u32,
    /// Shared, immutable per-rank script. Behind an `Arc` so the hot
    /// execution paths can detach a cheap handle and borrow ops out of it
    /// while mutating the rest of the cluster — no per-op deep clones.
    pub script: std::sync::Arc<ProcessScript>,
    pub pos: usize,
    pub state: PState,
    pub clock: IoClock,
    /// When the current op (or suspension) began.
    pub op_start: SimTime,
    pub last_io_end: SimTime,
    pub owner: OwnerId,
    /// Ghost pre-execution resume point (never behind `pos`).
    pub ghost_pos: usize,
    /// Op index that already triggered a phase/prefetch: a second miss on
    /// it falls back to a direct fetch (mis-prediction escape hatch).
    pub miss_trigger_op: Option<usize>,
    /// Bytes the ghost recorded in the current phase (resume accounting).
    pub phase_bytes: u64,
    /// Regions waited on under Strategy 2.
    pub s2_waiting: FxHashSet<(u32, u64, u64)>,
    /// Recorded-but-not-yet-issued Strategy-2 prefetches (async window).
    pub s2_queue: std::collections::VecDeque<(FileId, FileRegion)>,
    /// Prefetch requests currently outstanding at the servers.
    pub s2_outstanding: usize,
    /// Pending ghost recording (applied at GhostDone).
    pub pending_ghost: Vec<(FileId, FileRegion)>,
    /// Whether this process's ghost is walking: its GhostDone is due.
    pub ghost_due: bool,
    /// Covers being issued for the current sieved vanilla op.
    pub cur_covers: Vec<FileRegion>,
    /// Sub-requests outstanding for the vanilla region in flight.
    pub region_pending: usize,
    /// When the vanilla region in flight was issued.
    pub region_opened: SimTime,
    /// Whether a direct-fetch group for the current op is outstanding.
    pub direct_pending: bool,
    /// The open `proc.*` state span (INVALID when spans are off or the
    /// process is done).
    pub state_span: SpanId,
    /// Name of the open state span, used to skip no-op flips when a
    /// `PState` change stays within the same span category.
    pub state_span_name: Option<&'static str>,
    /// The open `proc.ghost` overlay span (child of the suspended span).
    pub ghost_span: SpanId,
}

/// Key identifying a process in `proc.*` spans: program index in the high
/// 32 bits, rank in the low 32 (rendered `p<prog>/r<rank>`).
pub(crate) fn proc_span_key(prog: usize, rank: usize) -> u64 {
    ((prog as u64) << 32) | rank as u64
}

/// The span category a process state falls into. `None` for `Done` (no
/// span while finished). Blocking states collapse into `proc.blocked_io`;
/// barrier waits are their own category so synchronization time is not
/// misattributed to the I/O system.
fn pstate_span_name(state: &PState) -> Option<&'static str> {
    match state {
        PState::Computing => Some("proc.compute"),
        PState::VanillaIo { .. } | PState::S2Wait { .. } | PState::CollWait => {
            Some("proc.blocked_io")
        }
        PState::BarrierWait(_) => Some("proc.barrier"),
        PState::Suspended { .. } => Some("proc.suspended"),
        PState::Done => None,
    }
}

/// Program-level phase of the data-driven machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Phase {
    Normal,
    /// Ghosts running; waiting for every live process to block and record.
    PreExec {
        waiting_ghosts: usize,
    },
    /// Batch stages in flight.
    Fill,
    Writeback,
    Prefetch,
}

pub(crate) struct CollectState {
    pub arrived: Vec<Option<Regions>>,
    pub count: usize,
    pub kind: Option<IoKind>,
    pub file: Option<FileId>,
}

pub(crate) struct Program {
    pub name: String,
    pub strategy: IoStrategy,
    pub procs: std::ops::Range<usize>,
    pub files: FxHashSet<FileId>,
    pub mode: ExecMode,
    pub phase: Phase,
    /// Phases that issued their batch. A GhostDone or PhaseTimeout of an
    /// earlier phase is superseded: `Cluster::run` drops it unhandled.
    pub phase_seq: u64,
    /// Whether the open phase's PhaseTimeout is due.
    pub timeout_due: bool,
    pub recordings: Vec<(OwnerId, FileId, FileRegion)>,
    /// Writes planned for after the fill stage.
    pub staged_writes: Vec<CoalescedIo>,
    pub staged_prefetch: Vec<CoalescedIo>,
    /// The processes waiting at the open barrier, in arrival order. Every
    /// rank passes the same barriers in the same order, so at most one is
    /// open; the list keeps its capacity for the next.
    pub barrier_waits: Vec<usize>,
    pub coll: CollectState,
    pub started: bool,
    pub start: SimTime,
    pub finish: Option<SimTime>,
    pub done_procs: usize,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub io_time: SimDuration,
    pub phases: u64,
    pub mis_sum: f64,
    pub mis_n: u64,
    pub final_flush_pending: bool,
    /// Exchange volume/messages of the collective call in flight.
    pub coll_exchange: (u64, u64),
    /// When the current pre-execution phase opened (telemetry).
    pub phase_opened: SimTime,
}

impl Program {
    pub(crate) fn nprocs(&self) -> usize {
        self.procs.len()
    }
}

/// The assembled cluster simulator: the client (programs, processes,
/// cache, EMC) plus one `Server` per data server, on one event list.
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) queue: EventList,
    pub(crate) pvfs: Pvfs,
    pub(crate) cache: GlobalCache,
    pub(crate) emc: Emc,
    pub(crate) servers: Vec<Server>,
    pub(crate) node_links: Vec<Link>,
    pub(crate) req_dist: Vec<ReqDistTracker>,
    pub(crate) procs: Vec<Proc>,
    pub(crate) programs: Vec<Program>,
    pub(crate) groups: Slab<Group>,
    /// Monotonic sub-request id counter (ids are globally unique per run).
    pub(crate) next_sub_id: u64,
    pub(crate) s2_inflight: FxHashMap<(u32, u64, u64), Vec<usize>>,
    pub(crate) rng: dualpar_sim::DetRng,
    pub(crate) timeline: TimeSeries,
    pub(crate) mode_events: Vec<ModeEvent>,
    pub(crate) emc_improvement: Vec<(f64, f64)>,
    pub(crate) events_processed: u64,
    /// Superseded events still queued (see `Program::phase_seq`).
    pub(crate) superseded: usize,
    /// Time of the most recently handled event (monotonicity invariant).
    pub(crate) last_event_time: SimTime,
    pub(crate) finished_programs: usize,
    pub(crate) emc_active: bool,
    pub(crate) tele: Telemetry,
    /// Epoch-stamped scratch for [`Cluster::cache_access_time`]: per-node
    /// byte accumulators that survive across calls so the hot path never
    /// allocates. A stamp older than `cat_epoch` means "logically zero".
    cat_bytes: Vec<u64>,
    cat_stamp: Vec<u64>,
    cat_epoch: u64,
    /// Reusable buffer for the `(home, bytes)` lists the data-driven paths
    /// get from the cache (taken and returned around each use); cached
    /// reads and buffered writes feed it into `cache_access_time`.
    pub(crate) homes_scratch: Vec<(NodeId, u64)>,
    /// Reusable buffer for the disk runs `issue_covers` resolves.
    resolved_scratch: Vec<ResolvedIo>,
    /// Reusable per-home-node piece lists of `issue_batch_covers`, indexed
    /// by cache node.
    pub(crate) batch_scratch: Vec<Vec<(FileId, FileRegion)>>,
}

// The parallel suite runner builds and runs whole clusters on scoped worker
// threads, so `Cluster` must stay `Send`. Compile-time check, no runtime cost.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Cluster>();
};

impl Cluster {
    /// Assemble a cluster from its configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        let pvfs = Pvfs::new(
            cfg.num_data_servers,
            cfg.stripe_size,
            cfg.disk.capacity_sectors,
        );
        let cache = GlobalCache::new(CacheConfig {
            chunk_size: cfg.stripe_size,
            num_nodes: cfg.num_compute_nodes,
            idle_ttl: SimDuration::from_secs(30),
            node_capacity: u64::MAX,
        });
        let emc = Emc::new(cfg.dualpar.clone());
        let servers = (0..cfg.num_data_servers)
            .map(|id| Server::new(id, &cfg))
            .collect();
        let node_links = (0..cfg.num_compute_nodes)
            .map(|_| Link::new(NET_LATENCY, NET_BANDWIDTH))
            .collect();
        let req_dist = (0..cfg.num_compute_nodes)
            .map(|_| ReqDistTracker::new())
            .collect();
        let rng = dualpar_sim::DetRng::for_stream(cfg.seed, "cluster");
        let tele = Telemetry::new(&cfg.telemetry);
        let nnodes = cfg.num_compute_nodes as usize;
        let queue = EventList::default();
        Cluster {
            cfg,
            queue,
            rng,
            pvfs,
            cache,
            emc,
            servers,
            node_links,
            req_dist,
            procs: Vec::new(),
            programs: Vec::new(),
            groups: Slab::with_capacity(64),
            next_sub_id: 0,
            s2_inflight: FxHashMap::default(),
            timeline: TimeSeries::new(SimDuration::from_secs(1)),
            mode_events: Vec::new(),
            emc_improvement: Vec::new(),
            events_processed: 0,
            superseded: 0,
            last_event_time: SimTime::ZERO,
            finished_programs: 0,
            emc_active: false,
            tele,
            cat_bytes: vec![0; nnodes],
            cat_stamp: vec![0; nnodes],
            cat_epoch: 0,
            homes_scratch: Vec::new(),
            resolved_scratch: Vec::new(),
            batch_scratch: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Create a file in the parallel file system.
    pub fn create_file(&mut self, name: &str, size: u64) -> FileId {
        self.pvfs.create(name, size)
    }

    /// Register a program for execution. Returns its index.
    ///
    /// # Panics
    /// Panics where [`Cluster::try_add_program`] returns an error.
    #[expect(
        clippy::panic,
        reason = "the messages name the program and file, which `expect` cannot format"
    )]
    pub fn add_program(&mut self, spec: ProgramSpec) -> usize {
        match self.try_add_program(spec) {
            Ok(idx) => idx,
            Err(ExperimentError::NoRanks { program }) => panic!("program {program} has no ranks"),
            Err(ExperimentError::InconsistentBarriers { program }) => {
                panic!("program {program} has inconsistent barrier sequences")
            }
            Err(ExperimentError::UnknownFile { program, file }) => panic!(
                "program {program} references file {:?} that was never created",
                FileId(file)
            ),
            Err(other) => unreachable!("try_add_program returned {other:?}"),
        }
    }

    /// Register a program for execution and return its index. A script of
    /// no ranks is rejected ([`ExperimentError::NoRanks`]); otherwise the
    /// first fault of the script in rank, then op, order is returned: a
    /// barrier that departs from rank 0's sequence
    /// ([`ExperimentError::InconsistentBarriers`]) or a call to a file that
    /// was never created ([`ExperimentError::UnknownFile`]). One walk over
    /// the ops checks both; nothing is registered on error.
    pub fn try_add_program(&mut self, spec: ProgramSpec) -> Result<usize, ExperimentError> {
        if spec.script.ranks.is_empty() {
            return Err(ExperimentError::NoRanks {
                program: spec.script.name,
            });
        }
        let mut files = FxHashSet::default();
        {
            let inconsistent = || ExperimentError::InconsistentBarriers {
                program: spec.script.name.clone(),
            };
            // Rank 0's barrier ids, which every other rank must repeat.
            let mut barriers = Vec::new();
            // Scripts touch few files, in long runs of calls to one file:
            // look a call's file up only when it differs from the previous
            // call's.
            let mut last_file = None;
            for (rank, script) in spec.script.ranks.iter().enumerate() {
                let mut seen = 0;
                for op in &script.ops {
                    match op {
                        Op::Barrier(id) if rank == 0 => barriers.push(*id),
                        Op::Barrier(id) => {
                            if barriers.get(seen) != Some(id) {
                                return Err(inconsistent());
                            }
                            seen += 1;
                        }
                        Op::Io(call) if last_file != Some(call.file) => {
                            if self.pvfs.meta(call.file).is_none() {
                                return Err(ExperimentError::UnknownFile {
                                    program: spec.script.name.clone(),
                                    file: call.file.0,
                                });
                            }
                            last_file = Some(call.file);
                            files.insert(call.file);
                        }
                        Op::Io(_) | Op::Compute(_) => {}
                    }
                }
                if rank > 0 && seen != barriers.len() {
                    return Err(inconsistent());
                }
            }
        }
        let idx = self.programs.len();
        let nprocs = spec.script.nprocs();
        let name = spec.script.name.clone();
        let first_proc = self.procs.len();
        for (rank, script) in spec.script.ranks.into_iter().enumerate() {
            dualpar_sim::strict_assert!(
                script.predicted.windows(2).all(|w| w[0].0 < w[1].0)
                    && script
                        .predicted
                        .iter()
                        .all(|&(i, _)| matches!(script.ops.get(i), Some(Op::Io(_)))),
                "program {name} rank {rank}: predictions must name I/O ops in ascending order"
            );
            let node = (rank as u32) % self.cfg.num_compute_nodes;
            self.procs.push(Proc {
                prog: idx,
                rank,
                node,
                script: std::sync::Arc::new(script),
                pos: 0,
                state: PState::Computing,
                clock: IoClock::new(),
                op_start: SimTime::ZERO,
                last_io_end: SimTime::ZERO,
                owner: OwnerId(((idx as u64) << 32) | rank as u64),
                ghost_pos: 0,
                miss_trigger_op: None,
                phase_bytes: 0,
                s2_waiting: FxHashSet::default(),
                s2_queue: std::collections::VecDeque::new(),
                s2_outstanding: 0,
                pending_ghost: Vec::new(),
                ghost_due: false,
                cur_covers: Vec::new(),
                region_pending: 0,
                region_opened: SimTime::ZERO,
                direct_pending: false,
                state_span: SpanId::INVALID,
                state_span_name: None,
                ghost_span: SpanId::INVALID,
            });
        }
        let mode = if spec.strategy == IoStrategy::DualParForced {
            ExecMode::DataDriven
        } else {
            ExecMode::ComputationDriven
        };
        if spec.strategy == IoStrategy::DualPar {
            self.emc.register(ProgramId(idx as u32));
            self.emc_active = true;
        }
        self.programs.push(Program {
            name,
            strategy: spec.strategy,
            procs: first_proc..first_proc + nprocs,
            files,
            mode,
            phase: Phase::Normal,
            phase_seq: 0,
            timeout_due: false,
            recordings: Vec::new(),
            staged_writes: Vec::new(),
            staged_prefetch: Vec::new(),
            barrier_waits: Vec::new(),
            coll: CollectState {
                arrived: vec![None; nprocs],
                count: 0,
                kind: None,
                file: None,
            },
            started: false,
            start: spec.start_at,
            finish: None,
            done_procs: 0,
            bytes_read: 0,
            bytes_written: 0,
            io_time: SimDuration::ZERO,
            phases: 0,
            mis_sum: 0.0,
            mis_n: 0,
            final_flush_pending: false,
            coll_exchange: (0, 0),
            phase_opened: SimTime::ZERO,
        });
        self.queue.schedule(spec.start_at, Ev::Start(idx));
        Ok(idx)
    }

    /// Access a server's disk (for trace inspection after a run).
    pub fn disk(&self, server: u32) -> &Disk {
        &self.servers[server as usize].disk
    }

    /// Every process's script, in process order (for inspecting the calls
    /// the engine ran, e.g. that it never flattened a strided one).
    pub fn scripts(&self) -> impl Iterator<Item = &ProcessScript> {
        self.procs.iter().map(|p| &*p.script)
    }

    /// The telemetry instance (counters, series, and the event trace).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// Write the recorded JSONL event trace to `w`. Emits nothing below
    /// [`dualpar_telemetry::TelemetryLevel::Trace`].
    pub fn export_trace<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.tele.trace().export_jsonl(w)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    // ----- network + disk plumbing ------------------------------------

    /// Time to move the listed `(home, bytes)` chunks between this compute
    /// node and the cache. Accesses are batched per home node (a Memcached
    /// multi-get/multi-set): one round trip per distinct remote node plus
    /// the transfer volume, memory-copy cost for local chunks.
    pub(crate) fn cache_access_time(&mut self, node: u32, homes: &[(NodeId, u64)]) -> SimDuration {
        let mut t = SimDuration::from_micros(1);
        let mut local = 0u64;
        // Dense per-node accumulator: node ids are small contiguous
        // integers, so indexing beats hashing on this per-access path. The
        // accumulators persist across calls, stamped with a per-call epoch —
        // a stale stamp reads as "untouched", so there is nothing to clear
        // and the whole batch charge runs allocation-free. A touched remote
        // node costs its round-trip latency even for an empty payload.
        self.cat_epoch += 1;
        let epoch = self.cat_epoch;
        for &(home, bytes) in homes {
            if home.0 == node {
                local += bytes;
            } else {
                let i = home.0 as usize;
                if self.cat_stamp[i] != epoch {
                    self.cat_stamp[i] = epoch;
                    self.cat_bytes[i] = 0;
                }
                self.cat_bytes[i] += bytes;
            }
        }
        t += SimDuration::for_transfer(local, MEM_BANDWIDTH);
        for i in 0..self.cat_stamp.len() {
            if self.cat_stamp[i] == epoch {
                t += NET_LATENCY + SimDuration::for_transfer(self.cat_bytes[i], NET_BANDWIDTH);
            }
        }
        t
    }

    // ----- span plumbing ------------------------------------------------

    /// Re-derive process `p`'s state-span category from its current
    /// [`PState`] and, if it changed, close the old span and open the new
    /// one at logical time `at`. `at` may lie ahead of the queue clock (a
    /// suspension taking effect when its triggering op completes); the
    /// mirrored trace events stay monotone via their `stamp`.
    ///
    /// Call *after* every `PState` assignment that can change category.
    pub(crate) fn sync_proc_span(&mut self, p: usize, at: SimTime) {
        if !self.tele.spans_enabled() {
            return;
        }
        let name = pstate_span_name(&self.procs[p].state);
        if name == self.procs[p].state_span_name {
            return;
        }
        let stamp = self.queue.now().as_secs_f64();
        let at = at.as_secs_f64();
        self.tele.span_close(stamp, self.procs[p].state_span, at);
        let key = proc_span_key(self.procs[p].prog, self.procs[p].rank);
        self.procs[p].state_span = match name {
            Some(n) => self.tele.span_open(stamp, at, n, SpanId::INVALID, key),
            None => SpanId::INVALID,
        };
        self.procs[p].state_span_name = name;
    }

    /// Record a blocked-I/O interval `[from, until]` for a process whose
    /// `PState` never leaves `Computing` — the inline cache-served ops that
    /// account their completion at a scheduled future instant (data-driven
    /// cache hits and writes).
    pub(crate) fn proc_blocked_span(&mut self, p: usize, from: SimTime, until: SimTime) {
        if !self.tele.spans_enabled() {
            return;
        }
        let stamp = self.queue.now().as_secs_f64();
        let key = proc_span_key(self.procs[p].prog, self.procs[p].rank);
        self.tele
            .span_close(stamp, self.procs[p].state_span, from.as_secs_f64());
        let blocked = self.tele.span_open(
            stamp,
            from.as_secs_f64(),
            "proc.blocked_io",
            SpanId::INVALID,
            key,
        );
        self.tele.span_close(stamp, blocked, until.as_secs_f64());
        self.procs[p].state_span = self.tele.span_open(
            stamp,
            until.as_secs_f64(),
            "proc.compute",
            SpanId::INVALID,
            key,
        );
        self.procs[p].state_span_name = Some("proc.compute");
    }

    /// Close the process's ghost overlay span (if any) at `at`.
    pub(crate) fn close_ghost_span(&mut self, p: usize, at: SimTime) {
        let gs = std::mem::replace(&mut self.procs[p].ghost_span, SpanId::INVALID);
        self.tele
            .span_close(self.queue.now().as_secs_f64(), gs, at.as_secs_f64());
    }

    /// Allocate a completion group.
    pub(crate) fn new_group(&mut self, purpose: Purpose) -> SlabKey {
        let opened = self.queue.now();
        self.groups.insert(Group {
            remaining: 0,
            purpose,
            opened,
        })
    }

    /// Issue the accesses of `ios` (already coalesced covers) to the data
    /// servers, each acknowledging `ack`. Requests leave through `node`'s
    /// NIC. Returns the number of sub-requests issued.
    pub(crate) fn issue_covers(
        &mut self,
        now: SimTime,
        ack: Ack,
        node: u32,
        kind: IoKind,
        ios: &[(FileId, FileRegion)],
    ) -> usize {
        let mut runs = std::mem::take(&mut self.resolved_scratch);
        runs.clear();
        for &(file, region) in ios {
            self.pvfs.resolve(file, region, &mut runs);
        }
        let n = runs.len();
        match ack {
            Ack::Group(group) => {
                self.groups.get_mut(group).expect("group exists").remaining += n;
            }
            Ack::Proc(p) => self.procs[p as usize].region_pending += n,
        }
        for run in &runs {
            let (req_msg, resp_bytes) = match kind {
                IoKind::Read => (MSG_HEADER, run.bytes),
                IoKind::Write => (MSG_HEADER + run.bytes, 0),
            };
            let id = self.next_sub_id;
            self.next_sub_id += 1;
            let (mut life, mut stage) = (SpanId::INVALID, SpanId::INVALID);
            if self.tele.spans_enabled() {
                // `now` may be ahead of the queue clock (Strategy-2 pumps
                // issue at jittered future instants); stamp with the clock.
                let stamp = self.queue.now().as_secs_f64();
                let at = now.as_secs_f64();
                life = self
                    .tele
                    .span_open(stamp, at, "req.life", SpanId::INVALID, id);
                stage = self.tele.span_open(stamp, at, "req.issue", life, id);
            }
            let deliver = self.node_links[node as usize].send(now, req_msg);
            let server = run.server.0;
            let key = self.servers[server as usize].admit(SubReq {
                id,
                lbn: run.lbn,
                sectors: run.sectors,
                kind,
                ack,
                resp_bytes,
                life,
                stage,
            });
            self.queue.schedule(deliver, SEv::Recv { server, key });
        }
        self.resolved_scratch = runs;
        n
    }

    /// If the group is already complete (zero sub-requests), dispatch its
    /// purpose immediately via a SubDone-like path.
    pub(crate) fn finish_if_empty(&mut self, now: SimTime, group: SlabKey) {
        if self.groups.get(group).is_some_and(|g| g.remaining == 0) {
            let g = self.groups.remove(group).expect("checked");
            self.dispatch_group(now, g);
        }
    }

    // ----- the event loop ----------------------------------------------

    /// Run until every program has finished. Returns the report.
    ///
    /// Events pop from the one `EventList` in `(time, lane, seq)` order
    /// (`crate::events`). A superseded event is dropped as it pops, before
    /// any counter or clock of the engine sees it.
    pub fn run(&mut self) -> RunReport {
        if self.tele.tracing() {
            // Lead the trace with the thresholds this run decides against,
            // so the offline auditor validates EMC transitions with the
            // actual (possibly tuned) configuration.
            let dp = &self.cfg.dualpar;
            let (ratio, imp) = (dp.io_ratio_threshold, dp.t_improvement);
            self.tele.event(0.0, "emc", "config", |e| {
                e.f64("io_ratio_threshold", ratio)
                    .f64("t_improvement", imp)
                    .f64("misprefetch_threshold", MISPREFETCH_THRESHOLD)
            });
        }
        if self.emc_active {
            let slot = self.cfg.dualpar.sample_slot;
            self.queue.schedule(SimTime::ZERO + slot, Ev::EmcTick);
        }
        while let Some((now, event)) = self.queue.pop() {
            if self.is_superseded(&event) {
                self.superseded -= 1;
                continue;
            }
            self.dispatch(now, event);
            if self.all_finished() {
                break;
            }
        }
        self.report()
    }

    /// Same as [`Cluster::run`]; the argument is ignored. The benchmark in
    /// `perfbench/` calls this name, and the benchmark changes only in
    /// commits of its own, so the forwarder stays until one drops the call.
    #[doc(hidden)]
    pub fn run_sharded(&mut self, _shards: usize) -> RunReport {
        self.run()
    }

    /// Every program has finished (and there was at least one).
    fn all_finished(&self) -> bool {
        self.finished_programs == self.programs.len() && !self.programs.is_empty()
    }

    /// A GhostDone or PhaseTimeout of a phase that has issued its batch.
    fn is_superseded(&self, event: &Event) -> bool {
        let (prog, seq) = match *event {
            Event::Client(Ev::GhostDone { proc, seq }) => (self.procs[proc].prog, seq),
            Event::Client(Ev::PhaseTimeout { prog, seq }) => (prog, seq),
            _ => return false,
        };
        seq != self.programs[prog].phase_seq
    }

    /// Static counter name for an event kind (dispatch accounting).
    fn ev_counter(ev: &Ev) -> &'static str {
        match ev {
            Ev::Start(_) => "engine.ev.start",
            Ev::ProcReady(_) => "engine.ev.proc_ready",
            Ev::SubDone { .. } => "engine.ev.sub_done",
            Ev::GhostDone { .. } => "engine.ev.ghost_done",
            Ev::PhaseTimeout { .. } => "engine.ev.phase_timeout",
            Ev::EmcTick => "engine.ev.emc_tick",
        }
    }

    fn dispatch(&mut self, now: SimTime, event: Event) {
        dualpar_sim::strict_assert!(
            now >= self.last_event_time,
            "event time went backwards: {:?} < {:?}",
            now,
            self.last_event_time
        );
        self.last_event_time = now;
        self.events_processed += 1;
        assert!(
            self.events_processed < MAX_EVENTS,
            "event budget exceeded — runaway simulation"
        );
        if self.tele.enabled() {
            let live = self.queue.len() - self.superseded;
            self.tele.gauge_max("engine.queue_depth_max", live as f64);
            let counter = match &event {
                Event::Client(ev) => Self::ev_counter(ev),
                Event::Server(ev) => Server::ev_counter(ev),
            };
            self.tele.count(counter, 1);
        }
        match event {
            Event::Client(ev) => self.handle(now, ev),
            Event::Server(ev) => {
                let server = &mut self.servers[ev.server() as usize];
                server.handle(now, ev, &mut self.queue, &mut self.tele);
            }
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Start(prog) => self.on_start(now, prog),
            Ev::ProcReady(p) => self.advance(now, p),
            Ev::SubDone { ack: Ack::Proc(p) } => {
                let p = p as usize;
                dualpar_sim::strict_assert!(
                    self.procs[p].region_pending > 0,
                    "SubDone for process {p} with no outstanding sub-requests"
                );
                self.procs[p].region_pending -= 1;
                if self.procs[p].region_pending == 0 {
                    self.vanilla_region_done(now, p);
                }
            }
            Ev::SubDone {
                ack: Ack::Group(group),
            } => {
                let done = {
                    let g = self.groups.get_mut(group).expect("live group");
                    dualpar_sim::strict_assert!(
                        g.remaining > 0,
                        "SubDone for group {group:?} with no outstanding sub-requests"
                    );
                    g.remaining -= 1;
                    g.remaining == 0
                };
                if done {
                    let g = self.groups.remove(group).expect("checked");
                    self.dispatch_group(now, g);
                }
            }
            Ev::GhostDone { proc, .. } => self.on_ghost_done(now, proc),
            Ev::PhaseTimeout { prog, .. } => self.on_phase_timeout(now, prog),
            Ev::EmcTick => self.on_emc_tick(now),
        }
    }

    fn on_start(&mut self, now: SimTime, prog: usize) {
        let program = &mut self.programs[prog];
        program.started = true;
        program.start = now;
        let range = program.procs.clone();
        if program.mode == ExecMode::DataDriven {
            // Forced-mode programs never pass through EMC, so record their
            // standing decision in the trace (not in `RunReport.mode_events`,
            // which is reserved for EMC-applied switches). Emitted here, at
            // the program's Start event, so the trace stays time-ordered.
            self.tele.count("emc.mode_forced", 1);
            self.tele.event(now.as_secs_f64(), "emc", "mode", |e| {
                e.u64("program", prog as u64)
                    .str("mode", ExecMode::DataDriven.label())
                    .str("reason", "forced")
            });
        }
        for p in range {
            self.procs[p].op_start = now;
            self.procs[p].last_io_end = now;
            // Opens the initial `proc.compute` span (state is `Computing`
            // and no span exists yet).
            self.sync_proc_span(p, now);
            self.queue.schedule(now, Ev::ProcReady(p));
        }
    }

    fn on_emc_tick(&mut self, now: SimTime) {
        // Gather seek-distance samples from every data server. Every
        // server event before this instant has run, and none at it has.
        for s in &mut self.servers {
            if let Some(avg) = s.disk.trace_mut().take_window_avg_seek() {
                self.emc.report_seek_dist(avg);
            }
        }
        // Request-distance samples from every compute node.
        for tracker in &mut self.req_dist {
            if let Some(avg) = tracker.take_avg_req_dist() {
                self.emc.report_req_dist(avg);
            }
        }
        // Per-program I/O ratios.
        for (idx, program) in self.programs.iter().enumerate() {
            if program.strategy != IoStrategy::DualPar || program.finish.is_some() {
                continue;
            }
            let mut io = 0u64;
            let mut total = 0u64;
            for p in program.procs.clone() {
                let (i, t) = self.procs[p].clock.take_sample();
                io += i;
                total += t;
            }
            self.emc.report_times(ProgramId(idx as u32), io, total);
        }
        let changes = self.emc.tick();
        let t = now.as_secs_f64();
        if let Some(imp) = self.emc.last_improvement() {
            if imp.is_finite() {
                self.emc_improvement.push((t, imp));
                self.tele.sample("emc.improvement", t, imp);
            }
        }
        if self.tele.enabled() {
            // Per-program slot observations: the io_ratio EMC saw, the
            // improvement ratio (absent when no samples arrived; `null` in
            // the JSONL when infinite), and the mode it decided on — one
            // series point and one trace record per program per tick.
            let improvement = self.emc.last_improvement();
            let samples: Vec<_> = self.emc.last_tick_samples().to_vec();
            for s in samples {
                self.tele
                    .sample(&format!("emc.io_ratio.p{}", s.program.0), t, s.io_ratio);
                self.tele.event(t, "emc", "tick", |e| {
                    let e = e
                        .u64("program", s.program.0 as u64)
                        .f64("io_ratio", s.io_ratio);
                    let e = match improvement {
                        Some(imp) => e.f64("improvement", imp),
                        None => e,
                    };
                    e.str("mode", s.mode.label()).u64("vetoed", s.vetoed as u64)
                });
            }
        }
        for ch in changes {
            let idx = ch.program.0 as usize;
            if self.programs[idx].finish.is_some() {
                continue;
            }
            self.programs[idx].mode = ch.mode;
            self.mode_events.push(ModeEvent {
                at: now,
                program_index: idx,
                mode: ch.mode,
            });
            self.tele.count("emc.mode_switches", 1);
            self.tele.event(t, "emc", "mode", |e| {
                e.u64("program", idx as u64)
                    .str("mode", ch.mode.label())
                    .str("reason", "emc")
            });
            if ch.mode == ExecMode::ComputationDriven {
                self.flush_on_revert(now, idx);
            }
        }
        self.cache.evict_idle(now);
        // Keep ticking while any adaptive program is unfinished.
        let live = self
            .programs
            .iter()
            .any(|p| p.strategy == IoStrategy::DualPar && p.finish.is_none());
        if live {
            let slot = self.cfg.dualpar.sample_slot;
            self.queue.schedule(now.saturating_add(slot), Ev::EmcTick);
        } else {
            self.emc_active = false;
        }
    }

    // ----- reporting ----------------------------------------------------

    /// Fold end-of-run substrate statistics (cache counters, disk seek and
    /// per-context service totals) into the telemetry registry so the final
    /// snapshot carries them. Its events land at `end` — at or after every
    /// recorded event — so the trace stays time-ordered. No-op when
    /// telemetry is off.
    fn finalize_telemetry(&mut self, end: SimTime) {
        // The conservation identity must hold whether or not telemetry is
        // on; under strict invariants, verify it against a full rescan.
        if cfg!(any(test, feature = "strict-invariants")) {
            self.cache.assert_conservation();
        }
        if !self.tele.enabled() {
            return;
        }
        let ledger = self.cache.prefetch_ledger();
        self.tele
            .event(end.as_secs_f64(), "cache", "conservation", |e| {
                e.u64("inserted", ledger.inserted)
                    .u64("consumed", ledger.consumed)
                    .u64("overwritten", ledger.overwritten)
                    .u64("evicted", ledger.evicted)
                    .u64("misprefetched", ledger.misprefetched)
                    .u64("unused_now", ledger.unused_now)
            });
        if self.tele.spans_enabled() {
            // Every lifecycle is complete by the time all programs finish:
            // state spans close at proc_done, request spans at delivery,
            // server-side stages included. (Flush-daemon disk work can
            // outlive the run, but it never opens spans — its ids are
            // stale by ack time.)
            let open = self.tele.spans().open_count();
            dualpar_sim::strict_assert!(open == 0, "{open} spans left open at end of run");
            let total = self.tele.spans().len() as u64;
            self.tele.count("span.recorded", total);
            self.tele.count("span.unclosed", open);
        }
        let cs = self.cache.stats();
        self.tele.count("cache.read_probes", cs.read_probes);
        self.tele.count("cache.read_hits", cs.read_hits);
        self.tele
            .count("cache.read_misses", cs.read_probes - cs.read_hits);
        self.tele
            .count("cache.bytes_prefetched", cs.bytes_prefetched);
        self.tele.count("cache.bytes_written", cs.bytes_written);
        self.tele.count("cache.bytes_evicted", cs.bytes_evicted);
        self.tele.gauge_set("cache.dirty_hwm", cs.dirty_hwm as f64);
        let mut seek_total = 0u64;
        for i in 0..self.servers.len() {
            let disk = &self.servers[i].disk;
            let seek = disk.total_seek_distance();
            let busy = disk.total_busy().as_secs_f64();
            seek_total += seek;
            self.tele
                .gauge_set(&format!("disk.d{i}.seek_sectors"), seek as f64);
            self.tele.gauge_set(&format!("disk.d{i}.busy_secs"), busy);
        }
        self.tele.count("disk.seek_sectors_total", seek_total);
        self.tele
            .gauge_set("engine.events_processed", self.events_processed as f64);
    }

    fn report(&mut self) -> RunReport {
        // The run ends where its last event ran, whichever lane that was.
        let end = self.last_event_time;
        self.finalize_telemetry(end);
        let programs = self
            .programs
            .iter()
            .map(|p| ProgramReport {
                name: p.name.clone(),
                nprocs: p.nprocs(),
                strategy: p.strategy.label(),
                start: p.start,
                finish: p.finish.unwrap_or(end),
                bytes_read: p.bytes_read,
                bytes_written: p.bytes_written,
                io_time: p.io_time,
                phases: p.phases,
                avg_misprefetch: if p.mis_n == 0 {
                    0.0
                } else {
                    p.mis_sum / p.mis_n as f64
                },
            })
            .collect();
        let span_profile = if self.tele.spans_enabled() {
            Some(SpanProfile::from_log(
                self.tele.spans(),
                end.as_secs_f64(),
                |k| format!("p{}/r{}", k >> 32, k & 0xFFFF_FFFF),
            ))
        } else {
            None
        };
        RunReport {
            programs,
            sim_end: end,
            throughput_timeline: self.timeline.clone(),
            mode_events: self.mode_events.clone(),
            emc_improvement: self.emc_improvement.clone(),
            disk_bytes: self.servers.iter().map(|s| s.disk.bytes_serviced()).sum(),
            events_processed: self.events_processed,
            telemetry: self.tele.snapshot(),
            span_profile,
        }
    }

    /// Mark a program finished if all procs are done and nothing is
    /// pending.
    pub(crate) fn maybe_finish_program(&mut self, now: SimTime, prog: usize) {
        let program = &self.programs[prog];
        if program.finish.is_some() || program.done_procs < program.nprocs() {
            return;
        }
        // Flush any dirty cache contents belonging to this program first.
        if !program.final_flush_pending {
            let files = program.files.clone();
            let dirty = self.drain_dirty_for(&files);
            if !dirty.is_empty() {
                self.programs[prog].final_flush_pending = true;
                self.issue_flush(now, prog, dirty, true);
                return;
            }
        } else {
            return; // flush in flight; FlushWriteback will finish us
        }
        self.finish_program(now, prog);
    }

    pub(crate) fn finish_program(&mut self, now: SimTime, prog: usize) {
        let program = &mut self.programs[prog];
        debug_assert!(program.finish.is_none());
        program.finish = Some(now);
        self.finished_programs += 1;
        if program.strategy == IoStrategy::DualPar {
            self.emc.deregister(ProgramId(prog as u32));
        }
    }

    /// Drain dirty cache data belonging to the given files only.
    pub(crate) fn drain_dirty_for(
        &mut self,
        files: &FxHashSet<FileId>,
    ) -> Vec<(FileId, FileRegion)> {
        // The cache drains every program's dirty data; re-buffer what
        // belongs to others. This is not rare: whenever programs with
        // buffered writes run concurrently, each drain re-buffers the
        // others' regions, and `put_write` then refreshes their `last_ref`
        // and counts their bytes in `CacheStats::bytes_written` again.
        let drained = self.cache.drain_dirty();
        let mut ours = Vec::new();
        let now = self.queue.now();
        for (f, r) in drained {
            if files.contains(&f) {
                ours.push((f, r));
            } else {
                // Not ours: put it back as dirty under a neutral owner.
                self.cache.put_write(OwnerId(u64::MAX), f, r, now);
            }
        }
        ours
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualpar_disk::DiskRequest;
    use dualpar_mpiio::{IoCall, Op, ProgramScript};

    #[test]
    #[should_panic(expected = "never created")]
    fn add_program_rejects_an_unknown_file_after_known_ones() {
        let mut c = Cluster::new(ClusterConfig::default());
        let known = c.create_file("known", 1 << 20);
        let read = |file| Op::Io(IoCall::read(file, FileRegion::new(0, 4096)));
        // The unknown file follows runs of calls to a known one, within a
        // rank and across ranks.
        let script = ProgramScript {
            name: "p".into(),
            ranks: vec![
                ProcessScript::new(vec![read(known), read(known)]),
                ProcessScript::new(vec![read(known), read(FileId(known.0 + 1))]),
            ],
        };
        c.add_program(ProgramSpec::new(script, IoStrategy::Vanilla));
    }

    #[test]
    fn try_add_program_reports_the_first_fault_in_rank_then_op_order() {
        let mut c = Cluster::new(ClusterConfig::default());
        let known = c.create_file("known", 1 << 20);
        let read = |file| Op::Io(IoCall::read(file, FileRegion::new(0, 4096)));
        let program = |ranks| {
            ProgramSpec::new(
                ProgramScript {
                    name: "p".into(),
                    ranks,
                },
                IoStrategy::Vanilla,
            )
        };
        let barriers =
            |ids: &[u64]| ProcessScript::new(ids.iter().map(|&id| Op::Barrier(id)).collect());
        let unknown = FileId(known.0 + 1);
        // Rank 1 calls an unknown file before its barriers depart from
        // rank 0's, so the file is the first fault.
        let mut r1 = barriers(&[1]);
        r1.ops.insert(0, read(unknown));
        r1.ops.push(Op::Barrier(3));
        let err = c.try_add_program(program(vec![barriers(&[1, 2]), r1]));
        assert_eq!(
            err,
            Err(ExperimentError::UnknownFile {
                program: "p".into(),
                file: unknown.0
            })
        );
        // A wrong id, a missing barrier and an extra one are each caught,
        // after a rank that matches.
        for tail in [vec![1, 3], vec![1], vec![1, 2, 2]] {
            let err = c.try_add_program(program(vec![
                barriers(&[1, 2]),
                barriers(&[1, 2]),
                barriers(&tail),
            ]));
            assert_eq!(
                err,
                Err(ExperimentError::InconsistentBarriers {
                    program: "p".into()
                }),
                "{tail:?}"
            );
        }
        assert!(
            c.programs.is_empty() && c.procs.is_empty(),
            "nothing registered on error"
        );
        let mut ok = barriers(&[1, 2]);
        ok.ops.insert(1, read(known));
        assert_eq!(c.try_add_program(program(vec![ok.clone(), ok])), Ok(0));
        assert_eq!(c.procs.len(), 2);
    }

    #[test]
    fn try_add_program_rejects_a_script_of_no_ranks() {
        let mut c = Cluster::new(ClusterConfig::default());
        let script = ProgramScript {
            name: "empty".into(),
            ranks: vec![],
        };
        assert_eq!(
            c.try_add_program(ProgramSpec::new(script, IoStrategy::Vanilla)),
            Err(ExperimentError::NoRanks {
                program: "empty".into()
            })
        );
        assert!(c.programs.is_empty(), "nothing registered on error");
    }

    #[test]
    #[should_panic(expected = "program p has inconsistent barrier sequences")]
    fn add_program_panics_on_inconsistent_barriers() {
        let mut c = Cluster::new(ClusterConfig::default());
        let script = ProgramScript {
            name: "p".into(),
            ranks: vec![
                ProcessScript::new(vec![Op::Barrier(1)]),
                ProcessScript::new(vec![Op::Barrier(2)]),
            ],
        };
        c.add_program(ProgramSpec::new(script, IoStrategy::Vanilla));
    }

    #[test]
    fn write_back_flush_replays_that_merge_at_dispatch_ack_nothing_twice() {
        use crate::config::ServerWriteMode;
        use dualpar_telemetry::{TelemetryConfig, TelemetryLevel};
        // One server: each 400 KB write resolves to one 800-sector run, and
        // the two runs are contiguous on disk. Too long together for an
        // enqueue merge (1024 sectors), the flush's two replays merge at
        // dispatch. Rank 1's reads are in the disk path around the flush,
        // so the pending slab is live while the replays complete.
        let write = |file, off| Op::Io(IoCall::write(file, FileRegion::new(off, 400 << 10)));
        let read = |file, off| Op::Io(IoCall::read(file, FileRegion::new(off, 64 << 10)));
        let mut c = Cluster::new(ClusterConfig {
            num_data_servers: 1,
            server_write_mode: ServerWriteMode::WriteBack,
            trace_disks: true,
            telemetry: TelemetryConfig {
                level: TelemetryLevel::Counters,
                spans: true,
                ..TelemetryConfig::default()
            },
            ..ClusterConfig::default()
        });
        let f = c.create_file("data", 8 << 20);
        let mut reads = vec![Op::Compute(SimDuration::from_millis(990))];
        reads.extend((0..40).map(|i| read(f, (4 << 20) + i * (64 << 10))));
        let script = ProgramScript {
            name: "wb".into(),
            ranks: vec![
                ProcessScript::new(vec![
                    write(f, 0),
                    write(f, 400 << 10),
                    Op::Compute(SimDuration::from_secs(2)),
                ]),
                ProcessScript::new(reads),
            ],
        };
        c.add_program(ProgramSpec::new(script, IoStrategy::Vanilla));
        let report = c.run();
        let counters = report.telemetry.expect("counters on").counters;
        let issued = c.next_sub_id;
        assert_eq!(issued, 42);
        assert_eq!(counters.get("engine.ev.server_recv").copied(), Some(issued));
        assert_eq!(
            counters.get("engine.ev.sub_done").copied(),
            Some(issued),
            "each sub acked once"
        );
        assert_eq!(counters.get("span.unclosed").copied(), Some(0));
        let flush = c
            .disk(0)
            .trace()
            .records()
            .iter()
            .filter(|r| r.kind == IoKind::Write);
        let sectors: Vec<u64> = flush.map(|r| r.sectors).collect();
        assert_eq!(sectors, vec![1600], "the replays merged into one dispatch");
    }

    /// Run a forced-DualPar program of two ranks, each `read, compute,
    /// read, compute, read`, and return `(events_processed,
    /// engine.ev.phase_timeout, engine.ev.ghost_done,
    /// engine.queue_depth_max, phases)`.
    fn run_ghost_program(compute: SimDuration) -> (u64, u64, u64, f64, u64) {
        use dualpar_telemetry::{TelemetryConfig, TelemetryLevel};
        let read = |file, off| Op::Io(IoCall::read(file, FileRegion::new(off, 64 << 10)));
        let mut c = Cluster::new(ClusterConfig {
            num_data_servers: 2,
            telemetry: TelemetryConfig::at(TelemetryLevel::Counters),
            ..ClusterConfig::default()
        });
        let f = c.create_file("data", 8 << 20);
        let rank = |base: u64| {
            ProcessScript::new(vec![
                read(f, base),
                Op::Compute(compute),
                read(f, base + (1 << 20)),
                Op::Compute(compute),
                read(f, base + (2 << 20)),
            ])
        };
        let script = ProgramScript {
            name: "ghosts".into(),
            ranks: vec![rank(0), rank(4 << 20)],
        };
        c.add_program(ProgramSpec::new(script, IoStrategy::DualParForced));
        let report = c.run();
        let tele = report.telemetry.expect("counters on");
        let counter = |name: &str| tele.counters.get(name).copied().unwrap_or(0);
        (
            report.events_processed,
            counter("engine.ev.phase_timeout"),
            counter("engine.ev.ghost_done"),
            tele.gauges["engine.queue_depth_max"],
            report.programs[0].phases,
        )
    }

    #[test]
    fn a_batch_issued_before_its_timeout_leaves_the_timeout_unprocessed() {
        // Short computes: both ghosts record every read and finish inside
        // the one-second fill-time bound, so the phase's batch issues
        // before its timeout is due.
        let (events, timeouts, ghosts, depth, phases) =
            run_ghost_program(SimDuration::from_millis(1));
        assert_eq!(phases, 1);
        assert_eq!(timeouts, 0, "the timeout never runs");
        assert_eq!(ghosts, 2);
        assert_eq!(events, 35);
        assert_eq!(depth, 5.0);
    }

    #[test]
    fn a_timeout_with_ghosts_unfinished_leaves_their_ghost_done_unprocessed() {
        // Five-second computes: each ghost walks past the one-second
        // fill-time bound, whose timeout stops both unfinished ghosts. The
        // run goes on past the instant their walks would have ended.
        let (events, timeouts, ghosts, depth, phases) =
            run_ghost_program(SimDuration::from_secs(5));
        assert_eq!(phases, 1);
        assert_eq!(timeouts, 1);
        assert_eq!(ghosts, 0, "neither stopped ghost's completion runs");
        assert_eq!(events, 34);
        assert_eq!(depth, 5.0);
    }

    #[test]
    fn emc_tick_sample_excludes_a_disk_completion_at_its_instant() {
        let cfg = ClusterConfig {
            num_data_servers: 1,
            trace_disks: true,
            ..ClusterConfig::default()
        };
        let mut c = Cluster::new(cfg);
        // Two reads far apart on the one disk: the first is dispatched at
        // 0, the second when the first completes, at `done`.
        let disk = &mut c.servers[0].disk;
        disk.enqueue(DiskRequest::new(1, IoKind::Read, 1 << 20, 8));
        disk.enqueue(DiskRequest::new(2, IoKind::Read, 1 << 26, 8));
        let done = disk
            .try_start(SimTime::ZERO)
            .expect("an idle disk with queued work starts one request");
        c.queue.schedule(done, SEv::DiskDone(0));
        // One EMC tick, at exactly that completion's instant.
        c.cfg.dualpar.sample_slot = done.since(SimTime::ZERO);
        c.emc_active = true;
        c.run();
        let disk = &mut c.servers[0].disk;
        let second = disk.trace().records()[1];
        assert_eq!(second.at, done, "the completion dispatches the second read");
        // The tick ran first and took only the first dispatch's seek; the
        // second's is still in the window.
        assert_eq!(
            disk.trace_mut().take_window_avg_seek(),
            Some(second.seek_distance as f64)
        );
    }
}
