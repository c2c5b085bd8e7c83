//! Script advancement and the vanilla / barrier / collective execution
//! paths, plus completion-group dispatch.

use crate::config::{IoStrategy, NET_BANDWIDTH, NET_LATENCY};
use crate::engine::{Ack, Cluster, Ev, Group, PState, Purpose};
use dualpar_core::ExecMode;
use dualpar_disk::IoKind;
use dualpar_mpiio::{plan_collective, plan_strided, IoCall, Op, ProcessScript, Regions};
use dualpar_pfs::{FileId, FileRegion};
use dualpar_sim::{SimDuration, SimTime};

impl Cluster {
    /// Advance a process through its script until it blocks or finishes.
    /// Ops are read out of the (immutable, shared) script under scoped
    /// borrows, so the loop never clones an op or the script handle.
    pub(crate) fn advance(&mut self, now: SimTime, p: usize) {
        loop {
            let pos = self.procs[p].pos;
            match self.procs[p].script.ops.get(pos) {
                None => {
                    self.proc_done(now, p);
                    return;
                }
                Some(&Op::Compute(d)) => {
                    self.procs[p].pos += 1;
                    if d == SimDuration::ZERO {
                        continue;
                    }
                    self.procs[p].state = PState::Computing;
                    self.sync_proc_span(p, now);
                    self.queue.schedule(now.saturating_add(d), Ev::ProcReady(p));
                    return;
                }
                Some(&Op::Barrier(id)) => {
                    self.procs[p].pos += 1;
                    if self.barrier_arrive(now, p, id) {
                        continue; // we released the barrier; keep going
                    }
                    return; // waiting
                }
                Some(Op::Io(_)) => {
                    self.begin_io(now, p);
                    return;
                }
            }
        }
    }

    fn proc_done(&mut self, now: SimTime, p: usize) {
        if self.procs[p].state == PState::Done {
            return;
        }
        self.procs[p].state = PState::Done;
        self.sync_proc_span(p, now);
        let dur = now.since(self.procs[p].last_io_end);
        self.procs[p].clock.record_other(dur);
        let prog = self.procs[p].prog;
        self.programs[prog].done_procs += 1;
        // A finishing process may be the last active one a pre-execution
        // phase was waiting for.
        self.check_phase_ready(now, prog);
        self.maybe_finish_program(now, prog);
    }

    /// Returns true when this arrival released the barrier.
    fn barrier_arrive(&mut self, now: SimTime, p: usize, id: u64) -> bool {
        let prog = self.procs[p].prog;
        let nprocs = self.programs[prog].nprocs();
        let waiters = &mut self.programs[prog].barrier_waits;
        dualpar_sim::strict_assert!(
            waiters
                .first()
                .is_none_or(|&w| self.procs[w].state == PState::BarrierWait(id)),
            "two barriers open at once in program {prog}"
        );
        if waiters.len() + 1 == nprocs {
            let mut released = std::mem::take(waiters);
            for &w in &released {
                self.procs[w].state = PState::Computing;
                self.sync_proc_span(w, now);
                self.queue.schedule(now, Ev::ProcReady(w));
            }
            released.clear();
            self.programs[prog].barrier_waits = released;
            true
        } else {
            waiters.push(p);
            self.procs[p].state = PState::BarrierWait(id);
            self.sync_proc_span(p, now);
            false
        }
    }

    /// Route the I/O call at a process's script position according to the
    /// program's strategy and mode.
    fn begin_io(&mut self, now: SimTime, p: usize) {
        let pos = {
            let proc = &mut self.procs[p];
            let gap = now.since(proc.last_io_end);
            proc.clock.record_other(gap);
            proc.op_start = now;
            proc.pos
        };
        let prog = self.procs[p].prog;
        let strategy = self.programs[prog].strategy;
        let mode = self.programs[prog].mode;
        let (kind, collective) = {
            let call = io_call(&self.procs[p].script, pos);
            (call.kind, call.collective)
        };
        let path: fn(&mut Self, SimTime, usize, &IoCall) = match strategy {
            IoStrategy::Collective if collective => Self::coll_arrive,
            IoStrategy::DualPar | IoStrategy::DualParForced if mode == ExecMode::DataDriven => {
                Self::dd_io
            }
            IoStrategy::PrefetchOverlap if kind == IoKind::Read => Self::s2_read,
            _ => return self.vanilla_io(now, p),
        };
        // These paths hold the call while they mutate the cluster, so they
        // take a handle to the script.
        let script = std::sync::Arc::clone(&self.procs[p].script);
        path(self, now, p, io_call(&script, pos));
    }

    // ----- vanilla ------------------------------------------------------

    /// Issue a call's regions synchronously, one region at a time — the
    /// computation-driven baseline ("a process issues its synchronous read
    /// requests one at a time", §II). Unsieved, the regions are read off
    /// the call by index, so a strided call is never flattened; sieved
    /// reads issue the covers of `plan_strided` instead.
    fn vanilla_io(&mut self, now: SimTime, p: usize) {
        let proc = &mut self.procs[p];
        let call = io_call(&proc.script, proc.pos);
        let sieved = call.kind == IoKind::Read && self.cfg.sieve.enabled;
        if sieved {
            let covers = plan_strided(call.file, call.regions.iter(), &self.cfg.sieve);
            proc.cur_covers.clear();
            proc.cur_covers
                .extend(covers.into_iter().map(|io| io.cover));
        }
        // Feed the EMC's per-node request-distance tracker with the
        // app-level request stream (computation-driven issuance only).
        // Only EMC ticks drain the tracker, so without an adaptive program
        // (or after the last one finished) nothing would ever read these
        // samples: skip them rather than hold one per region until exit.
        if self.emc_active {
            let tracker = &mut self.req_dist[proc.node as usize];
            for r in call.regions.iter() {
                tracker.observe(call.file.0, r.offset, r.len);
            }
        }
        proc.state = PState::VanillaIo {
            op: proc.pos,
            next_region: 0,
            sieved,
        };
        self.sync_proc_span(p, now);
        self.vanilla_issue_next(now, p);
    }

    pub(crate) fn vanilla_issue_next(&mut self, now: SimTime, p: usize) {
        let (op, next_region, sieved) = match self.procs[p].state {
            PState::VanillaIo {
                op,
                next_region,
                sieved,
            } => (op, next_region, sieved),
            ref other => unreachable!("vanilla_issue_next in state {other:?}"),
        };
        // Copy what one region needs out of the script under a scoped
        // borrow.
        let (file, kind, cover) = {
            let proc = &self.procs[p];
            let call = io_call(&proc.script, op);
            let cover = if sieved {
                proc.cur_covers.get(next_region).copied()
            } else {
                call.regions.get(next_region)
            };
            (call.file, call.kind, cover)
        };
        let Some(cover) = cover else {
            // Op complete.
            let bytes = io_call(&self.procs[p].script, op).bytes();
            self.complete_io_op(now, p, kind, bytes);
            return;
        };
        self.procs[p].state = PState::VanillaIo {
            op,
            next_region: next_region + 1,
            sieved,
        };
        let node = self.procs[p].node;
        self.procs[p].region_opened = self.queue.now();
        let ack = Ack::Proc(u32::try_from(p).expect("under 2^32 processes"));
        if self.issue_covers(now, ack, node, kind, &[(file, cover)]) == 0 {
            self.vanilla_region_done(now, p);
        }
    }

    /// The last sub-request of process `p`'s vanilla region is done: issue
    /// its next region.
    pub(crate) fn vanilla_region_done(&mut self, now: SimTime, p: usize) {
        if self.tele.enabled() {
            let secs = now.since(self.procs[p].region_opened).as_secs_f64();
            self.tele.observe("group.latency_secs.vanilla_region", secs);
        }
        self.vanilla_issue_next(now, p);
    }

    /// Account and finish the I/O op a process was blocked on, then keep
    /// advancing its script.
    pub(crate) fn complete_io_op(&mut self, now: SimTime, p: usize, kind: IoKind, bytes: u64) {
        let dur = now.since(self.procs[p].op_start);
        self.account_io(p, now, kind, bytes);
        self.procs[p].cur_covers.clear();
        self.tele.observe("io.op_secs", dur.as_secs_f64());
        self.advance(now, p);
    }

    /// Account the current I/O op of process `p` as done at `end`, moving
    /// it past the op: its clock, its program's totals and the throughput
    /// timeline.
    pub(crate) fn account_io(&mut self, p: usize, end: SimTime, kind: IoKind, bytes: u64) {
        let dur = end.since(self.procs[p].op_start);
        self.procs[p].clock.record_io(dur, bytes);
        self.procs[p].last_io_end = end;
        self.procs[p].pos += 1;
        let program = &mut self.programs[self.procs[p].prog];
        program.io_time = program.io_time.saturating_add(dur);
        let counter = match kind {
            IoKind::Read => {
                program.bytes_read += bytes;
                "io.bytes_read"
            }
            IoKind::Write => {
                program.bytes_written += bytes;
                "io.bytes_written"
            }
        };
        self.tele.count(counter, bytes);
        self.timeline.record(end, bytes as f64);
    }

    // ----- collective ----------------------------------------------------

    fn coll_arrive(&mut self, now: SimTime, p: usize, call: &IoCall) {
        let prog = self.procs[p].prog;
        let rank = self.procs[p].rank;
        {
            let program = &mut self.programs[prog];
            let coll = &mut program.coll;
            if coll.count == 0 {
                coll.kind = Some(call.kind);
                coll.file = Some(call.file);
            }
            assert_eq!(
                coll.kind,
                Some(call.kind),
                "collective call kind mismatch across ranks"
            );
            assert_eq!(
                coll.file,
                Some(call.file),
                "collective call file mismatch across ranks"
            );
            assert!(coll.arrived[rank].is_none(), "rank arrived twice");
            coll.arrived[rank] = Some(call.regions.clone());
            coll.count += 1;
            self.procs[p].state = PState::CollWait;
        }
        self.sync_proc_span(p, now);
        if self.programs[prog].coll.count < self.programs[prog].nprocs() {
            return;
        }
        self.coll_launch(now, prog);
    }

    fn coll_launch(&mut self, now: SimTime, prog: usize) {
        let (file, kind, per_rank) = {
            let coll = &self.programs[prog].coll;
            let per_rank: Vec<Regions> = coll
                .arrived
                .iter()
                .map(|o| o.clone().unwrap_or_default())
                .collect();
            (
                coll.file.expect("file set"),
                coll.kind.expect("kind set"),
                per_rank,
            )
        };
        // Every rank aggregates (ROMIO's `cb_nodes` set to the rank count).
        let naggs = self.programs[prog].nprocs();
        let plan = plan_collective(file, &per_rank, naggs);
        let Some(plan) = plan else {
            // Nothing requested — resume everyone immediately.
            self.programs[prog].coll_exchange = (0, 0);
            self.coll_resume(now, prog);
            return;
        };
        self.programs[prog].coll_exchange = (plan.exchange_bytes, plan.exchange_msgs);
        let group = self.new_group(Purpose::CollIo { prog });
        let proc_base = self.programs[prog].procs.start;
        for agg in &plan.aggregators {
            let agg_proc = proc_base + agg.agg_rank;
            let node = self.procs[agg_proc].node;
            let covers: Vec<(FileId, FileRegion)> =
                agg.ios.iter().map(|io| (io.file, io.cover)).collect();
            self.issue_covers(now, Ack::Group(group), node, kind, &covers);
        }
        self.finish_if_empty(now, group);
    }

    pub(crate) fn coll_io_done(&mut self, now: SimTime, prog: usize) {
        // Shuffle phase: rounds of point-to-point messages plus the moved
        // volume spread over the compute-node NICs.
        let (bytes, msgs) = self.programs[prog].coll_exchange;
        let nprocs = self.programs[prog].nprocs() as u64;
        let rounds = msgs.div_ceil(nprocs.max(1));
        let per_node = bytes / self.cfg.num_compute_nodes.max(1) as u64;
        let exchange = SimDuration(NET_LATENCY.nanos() * rounds)
            + SimDuration::for_transfer(per_node, NET_BANDWIDTH);
        let group = self.new_group(Purpose::CollResume { prog });
        self.groups.get_mut(group).expect("new group").remaining = 1;
        self.queue.schedule(
            now.saturating_add(exchange),
            Ev::SubDone {
                ack: Ack::Group(group),
            },
        );
    }

    pub(crate) fn coll_resume(&mut self, now: SimTime, prog: usize) {
        let range = self.programs[prog].procs.clone();
        let proc_base = range.start;
        let mut total = 0u64;
        let kind = self.programs[prog].coll.kind.unwrap_or(IoKind::Read);
        for rank in 0..range.len() {
            let p = proc_base + rank;
            let bytes = self.programs[prog].coll.arrived[rank]
                .take()
                .map_or(0, |regions| regions.bytes());
            total += bytes;
            let dur = now.since(self.procs[p].op_start);
            self.procs[p].clock.record_io(dur, bytes);
            self.procs[p].last_io_end = now;
            self.procs[p].pos += 1;
            self.programs[prog].io_time = self.programs[prog].io_time.saturating_add(dur);
            self.procs[p].state = PState::Computing;
            self.sync_proc_span(p, now);
            self.queue.schedule(now, Ev::ProcReady(p));
        }
        {
            let program = &mut self.programs[prog];
            program.coll.count = 0;
            program.coll.kind = None;
            program.coll.file = None;
            match kind {
                IoKind::Read => program.bytes_read += total,
                IoKind::Write => program.bytes_written += total,
            }
        }
        self.tele.count(
            match kind {
                IoKind::Read => "io.bytes_read",
                IoKind::Write => "io.bytes_written",
            },
            total,
        );
        self.timeline.record(now, total as f64);
    }

    // ----- group dispatch -------------------------------------------------

    pub(crate) fn dispatch_group(&mut self, now: SimTime, group: Group) {
        if self.tele.enabled() {
            let secs = now.since(group.opened).as_secs_f64();
            let name = format!("group.latency_secs.{}", group.purpose.label());
            self.tele.observe(&name, secs);
        }
        match group.purpose {
            Purpose::DirectFetch { proc } => self.direct_fetch_done(now, proc),
            Purpose::S2Prefetch { proc, file, region } => {
                self.s2_prefetch_done(now, proc, file, region)
            }
            Purpose::CollIo { prog } => self.coll_io_done(now, prog),
            Purpose::CollResume { prog } => self.coll_resume(now, prog),
            Purpose::PhaseFill { prog } => self.phase_fill_done(now, prog),
            Purpose::PhaseWriteback { prog } => self.phase_writeback_done(now, prog),
            Purpose::PhasePrefetch { prog } => self.phase_prefetch_done(now, prog),
            Purpose::FlushWriteback { prog, finalize } => self.flush_done(now, prog, finalize),
        }
    }
}

/// The I/O call at `op` of `script`.
fn io_call(script: &ProcessScript, op: usize) -> &IoCall {
    let Op::Io(call) = &script.ops[op] else {
        unreachable!("op index must be an Io op")
    };
    call
}
