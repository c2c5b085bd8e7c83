//! The data-driven execution machinery (DualPar phases) and Strategy-2
//! application-level prefetching.

use crate::config::{IoStrategy, S2_ISSUE_GAP, S2_WINDOW};
use crate::engine::{Ack, Cluster, Ev, PState, Phase, Purpose};
use dualpar_core::{expected_fill_time, ghost_walk, plan_prefetch, plan_writeback, ProgramId};
use dualpar_disk::IoKind;
use dualpar_mpiio::IoCall;
use dualpar_pfs::{FileId, FileRegion};
use dualpar_sim::SimTime;

/// Key identifying a region in the in-flight prefetch table.
fn region_key(file: FileId, r: FileRegion) -> (u32, u64, u64) {
    (file.0, r.offset, r.len)
}

impl Cluster {
    // ----- data-driven I/O entry -----------------------------------------

    pub(crate) fn dd_io(&mut self, now: SimTime, p: usize, call: &IoCall) {
        match call.kind {
            IoKind::Read => self.dd_read(now, p, call),
            IoKind::Write => self.dd_write(now, p, call),
        }
    }

    fn dd_read(&mut self, now: SimTime, p: usize, call: &IoCall) {
        // Probe the global cache (consuming on hit).
        let all_present = call
            .regions
            .iter()
            .all(|r| self.cache.contains(call.file, r));
        if all_present {
            self.read_cached(now, p, call);
            return;
        }
        // Miss. If this op already triggered a phase, the prefetched data
        // was wrong (data-dependent access): fetch directly from the
        // servers, as the real system does once the normal process detects
        // the miss.
        let pos = self.procs[p].pos;
        if self.procs[p].miss_trigger_op == Some(pos) {
            self.procs[p].state = PState::S2Wait { op: pos };
            self.sync_proc_span(p, now);
            self.direct_fetch(now, p, call.file, call.regions.iter());
            return;
        }
        self.procs[p].miss_trigger_op = Some(pos);
        self.dd_suspend(now, p, true);
    }

    /// Serve a read whose regions are all cached: consume them and finish
    /// the op after the cache access time.
    fn read_cached(&mut self, now: SimTime, p: usize, call: &IoCall) {
        let node = self.procs[p].node;
        let mut homes = std::mem::take(&mut self.homes_scratch);
        homes.clear();
        for r in call.regions.iter() {
            self.cache.read_into(call.file, r, now, &mut homes);
        }
        let latency = self.cache_access_time(node, &homes);
        self.homes_scratch = homes;
        let done = now.saturating_add(latency);
        self.procs[p].state = PState::Computing;
        // Account the op at its completion instant.
        self.account_io(p, done, IoKind::Read, call.bytes());
        self.proc_blocked_span(p, now, done);
        self.queue.schedule(done, Ev::ProcReady(p));
    }

    fn dd_write(&mut self, now: SimTime, p: usize, call: &IoCall) {
        let node = self.procs[p].node;
        let owner = self.procs[p].owner;
        let mut homes = std::mem::take(&mut self.homes_scratch);
        homes.clear();
        // One cache insert per (run, chunk): a strided call is one run.
        for run in call.regions.runs() {
            self.cache
                .put_write_strided(owner, call.file, run, now, &mut homes);
        }
        let latency = self.cache_access_time(node, &homes);
        self.homes_scratch = homes;
        let done = now.saturating_add(latency);
        self.account_io(p, done, IoKind::Write, call.bytes());
        self.tele
            .gauge_max("cache.dirty_bytes_max", self.cache.dirty_bytes() as f64);
        // The write blocks `[now, done]`; a quota suspension below then
        // replaces the (zero-length) compute span this opens at `done`.
        self.proc_blocked_span(p, now, done);
        // Quota check: a full cache suspends the process until the
        // program-wide write-back (§IV-C "when caches assigned to every
        // process of a program are filled ...").
        if self.cache.usage(owner) >= self.cfg.dualpar.cache_quota {
            self.dd_suspend(done, p, false);
        } else {
            self.procs[p].state = PState::Computing;
            self.queue.schedule(done, Ev::ProcReady(p));
        }
    }

    /// Fetch `regions` of `file` for process `p` straight from the servers:
    /// the escape from a mis-predicted read.
    fn direct_fetch(
        &mut self,
        now: SimTime,
        p: usize,
        file: FileId,
        regions: impl IntoIterator<Item = FileRegion>,
    ) {
        let node = self.procs[p].node;
        let covers: Vec<(FileId, FileRegion)> = regions.into_iter().map(|r| (file, r)).collect();
        self.procs[p].direct_pending = true;
        let group = self.new_group(Purpose::DirectFetch { proc: p });
        self.issue_covers(now, Ack::Group(group), node, IoKind::Read, &covers);
        self.finish_if_empty(now, group);
    }

    pub(crate) fn direct_fetch_done(&mut self, now: SimTime, p: usize) {
        self.procs[p].direct_pending = false;
        if !self.procs[p].s2_waiting.is_empty() {
            return; // still waiting on inflight prefetches (Strategy 2)
        }
        let op = match self.procs[p].state {
            PState::S2Wait { op } => op,
            ref other => unreachable!("direct fetch done in state {other:?}"),
        };
        self.complete_fetched(now, p, op);
    }

    /// Complete op `op` of process `p` once all its data has arrived. Its
    /// cached parts are marked consumed (prefetch-usage bookkeeping); the
    /// directly fetched parts bypass the cache.
    fn complete_fetched(&mut self, now: SimTime, p: usize, op: usize) {
        let script = std::sync::Arc::clone(&self.procs[p].script);
        let dualpar_mpiio::Op::Io(call) = &script.ops[op] else {
            unreachable!("op {op} is not an I/O call")
        };
        let mut homes = std::mem::take(&mut self.homes_scratch);
        for r in call.regions.iter() {
            homes.clear();
            self.cache.read_into(call.file, r, now, &mut homes);
        }
        self.homes_scratch = homes;
        self.complete_io_op(now, p, call.kind, call.bytes());
    }

    // ----- suspension & ghost pre-execution -------------------------------

    /// Suspend a process in the data-driven mode at time `at` (≥ now).
    /// `retry_op` is true when the current op must re-execute on resume.
    fn dd_suspend(&mut self, at: SimTime, p: usize, retry_op: bool) {
        let prog = self.procs[p].prog;
        // `at` may lie in the future (the suspension takes effect when the
        // triggering op completes), so stamp the trace record with the
        // current simulated time to keep it monotone; `at` rides as payload.
        self.tele
            .event(self.queue.now().as_secs_f64(), "pec", "suspend", |e| {
                e.u64("proc", p as u64)
                    .u64("program", prog as u64)
                    .u64("retry", retry_op as u64)
                    .f64("at", at.as_secs_f64())
            });
        self.procs[p].state = PState::Suspended { retry_op };
        // Open the suspended span before any ghost starts: the ghost
        // overlay nests inside it.
        self.sync_proc_span(p, at);
        self.procs[p].op_start = if retry_op {
            self.procs[p].op_start // read blocked since op start
        } else {
            at
        };
        match self.programs[prog].phase {
            Phase::Normal => {
                // First suspension opens a pre-execution phase.
                self.programs[prog].phase = Phase::PreExec { waiting_ghosts: 0 };
                self.programs[prog].phase_opened = at;
                self.tele.count("phase.opened", 1);
                self.start_ghost(at, p);
                let rate = self.procs[p].clock.io_bytes_per_sec();
                let bound = expected_fill_time(&self.cfg.dualpar, rate);
                let seq = self.programs[prog].phase_seq;
                self.queue
                    .schedule(at + bound, Ev::PhaseTimeout { prog, seq });
                self.programs[prog].timeout_due = true;
            }
            Phase::PreExec { .. } => {
                self.start_ghost(at, p);
            }
            // A batch is already in flight: just stay suspended and resume
            // with everyone else; no recording this round.
            Phase::Fill | Phase::Writeback | Phase::Prefetch => {}
        }
        self.check_phase_ready(at, prog);
    }

    /// Launch the ghost pre-execution for a suspended process: walk the
    /// script, account the (retained) computation as ghost runtime.
    fn start_ghost(&mut self, at: SimTime, p: usize) {
        let prog = self.procs[p].prog;
        if self.tele.spans_enabled() {
            let key = crate::engine::proc_span_key(prog, self.procs[p].rank);
            self.procs[p].ghost_span = self.tele.span_open(
                self.queue.now().as_secs_f64(),
                at.as_secs_f64(),
                "proc.ghost",
                self.procs[p].state_span,
                key,
            );
        }
        let run = ghost_walk(
            &self.procs[p].script,
            self.procs[p].pos,
            self.cfg.dualpar.cache_quota,
        );
        self.procs[p].phase_bytes = run.space;
        self.procs[p].pending_ghost = run.prefetch;
        if let Phase::PreExec { waiting_ghosts } = &mut self.programs[prog].phase {
            *waiting_ghosts += 1;
        }
        let ghost_time = if self.cfg.dualpar.ghost_slice_compute {
            dualpar_sim::SimDuration::ZERO
        } else {
            run.compute
        };
        let (done, seq) = (at.saturating_add(ghost_time), self.programs[prog].phase_seq);
        self.queue.schedule(done, Ev::GhostDone { proc: p, seq });
        self.procs[p].ghost_due = true;
    }

    /// Stop process `p`'s ghost at `now` and hand what it recorded to its
    /// program.
    fn harvest_ghost(&mut self, now: SimTime, p: usize) {
        self.procs[p].ghost_due = false;
        self.close_ghost_span(p, now);
        let (prog, owner) = (self.procs[p].prog, self.procs[p].owner);
        let recorded = self.procs[p].pending_ghost.drain(..);
        self.programs[prog]
            .recordings
            .extend(recorded.map(|(f, r)| (owner, f, r)));
    }

    pub(crate) fn on_ghost_done(&mut self, now: SimTime, p: usize) {
        self.harvest_ghost(now, p);
        let prog = self.procs[p].prog;
        if let Phase::PreExec { waiting_ghosts } = &mut self.programs[prog].phase {
            *waiting_ghosts -= 1;
        }
        self.check_phase_ready(now, prog);
    }

    /// The open phase of `prog` hit its bound: `Cluster::run` dropped the
    /// timeout of every phase that issued its batch first.
    pub(crate) fn on_phase_timeout(&mut self, now: SimTime, prog: usize) {
        dualpar_sim::strict_assert!(matches!(self.programs[prog].phase, Phase::PreExec { .. }));
        self.programs[prog].timeout_due = false;
        // Stop unfinished ghosts, harvesting what they recorded (§IV-C:
        // "when the time period expires, all unfinished pre-executions are
        // stopped"). Their GhostDone stays queued, superseded by the batch.
        for p in self.programs[prog].procs.clone() {
            if self.procs[p].ghost_due {
                self.harvest_ghost(now, p);
                self.superseded += 1;
            }
        }
        self.issue_phase_batch(now, prog);
    }

    /// A phase is ready when no process can make progress: every live
    /// process is suspended (or passively blocked behind one that is) and
    /// all ghosts have paused.
    pub(crate) fn check_phase_ready(&mut self, now: SimTime, prog: usize) {
        let program = &self.programs[prog];
        let Phase::PreExec { waiting_ghosts } = program.phase else {
            return;
        };
        if waiting_ghosts > 0 {
            return;
        }
        let mut any_suspended = false;
        for p in program.procs.clone() {
            match self.procs[p].state {
                PState::Suspended { .. } => any_suspended = true,
                PState::BarrierWait(_) | PState::CollWait | PState::Done => {}
                _ => return, // someone can still run
            }
        }
        if any_suspended {
            self.issue_phase_batch(now, prog);
        }
    }

    // ----- the batch ------------------------------------------------------

    fn issue_phase_batch(&mut self, now: SimTime, prog: usize) {
        // Close the phase bookkeeping; a timeout still due is superseded.
        self.programs[prog].phase_seq += 1;
        if std::mem::take(&mut self.programs[prog].timeout_due) {
            self.superseded += 1;
        }
        self.programs[prog].phases += 1;

        // Mis-prefetch epoch accounting: measured "when the next
        // pre-execution begins" (§IV-C) — i.e. right here, before new data
        // is prefetched.
        let adaptive = self.programs[prog].strategy == IoStrategy::DualPar;
        for p in self.programs[prog].procs.clone() {
            let owner = self.procs[p].owner;
            if let Some(ratio) = self.cache.end_prefetch_epoch(owner) {
                self.programs[prog].mis_sum += ratio;
                self.programs[prog].mis_n += 1;
                if adaptive {
                    self.emc.report_misprefetch(ProgramId(prog as u32), ratio);
                }
            }
        }

        // Write-back plan from the dirty cache contents, then release the
        // quota held by the previous phase's (clean) data.
        let files = self.programs[prog].files.clone();
        let dirty = self.drain_dirty_for(&files);
        self.cache.evict_clean_for(&files);
        let wb = plan_writeback(&self.cfg.dualpar, dirty);

        // Prefetch plan from the ghost recordings.
        let recordings = std::mem::take(&mut self.programs[prog].recordings);
        // Re-insert attribution later: build the plan from bare regions.
        let bare: Vec<(FileId, FileRegion)> = recordings.iter().map(|&(_, f, r)| (f, r)).collect();
        let recorded_n = bare.len() as u64;
        let pf = plan_prefetch(&self.cfg.dualpar, bare);
        // Phase + coalescing telemetry: pre-execution duration, staged batch
        // sizes, and how far planning shrank the recorded region list.
        let preexec_secs = now.since(self.programs[prog].phase_opened).as_secs_f64();
        let wb_n = wb.writes.len() as u64;
        let pf_n = pf.reads.len() as u64;
        let seq = self.programs[prog].phase_seq;
        self.tele.count("phase.batches", 1);
        self.tele.observe("phase.preexec_secs", preexec_secs);
        self.tele.count("phase.recorded_regions", recorded_n);
        self.tele.count("phase.writeback_covers", wb_n);
        self.tele.count("phase.prefetch_covers", pf_n);
        self.tele.event(now.as_secs_f64(), "crm", "phase", |e| {
            e.u64("program", prog as u64)
                .u64("seq", seq)
                .u64("recorded", recorded_n)
                .u64("writes", wb_n)
                .u64("reads", pf_n)
                .f64("preexec_secs", preexec_secs)
        });
        self.programs[prog].staged_writes = wb.writes;
        self.programs[prog].staged_prefetch = pf.reads;
        // Stash per-owner recordings for cache insertion at prefetch
        // completion.
        self.programs[prog].recordings = recordings;

        if !wb.fill_reads.is_empty() {
            self.programs[prog].phase = Phase::Fill;
            let group = self.new_group(Purpose::PhaseFill { prog });
            let covers = wb.fill_reads;
            self.issue_batch_covers(now, group, IoKind::Read, &covers);
            self.finish_if_empty(now, group);
        } else {
            self.phase_fill_done(now, prog);
        }
    }

    /// Issue a batch of covers through the per-node CRM daemons. Every
    /// cover is decomposed along cache-chunk boundaries and each piece is
    /// issued by the compute node that is the chunk's *home* — write-back
    /// data leaves from the NIC of the node whose memory holds it, and
    /// prefetched data is pulled by the node that will cache it. The
    /// pieces from one node are issued in ascending offset order; the
    /// disk-level dispatch merge re-fuses the interleaved chunk streams
    /// into long media accesses.
    fn issue_batch_covers(
        &mut self,
        now: SimTime,
        group: dualpar_sim::SlabKey,
        kind: IoKind,
        covers: &[(FileId, FileRegion)],
    ) {
        let chunk = self.cache.config().chunk_size;
        let mut per_node: std::collections::BTreeMap<u32, Vec<(FileId, FileRegion)>> =
            std::collections::BTreeMap::new();
        for &(file, region) in covers {
            let mut off = region.offset;
            let end = region.end();
            while off < end {
                let idx = off / chunk;
                let piece_end = ((idx + 1) * chunk).min(end);
                let home = self.cache.home_of(file, idx).0;
                per_node
                    .entry(home)
                    .or_default()
                    .push((file, FileRegion::new(off, piece_end - off)));
                off = piece_end;
            }
        }
        for (node, pieces) in per_node {
            let n = self.issue_covers(now, Ack::Group(group), node, kind, &pieces);
            self.tele.count("crm.subrequests", n as u64);
        }
    }

    pub(crate) fn phase_fill_done(&mut self, now: SimTime, prog: usize) {
        let writes = std::mem::take(&mut self.programs[prog].staged_writes);
        if writes.is_empty() {
            self.phase_writeback_done(now, prog);
            return;
        }
        self.programs[prog].phase = Phase::Writeback;
        let covers: Vec<(FileId, FileRegion)> =
            writes.iter().map(|io| (io.file, io.cover)).collect();
        let group = self.new_group(Purpose::PhaseWriteback { prog });
        self.issue_batch_covers(now, group, IoKind::Write, &covers);
        self.finish_if_empty(now, group);
    }

    pub(crate) fn phase_writeback_done(&mut self, now: SimTime, prog: usize) {
        let reads = std::mem::take(&mut self.programs[prog].staged_prefetch);
        if reads.is_empty() {
            self.phase_prefetch_done(now, prog);
            return;
        }
        self.programs[prog].phase = Phase::Prefetch;
        let covers: Vec<(FileId, FileRegion)> =
            reads.iter().map(|io| (io.file, io.cover)).collect();
        let group = self.new_group(Purpose::PhasePrefetch { prog });
        self.issue_batch_covers(now, group, IoKind::Read, &covers);
        self.finish_if_empty(now, group);
    }

    pub(crate) fn phase_prefetch_done(&mut self, now: SimTime, prog: usize) {
        // Deposit the prefetched data in the cache, attributed to the
        // processes whose ghosts recorded it.
        let recordings = std::mem::take(&mut self.programs[prog].recordings);
        for (owner, file, region) in recordings {
            self.cache.put_prefetch(owner, file, region, now);
        }
        // Resume every suspended process.
        self.programs[prog].phase = Phase::Normal;
        for p in self.programs[prog].procs.clone() {
            if let PState::Suspended { .. } = self.procs[p].state {
                let dur = now.since(self.procs[p].op_start);
                let bytes = self.procs[p].phase_bytes;
                self.procs[p].clock.record_io(dur, bytes);
                self.procs[p].last_io_end = now;
                self.procs[p].phase_bytes = 0;
                self.programs[prog].io_time = self.programs[prog].io_time.saturating_add(dur);
                self.procs[p].state = PState::Computing;
                self.sync_proc_span(p, now);
                self.tele.event(now.as_secs_f64(), "pec", "resume", |e| {
                    e.u64("proc", p as u64).u64("program", prog as u64)
                });
                self.queue.schedule(now, Ev::ProcReady(p));
            }
        }
    }

    // ----- stand-alone flushes --------------------------------------------

    /// Write dirty cache data back when a program leaves the data-driven
    /// mode (the cache is bypassed in computation-driven execution, so
    /// buffered writes must reach the servers first).
    pub(crate) fn flush_on_revert(&mut self, now: SimTime, prog: usize) {
        let files = self.programs[prog].files.clone();
        let dirty = self.drain_dirty_for(&files);
        self.cache.evict_clean_for(&files);
        if !dirty.is_empty() {
            self.issue_flush(now, prog, dirty, false);
        }
    }

    /// Issue a write-back of `dirty` as one group (fill reads and writes
    /// together; the staging order does not change the makespan here).
    pub(crate) fn issue_flush(
        &mut self,
        now: SimTime,
        prog: usize,
        dirty: Vec<(FileId, FileRegion)>,
        finalize: bool,
    ) {
        let plan = plan_writeback(&self.cfg.dualpar, dirty);
        let group = self.new_group(Purpose::FlushWriteback { prog, finalize });
        if !plan.fill_reads.is_empty() {
            let covers = plan.fill_reads.clone();
            self.issue_batch_covers(now, group, IoKind::Read, &covers);
        }
        let covers: Vec<(FileId, FileRegion)> =
            plan.writes.iter().map(|io| (io.file, io.cover)).collect();
        self.issue_batch_covers(now, group, IoKind::Write, &covers);
        self.finish_if_empty(now, group);
    }

    pub(crate) fn flush_done(&mut self, now: SimTime, prog: usize, finalize: bool) {
        if finalize {
            self.finish_program(now, prog);
        }
    }

    // ----- Strategy 2: prefetch-overlap -----------------------------------

    pub(crate) fn s2_read(&mut self, now: SimTime, p: usize, call: &IoCall) {
        // Which regions are already cached?
        let missing: Vec<FileRegion> = call
            .regions
            .iter()
            .filter(|r| !self.cache.contains(call.file, *r))
            .collect();
        if missing.is_empty() {
            self.read_cached(now, p, call);
            return;
        }
        // Wait on in-flight prefetches covering missing regions; launch a
        // new pre-execution for the rest.
        let pos = self.procs[p].pos;
        let mut not_inflight = Vec::new();
        for r in &missing {
            let key = region_key(call.file, *r);
            if let Some(waiters) = self.s2_inflight.get_mut(&key) {
                waiters.push(p);
                self.procs[p].s2_waiting.insert(key);
            } else {
                not_inflight.push(*r);
            }
        }
        if !not_inflight.is_empty() {
            if self.procs[p].miss_trigger_op == Some(pos) {
                // Prediction failed earlier: fetch the leftovers directly.
                self.direct_fetch(now, p, call.file, not_inflight);
            } else {
                self.procs[p].miss_trigger_op = Some(pos);
                self.s2_launch_prefetch(now, p);
                // Re-check after launching: predicted regions are now in
                // flight; anything else (mis-predicted) goes direct.
                let mut leftover = Vec::new();
                for r in &not_inflight {
                    let key = region_key(call.file, *r);
                    if let Some(waiters) = self.s2_inflight.get_mut(&key) {
                        waiters.push(p);
                        self.procs[p].s2_waiting.insert(key);
                    } else {
                        leftover.push(*r);
                    }
                }
                if !leftover.is_empty() {
                    self.direct_fetch(now, p, call.file, leftover);
                }
            }
        }
        self.procs[p].state = PState::S2Wait { op: pos };
        self.sync_proc_span(p, now);
        // It is possible everything resolved synchronously (all waited
        // regions were already being fetched and completed in zero time) —
        // the completion paths handle that; nothing more to do here.
        if self.procs[p].s2_waiting.is_empty() && !self.procs[p].direct_pending {
            // Nothing is actually pending (e.g. raced completions): retry.
            self.procs[p].state = PState::Computing;
            self.sync_proc_span(p, now);
            self.queue.schedule(now, Ev::ProcReady(p));
        }
    }

    /// Strategy 2's pre-execution: computation is sliced out (Chen et al.'s
    /// approach, which the paper adopts for Strategy 2 in §II), so the
    /// predicted requests are issued immediately, one request per region,
    /// from this process's own context — exactly the trickle that the disk
    /// scheduler struggles to reorder.
    fn s2_launch_prefetch(&mut self, now: SimTime, p: usize) {
        let start = self.procs[p].ghost_pos.max(self.procs[p].pos);
        let run = ghost_walk(&self.procs[p].script, start, self.cfg.dualpar.cache_quota);
        self.procs[p].ghost_pos = run.end_pos;
        // Every recorded region becomes "in flight" immediately (readers
        // can wait on it), but actual issuance is flow-controlled by the
        // per-process async window — only `S2_WINDOW` prefetches are ever
        // outstanding, so the disk scheduler sees the shallow queue of §II.
        for (file, region) in run.prefetch {
            let key = region_key(file, region);
            if self.s2_inflight.contains_key(&key) || self.cache.contains(file, region) {
                continue;
            }
            self.s2_inflight.insert(key, Vec::new());
            self.procs[p].s2_queue.push_back((file, region));
        }
        self.s2_pump(now, p);
    }

    /// Issue queued Strategy-2 prefetches up to the async window, each
    /// paying the library/posting overhead — the §II "time gaps between
    /// consecutive requests issued during the pre-execution".
    fn s2_pump(&mut self, now: SimTime, p: usize) {
        let node = self.procs[p].node;
        let mut at = now;
        while self.procs[p].s2_outstanding < S2_WINDOW {
            let Some((file, region)) = self.procs[p].s2_queue.pop_front() else {
                break;
            };
            let gap = S2_ISSUE_GAP.nanos();
            at += dualpar_sim::SimDuration(self.rng.uniform_u64(gap / 2, gap + gap / 2 + 1));
            self.procs[p].s2_outstanding += 1;
            let group = self.new_group(Purpose::S2Prefetch {
                proc: p,
                file,
                region,
            });
            self.issue_covers(at, Ack::Group(group), node, IoKind::Read, &[(file, region)]);
            self.finish_if_empty(at, group);
        }
    }

    pub(crate) fn s2_prefetch_done(
        &mut self,
        now: SimTime,
        p: usize,
        file: FileId,
        region: FileRegion,
    ) {
        let owner = self.procs[p].owner;
        self.cache.put_prefetch(owner, file, region, now);
        self.procs[p].s2_outstanding = self.procs[p].s2_outstanding.saturating_sub(1);
        self.s2_pump(now, p);
        let key = region_key(file, region);
        let waiters = self.s2_inflight.remove(&key).unwrap_or_default();
        for w in waiters {
            self.procs[w].s2_waiting.remove(&key);
            if self.procs[w].s2_waiting.is_empty() && !self.procs[w].direct_pending {
                if let PState::S2Wait { op } = self.procs[w].state {
                    self.complete_fetched(now, w, op);
                }
            }
        }
    }
}
