//! The data-server shard: everything one PVFS2 data server owns — its
//! event queue, disk, response link, write-back buffer, and telemetry.
//! `Cluster::run` steps every shard through the same conservative windows
//! on the calling thread.
//!
//! The partition rule is the paper's own architecture: client processes
//! talk to data servers only through the network, and every crossing pays
//! at least `net_latency` of one-way delay. That latency is the lookahead:
//! a server executing events with `t < horizon ≤ global_next + net_latency`
//! can never miss a message from another shard, because anything sent
//! during the window delivers at or after the horizon. Cross-shard sends
//! therefore never touch a foreign queue directly — requests accumulate in
//! the client's request outbox, acks in each server's `outbox`, and
//! `Cluster::exchange` applies both at the window barrier.

use crate::config::{ClusterConfig, CtxMode, ServerWriteMode};
use dualpar_disk::{Disk, DiskRequest, IoCtx, IoKind, Lbn, StartOutcome};
use dualpar_sim::{EventQueue, FxHashMap, Link, SimDuration, SimTime, SlabKey};
use dualpar_telemetry::{SpanId, Telemetry};

/// One disk-bound sub-request (a resolved LBN run on one server), carried
/// over the wire from the client shard. The client mints `id`s from a
/// monotonic counter and attaches everything the server needs to complete
/// the request autonomously: the completion group to acknowledge, the
/// response size, and the open client-side spans (`life`/`stage`) whose
/// lifecycle the server continues with shard-tagged ids.
#[derive(Debug, Clone)]
pub(crate) struct SubReq {
    pub id: u64,
    pub lbn: Lbn,
    pub sectors: u64,
    pub kind: IoKind,
    pub ctx: IoCtx,
    /// Completion group the ack resolves against (client-side slab key).
    pub group: SlabKey,
    /// Response payload size (data for reads, zero for writes).
    pub resp_bytes: u64,
    /// The sub-request's `req.life` span (INVALID when spans are off).
    pub life: SpanId,
    /// The open `req.issue` stage span the server closes on receipt.
    pub stage: SpanId,
}

/// Server-side record of a sub-request that is in the disk path (queued or
/// in service). Write-back writes are acknowledged at receipt and never
/// enter this map, so a flush-daemon replay of their ids is a clean miss —
/// the same stale-id behaviour the old global slab's generation check gave.
#[derive(Debug, Clone, Copy)]
struct PendingSub {
    group: SlabKey,
    resp_bytes: u64,
    life: SpanId,
    /// The currently-open lifecycle stage (`server.queue` → `disk.service`).
    stage: SpanId,
}

/// Events local to one data-server shard.
#[derive(Debug, Clone)]
pub(crate) enum SEv {
    /// A request message arrived at this server (scheduled by the exchange).
    Recv(SubReq),
    /// Poke the disk (idle-anticipation timer expired).
    DiskKick,
    /// The disk finished its in-flight request.
    DiskDone,
    /// The write-back daemon flushes the dirty buffer.
    Flush,
}

/// One data server's complete simulation state.
pub(crate) struct ServerShard {
    pub id: u32,
    pub queue: EventQueue<SEv>,
    pub disk: Disk,
    /// The server's response NIC (serializes acks back to the clients).
    pub link: Link,
    /// Buffered (acknowledged, unflushed) writes in WriteBack mode.
    dirty: Vec<DiskRequest>,
    flush_scheduled: bool,
    pending: FxHashMap<u64, PendingSub>,
    /// Outbound acks of the current window as `(deliver, group)`, drained
    /// by the exchange. Time-monotone: the link serializes sends and event
    /// times within a window are non-decreasing.
    pub outbox: Vec<(SimTime, SlabKey)>,
    /// Shard-local telemetry (tag `id + 1`), stitched into the client's
    /// stream by `Telemetry::absorb_shards` after the run.
    pub tele: Telemetry,
    pub last_event_time: SimTime,
    write_mode: ServerWriteMode,
    msg_header: u64,
    flush_interval: SimDuration,
    /// The flush daemon's effective disk context, fixed by `ctx_mode`.
    flush_ctx: IoCtx,
}

impl ServerShard {
    pub fn new(id: u32, cfg: &ClusterConfig) -> Self {
        // The daemon is one kernel context; what the disk scheduler sees
        // depends on the context mode (mirrors `Cluster::effective_ctx`
        // for program 0 and the daemon's fine identity).
        let flush_ctx = match cfg.ctx_mode {
            CtxMode::PerServer => IoCtx(0),
            CtxMode::PerClient => IoCtx(0xFFFF_FFFF),
            CtxMode::PerProgram => IoCtx(1),
        };
        ServerShard {
            id,
            queue: EventQueue::new(),
            disk: Disk::new(cfg.disk.clone(), cfg.scheduler, cfg.trace_disks),
            link: Link::new(cfg.net_latency, cfg.net_bandwidth),
            dirty: Vec::new(),
            flush_scheduled: false,
            pending: FxHashMap::default(),
            outbox: Vec::new(),
            tele: Telemetry::for_shard(&cfg.telemetry, id as u16 + 1),
            last_event_time: SimTime::ZERO,
            write_mode: cfg.server_write_mode,
            msg_header: cfg.msg_header,
            flush_interval: cfg.server_flush_interval,
            flush_ctx,
        }
    }

    /// Static counter name for an event kind (dispatch accounting; the
    /// names match the old monolithic engine so merged totals line up).
    fn ev_counter(ev: &SEv) -> &'static str {
        match ev {
            SEv::Recv(_) => "engine.ev.server_recv",
            SEv::DiskKick => "engine.ev.disk_kick",
            SEv::DiskDone => "engine.ev.disk_done",
            SEv::Flush => "engine.ev.server_flush",
        }
    }

    fn handle(&mut self, now: SimTime, ev: SEv) {
        match ev {
            SEv::Recv(sub) => self.on_recv(now, sub),
            SEv::DiskKick => {
                if !self.disk.is_busy() {
                    self.kick_disk(now);
                }
            }
            SEv::DiskDone => self.on_disk_done(now),
            SEv::Flush => self.on_flush(now),
        }
    }

    fn on_recv(&mut self, now: SimTime, sub: SubReq) {
        let req = DiskRequest::new(sub.id, sub.ctx, sub.kind, sub.lbn, sub.sectors, now);
        let buffer_write = sub.kind == IoKind::Write && self.write_mode == ServerWriteMode::WriteBack;
        if buffer_write {
            // Acknowledge immediately; the flush daemon owns the disk
            // write from here.
            let deliver = self
                .link
                .send(now, self.msg_header.saturating_add(sub.resp_bytes));
            self.outbox.push((deliver, sub.group));
            if self.tele.spans_enabled() {
                // Buffered ack: the queue/disk stages are owned by the
                // flush daemon, so the lifecycle skips straight from issue
                // to ack. `stage`/`life` are client-tagged — their closes
                // are deferred to the merge.
                let stamp = now.as_secs_f64();
                self.tele.span_close(stamp, sub.stage, stamp);
                let ack = self.tele.span_open(stamp, stamp, "req.ack", sub.life, sub.id);
                self.tele.span_close(stamp, ack, deliver.as_secs_f64());
                self.tele.span_close(stamp, sub.life, deliver.as_secs_f64());
            }
            self.dirty.push(req);
            if !self.flush_scheduled {
                self.flush_scheduled = true;
                self.queue
                    .schedule(now.saturating_add(self.flush_interval), SEv::Flush);
            }
        } else {
            let mut stage = SpanId::INVALID;
            if self.tele.spans_enabled() {
                let stamp = now.as_secs_f64();
                self.tele.span_close(stamp, sub.stage, stamp);
                stage = self
                    .tele
                    .span_open(stamp, stamp, "server.queue", sub.life, sub.id);
            }
            self.pending.insert(
                sub.id,
                PendingSub {
                    group: sub.group,
                    resp_bytes: sub.resp_bytes,
                    life: sub.life,
                    stage,
                },
            );
            self.disk.enqueue(req);
            self.tele
                .gauge_max("disk.queue_depth_max", self.disk.queued() as f64);
            if !self.disk.is_busy() {
                self.kick_disk(now);
            }
        }
    }

    fn on_flush(&mut self, now: SimTime) {
        self.flush_scheduled = false;
        let mut dirty = std::mem::take(&mut self.dirty);
        if dirty.is_empty() {
            return;
        }
        // The flush daemon is one kernel context issuing in LBN order —
        // pdflush behaviour.
        dirty.sort_by_key(|r| r.lbn);
        for mut r in dirty {
            r.ctx = self.flush_ctx;
            self.disk.enqueue(r);
        }
        if !self.disk.is_busy() {
            self.kick_disk(now);
        }
        // The next timer is armed by the next write arrival.
    }

    fn on_disk_done(&mut self, now: SimTime) {
        let req = self.disk.complete();
        let (sid, rid) = (self.id as u64, req.id);
        self.tele.event(now.as_secs_f64(), "disk", "done", |e| {
            e.u64("server", sid).u64("id", rid)
        });
        for &id in req.merged_ids() {
            // A write-back flush can replay ids already acknowledged at
            // receipt; those were never inserted into `pending`, so the
            // lookup is a clean miss.
            if let Some(p) = self.pending.remove(&id) {
                let deliver = self
                    .link
                    .send(now, self.msg_header.saturating_add(p.resp_bytes));
                self.outbox.push((deliver, p.group));
                if self.tele.spans_enabled() {
                    let stamp = now.as_secs_f64();
                    self.tele.span_close(stamp, p.stage, stamp);
                    let ack = self.tele.span_open(stamp, stamp, "req.ack", p.life, id);
                    self.tele.span_close(stamp, ack, deliver.as_secs_f64());
                    self.tele.span_close(stamp, p.life, deliver.as_secs_f64());
                }
            }
        }
        self.kick_disk(now);
    }

    fn kick_disk(&mut self, now: SimTime) {
        match self.disk.try_start(now) {
            StartOutcome::Started { finish } => {
                if self.tele.spans_enabled() {
                    // Queue merging is final once dispatch starts, so every
                    // absorbed sub-request enters service here. Flush-daemon
                    // replays carry ids retired at ack time and miss the
                    // pending map.
                    if let Some(req) = self.disk.in_flight() {
                        let stamp = now.as_secs_f64();
                        for &id in req.merged_ids() {
                            if let Some(p) = self.pending.get_mut(&id) {
                                let (life, stage) = (p.life, p.stage);
                                self.tele.span_close(stamp, stage, stamp);
                                p.stage = self.tele.span_open(stamp, stamp, "disk.service", life, id);
                            }
                        }
                    }
                }
                if self.tele.tracing() {
                    if let Some(req) = self.disk.in_flight() {
                        let (id, lbn, sectors) = (req.id, req.lbn, req.sectors);
                        let op = match req.kind {
                            IoKind::Read => "read",
                            IoKind::Write => "write",
                        };
                        let sid = self.id as u64;
                        self.tele.event(now.as_secs_f64(), "disk", "start", |e| {
                            e.u64("server", sid)
                                .u64("id", id)
                                .u64("lbn", lbn)
                                .u64("sectors", sectors)
                                .str("op", op)
                        });
                    }
                }
                self.queue.schedule(finish, SEv::DiskDone);
            }
            StartOutcome::Idle { until } => {
                self.queue.schedule(until, SEv::DiskKick);
            }
            StartOutcome::Quiescent => {}
        }
    }

    /// Run every pending event strictly before `horizon`; return how many
    /// events were executed.
    pub fn run_window(&mut self, horizon: SimTime) -> u64 {
        let mut n = 0u64;
        while self.queue.peek_time().is_some_and(|t| t < horizon) {
            let (now, ev) = self.queue.pop().expect("peeked event present");
            dualpar_sim::strict_assert!(
                now >= self.last_event_time,
                "server event time went backwards: {:?} < {:?}",
                now,
                self.last_event_time
            );
            self.last_event_time = now;
            self.tele.count(Self::ev_counter(&ev), 1);
            self.tele
                .gauge_max("engine.queue_depth_max", self.queue.len() as f64);
            self.handle(now, ev);
            n += 1;
        }
        n
    }
}
