//! One PVFS2 data server: its disk, response link, write-back buffer and
//! the sub-requests sent to it. Its events ride the cluster's
//! one event list in the server's own lane (see `crate::events`); the
//! handlers here are the only code that touches this state, apart from the
//! EMC tick's seek-window sample and the end-of-run report.

use crate::config::{ClusterConfig, ServerWriteMode};
use crate::engine::Ev;
use crate::events::EventList;
use dualpar_disk::{Disk, DiskRequest, IoKind, Lbn, StartOutcome};
use dualpar_sim::{Link, SimDuration, SimTime, Slab, SlabKey};
use dualpar_telemetry::{SpanId, Telemetry};

/// One disk-bound sub-request (a resolved LBN run on one server). The
/// client mints `id`s from a monotonic counter, which key its spans, and
/// hands the record to its server at send ([`Server::admit`]): it holds
/// everything the server needs to complete the request autonomously — the
/// completion group to acknowledge, the response size, and the open
/// client-side spans (`life`/`stage`) whose lifecycle the server continues.
/// The record stays in `Server::pending` until its completion is acked,
/// and its slab key rides the disk request as the caller tag, so a
/// completion finds it by index. A write-back write is acknowledged at
/// receipt and leaves the slab there: it carries [`UNTRACKED`], so a
/// flush-daemon replay of it is a clean miss.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubReq {
    pub id: u64,
    pub lbn: Lbn,
    pub sectors: u64,
    pub kind: IoKind,
    /// Completion group the ack resolves against (client-side slab key).
    pub group: SlabKey,
    /// Response payload size (data for reads, zero for writes).
    pub resp_bytes: u64,
    /// The sub-request's `req.life` span (INVALID when spans are off).
    pub life: SpanId,
    /// The open lifecycle stage: `req.issue` until receipt, then
    /// `server.queue` and `disk.service`.
    pub stage: SpanId,
}

/// The disk tag of a buffered write-back write: slot `u32::MAX` of a slab,
/// which no slab grows to, so it resolves to nothing.
const UNTRACKED: u64 = u64::MAX;

/// Events in a data server's lane; each names its server.
#[derive(Debug, Clone)]
pub(crate) enum SEv {
    /// A request message arrived; `key` names its record in the server's
    /// `pending` slab.
    Recv { server: u32, key: SlabKey },
    /// Poke the disk (idle-anticipation timer expired).
    DiskKick(u32),
    /// The disk finished its in-flight request.
    DiskDone(u32),
    /// The write-back daemon flushes the dirty buffer.
    Flush(u32),
}

impl SEv {
    /// The data server whose lane the event is in.
    pub(crate) fn server(&self) -> u32 {
        match *self {
            SEv::Recv { server, .. }
            | SEv::DiskKick(server)
            | SEv::DiskDone(server)
            | SEv::Flush(server) => server,
        }
    }
}

/// One data server's simulation state.
pub(crate) struct Server {
    pub id: u32,
    pub disk: Disk,
    /// The server's response NIC (serializes acks back to the clients).
    link: Link,
    /// Buffered (acknowledged, unflushed) writes in WriteBack mode.
    dirty: Vec<DiskRequest>,
    flush_scheduled: bool,
    pending: Slab<SubReq>,
    write_mode: ServerWriteMode,
    msg_header: u64,
    flush_interval: SimDuration,
}

impl Server {
    pub(crate) fn new(id: u32, cfg: &ClusterConfig) -> Self {
        Server {
            id,
            disk: Disk::new(cfg.disk.clone(), cfg.scheduler, cfg.trace_disks),
            link: Link::new(cfg.net_latency, cfg.net_bandwidth),
            dirty: Vec::new(),
            flush_scheduled: false,
            pending: Slab::new(),
            write_mode: cfg.server_write_mode,
            msg_header: cfg.msg_header,
            flush_interval: cfg.server_flush_interval,
        }
    }

    /// Hold a sub-request sent to this server; the returned key names it
    /// in the `SEv::Recv` that delivers it.
    pub(crate) fn admit(&mut self, sub: SubReq) -> SlabKey {
        self.pending.insert(sub)
    }

    /// Static counter name for an event kind (dispatch accounting).
    pub(crate) fn ev_counter(ev: &SEv) -> &'static str {
        match ev {
            SEv::Recv { .. } => "engine.ev.server_recv",
            SEv::DiskKick(_) => "engine.ev.disk_kick",
            SEv::DiskDone(_) => "engine.ev.disk_done",
            SEv::Flush(_) => "engine.ev.server_flush",
        }
    }

    pub(crate) fn handle(
        &mut self,
        now: SimTime,
        ev: SEv,
        queue: &mut EventList,
        tele: &mut Telemetry,
    ) {
        match ev {
            SEv::Recv { key, .. } => self.on_recv(now, key, queue, tele),
            SEv::DiskKick(_) => {
                if !self.disk.is_busy() {
                    self.kick_disk(now, queue, tele);
                }
            }
            SEv::DiskDone(_) => self.on_disk_done(now, queue, tele),
            SEv::Flush(_) => self.on_flush(now, queue, tele),
        }
    }

    fn on_recv(&mut self, now: SimTime, key: SlabKey, queue: &mut EventList, tele: &mut Telemetry) {
        let sub = self.pending.get(key).expect("admitted at send");
        let req = DiskRequest::new(sub.id, sub.kind, sub.lbn, sub.sectors, now);
        if req.kind == IoKind::Write && self.write_mode == ServerWriteMode::WriteBack {
            let sub = self.pending.remove(key).expect("checked");
            let req = req.with_tag(UNTRACKED);
            // Acknowledge immediately; the flush daemon owns the disk
            // write from here.
            let deliver = self
                .link
                .send(now, self.msg_header.saturating_add(sub.resp_bytes));
            queue.schedule(deliver, Ev::SubDone { group: sub.group });
            if tele.spans_enabled() {
                // Buffered ack: the queue/disk stages are owned by the
                // flush daemon, so the lifecycle skips straight from issue
                // to ack.
                let stamp = now.as_secs_f64();
                tele.span_close(stamp, sub.stage, stamp);
                let ack = tele.span_open(stamp, stamp, "req.ack", sub.life, sub.id);
                tele.span_close(stamp, ack, deliver.as_secs_f64());
                tele.span_close(stamp, sub.life, deliver.as_secs_f64());
            }
            self.dirty.push(req);
            if !self.flush_scheduled {
                self.flush_scheduled = true;
                let at = now.saturating_add(self.flush_interval);
                queue.schedule(at, SEv::Flush(self.id));
            }
        } else {
            if tele.spans_enabled() {
                let sub = self.pending.get_mut(key).expect("checked");
                let stamp = now.as_secs_f64();
                tele.span_close(stamp, sub.stage, stamp);
                sub.stage = tele.span_open(stamp, stamp, "server.queue", sub.life, sub.id);
            }
            self.disk.enqueue(req.with_tag(key.raw()));
            if tele.enabled() {
                tele.gauge_max("disk.queue_depth_max", self.disk.queued() as f64);
            }
            if !self.disk.is_busy() {
                self.kick_disk(now, queue, tele);
            }
        }
    }

    fn on_flush(&mut self, now: SimTime, queue: &mut EventList, tele: &mut Telemetry) {
        self.flush_scheduled = false;
        let mut dirty = std::mem::take(&mut self.dirty);
        if dirty.is_empty() {
            return;
        }
        // The flush daemon issues in LBN order — pdflush behaviour.
        dirty.sort_by_key(|r| r.lbn);
        for r in dirty {
            self.disk.enqueue(r);
        }
        if !self.disk.is_busy() {
            self.kick_disk(now, queue, tele);
        }
        // The next timer is armed by the next write arrival.
    }

    fn on_disk_done(&mut self, now: SimTime, queue: &mut EventList, tele: &mut Telemetry) {
        let req = self.disk.complete();
        if tele.tracing() {
            let (sid, rid) = (self.id as u64, req.id);
            tele.event(now.as_secs_f64(), "disk", "done", |e| {
                e.u64("server", sid).u64("id", rid)
            });
        }
        for &tag in req.merged_ids() {
            // A write-back flush replays writes already acknowledged at
            // receipt; their tag is `UNTRACKED`, so the lookup is a clean
            // miss.
            if let Some(p) = self.pending.remove(SlabKey::from_raw(tag)) {
                let deliver = self
                    .link
                    .send(now, self.msg_header.saturating_add(p.resp_bytes));
                queue.schedule(deliver, Ev::SubDone { group: p.group });
                if tele.spans_enabled() {
                    let stamp = now.as_secs_f64();
                    tele.span_close(stamp, p.stage, stamp);
                    let ack = tele.span_open(stamp, stamp, "req.ack", p.life, p.id);
                    tele.span_close(stamp, ack, deliver.as_secs_f64());
                    tele.span_close(stamp, p.life, deliver.as_secs_f64());
                }
            }
        }
        self.kick_disk(now, queue, tele);
    }

    fn kick_disk(&mut self, now: SimTime, queue: &mut EventList, tele: &mut Telemetry) {
        match self.disk.try_start(now) {
            StartOutcome::Started { finish } => {
                if tele.spans_enabled() {
                    // Queue merging is final once dispatch starts, so every
                    // absorbed sub-request enters service here. Flush-daemon
                    // replays carry `UNTRACKED` and miss the pending slab.
                    if let Some(req) = self.disk.in_flight() {
                        let stamp = now.as_secs_f64();
                        for &tag in req.merged_ids() {
                            if let Some(p) = self.pending.get_mut(SlabKey::from_raw(tag)) {
                                let (id, life, stage) = (p.id, p.life, p.stage);
                                tele.span_close(stamp, stage, stamp);
                                p.stage = tele.span_open(stamp, stamp, "disk.service", life, id);
                            }
                        }
                    }
                }
                if tele.tracing() {
                    if let Some(req) = self.disk.in_flight() {
                        let (id, lbn, sectors) = (req.id, req.lbn, req.sectors);
                        let op = match req.kind {
                            IoKind::Read => "read",
                            IoKind::Write => "write",
                        };
                        let sid = self.id as u64;
                        tele.event(now.as_secs_f64(), "disk", "start", |e| {
                            e.u64("server", sid)
                                .u64("id", id)
                                .u64("lbn", lbn)
                                .u64("sectors", sectors)
                                .str("op", op)
                        });
                    }
                }
                queue.schedule(finish, SEv::DiskDone(self.id));
            }
            StartOutcome::Idle { until } => {
                queue.schedule(until, SEv::DiskKick(self.id));
            }
            StartOutcome::Quiescent => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Event;

    /// A read of 8 sectors at `lbn`, acknowledged to group `id`.
    fn read(id: u64, lbn: Lbn) -> SubReq {
        SubReq {
            id,
            lbn,
            sectors: 8,
            kind: IoKind::Read,
            group: SlabKey::from_raw(id),
            resp_bytes: 4096,
            life: SpanId::INVALID,
            stage: SpanId::INVALID,
        }
    }

    #[test]
    fn a_read_that_absorbs_queued_reads_acks_them_all_in_merge_order() {
        let cfg = ClusterConfig {
            num_data_servers: 1,
            ..ClusterConfig::default()
        };
        let mut server = Server::new(0, &cfg);
        let mut queue = EventList::default();
        let mut tele = Telemetry::disabled();
        // Read 0 occupies the disk and leaves its head at 108. Reads 1-3
        // queue behind it; each arrives before the read it continues, so
        // none merges at enqueue. At dispatch, read 1 (next from the head)
        // absorbs read 2 (which continues it) and read 3 (which it
        // continues).
        for sub in [read(0, 100), read(2, 116), read(1, 108), read(3, 100)] {
            let key = server.admit(sub);
            let recv = SEv::Recv { server: 0, key };
            server.handle(SimTime::ZERO, recv, &mut queue, &mut tele);
        }
        let mut acks = Vec::new();
        while let Some((now, ev)) = queue.pop() {
            match ev {
                Event::Server(sev) => server.handle(now, sev, &mut queue, &mut tele),
                Event::Client(Ev::SubDone { group }) => acks.push(group.raw()),
                Event::Client(other) => panic!("unexpected client event {other:?}"),
            }
        }
        assert_eq!(acks, vec![0, 3, 1, 2]);
        assert!(server.pending.is_empty());
        let serviced = server.disk.trace().serviced();
        assert_eq!(serviced, 2, "one dispatch served reads 1-3");
    }
}
