//! Span records: named intervals of simulated time with parent links.
//!
//! A span is the interval between an `open` and a `close`, both stamped in
//! *simulated* seconds, with an interned name, an optional parent span, and
//! a caller-chosen `key` (the cluster uses the slab sub-request id for
//! request-lifecycle spans and an encoded process id for state spans).
//! Together the records form a forest; the profiler in [`crate::profile`]
//! derives time-in-state tables, stage latencies, and the critical path
//! from it.
//!
//! Storage is append-only `Vec`s plus a `BTreeMap` interner, so the log is
//! deterministic: the same simulation produces an identical record
//! sequence, byte-for-byte, regardless of host threading.
//!
//! ## Sharded logs
//!
//! The sharded cluster engine gives every shard its own log, created with
//! [`SpanLog::for_shard`]. Span ids then carry the shard tag in their high
//! bits, so an id minted on one shard can cross the wire (e.g. a client
//! `req.life` span carried inside a sub-request) and be *closed* on another:
//! [`SpanLog::close`] routes an id with a foreign tag into a side list
//! instead of indexing its own records. [`SpanLog::merge`] stitches the
//! per-shard logs back into one untagged log in shard order, remapping
//! every id and parent link to plain indices and applying the foreign
//! closes, so the result is a pure function of the simulation.

use std::collections::BTreeMap;

/// High bits of a [`SpanId`] holding the owning shard's tag; the low
/// [`SpanId::TAG_SHIFT`] bits index into that shard's record vector.
const TAG_MASK: u64 = !((1u64 << SpanId::TAG_SHIFT) - 1);
const INDEX_MASK: u64 = (1u64 << SpanId::TAG_SHIFT) - 1;

/// Handle to a span in a [`SpanLog`]. Index into the record vector, with
/// the owning shard's tag in the high bits (tag 0 for unsharded logs, so
/// plain logs keep ids == indices).
///
/// [`SpanId::INVALID`] is returned by the disabled facade; closing it is a
/// no-op, and passing it as a parent records "no parent". This keeps
/// instrumented call sites branch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Sentinel for "no span": parent-of-root, or the result of opening a
    /// span while spans are disabled.
    pub const INVALID: SpanId = SpanId(u64::MAX);

    /// Bit position where the shard tag starts. 48 index bits leave room
    /// for ~2.8e14 records per shard — unreachable under the event budget.
    pub const TAG_SHIFT: u32 = 48;

    /// Whether this id refers to a real record.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != SpanId::INVALID
    }

    /// The shard tag carried in the high bits (0 for unsharded logs).
    #[inline]
    pub fn tag(self) -> u16 {
        (self.0 >> Self::TAG_SHIFT) as u16
    }

    /// The record index within the owning shard's log.
    #[inline]
    fn index(self) -> usize {
        (self.0 & INDEX_MASK) as usize
    }
}

/// Interned span-name handle; index into [`SpanLog::names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NameId(pub u32);

/// One open (and possibly closed) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Parent span, or [`SpanId::INVALID`] for a root.
    pub parent: SpanId,
    /// Interned name (resolve with [`SpanLog::name`]).
    pub name: NameId,
    /// Caller-chosen correlation key (sub-request id, encoded proc id, ...).
    pub key: u64,
    /// Simulated second the span opened.
    pub open: f64,
    /// Simulated second the span closed; `None` while still open.
    pub close: Option<f64>,
}

impl SpanRecord {
    /// Duration in simulated seconds; 0 while open or for negative clocks.
    #[inline]
    pub fn duration(&self) -> f64 {
        match self.close {
            Some(c) => (c - self.open).max(0.0),
            None => 0.0,
        }
    }
}

/// Append-only log of spans with an interned name table.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    names: Vec<&'static str>,
    name_ids: BTreeMap<&'static str, NameId>,
    records: Vec<SpanRecord>,
    open_count: u64,
    /// This log's shard tag, pre-shifted into id position (0 = unsharded).
    tag: u64,
    /// Closes of spans owned by *other* shards, applied at [`SpanLog::merge`].
    foreign_closes: Vec<(SpanId, f64)>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// An empty log whose ids carry `tag` in their high bits, for one shard
    /// of a partitioned simulation. Tag 0 is the client/unsharded log.
    pub fn for_shard(tag: u16) -> Self {
        SpanLog {
            tag: (tag as u64) << SpanId::TAG_SHIFT,
            ..SpanLog::default()
        }
    }

    /// This log's shard tag.
    pub fn shard_tag(&self) -> u16 {
        (self.tag >> SpanId::TAG_SHIFT) as u16
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &'static str) -> NameId {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name);
        self.name_ids.insert(name, id);
        id
    }

    /// Resolve an interned name.
    pub fn name(&self, id: NameId) -> &'static str {
        self.names.get(id.0 as usize).copied().unwrap_or("?")
    }

    /// Open a span named `name` at simulated second `at` under `parent`
    /// (pass [`SpanId::INVALID`] for a root).
    pub fn open(&mut self, name: &'static str, parent: SpanId, key: u64, at: f64) -> SpanId {
        let name = self.intern(name);
        let id = SpanId(self.tag | self.records.len() as u64);
        self.records.push(SpanRecord {
            parent,
            name,
            key,
            open: at,
            close: None,
        });
        self.open_count += 1;
        id
    }

    /// Close span `id` at simulated second `at`. Closing [`SpanId::INVALID`]
    /// or an already-closed span is a no-op (the latter is a caller bug and
    /// trips a debug assertion). An id minted by another shard's log is
    /// queued as a foreign close and applied when the logs are merged.
    pub fn close(&mut self, id: SpanId, at: f64) {
        if !id.is_valid() {
            return;
        }
        if (id.0 & TAG_MASK) != self.tag {
            self.foreign_closes.push((id, at));
            return;
        }
        let Some(rec) = self.records.get_mut(id.index()) else {
            debug_assert!(false, "close of forged span id {}", id.0);
            return;
        };
        if rec.close.is_some() {
            debug_assert!(false, "double close of span id {}", id.0);
            return;
        }
        rec.close = Some(at);
        self.open_count -= 1;
    }

    /// All records, in open order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// The record behind `id`, if valid and owned by this log.
    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        if !id.is_valid() || (id.0 & TAG_MASK) != self.tag {
            return None;
        }
        self.records.get(id.index())
    }

    /// Number of spans opened but not yet closed *by this log*. Spans
    /// awaiting a foreign close from another shard still count as open
    /// here; [`SpanLog::merge`] settles the books.
    pub fn open_count(&self) -> u64 {
        self.open_count
    }

    /// Stitch per-shard logs into one untagged log.
    ///
    /// Records are concatenated in the order given (shard order — the
    /// caller passes client first, then data servers by index, so the
    /// layout is a pure function of the simulation, never of the thread
    /// count). Every id and parent link is remapped from `(tag, index)` to
    /// a plain index in the combined vector, then each queued foreign close
    /// is applied to its remapped target. Names are re-interned in first-
    /// appearance order and `open_count` is recomputed from the merged
    /// records.
    pub fn merge(logs: Vec<SpanLog>) -> SpanLog {
        // Offset of each source log's records in the merged vector, keyed
        // by its shard tag.
        let mut offsets: BTreeMap<u16, u64> = BTreeMap::new();
        let mut total = 0u64;
        for log in &logs {
            let prev = offsets.insert(log.shard_tag(), total);
            debug_assert!(prev.is_none(), "duplicate shard tag in span merge");
            total += log.records.len() as u64;
        }
        let remap = |id: SpanId, offsets: &BTreeMap<u16, u64>| -> SpanId {
            if !id.is_valid() {
                return id;
            }
            match offsets.get(&id.tag()) {
                Some(off) => SpanId(off + (id.0 & INDEX_MASK)),
                None => {
                    debug_assert!(false, "span id {} from unknown shard", id.0);
                    SpanId::INVALID
                }
            }
        };
        let mut merged = SpanLog::new();
        merged.records.reserve(total as usize);
        let mut foreign: Vec<(SpanId, f64)> = Vec::new();
        for log in logs {
            for rec in log.records {
                let name = merged.intern(log.names[rec.name.0 as usize]);
                merged.records.push(SpanRecord {
                    parent: remap(rec.parent, &offsets),
                    name,
                    ..rec
                });
            }
            foreign.extend(log.foreign_closes);
        }
        for (id, at) in foreign {
            let idx = remap(id, &offsets);
            let Some(rec) = idx.is_valid().then(|| &mut merged.records[idx.0 as usize])
            else {
                continue;
            };
            debug_assert!(rec.close.is_none(), "foreign double close of span {}", id.0);
            rec.close = Some(at);
        }
        merged.open_count = merged.records.iter().filter(|r| r.close.is_none()).count() as u64;
        merged
    }

    /// Total spans recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no spans.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_pairs_and_counts() {
        let mut log = SpanLog::new();
        let a = log.open("proc.compute", SpanId::INVALID, 7, 0.0);
        let b = log.open("req.life", a, 42, 1.0);
        assert_eq!(log.open_count(), 2);
        log.close(b, 2.0);
        log.close(a, 3.0);
        assert_eq!(log.open_count(), 0);
        let recs = log.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].close, Some(3.0));
        assert_eq!(recs[1].parent, a);
        assert_eq!(recs[1].key, 42);
        assert!((recs[1].duration() - 1.0).abs() < 1e-12);
        assert_eq!(log.name(recs[1].name), "req.life");
    }

    #[test]
    fn interner_is_stable() {
        let mut log = SpanLog::new();
        let a = log.intern("x");
        let b = log.intern("y");
        let a2 = log.intern("x");
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn invalid_close_is_noop() {
        let mut log = SpanLog::new();
        log.close(SpanId::INVALID, 1.0);
        assert_eq!(log.open_count(), 0);
        assert!(log.is_empty());
        assert!(log.get(SpanId::INVALID).is_none());
    }

    #[test]
    fn sharded_ids_carry_tags_and_foreign_closes_defer() {
        let mut client = SpanLog::for_shard(0);
        let mut server = SpanLog::for_shard(3);
        let life = client.open("req.life", SpanId::INVALID, 9, 0.5);
        assert_eq!(life.tag(), 0);
        let queue = server.open("server.queue", life, 9, 1.0);
        assert_eq!(queue.tag(), 3);
        // The server closes the client's span: queued, not indexed.
        server.close(life, 2.0);
        assert_eq!(client.open_count(), 1);
        assert!(client.records()[0].close.is_none());
        // Tagged ids never resolve against a foreign log.
        assert!(client.get(queue).is_none());
        assert_eq!(server.get(queue).map(|r| r.key), Some(9));
    }

    #[test]
    fn merge_remaps_parents_and_applies_foreign_closes() {
        let mut client = SpanLog::for_shard(0);
        let mut s1 = SpanLog::for_shard(1);
        let mut s2 = SpanLog::for_shard(2);
        let root = client.open("proc.compute", SpanId::INVALID, 1, 0.0);
        let life = client.open("req.life", root, 42, 1.0);
        let queue = s2.open("server.queue", life, 42, 2.0);
        s2.close(queue, 3.0);
        s2.close(life, 4.0);
        let other = s1.open("server.queue", SpanId::INVALID, 7, 2.5);
        s1.close(other, 2.75);
        client.close(root, 5.0);

        let merged = SpanLog::merge(vec![client, s1, s2]);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.open_count(), 0);
        // Layout: [root, life, s1.other, s2.queue]; parents are raw indices.
        let recs = merged.records();
        assert_eq!(recs[1].parent, SpanId(0));
        assert_eq!(recs[3].parent, SpanId(1));
        assert_eq!(merged.name(recs[3].name), "server.queue");
        // The foreign close landed on the client's record.
        assert_eq!(recs[1].close, Some(4.0));
        assert_eq!(recs[3].close, Some(3.0));
        // Merged ids are plain indices again (tag 0).
        assert_eq!(merged.get(SpanId(3)).map(|r| r.key), Some(42));
    }
}
