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

use std::collections::BTreeMap;

/// Handle to a span in a [`SpanLog`]: its index in the record vector.
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

    /// Whether this id refers to a real record.
    #[inline]
    pub fn is_valid(self) -> bool {
        self != SpanId::INVALID
    }
}

/// Interned span-name handle, resolved by [`SpanLog::name`].
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
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
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
        let id = SpanId(self.records.len() as u64);
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
    /// trips a debug assertion).
    pub fn close(&mut self, id: SpanId, at: f64) {
        if !id.is_valid() {
            return;
        }
        let Some(rec) = self.records.get_mut(id.0 as usize) else {
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

    /// The record behind `id`, if valid.
    pub fn get(&self, id: SpanId) -> Option<&SpanRecord> {
        if !id.is_valid() {
            return None;
        }
        self.records.get(id.0 as usize)
    }

    /// Number of spans opened but not yet closed.
    pub fn open_count(&self) -> u64 {
        self.open_count
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
}
