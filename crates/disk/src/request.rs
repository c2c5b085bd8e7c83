//! Block-level request representation shared by all schedulers.

use crate::model::Lbn;
use dualpar_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Read or write, at every layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// Data flows from the device.
    Read,
    /// Data flows to the device.
    Write,
}

/// How many merged caller tags fit without touching the heap. Queue
/// merging rarely coalesces more than a handful of requests (the sector
/// cap bites first), so the common case is allocation-free.
const MERGED_INLINE: usize = 4;

/// The caller tags of every request coalesced into one dispatch, in merge
/// order. A tag is opaque to the disk: [`DiskRequest::new`] tags a request
/// with its id, and [`DiskRequest::with_tag`] lets the issuing layer carry
/// its own handle instead (the data server's pending-slab key), so the
/// completion needs no id lookup. Semantically a `Vec<u64>`, but the first
/// `MERGED_INLINE` tags live inline in the request itself:
/// `DiskRequest::new` used to `vec![id]` — one heap allocation per request
/// on the busiest path in the simulator — whereas an inline `MergedIds`
/// costs nothing until a merge chain grows past the inline capacity.
#[derive(Debug, Clone)]
pub enum MergedIds {
    /// Up to `MERGED_INLINE` ids stored in place; `len` counts the
    /// occupied prefix of `buf`.
    Inline { len: u8, buf: [u64; MERGED_INLINE] },
    /// Overflow representation once a merge chain outgrows the buffer.
    Heap(Vec<u64>),
}

impl MergedIds {
    /// A one-element list (every request starts out owning only itself).
    #[inline]
    pub fn one(id: u64) -> Self {
        let mut buf = [0u64; MERGED_INLINE];
        buf[0] = id;
        MergedIds::Inline { len: 1, buf }
    }

    /// The ids as a slice, in merge order.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        match self {
            MergedIds::Inline { len, buf } => &buf[..*len as usize],
            MergedIds::Heap(v) => v,
        }
    }

    /// Append one id, spilling to the heap when the inline buffer fills.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the inline length stays below MERGED_INLINE"
    )]
    pub fn push(&mut self, id: u64) {
        match self {
            MergedIds::Inline { len, buf } => {
                let n = *len as usize;
                if n < MERGED_INLINE {
                    buf[n] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(MERGED_INLINE * 2);
                    v.extend_from_slice(buf);
                    v.push(id);
                    *self = MergedIds::Heap(v);
                }
            }
            MergedIds::Heap(v) => v.push(id),
        }
    }

    /// Append every id of `other`, preserving order.
    pub fn absorb(&mut self, other: MergedIds) {
        for &id in other.as_slice() {
            self.push(id);
        }
    }
}

// Equality is over the id sequence, not the representation: an inline
// list and a heap list holding the same ids are the same value.
impl PartialEq for MergedIds {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for MergedIds {}

impl PartialEq<Vec<u64>> for MergedIds {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a MergedIds {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A request queued at (or being serviced by) a disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskRequest {
    /// Unique id assigned by the issuing layer.
    pub id: u64,
    /// Read or write.
    pub kind: IoKind,
    /// First sector accessed.
    pub lbn: Lbn,
    /// Sectors accessed.
    pub sectors: u64,
    /// When the request reached the scheduler.
    pub arrival: SimTime,
    /// Caller tags of the requests coalesced into this one by queue
    /// merging, this request's own tag first. The server completes all of
    /// them at once.
    pub merged: MergedIds,
}

impl DiskRequest {
    /// Build an unmerged request, tagged with its `id`.
    pub fn new(id: u64, kind: IoKind, lbn: Lbn, sectors: u64, arrival: SimTime) -> Self {
        debug_assert!(sectors > 0, "zero-length disk request");
        DiskRequest {
            id,
            kind,
            lbn,
            sectors,
            arrival,
            merged: MergedIds::one(id),
        }
    }

    /// Replace an unmerged request's tag. `id` still orders the request in
    /// the scheduler and names it in traces; the tag is only handed back
    /// in [`DiskRequest::merged_ids`].
    #[inline]
    pub fn with_tag(mut self, tag: u64) -> Self {
        debug_assert_eq!(self.merged.as_slice().len(), 1, "tagging a merged request");
        self.merged = MergedIds::one(tag);
        self
    }

    /// Caller tags of every request this dispatch services — the request's
    /// own tag plus everything queue merging absorbed, in merge order.
    /// Final once the request starts at the media (merging only happens
    /// while queued or at dispatch), so span/trace layers can fan service
    /// intervals out over it at start time.
    #[inline]
    pub fn merged_ids(&self) -> &[u64] {
        self.merged.as_slice()
    }

    /// One-past-the-end sector. Saturates: an extent reaching past
    /// `u64::MAX` is a caller bug, but a clamped end only disables merges
    /// instead of wrapping into a bogus low LBN.
    #[inline]
    pub fn end(&self) -> Lbn {
        debug_assert!(
            self.lbn.checked_add(self.sectors).is_some(),
            "request extent overflows LBN space: lbn={} sectors={}",
            self.lbn,
            self.sectors
        );
        self.lbn.saturating_add(self.sectors)
    }

    /// Whether `next` extends this request contiguously at its tail with the
    /// same kind (the block layer's "back merge").
    pub fn can_back_merge(&self, next: &DiskRequest, max_sectors: u64) -> bool {
        self.kind == next.kind
            && self.end() == next.lbn
            && self
                .sectors
                .checked_add(next.sectors)
                .is_some_and(|total| total <= max_sectors)
    }

    /// Perform the back merge, absorbing `next`'s ids.
    pub fn back_merge(&mut self, next: DiskRequest) {
        debug_assert!(self.can_back_merge(&next, u64::MAX));
        self.sectors = self.sectors.saturating_add(next.sectors);
        self.merged.absorb(next.merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, lbn: Lbn, sectors: u64) -> DiskRequest {
        DiskRequest::new(id, IoKind::Read, lbn, sectors, SimTime::ZERO)
    }

    #[test]
    fn back_merge_requires_contiguity_and_kind() {
        let a = req(1, 100, 8);
        let b = req(2, 108, 8);
        let c = req(3, 120, 8);
        assert!(a.can_back_merge(&b, 1024));
        assert!(!a.can_back_merge(&c, 1024));
        let mut w = a.clone();
        w.kind = IoKind::Write;
        let mut b2 = b.clone();
        b2.kind = IoKind::Read;
        assert!(!w.can_back_merge(&b2, 1024));
    }

    #[test]
    fn back_merge_respects_size_cap() {
        let a = req(1, 0, 1000);
        let b = req(2, 1000, 100);
        assert!(!a.can_back_merge(&b, 1024));
        assert!(a.can_back_merge(&b, 1100));
    }

    #[test]
    fn back_merge_accumulates_ids() {
        let mut a = req(1, 0, 8);
        a.back_merge(req(2, 8, 8));
        a.back_merge(req(3, 16, 8));
        assert_eq!(a.sectors, 24);
        assert_eq!(a.merged, vec![1, 2, 3]);
        assert_eq!(a.end(), 24);
    }

    #[test]
    fn tags_travel_through_merges_in_place_of_ids() {
        let mut a = req(7, 0, 8).with_tag(70);
        a.back_merge(req(8, 8, 8).with_tag(80));
        a.back_merge(req(9, 16, 8));
        assert_eq!(a.id, 7, "the id is untouched");
        assert_eq!(a.merged_ids(), &[70, 80, 9]);
    }

    #[test]
    fn merged_ids_spill_past_inline_capacity() {
        let mut m = MergedIds::one(0);
        for id in 1..10u64 {
            m.push(id);
        }
        assert_eq!(m.as_slice(), (0..10).collect::<Vec<_>>().as_slice());
        assert!(matches!(m, MergedIds::Heap(_)));
        // Equality crosses representations.
        let mut short = MergedIds::one(0);
        short.push(1);
        assert_eq!(short, MergedIds::Heap(vec![0, 1]));
        // absorb preserves order across the boundary.
        let mut a = MergedIds::one(100);
        a.absorb(m);
        assert_eq!(
            a.as_slice().first().copied(),
            Some(100),
            "own id stays first"
        );
        assert_eq!(a.as_slice().len(), 11);
    }
}
