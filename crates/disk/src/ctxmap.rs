//! Dense-first per-context auxiliary map for disk schedulers.
//!
//! CFQ and the anticipatory scheduler both key small per-context state
//! (queues, anticipation verdicts) by [`IoCtx`]. An `FxHashMap` put a
//! hash probe on every enqueue/decide and — worse for determinism
//! auditing — iterated in hash-table order, which is stable for a fixed
//! seed but *arbitrary*: nothing in the source says which queue a
//! dispatch-merge scan visits first. This map exploits what context ids
//! actually look like: the engine allocates them densely from zero
//! (per-client and per-program modes count up; per-server mode uses a
//! single id 0), with the one exception of the flush daemon's sentinel
//! (`0xFFFF_FFFF`) surfacing under per-client keying.
//!
//! * ids below [`DENSE_LIMIT`] index straight into a `Vec` — the common
//!   case is an array load, no hashing;
//! * anything else appends to a tiny insertion-ordered spill vector and
//!   is found by linear scan (in practice at most one entry: the flush
//!   sentinel).
//!
//! Iteration visits dense slots in id order, then spill entries in
//! insertion order — deterministic *by construction*, independent of any
//! hasher. Values are never dropped once inserted (schedulers keep a
//! context's verdict across idle periods), matching the retired hash-map
//! behaviour.

use crate::request::IoCtx;

/// Ids below this index straight into the dense table (32 KiB of
/// `Option<T>` pointers at worst for the schedulers' payload sizes);
/// anything above spills. Clusters allocate a few dozen contexts.
const DENSE_LIMIT: usize = 4096;

/// See the module docs.
#[derive(Debug, Clone)]
pub struct CtxMap<T> {
    dense: Vec<Option<T>>,
    spill: Vec<(IoCtx, T)>,
}

impl<T> Default for CtxMap<T> {
    fn default() -> Self {
        CtxMap {
            dense: Vec::new(),
            spill: Vec::new(),
        }
    }
}

impl<T> CtxMap<T> {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn dense_index(ctx: IoCtx) -> Option<usize> {
        let i = ctx.0 as usize;
        (i < DENSE_LIMIT).then_some(i)
    }

    #[inline]
    pub fn get(&self, ctx: IoCtx) -> Option<&T> {
        match Self::dense_index(ctx) {
            Some(i) => self.dense.get(i)?.as_ref(),
            None => self.spill.iter().find(|(c, _)| *c == ctx).map(|(_, v)| v),
        }
    }

    #[inline]
    pub fn get_mut(&mut self, ctx: IoCtx) -> Option<&mut T> {
        match Self::dense_index(ctx) {
            Some(i) => self.dense.get_mut(i)?.as_mut(),
            None => self
                .spill
                .iter_mut()
                .find(|(c, _)| *c == ctx)
                .map(|(_, v)| v),
        }
    }

    /// Insert `value` at `ctx`, overwriting any previous value.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "dense indices are below DENSE_LIMIT"
    )]
    pub fn set(&mut self, ctx: IoCtx, value: T) {
        match Self::dense_index(ctx) {
            Some(i) => {
                if self.dense.len() <= i {
                    self.dense.resize_with(i + 1, || None);
                }
                self.dense[i] = Some(value);
            }
            None => match self.spill.iter_mut().find(|(c, _)| *c == ctx) {
                Some((_, v)) => *v = value,
                None => self.spill.push((ctx, value)),
            },
        }
    }

    /// The value at `ctx`, inserting `T::default()` first if absent.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "dense indices are below DENSE_LIMIT; the spill is non-empty after a push"
    )]
    pub fn get_or_insert_default(&mut self, ctx: IoCtx) -> &mut T
    where
        T: Default,
    {
        match Self::dense_index(ctx) {
            Some(i) => {
                if self.dense.len() <= i {
                    self.dense.resize_with(i + 1, || None);
                }
                self.dense[i].get_or_insert_with(T::default)
            }
            None => {
                if let Some(pos) = self.spill.iter().position(|(c, _)| *c == ctx) {
                    &mut self.spill[pos].1
                } else {
                    self.spill.push((ctx, T::default()));
                    let last = self.spill.len() - 1;
                    &mut self.spill[last].1
                }
            }
        }
    }

    /// Mutable iteration over every stored value: dense slots in id order,
    /// then spill entries in insertion order. Deterministic by
    /// construction — no hasher involved.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.dense
            .iter_mut()
            .filter_map(Option::as_mut)
            .chain(self.spill.iter_mut().map(|(_, v)| v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SENTINEL: IoCtx = IoCtx(u32::MAX);

    #[test]
    fn dense_and_spill_roundtrip() {
        let mut m: CtxMap<u64> = CtxMap::new();
        assert!(m.get(IoCtx(3)).is_none());
        m.set(IoCtx(3), 30);
        m.set(SENTINEL, 99);
        assert_eq!(m.get(IoCtx(3)), Some(&30));
        assert_eq!(m.get(SENTINEL), Some(&99));
        assert!(m.get(IoCtx(4)).is_none());
        *m.get_mut(SENTINEL).expect("present") = 100;
        assert_eq!(m.get(SENTINEL), Some(&100));
        m.set(SENTINEL, 7);
        assert_eq!(m.get(SENTINEL), Some(&7), "set overwrites in spill");
    }

    #[test]
    fn get_or_insert_default_creates_once() {
        let mut m: CtxMap<Vec<u32>> = CtxMap::new();
        m.get_or_insert_default(IoCtx(2)).push(1);
        m.get_or_insert_default(IoCtx(2)).push(2);
        m.get_or_insert_default(SENTINEL).push(9);
        assert_eq!(m.get(IoCtx(2)), Some(&vec![1, 2]));
        assert_eq!(m.get(SENTINEL), Some(&vec![9]));
    }

    #[test]
    fn values_mut_visits_dense_in_id_order_then_spill() {
        let mut m: CtxMap<u32> = CtxMap::new();
        // Insert out of id order plus a sparse id; iteration must be
        // id-order for dense, insertion-order for spill.
        m.set(IoCtx(5), 5);
        m.set(IoCtx(1), 1);
        m.set(SENTINEL, 77);
        m.set(IoCtx(3), 3);
        let seen: Vec<u32> = m.values_mut().map(|v| *v).collect();
        assert_eq!(seen, vec![1, 3, 5, 77]);
    }
}
