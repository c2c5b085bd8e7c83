//! Generational slab: dense, index-addressed storage with stale-handle
//! detection.
//!
//! The engine's hot path allocates short-lived records (I/O completion
//! groups, the sub-requests each data server holds) at a very high rate.
//! Keying them by monotonically growing ids in an `FxHashMap` puts a hash
//! probe (and, amortised, a rehash) on every simulated I/O event. A slab
//! stores the records in a plain `Vec` and hands out [`SlabKey`] handles
//! packing the slot index with a per-slot *generation*: lookups are a
//! bounds-checked index plus one integer compare, and freed slots are
//! reused through a free list without ever aliasing an old handle.
//!
//! A key outlives its record wherever a layer keeps it after the slab let
//! go, and a later insert may reuse the slot; under a naive reuse scheme
//! that leftover key would alias the *new* record. (Sub-request ids are not
//! slab keys: they come from a monotonic counter. A data server keeps each
//! sub-request in a slab of its own from send to completion and hands the
//! key to the disk as the request's tag; buffered write-back writes carry
//! a tag past any slot, so a flush that replays one misses there.) The
//! generation check makes a stale lookup miss deterministically:
//! [`Slab::get`]/[`Slab::remove`] on a stale key return `None`, and a key
//! whose generation is *ahead* of its slot — impossible unless the key was
//! forged or the slab corrupted — panics under `strict-invariants` (and in
//! tests) via [`strict_assert!`].
//!
//! Determinism: key assignment is a pure function of the insert/remove
//! sequence (LIFO free-list reuse), so identical runs hand out identical
//! keys — the engine's byte-identical-replay guarantee is preserved.
//!
//! [`strict_assert!`]: crate::strict_assert

use core::fmt;

/// Handle to a slab slot: the slot index and the slot's generation at
/// insert time, ordered by generation, then index. Two `u32`s, so an enum
/// that holds a key beside a 4-byte alternative stays 12 bytes. `Copy`,
/// order-preserving only per generation — treat it as opaque outside the
/// slab.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlabKey {
    generation: u32,
    index: u32,
}

impl SlabKey {
    /// The raw packed representation (e.g. to thread through layers that
    /// speak `u64` ids): the index in the low 32 bits, the generation in
    /// the high 32. Round-trips through [`SlabKey::from_raw`].
    #[inline]
    pub const fn raw(self) -> u64 {
        ((self.generation as u64) << 32) | self.index as u64
    }

    /// Rebuild a key from its packed representation.
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        SlabKey {
            generation: (raw >> 32) as u32,
            index: raw as u32,
        }
    }

    #[inline]
    fn index(self) -> usize {
        self.index as usize
    }

    #[inline]
    fn generation(self) -> u32 {
        self.generation
    }

    #[inline]
    fn pack(index: usize, generation: u32) -> Self {
        debug_assert!(index <= u32::MAX as usize, "slab grew past 2^32 slots");
        SlabKey {
            generation,
            index: index as u32,
        }
    }
}

impl fmt::Debug for SlabKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SlabKey({}g{})", self.index(), self.generation())
    }
}

/// One slot: its current generation and the value, if occupied. A vacant
/// slot remembers the next free slot instead (intrusive free list).
#[derive(Debug, Clone)]
enum Slot<T> {
    Occupied(T),
    Vacant { next_free: Option<u32> },
}

/// A generational slab. See the module docs for the design rationale.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    /// `(generation, slot)` pairs. A slot's generation is bumped when the
    /// value is removed, invalidating every key handed out for it before.
    slots: Vec<(u32, Slot<T>)>,
    /// Head of the intrusive free list (LIFO: most recently freed first).
    free_head: Option<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub const fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// An empty slab with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: None,
            len: 0,
        }
    }

    /// Number of live values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the slab empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store `value`, returning its key. Reuses the most recently freed
    /// slot if one exists (its generation already differs from every key
    /// handed out before), otherwise appends a fresh slot at generation 0.
    #[inline]
    pub fn insert(&mut self, value: T) -> SlabKey {
        match self.free_head {
            Some(idx) => {
                let i = idx as usize;
                let (generation, slot) = &mut self.slots[i];
                let next = match slot {
                    Slot::Vacant { next_free } => *next_free,
                    Slot::Occupied(_) => {
                        unreachable!("free list points at an occupied slab slot")
                    }
                };
                self.free_head = next;
                *slot = Slot::Occupied(value);
                self.len += 1;
                SlabKey::pack(i, *generation)
            }
            None => {
                let i = self.slots.len();
                self.slots.push((0, Slot::Occupied(value)));
                self.len += 1;
                SlabKey::pack(i, 0)
            }
        }
    }

    /// Does `key` refer to a live value?
    #[inline]
    pub fn contains(&self, key: SlabKey) -> bool {
        self.get(key).is_some()
    }

    /// The value behind `key`, or `None` if the key is stale (the slot was
    /// freed — and possibly reused — since the key was issued) or out of
    /// bounds.
    #[inline]
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        let (generation, slot) = self.slots.get(key.index())?;
        check_generation(key, *generation);
        match slot {
            Slot::Occupied(v) if *generation == key.generation() => Some(v),
            _ => None,
        }
    }

    /// Mutable access; same staleness semantics as [`Slab::get`].
    #[inline]
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        let (generation, slot) = self.slots.get_mut(key.index())?;
        check_generation(key, *generation);
        match slot {
            Slot::Occupied(v) if *generation == key.generation() => Some(v),
            _ => None,
        }
    }

    /// Remove and return the value behind `key`, bumping the slot's
    /// generation so every outstanding copy of the key turns stale. `None`
    /// if the key already was.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let i = key.index();
        let (generation, slot) = self.slots.get_mut(i)?;
        check_generation(key, *generation);
        if *generation != key.generation() || matches!(slot, Slot::Vacant { .. }) {
            return None;
        }
        // Wrapping: after 2^32 reuses of one slot a key from 2^32
        // generations ago would false-positive. No simulation gets close
        // (that is 4 billion groups through a single slot), and wrapping
        // keeps remove branch-free.
        *generation = generation.wrapping_add(1);
        let old = core::mem::replace(
            slot,
            Slot::Vacant {
                next_free: self.free_head,
            },
        );
        self.free_head = Some(i as u32);
        self.len -= 1;
        match old {
            Slot::Occupied(v) => Some(v),
            Slot::Vacant { .. } => unreachable!("checked occupied above"),
        }
    }

    /// Iterate over live `(key, &value)` pairs in slot order. Intended for
    /// diagnostics and end-of-run sweeps, not hot paths.
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, (generation, slot))| match slot {
                Slot::Occupied(v) => Some((SlabKey::pack(i, *generation), v)),
                Slot::Vacant { .. } => None,
            })
    }
}

/// A key "from the future" (generation ahead of its slot) cannot come from
/// this slab — it was forged, or memory was corrupted. Surface that loudly
/// in strict builds instead of returning a quiet `None`. Generation
/// wrapping makes an ahead-comparison heuristic, so compare only when
/// neither side has wrapped recently (the plain `<=` is exact for the
/// first 2^31 generations of a slot).
#[inline]
fn check_generation(key: SlabKey, slot_generation: u32) {
    crate::strict_assert!(
        key.generation() <= slot_generation
            || slot_generation > u32::MAX / 2
            || key.generation() > u32::MAX / 2,
        "slab key {key:?} is ahead of its slot (generation {slot_generation}): forged key or corrupted slab"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None, "double remove is a miss, not a panic");
        assert_eq!(s.get(b), Some(&"b"));
    }

    #[test]
    fn reused_slot_invalidates_old_key() {
        let mut s = Slab::new();
        let a = s.insert(1u32);
        s.remove(a);
        let b = s.insert(2u32);
        // LIFO free list: b reuses a's slot under a new generation.
        assert_eq!(b.index(), a.index());
        assert_ne!(b.generation(), a.generation());
        assert_ne!(a.raw(), b.raw());
        assert_eq!(s.get(a), None, "stale key must not alias the new value");
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn keys_round_trip_through_raw() {
        let mut s = Slab::new();
        let k = s.insert(7u64);
        let k2 = SlabKey::from_raw(k.raw());
        assert_eq!(k, k2);
        assert_eq!(s.get(k2), Some(&7));
    }

    #[test]
    fn key_assignment_is_deterministic() {
        let run = || {
            let mut s = Slab::new();
            let mut keys = Vec::new();
            let k0 = s.insert(0);
            let k1 = s.insert(1);
            keys.push(s.insert(2));
            s.remove(k1);
            keys.push(s.insert(3)); // reuses k1's slot
            s.remove(k0);
            keys.push(s.insert(4)); // reuses k0's slot
            keys.push(s.insert(5)); // fresh slot
            keys.iter().map(|k| k.raw()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn iter_sees_exactly_the_live_values() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        let c = s.insert(30);
        s.remove(b);
        let live: Vec<(SlabKey, i32)> = s.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(live, vec![(a, 10), (c, 30)]);
    }

    #[test]
    #[should_panic(expected = "forged key")]
    fn forged_future_key_panics_in_strict_builds() {
        let s: Slab<u8> = {
            let mut s = Slab::new();
            s.insert(1);
            s
        };
        // Slot 0 is at generation 0; a key claiming generation 1 cannot
        // have been issued by this slab.
        let forged = SlabKey::pack(0, 1);
        let _ = s.get(forged);
    }

    #[test]
    fn out_of_bounds_key_is_a_miss() {
        let mut s: Slab<u8> = Slab::new();
        assert_eq!(s.get(SlabKey::pack(3, 0)), None);
        assert_eq!(s.remove(SlabKey::pack(3, 0)), None);
    }
}
