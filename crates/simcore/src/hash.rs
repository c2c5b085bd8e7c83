//! Deterministic fast hashing for simulator-internal maps.
//!
//! `std::collections::HashMap`'s default `RandomState` re-seeds SipHash per
//! process, which is both slow for the small integer keys the engine uses
//! (group ids, request ids, `(FileId, chunk)` pairs) and a source of
//! run-to-run iteration-order jitter. [`FxHasher`] is the rustc compiler's
//! multiply-xor hash: a fixed-seed, one-multiply-per-word function that is
//! several times faster on short keys and makes hash-map behaviour a pure
//! function of the inserted keys — same simulation, same map, every run.
//!
//! Not DoS-resistant; keys here are simulator-generated, never adversarial.

#![expect(
    clippy::disallowed_types,
    reason = "this module defines FxHashMap/FxHashSet as std's HashMap/HashSet with a fixed-seed hasher"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// rustc's FxHash: multiply-xor over machine words with a fixed seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// 2^64 / phi, the classic Fibonacci-hashing multiplier.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                word |= u64::from(b) << (8 * i);
            }
            self.add_to_hash(word);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed by the fixed-seed [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed by the fixed-seed [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn byte_stream_equals_itself_and_spreads() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(h(b"dualpar"), h(b"dualpar"));
        assert_ne!(h(b"dualpar"), h(b"dualpas"));
        // Tail handling: lengths not divisible by 8 must still distinguish.
        assert_ne!(h(b"abc"), h(b"abd"));
        assert_ne!(h(b"123456789"), h(b"123456780"));
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<(u32, u64), u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert((i as u32 % 7, i), i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(3, 10)), Some(&20));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(5);
        assert!(s.contains(&5));
    }
}
