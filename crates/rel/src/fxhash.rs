//! A fast, non-cryptographic `BuildHasher` for executor-side hash tables.
//!
//! `std`'s default SipHash is DoS-resistant but pays ~1–2 ns *per hashed
//! word* — measurable when every equality join, `Distinct`, set-difference
//! and closure insert hashes millions of keys. The executor's tables hash
//! trusted, engine-internal keys (node ids, dictionary codes, packed pair
//! keys), so the multiply-rotate "Fx" mix used by rustc and Firefox is the
//! right trade: one rotate, one xor, one multiply per 8 bytes.
//!
//! The image has no network, so the hasher is hand-rolled (like PR 1's
//! SplitMix64) and pinned by reference vectors below — any accidental change
//! to the mixing function fails the tests.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (the golden-ratio-derived constant rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over 8-byte words.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(w));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut w = [0u8; 4];
            w.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(w)));
            bytes = &bytes[4..];
        }
        if bytes.len() >= 2 {
            let mut w = [0u8; 2];
            w.copy_from_slice(&bytes[..2]);
            self.add_to_hash(u64::from(u16::from_le_bytes(w)));
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s (stateless, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the Fx hash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed by the Fx hash.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// An `FxHashMap` with at least `capacity` slots.
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

/// An `FxHashSet` with at least `capacity` slots.
pub fn fx_set_with_capacity<T>(capacity: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

/// Hash one value with the Fx mix (for row keys).
#[inline]
pub fn fx_hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors pinning the mixing function: hashing these inputs
    /// must always produce these outputs (computed from the canonical
    /// rotate-5 / xor / multiply-by-0x517cc1b727220a95 Fx recipe). A change
    /// to the word size, rotation, or constant breaks them.
    #[test]
    fn u64_reference_vectors() {
        let hash_u64 = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash_u64(0), 0);
        assert_eq!(hash_u64(1), 0x517c_c1b7_2722_0a95);
        assert_eq!(hash_u64(0xDEAD_BEEF), 0x67f3_c037_2953_771b);
        assert_eq!(hash_u64(u64::MAX), 0xae83_3e48_d8dd_f56b);
    }

    #[test]
    fn multi_word_reference_vectors() {
        let mut h = FxHasher::default();
        h.write_u64(1);
        h.write_u64(2);
        assert_eq!(h.finish(), 0x6a4b_e67f_f98f_abc8);
        let mut h = FxHasher::default();
        h.write_u32(7);
        h.write_u8(9);
        assert_eq!(h.finish(), 0x899b_8573_6757_f606);
    }

    #[test]
    fn byte_stream_matches_word_chunking() {
        // 12 bytes = one u64 word + one u32 word, little-endian
        let bytes: [u8; 12] = [1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0];
        let mut h = FxHasher::default();
        h.write(&bytes);
        let mut w = FxHasher::default();
        w.write_u64(1);
        w.write_u32(2);
        assert_eq!(h.finish(), w.finish());
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<u64, u32> = fx_map_with_capacity(4);
        m.insert(42, 1);
        m.insert(42, 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m[&42], 2);
        let mut s: FxHashSet<&str> = fx_set_with_capacity(4);
        assert!(s.insert("x"));
        assert!(!s.insert("x"));
    }

    #[test]
    fn fx_hash_one_is_deterministic() {
        assert_eq!(fx_hash_one(&(1u32, 2u32)), fx_hash_one(&(1u32, 2u32)));
        assert_ne!(fx_hash_one(&(1u32, 2u32)), fx_hash_one(&(2u32, 1u32)));
    }
}
