//! One deterministic integer hasher for the simulator's host-side tables.
//!
//! The runtimes keep host mirrors of their FRAM control state (lock flags,
//! snapshot slots, redirect tables, read sets) in hash maps keyed by task
//! ids, call-site indices and variable addresses, and probe them on almost
//! every simulated access. Those keys are produced by the program itself,
//! never read from outside input, so they need no protection against
//! crafted collisions and `std`'s SipHash with a random seed only costs
//! time. [`FxHasher`] is the multiply-rotate hash rustc uses for the same
//! kind of keys: a few cycles per integer and the same value in every
//! process. Maps keyed by untrusted strings (the `easec` front-end) keep
//! `std`'s default hasher.
//!
//! No report, digest or cut decision may depend on a map's iteration
//! order; a fixed hasher keeps that so and removes one source of
//! process-to-process variation besides.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with the deterministic [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the deterministic [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type HashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Odd multiplier of rustc's FxHash (`rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Integer hasher: each word is added into the state and multiplied by an
/// odd constant. Not collision-resistant; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.add(u64::from_le_bytes(tail) ^ bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's high bits mix every input bit; the table indexes
    /// buckets by the low bits, so rotate the high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_the_value_is_fixed() {
        assert_eq!(hash_of((3u16, 7u16)), hash_of((3u16, 7u16)));
        // Pinned: the same value in every process and on every run.
        let mut h = FxHasher::default();
        h.write_u64(1);
        assert_eq!(h.finish(), K.rotate_left(26));
    }

    #[test]
    fn small_integer_keys_spread_over_the_low_bits() {
        // Bucket index = low bits of the hash: 4096 consecutive 2-tuples
        // (task, site) must land in many distinct buckets of a 4096 table.
        let buckets: HashSet<u64> = (0..64u16)
            .flat_map(|t| (0..64u16).map(move |s| hash_of((t, s)) & 4095))
            .collect();
        assert!(buckets.len() > 2400, "{} buckets", buckets.len());
    }

    #[test]
    fn byte_strings_of_different_lengths_differ() {
        assert_ne!(hash_of([0u8; 3].as_slice()), hash_of([0u8; 4].as_slice()));
        assert_ne!(hash_of("ab"), hash_of("ba"));
    }
}
