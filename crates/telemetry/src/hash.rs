//! The workspace's hasher for small integer keys on the evaluation
//! path: the fitted cost model's lookups (one per `op_time` and
//! `transfer_time`). std's default SipHash is keyed against hash
//! flooding, which these process-internal keys do not need, and costs
//! several times more per call.
//!
//! [`FastHasher`] folds each written word into the state with a
//! 64x64->128-bit multiply whose halves are xor-ed together, so every
//! input bit reaches the low bits the table indexes by. It is
//! deterministic (no per-process seed). No caller iterates these maps,
//! so the hash order never reaches an output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit constant (the fractional part of the golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplies `a` by `b` to 128 bits and xors the two halves.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = (a as u128).wrapping_mul(b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A multiplicative hasher for integer-like keys (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = fold_mul(self.0 ^ x, K);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        FastBuildHasher::default().hash_one(x)
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of((1u32, 2u32)), hash_of((2u32, 1u32)));
    }

    #[test]
    fn high_key_bits_reach_low_hash_bits() {
        // Keys differing only in their high word must still spread over
        // a small table's buckets.
        let mut buckets = HashSet::new();
        for src in 0..64u64 {
            buckets.insert(hash_of(src << 32) & 63);
        }
        assert!(
            buckets.len() > 32,
            "only {} of 64 buckets hit",
            buckets.len()
        );
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FastMap<(u8, u32), f64> = FastMap::default();
        m.insert((1, 7), 0.5);
        assert_eq!(m.get(&(1, 7)), Some(&0.5));
        assert_eq!(m.get(&(7, 1)), None);
        let mut s: HashSet<u64, FastBuildHasher> = HashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }
}
