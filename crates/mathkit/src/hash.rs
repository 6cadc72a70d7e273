//! A fast hasher for maps whose keys are machine words.
//!
//! The standard map's SipHash resists collision attacks that a compile
//! never faces, and costs more than the lookups it guards when the key is
//! a pair of ids or the 32 bit patterns of a 4×4 matrix. [`FastHasher`]
//! is the multiply-rotate word hash used by `rustc`'s own maps (FxHash).
//! Iteration order of a map hashed with it is still unspecified; only
//! lookups may depend on it.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the word step (from FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A word-at-a-time multiply-rotate hasher (FxHash); see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

/// `BuildHasher` for maps keyed by ids or bit patterns:
/// `HashMap<K, V, FastHash>`.
pub type FastHash = BuildHasherDefault<FastHasher>;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            self.add(u64::from_le_bytes(*w));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn maps_keyed_by_words_and_arrays_find_every_entry() {
        let mut pairs: HashMap<u64, usize, FastHash> = HashMap::default();
        for a in 0..200u64 {
            for b in 0..50u64 {
                pairs.insert(a << 32 | b, (a * 50 + b) as usize);
            }
        }
        assert_eq!(pairs.len(), 10_000);
        assert_eq!(pairs[&(123 << 32 | 7)], 123 * 50 + 7);
        let mut arrays: HashMap<[u64; 32], u64, FastHash> = HashMap::default();
        for i in 0..1000u64 {
            let mut key = [0u64; 32];
            key[(i % 32) as usize] = (i as f64).to_bits();
            arrays.insert(key, i);
        }
        assert_eq!(arrays.len(), 1000);
        let mut probe = [0u64; 32];
        probe[(999 % 32) as usize] = 999f64.to_bits();
        assert_eq!(arrays[&probe], 999);
    }

    #[test]
    fn split_writes_of_whole_words_hash_alike() {
        let mut whole = FastHasher::default();
        whole.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]);
        let mut words = FastHasher::default();
        words.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        words.write_u64(u64::from_le_bytes([9, 10, 11, 12, 13, 14, 15, 16]));
        assert_eq!(whole.finish(), words.finish());
    }
}
