//! The Firefox multiply-rotate hasher, for maps keyed by net names and
//! parser identifiers.
//!
//! [`FxHashMap`] replaces SipHash with a word-at-a-time multiply-rotate
//! hash, which is markedly faster on the short ASCII identifier keys
//! netlists are full of. It is not DoS-resistant: use it only on keys the
//! process itself produced or the user handed over knowingly (net names
//! and identifiers of a netlist the user chose to analyze).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The `FxHasher` multiplier (the golden-ratio-derived constant used by
/// the Firefox and rustc hashers).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Firefox multiply-rotate hasher: word-at-a-time, finished by one
/// rotation.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // Shifting the bytes in beats a variable-length copy into a
            // padded word on the short names netlists are full of.
            let tail = rest
                .iter()
                .enumerate()
                .fold(0u64, |word, (i, &b)| word | u64::from(b) << (8 * i));
            self.add(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    /// The multiply leaves the low bits, which `HashMap` takes its bucket
    /// index from, poorly mixed (names like `n0`…`n49999` pile into a few
    /// buckets); the rotation brings the well-mixed high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`]; plugs into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`] instead of SipHash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fx_hash_is_stable_and_spreads() {
        let build = FxBuildHasher::default();
        let hash = |s: &str| build.hash_one(s);
        assert_eq!(hash("a"), hash("a"));
        assert_ne!(hash("a"), hash("b"));
        assert_ne!(hash("ab"), hash("ba"));
        // Longer-than-a-word keys exercise the chunked path.
        assert_ne!(hash("carry_chain_17"), hash("carry_chain_18"));
    }

    #[test]
    fn fx_map_works_with_borrowed_and_owned_keys() {
        let mut by_name: FxHashMap<String, u32> = FxHashMap::default();
        by_name.insert("a".to_string(), 1);
        by_name.insert("b".to_string(), 2);
        assert_eq!(by_name.get("a"), Some(&1));
        assert_eq!(by_name.get("c"), None);
    }
}
