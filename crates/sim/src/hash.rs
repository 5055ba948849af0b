//! A fixed, deterministic hasher for the simulator's own tables.
//!
//! Every map the machine keeps is keyed by small integers the simulator
//! produces itself (page, frame, line and bucket numbers), so the keyed,
//! DoS-resistant SipHash behind `std`'s default `RandomState` buys
//! nothing and costs several rounds per lookup. [`FastHasher`] folds each
//! word in with one add and one multiply and rotates the well-mixed high
//! bits down on `finish`, where the hash table picks its bucket. It has
//! no per-process seed, so iteration order is the same in every run.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier with a balanced bit pattern.
const MUL: u64 = 0xf135_7aea_2e62_a9c5;

/// Rotation that moves the product's high bits into the low bits used
/// as the bucket index.
const FOLD: u32 = 26;

/// Multiply-rotate hasher over 64-bit words: `h = (h + word) * MUL` per
/// word, `finish = h.rotate_left(26)`.
///
/// # Example
///
/// ```
/// use prism_sim::FastMap;
///
/// let mut m: FastMap<u64, &str> = FastMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m[&7], "seven");
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MUL);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FOLD)
    }
}

/// `HashMap` with the [`FastHasher`]; build with `FastMap::default()`.
#[allow(clippy::disallowed_types)]
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with the [`FastHasher`]; build with `FastSet::default()`.
#[allow(clippy::disallowed_types)]
pub type FastSet<K> = std::collections::HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    /// Distinct values the low 12 bits (the bucket index of a 4096-slot
    /// table) take over `keys`.
    fn low_bits_spread(keys: impl Iterator<Item = u64>) -> usize {
        let mut seen = vec![false; 1 << 12];
        for k in keys {
            seen[(hash_of(&k) & 0xfff) as usize] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }

    /// Iteration order follows these values; changing the hasher
    /// reorders every map, so it must be a deliberate edit here.
    #[test]
    fn finish_outputs_are_pinned() {
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), 0xa8b9_8aa7_17c4_d5eb);
        assert_eq!(hash_of(&0x1234_5678u64), 0x54e5_2f09_61dc_c295);
        assert_eq!(hash_of(&(37u32, 5u16)), 0x6fa8_cfef_da7f_25d0);
        assert_eq!(hash_of(&(3u16, 4711u32)), 0x0cff_7cf4_382e_8074);
    }

    #[test]
    fn low_bits_disperse_strided_keys() {
        for k in [0u32, 6, 12, 13, 20, 32] {
            let spread = low_bits_spread((0..4096u64).map(|i| i << k));
            assert!(
                spread >= 1500,
                "stride 2^{k}: {spread} distinct low-12-bit values"
            );
        }
    }

    #[test]
    fn low_bits_disperse_line_keys() {
        let keys = (0..64u64).flat_map(|frame| (0..64u64).map(move |line| frame * 64 + line));
        let spread = low_bits_spread(keys);
        assert!(
            spread >= 1500,
            "line keys: {spread} distinct low-12-bit values"
        );
    }

    #[test]
    fn byte_writes_fold_whole_words() {
        let mut a = FastHasher::default();
        a.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut b = FastHasher::default();
        b.write_u64(1);
        b.write_u64(2);
        assert_eq!(a.finish(), b.finish());
    }
}
