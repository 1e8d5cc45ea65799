//! Stable content fingerprinting for the result store.
//!
//! The sweep engine's on-disk result store keys every cached simulation by
//! a *fingerprint* of the work it would redo: the planned data layout, the
//! golden-reference checks and the compiled program bytes. Two runs that
//! hash identically are guaranteed to simulate identically (everything the
//! simulator reads is covered), so a store hit can substitute the cached
//! [`RunReport`] for a fresh run — and any change to a workload's code, its
//! data generator or its reference flips the fingerprint, turning the stale
//! entry into a plain miss.
//!
//! `std::hash::DefaultHasher` is explicitly *not* guaranteed to produce the
//! same values across Rust releases, which would silently invalidate every
//! stored result on a toolchain upgrade without saying so. This hand-rolled
//! FNV-1a 64 is stable by construction: the store's entries survive
//! recompilation and only the recorded code-version tag decides deliberate
//! invalidation.
//!
//! FNV-1a mixes one byte per multiply. Bulk input that is already a
//! sequence of 64-bit words — the hundreds of thousands of golden-reference
//! checks of a large point — goes through [`Fingerprint::write_word`]
//! instead, which mixes a whole word per multiply into the same state. The
//! two are not interchangeable: a word fed by `write_word` hashes
//! differently from the same value fed by [`Fingerprint::write_u64`].
//!
//! [`RunReport`]: ../ava_sim/run/struct.RunReport.html

/// An incremental, stable 64-bit FNV-1a hasher, with a word-at-a-time
/// step for bulk numeric input.
///
/// ```
/// use ava_workloads::Fingerprint;
///
/// let mut a = Fingerprint::new();
/// a.write_str("axpy");
/// a.write_u64(4096);
/// let mut b = Fingerprint::new();
/// b.write_str("axpy");
/// b.write_u64(4096);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// The odd multiplier of [`Fingerprint::write_word`]: 2^64 over the golden
/// ratio, dense in set bits so every input bit reaches the upper half.
const WORD_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds one little-endian `u64`.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Feeds one 64-bit word in a single mixing step: xor it in, multiply
    /// by an odd constant (carrying every bit upwards), then fold the upper
    /// half back down so the next word's multiply spreads it again. Each
    /// step is a bijection of the state for a fixed word, so two inputs
    /// that differ only in their last word never collide.
    pub fn write_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(WORD_MULTIPLIER);
        self.0 ^= self.0 >> 32;
    }

    /// Feeds a string, length-prefixed so `("ab", "c")` and `("a", "bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Feeds one `f64` by its exact bit pattern (no rounding; NaN payloads
    /// and signed zeros are distinguished, which is what a golden-reference
    /// change detector wants).
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fnv1a_test_vectors_hold() {
        // Classic published FNV-1a 64 vectors: the empty input is the
        // offset basis, and "a" is a fixed constant. Pinning them here is
        // what makes the hash *stable*: any accidental change to the
        // algorithm breaks this test instead of silently invalidating
        // every result store in existence.
        assert_eq!(Fingerprint::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fingerprint::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fingerprint::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn the_word_step_vectors_hold() {
        // Pinned like the FNV-1a vectors above: the store keys of every
        // golden reference go through this step, so a change to it must
        // come with a store code-version bump.
        let mut h = Fingerprint::new();
        h.write_word(0);
        assert_eq!(h.finish(), 0xf8bb_92c9_1b3f_5cc0);
        let mut h = Fingerprint::new();
        h.write_word(1);
        h.write_word(u64::MAX);
        assert_eq!(h.finish(), 0x0209_9f9f_03ea_86a8);
        let mut h = Fingerprint::new();
        h.write_word(0.5f64.to_bits());
        assert_eq!(h.finish(), 0xc35b_92c9_20df_5cc0);
    }

    #[test]
    fn the_word_step_is_order_sensitive_and_separate_from_bytes() {
        let words = |ws: &[u64]| {
            let mut h = Fingerprint::new();
            for &w in ws {
                h.write_word(w);
            }
            h.finish()
        };
        assert_ne!(words(&[1, 2]), words(&[2, 1]));
        assert_ne!(words(&[0]), words(&[0, 0]));
        let mut bytes = Fingerprint::new();
        bytes.write_u64(7);
        assert_ne!(words(&[7]), bytes.finish());
    }

    #[test]
    fn length_prefixing_separates_string_boundaries() {
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn f64_bit_patterns_are_distinguished() {
        let mut pos = Fingerprint::new();
        pos.write_f64(0.0);
        let mut neg = Fingerprint::new();
        neg.write_f64(-0.0);
        assert_ne!(pos.finish(), neg.finish());
    }
}
