//! Content fingerprinting for feature inputs.
//!
//! The serving layer caches predictions keyed by *what the request
//! contains* (power-map bytes, netlist text, dimensions), so repeated
//! queries on the same design skip the whole pipeline. The hash must be
//! stable across processes and platforms — `std`'s `DefaultHasher` is
//! explicitly not — so this module pins two of its own: [`Fnv1a`], the
//! published FNV-1a 64-bit (tiny, a fixed specification, the hash behind
//! every pinned test checksum), and [`WordHasher`], which absorbs eight
//! bytes per step for payloads where FNV's byte-at-a-time chain is the
//! cost (a 0.76 MB predict request: ~1 ms against ~0.2 ms).

/// Incremental FNV-1a 64-bit hasher.
///
/// Not a cryptographic hash: it keys a cache, where collisions cost a
/// wrong cache hit on adversarial input but the server only ever serves
/// content the caller itself supplied.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to `u64`, so 32- and 64-bit builds agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f32` by bit pattern (distinguishes `-0.0` from `0.0`;
    /// callers hashing model inputs want bitwise identity, not numeric).
    pub fn write_f32(&mut self, v: f32) {
        self.write(&v.to_bits().to_le_bytes());
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Word-at-a-time content hasher for large payloads: every step absorbs a
/// little-endian `u64` (so the result is platform-independent) through
/// xor → multiply by an odd constant → rotate, and [`WordHasher::finish`]
/// runs a 64-bit avalanche over the state.
///
/// Every step is a bijection of the state for a given word and of the word
/// for a given state, so two inputs of the same layout that differ in
/// exactly one word (a flipped bit in one power value or one netlist byte)
/// *never* collide. The rotate carries high bits back down, which a bare
/// multiply chain does not (there, flipping bit 63 of two words cancels).
///
/// Unlike [`Fnv1a`] it is **field-framed, not streaming**: each
/// [`WordHasher::write`] call hashes its slice as whole words plus a
/// byte-wise tail, so `write(a); write(b)` differs from `write(ab)`.
/// Callers write the same fields in the same order, with lengths ahead of
/// variable-sized ones. Like `Fnv1a` it is not cryptographic.
#[derive(Debug, Clone, Copy)]
pub struct WordHasher(u64);

/// 2⁶⁴ / φ, odd — the usual Fibonacci-hashing multiplier.
const WORD_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl WordHasher {
    /// Fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        WordHasher(FNV_OFFSET)
    }

    /// Absorbs one word: the step every other writer is made of.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(WORD_MULTIPLIER)
            .rotate_left(29);
    }

    /// Absorbs one field of raw bytes: little-endian words, then the
    /// `len % 8` tail bytes one step each.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    /// Absorbs a field of `f32`s by bit pattern, two per step — exactly
    /// [`WordHasher::write`] of their little-endian byte image, without
    /// building it.
    pub fn write_f32s(&mut self, values: &[f32]) {
        let mut pairs = values.chunks_exact(2);
        for pair in &mut pairs {
            self.write_u64(u64::from(pair[0].to_bits()) | u64::from(pair[1].to_bits()) << 32);
        }
        for v in pairs.remainder() {
            self.write(&v.to_bits().to_le_bytes());
        }
    }

    /// The accumulated hash (the state through the `fmix64` avalanche of
    /// MurmurHash3, itself a bijection).
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher::new()
    }
}

/// One-shot hash of a byte string.
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fnv1a_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), hash_bytes(b"foobar"));
    }

    #[test]
    fn field_separators_distinguish_layouts() {
        // [1,2] vs [12] as length-prefixed fields must differ.
        let mut a = Fnv1a::new();
        a.write_usize(1);
        a.write(b"1");
        let mut b = Fnv1a::new();
        b.write_usize(2);
        b.write(b"1");
        assert_ne!(a.finish(), b.finish());
    }

    /// The word hasher's definition, pinned against an independent
    /// implementation: little-endian words, byte-wise tail, so the keys
    /// agree across platforms and processes.
    #[test]
    fn word_hasher_known_answers() {
        let hash = |bytes: &[u8]| {
            let mut h = WordHasher::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xefd0_1f60_ba99_2926);
        assert_eq!(hash(b"a"), 0x722b_134f_034f_7f75);
        assert_eq!(hash(b"foobarba"), 0x160d_7c2e_4c28_97dc);
        assert_eq!(hash(b"foobarbaz"), 0xa688_6637_1763_5b2f);
        // One word in one step equals the same eight bytes written.
        let mut h = WordHasher::new();
        h.write_u64(u64::from_le_bytes(*b"foobarba"));
        assert_eq!(h.finish(), hash(b"foobarba"));
        // Field-framed: where a field ends is part of the key.
        let mut split = WordHasher::new();
        split.write(b"foob");
        split.write(b"arba");
        assert_ne!(split.finish(), hash(b"foobarba"));
    }

    #[test]
    fn word_hasher_carries_high_bits_down() {
        // A bare xor-multiply chain would let two bit-63 flips cancel.
        let hash = |words: [u64; 3]| {
            let mut h = WordHasher::new();
            words.iter().for_each(|&w| h.write_u64(w));
            h.finish()
        };
        assert_ne!(hash([1, 2, 3]), hash([1 | 1 << 63, 2 | 1 << 63, 3]));
        assert_ne!(hash([1, 2, 3]), hash([1 | 1 << 63, 2, 3 | 1 << 63]));
    }

    #[test]
    fn f32_hash_is_bitwise() {
        let mut a = Fnv1a::new();
        a.write_f32(0.0);
        let mut b = Fnv1a::new();
        b.write_f32(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
