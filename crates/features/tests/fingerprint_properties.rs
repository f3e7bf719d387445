//! Property tests for the word-at-a-time content hasher.

use lmmir_features::WordHasher;
use proptest::prelude::*;

fn hash(bytes: &[u8]) -> u64 {
    let mut h = WordHasher::new();
    h.write(bytes);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same length, one bit apart: the keys differ — in whole words and in
    /// the byte-wise tail alike (lengths 1..64 cover both).
    #[test]
    fn a_single_bit_flip_changes_the_hash(
        bytes in prop::collection::vec(0u8..=255, 1..64),
        at in 0usize..64 * 8,
    ) {
        let bit = at % (bytes.len() * 8);
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(hash(&bytes), hash(&flipped));
    }

    /// `write_f32s` is `write` of the little-endian byte image, for even
    /// and odd counts.
    #[test]
    fn f32_fields_hash_as_their_little_endian_bytes(
        bits in prop::collection::vec(0u32..=u32::MAX, 0..33),
    ) {
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
        let mut h = WordHasher::new();
        h.write_f32s(&values);
        prop_assert_eq!(h.finish(), hash(&bytes));
    }

    /// Appending a byte — even a zero — changes the key: a field's length
    /// is part of what is hashed.
    #[test]
    fn length_is_hashed(bytes in prop::collection::vec(0u8..=255, 0..40), extra in 0u8..=255) {
        let mut longer = bytes.clone();
        longer.push(extra);
        prop_assert_ne!(hash(&bytes), hash(&longer));
    }
}
