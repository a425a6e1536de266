//! Bit-level helpers shared across the PHY pipeline.
//!
//! The coding chain (scrambler, convolutional code, interleaver, mapper)
//! operates on individual bits; frames arrive as bytes. These helpers
//! convert between the two representations (LSB-first, matching the
//! IEEE 802.11 convention) and provide utilities such as Hamming distance
//! used throughout the tests and benches. The BER Monte-Carlo tallies
//! every symbol with [`hamming_distance`], which compares eight bytes
//! per step.

/// Unpacks bytes into bits, least-significant bit of each byte first.
///
/// # Examples
///
/// ```
/// let bits = carpool_phy::bits::bytes_to_bits(&[0b0000_0101]);
/// assert_eq!(&bits[..4], &[1, 0, 1, 0]);
/// ```
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for k in 0..8 {
            bits.push((b >> k) & 1);
        }
    }
    bits
}

/// Packs bits (LSB-first per byte) into bytes.
///
/// Trailing bits that do not fill a byte are packed into a final byte with
/// zero padding in the high positions.
///
/// # Panics
///
/// Panics if any element of `bits` is not `0` or `1`.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(bits.len().div_ceil(8));
    for chunk in bits.chunks(8) {
        let mut b = 0u8;
        for (k, &bit) in chunk.iter().enumerate() {
            assert!(bit <= 1, "bit value {bit} out of range");
            b |= bit << k;
        }
        bytes.push(b);
    }
    bytes
}

/// Number of positions at which two bit slices differ.
///
/// Only the common prefix is compared; callers should ensure equal lengths
/// when the tail matters. Any byte values compare, not just 0 and 1: the
/// count is of unequal bytes, taken eight at a time from the nonzero
/// bytes of their XOR.
pub fn hamming_distance(a: &[u8], b: &[u8]) -> usize {
    /// The low seven bits of every byte of a word.
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let n = a.len().min(b.len());
    let (words_a, tail_a) = a[..n].as_chunks::<8>();
    let (words_b, tail_b) = b[..n].as_chunks::<8>();
    let mut nonzero = 0usize;
    for (x, y) in words_a.iter().zip(words_b) {
        let diff = u64::from_ne_bytes(*x) ^ u64::from_ne_bytes(*y);
        // The top bit of each byte is set iff the byte is nonzero: its low
        // seven bits plus 0x7f carry into it (never beyond), or it was
        // set already.
        let marks = (((diff & LOW7) + LOW7) | diff) & !LOW7;
        // Summing the marks' bytes into the top byte (at most 8, so no
        // byte overflows) needs no popcount instruction.
        nonzero += ((marks >> 7).wrapping_mul(0x0101_0101_0101_0101) >> 56) as usize;
    }
    nonzero + tail_a.iter().zip(tail_b).filter(|(x, y)| x != y).count()
}

/// Bit error rate between a transmitted and received bit sequence.
///
/// Returns `0.0` for empty input.
pub fn bit_error_rate(sent: &[u8], received: &[u8]) -> f64 {
    let n = sent.len().min(received.len());
    if n == 0 {
        return 0.0;
    }
    hamming_distance(&sent[..n], &received[..n]) as f64 / n as f64
}

/// Extracts an unsigned integer from `width` bits (LSB first).
///
/// # Panics
///
/// Panics if `width > 64` or `bits.len() < width`.
pub fn bits_to_uint(bits: &[u8], width: usize) -> u64 {
    assert!(width <= 64, "width {width} exceeds u64");
    assert!(bits.len() >= width, "need {width} bits, got {}", bits.len());
    let mut v = 0u64;
    for (k, &bit) in bits[..width].iter().enumerate() {
        v |= u64::from(bit) << k;
    }
    v
}

/// Serialises the low `width` bits of `value` as bits, LSB first.
///
/// # Panics
///
/// Panics if `width > 64`.
pub fn uint_to_bits(value: u64, width: usize) -> Vec<u8> {
    assert!(width <= 64, "width {width} exceeds u64");
    (0..width)
        .map(|k| u8::from((value >> k) & 1 != 0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_bit_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    fn lsb_first_ordering() {
        let bits = bytes_to_bits(&[0x01, 0x80]);
        assert_eq!(bits[0], 1);
        assert_eq!(&bits[1..8], &[0; 7]);
        assert_eq!(&bits[8..15], &[0; 7]);
        assert_eq!(bits[15], 1);
    }

    #[test]
    fn partial_byte_packing_pads_high_bits() {
        assert_eq!(bits_to_bytes(&[1, 1, 0]), vec![0b011]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_non_binary_values() {
        bits_to_bytes(&[2]);
    }

    #[test]
    fn hamming_and_ber() {
        let a = [0, 1, 0, 1];
        let b = [0, 1, 1, 0];
        assert_eq!(hamming_distance(&a, &b), 2);
        assert!((bit_error_rate(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(bit_error_rate(&[], &[]), 0.0);
    }

    #[test]
    fn hamming_distance_counts_differing_bytes_of_any_value() {
        let bytewise = |a: &[u8], b: &[u8]| a.iter().zip(b).filter(|(x, y)| x != y).count();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut byte = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x.to_le_bytes()[3]
        };
        for len_a in 0..=40 {
            for len_b in [len_a, len_a / 2, len_a + 3] {
                for trial in 0..16 {
                    let a: Vec<u8> = (0..len_a).map(|_| byte()).collect();
                    // Mostly equal bytes, some differing in one bit or
                    // in every bit, some arbitrary.
                    let b: Vec<u8> = (0..len_b)
                        .map(|k| match (a.get(k), byte() % 5) {
                            (Some(&v), 0 | 1) => v,
                            (Some(&v), 2) => v ^ (1 << (trial % 8)),
                            (Some(&v), 3) => !v,
                            _ => byte(),
                        })
                        .collect();
                    assert_eq!(hamming_distance(&a, &b), bytewise(&a, &b), "{a:?} vs {b:?}");
                    assert_eq!(hamming_distance(&b, &a), bytewise(&a, &b));
                }
            }
        }
    }

    #[test]
    fn uint_round_trip() {
        for v in [0u64, 1, 47, 0xDEAD, u32::MAX as u64] {
            assert_eq!(bits_to_uint(&uint_to_bits(v, 33), 33), v);
        }
    }
}
