//! Cyclic redundancy checks at several widths.
//!
//! The PHY uses CRCs at three granularities:
//!
//! * **CRC-32** (the IEEE 802.3 polynomial) for whole-frame FCS, exactly
//!   as in IEEE 802.11.
//! * **Small CRCs (1–8 bits)** for the *symbol-level* checksums carried
//!   on the phase offset side channel (Section 5 of the paper). A 2-bit
//!   CRC per OFDM symbol is the configuration the paper found optimal
//!   ("CRC-2 for each symbol offers a good tradeoff between reliability
//!   and granularity").
//!
//! The small CRCs are polynomial division over bit slices, because the
//! covered payload (one OFDM symbol's coded bits) is itself handled as a
//! bit vector in the pipeline. The standard polynomials divide eight
//! bits per table lookup; the register update has no data-dependent
//! branch, since the TX side channel and the RX check both run it on
//! every OFDM symbol.

/// A CRC over bit sequences with width 1..=8.
///
/// The polynomial is given without the leading `x^width` term, e.g. the
/// CRC-2 polynomial `x^2 + x + 1` is `0b11`.
///
/// # Examples
///
/// ```
/// use carpool_phy::crc::SmallCrc;
///
/// let crc = SmallCrc::CRC2;
/// let data = [1u8, 0, 1, 1, 0, 0, 1];
/// let check = crc.compute(&data);
/// assert!(crc.verify(&data, check));
/// assert!(!crc.verify(&data, check ^ 0b01));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SmallCrc {
    width: u8,
    poly: u8,
}

impl SmallCrc {
    /// CRC-1: plain parity bit.
    pub const CRC1: SmallCrc = SmallCrc {
        width: 1,
        poly: 0b1,
    };
    /// CRC-2 with polynomial `x^2 + x + 1` — the paper's per-symbol check.
    pub const CRC2: SmallCrc = SmallCrc {
        width: 2,
        poly: 0b11,
    };
    /// CRC-3 with polynomial `x^3 + x + 1` (CRC-3/GSM style).
    pub const CRC3: SmallCrc = SmallCrc {
        width: 3,
        poly: 0b011,
    };
    /// CRC-4 with the ITU polynomial `x^4 + x + 1`.
    pub const CRC4: SmallCrc = SmallCrc {
        width: 4,
        poly: 0b0011,
    };
    /// CRC-6 with polynomial `x^6 + x + 1` (CRC-6/ITU).
    pub const CRC6: SmallCrc = SmallCrc {
        width: 6,
        poly: 0b000011,
    };
    /// CRC-8 with the ATM HEC polynomial `x^8 + x^2 + x + 1`.
    pub const CRC8: SmallCrc = SmallCrc {
        width: 8,
        poly: 0b0000_0111,
    };

    /// Returns the standard polynomial for a given width (1..=8).
    ///
    /// Used by the side channel when a partial CRC group at the end of a
    /// section needs a narrower checksum than configured.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 8.
    pub fn standard(width: u8) -> SmallCrc {
        match width {
            1..=8 => SmallCrc::new(width, STANDARD_POLYS[usize::from(width - 1)]),
            // Out of range: delegate to `new`, whose width assertion
            // raises the documented panic message.
            _ => SmallCrc::new(width, 0),
        }
    }

    /// Creates a custom small CRC.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 8, or if `poly` has bits
    /// above `width`.
    pub fn new(width: u8, poly: u8) -> SmallCrc {
        assert!((1..=8).contains(&width), "width {width} out of 1..=8");
        assert!(
            width == 8 || poly < (1 << width),
            "polynomial 0x{poly:x} wider than {width} bits"
        );
        SmallCrc { width, poly }
    }

    /// Checksum width in bits.
    #[inline]
    pub(crate) fn width(&self) -> u8 {
        self.width
    }

    /// Generator polynomial (without the implicit leading term).
    #[inline]
    pub fn poly(&self) -> u8 {
        self.poly
    }

    /// Computes the checksum of a bit slice (each element 0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if any element of `bits` is not 0 or 1.
    pub fn compute(&self, bits: &[u8]) -> u8 {
        self.update(0, bits)
    }

    /// Continues a division from register `reg` over `bits`:
    /// `update(compute(a), b) == compute(a ++ b)`, which lets the
    /// transmitter check a group of symbols without concatenating them.
    ///
    /// # Panics
    ///
    /// Panics if any element of `bits` is not 0 or 1.
    pub(crate) fn update(&self, reg: u8, bits: &[u8]) -> u8 {
        let mut reg = reg;
        // OR of every input: any bit above bit 0 marks a non-binary value.
        let mut seen = 0u64;
        let mut rest = bits;
        let width = usize::from(self.width);
        if self.poly == STANDARD_POLYS[width - 1] {
            let table = &BYTE_TABLES[width - 1];
            let mut chunks = bits.chunks_exact(8);
            for chunk in &mut chunks {
                let mut word = [0u8; 8];
                word.copy_from_slice(chunk);
                let word = u64::from_be_bytes(word);
                seen |= word;
                // Gathers the eight 0/1 bytes into one byte, first bit in
                // the most significant position; the partial products
                // never overlap, so no carry disturbs the top byte.
                let byte = word.wrapping_mul(0x0102_0408_1020_4080).to_be_bytes()[0];
                reg = table[usize::from((reg << (8 - self.width)) ^ byte)];
            }
            rest = chunks.remainder();
        }
        for &bit in rest {
            seen |= u64::from(bit);
            reg = step(reg, bit, self.width, self.poly);
        }
        assert!(
            seen & 0xFEFE_FEFE_FEFE_FEFE == 0,
            "bit value {} out of range",
            bits.iter().find(|&&b| b > 1).copied().unwrap_or_default()
        );
        reg
    }

    /// Verifies the checksum of a bit slice.
    pub fn verify(&self, bits: &[u8], checksum: u8) -> bool {
        self.compute(bits) == checksum
    }
}

/// Generator polynomials of [`SmallCrc::standard`], by width − 1.
const STANDARD_POLYS: [u8; 8] = [
    0b1,         // parity
    0b11,        // x^2 + x + 1
    0b011,       // x^3 + x + 1
    0b0011,      // x^4 + x + 1
    0b00101,     // x^5 + x^2 + 1 (CRC-5/USB)
    0b00_0011,   // x^6 + x + 1
    0b000_1001,  // x^7 + x^3 + 1 (CRC-7/MMC)
    0b0000_0111, // x^8 + x^2 + x + 1
];

/// Eight-bit division tables of the standard polynomials: entry `i` of
/// table `width − 1` is the register after dividing the bits of `i`
/// (most significant first) from a zero register. Since the register is
/// at most eight bits wide, eight steps from register `r` over byte `m`
/// land where eight steps from zero over `(r << (8 − width)) ^ m` do.
static BYTE_TABLES: [[u8; 256]; 8] = build_byte_tables();

const fn build_byte_tables() -> [[u8; 256]; 8] {
    let mut tables = [[0u8; 256]; 8];
    let mut w = 0;
    while w < 8 {
        let mut i = 0u8;
        loop {
            let mut reg = 0u8;
            let mut k = 0;
            while k < 8 {
                reg = step(reg, (i >> (7 - k)) & 1, w + 1, STANDARD_POLYS[w as usize]);
                k += 1;
            }
            tables[w as usize][i as usize] = reg;
            if i == u8::MAX {
                break;
            }
            i += 1;
        }
        w += 1;
    }
    tables
}

/// One step of the bit-serial division: shifts `bit` into a
/// `width`-bit register, XORing in `poly` when the feedback is set.
#[inline(always)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "masked to width <= 8 bits above"
)]
const fn step(reg: u8, bit: u8, width: u8, poly: u8) -> u8 {
    let feedback = ((reg >> (width - 1)) ^ bit) & 1;
    // Widened so `width == 8` can shift its top bit out.
    let shifted = ((reg as u16) << 1) & ((1u16 << width) - 1);
    (shifted as u8) ^ (poly & feedback.wrapping_neg())
}

/// IEEE 802.3 CRC-32, as used for the 802.11 frame check sequence.
///
/// Input is a byte slice; output is the standard reflected CRC-32 with
/// final inversion (matching `crc32` in zlib and the FCS in Wi-Fi
/// frames). The canonical test vector `"123456789" -> 0xCBF43926` is
/// checked in this module's tests.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

/// Appends the CRC-32 FCS to a payload, as the MAC layer would.
pub fn append_fcs(payload: &[u8]) -> Vec<u8> {
    let mut out = payload.to_vec();
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Checks and strips a trailing CRC-32 FCS.
///
/// Returns the payload without the FCS if the check passes, `None` if the
/// frame is shorter than 4 bytes or the FCS does not match.
pub fn check_fcs(frame: &[u8]) -> Option<&[u8]> {
    if frame.len() < 4 {
        return None;
    }
    let (payload, fcs) = frame.split_at(frame.len() - 4);
    let expect = u32::from_le_bytes([fcs[0], fcs[1], fcs[2], fcs[3]]);
    if crc32(payload) == expect {
        Some(payload)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_test_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fcs_round_trip() {
        let payload = b"carpool frame payload";
        let framed = append_fcs(payload);
        assert_eq!(check_fcs(&framed).unwrap(), payload);
    }

    #[test]
    fn fcs_detects_corruption() {
        let mut framed = append_fcs(b"payload");
        framed[2] ^= 0x10;
        assert!(check_fcs(&framed).is_none());
        assert!(check_fcs(&[1, 2, 3]).is_none());
    }

    #[test]
    fn small_crc_detects_single_bit_errors() {
        // Every CRC with poly ending in 1 detects all single-bit errors.
        for crc in [
            SmallCrc::CRC1,
            SmallCrc::CRC2,
            SmallCrc::CRC4,
            SmallCrc::CRC8,
        ] {
            let data = [1u8, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0];
            let good = crc.compute(&data);
            for flip in 0..data.len() {
                let mut bad = data;
                bad[flip] ^= 1;
                assert!(
                    !crc.verify(&bad, good),
                    "{crc:?} missed single-bit error at {flip}"
                );
            }
        }
    }

    #[test]
    fn crc2_detects_adjacent_double_errors() {
        // x^2+x+1 is primitive; it detects all double-bit errors within
        // its period (3), in particular adjacent flips.
        let crc = SmallCrc::CRC2;
        let data = [0u8, 1, 1, 0, 1, 0, 1, 1];
        let good = crc.compute(&data);
        for flip in 0..data.len() - 1 {
            let mut bad = data;
            bad[flip] ^= 1;
            bad[flip + 1] ^= 1;
            assert!(!crc.verify(&bad, good));
        }
    }

    #[test]
    fn compute_is_deterministic_and_width_bounded() {
        let crc = SmallCrc::CRC4;
        let data = [1u8, 1, 1, 1, 0, 0, 0, 0, 1];
        let a = crc.compute(&data);
        let b = crc.compute(&data);
        assert_eq!(a, b);
        assert!(a < 16);
    }

    #[test]
    #[should_panic(expected = "out of 1..=8")]
    fn rejects_zero_width() {
        SmallCrc::new(0, 0b1);
    }

    #[test]
    #[should_panic(expected = "wider than")]
    fn rejects_oversized_polynomial() {
        SmallCrc::new(2, 0b100);
    }

    #[test]
    fn empty_input_checksums_to_zero() {
        assert_eq!(SmallCrc::CRC2.compute(&[]), 0);
        assert_eq!(SmallCrc::CRC8.compute(&[]), 0);
    }
}
