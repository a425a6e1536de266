//! SIG field encoding.
//!
//! Each Carpool subframe starts with SIG symbols carrying its MCS and
//! length so that stations can *skip* subframes that are not theirs
//! (paper Section 4.1: "for every subframe whose position is prior to
//! the receiver's subframe, the receiver only decodes the SIG symbol to
//! obtain the subframe's length and then skips the whole subframe").
//!
//! The layout follows the spirit of the legacy L-SIG (rate + length +
//! parity) but widens the length field to 16 bits, because a Carpool
//! subframe may itself be an A-MPDU of up to 64 KB — the legacy 12-bit
//! field only covers 4095 B. The 24 coded bits still fit one BPSK-1/2
//! OFDM symbol. This deviation is recorded in `DESIGN.md`.

use crate::FrameError;
use carpool_phy::bits::{bits_to_uint, uint_to_bits};
use carpool_phy::mcs::Mcs;

/// Number of information bits in a SIG field (one BPSK-1/2 symbol).
pub(crate) const SIG_BITS: usize = 24;

/// Decoded contents of a SIG field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sig {
    /// MCS of the subframe that follows.
    pub mcs: Mcs,
    /// Length of the subframe's MAC payload in bytes (up to 65535).
    pub length_bytes: u16,
}

/// Maps an MCS to its 4-bit rate code (and back).
///
/// The match is exhaustive over `(Modulation, CodeRate)`, so the three
/// pairings outside the eight standard rates fall back to the
/// modulation's base slot; for the standard rates the codes are exactly
/// the [`Mcs::ALL`] positions.
fn mcs_to_code(mcs: Mcs) -> u8 {
    use carpool_phy::convolutional::CodeRate;
    use carpool_phy::modulation::Modulation;
    match (mcs.modulation, mcs.code_rate) {
        (Modulation::Bpsk, CodeRate::ThreeQuarters) => 1,
        (Modulation::Bpsk, _) => 0,
        (Modulation::Qpsk, CodeRate::ThreeQuarters) => 3,
        (Modulation::Qpsk, _) => 2,
        (Modulation::Qam16, CodeRate::ThreeQuarters) => 5,
        (Modulation::Qam16, _) => 4,
        (Modulation::Qam64, CodeRate::ThreeQuarters) => 7,
        (Modulation::Qam64, _) => 6,
    }
}

fn code_to_mcs(code: u8) -> Option<Mcs> {
    Mcs::ALL.get(code as usize).copied()
}

impl Sig {
    /// Creates a SIG field.
    pub fn new(mcs: Mcs, length_bytes: u16) -> Sig {
        Sig { mcs, length_bytes }
    }

    /// Serialises to 24 bits (one BPSK-1/2 symbol): 4 rate bits, 16
    /// length bits, 1 even-parity bit, 3 reserved zero bits.
    pub fn to_bits(&self) -> Vec<u8> {
        let mut bits = Vec::with_capacity(SIG_BITS);
        bits.extend(uint_to_bits(mcs_to_code(self.mcs) as u64, 4));
        bits.extend(uint_to_bits(self.length_bytes as u64, 16));
        let parity = bits.iter().fold(0u8, |acc, &b| acc ^ b);
        bits.push(parity);
        bits.extend_from_slice(&[0, 0, 0]);
        debug_assert_eq!(bits.len(), SIG_BITS);
        bits
    }

    /// Parses a SIG field, validating parity and the rate code.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadSig`] if the bit count, parity or rate
    /// code is invalid.
    pub fn from_bits(bits: &[u8]) -> Result<Sig, FrameError> {
        if bits.len() != SIG_BITS {
            return Err(FrameError::BadSig {
                reason: format!("expected {SIG_BITS} bits, got {}", bits.len()),
            });
        }
        let parity = bits[..20].iter().fold(0u8, |acc, &b| acc ^ b);
        if parity != bits[20] {
            return Err(FrameError::BadSig {
                reason: "parity mismatch".to_string(),
            });
        }
        let code = bits_to_uint(&bits[0..4], 4) as u8;
        let mcs = code_to_mcs(code).ok_or_else(|| FrameError::BadSig {
            reason: format!("unknown rate code {code}"),
        })?;
        let length_bytes = bits_to_uint(&bits[4..20], 16) as u16;
        Ok(Sig { mcs, length_bytes })
    }
}

impl std::fmt::Display for Sig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SIG[{} x {}B]", self.mcs, self.length_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_mcs_and_lengths() {
        for mcs in Mcs::ALL {
            for len in [0u16, 1, 300, 1500, 4095, 65535] {
                let sig = Sig::new(mcs, len);
                let parsed = Sig::from_bits(&sig.to_bits()).unwrap();
                assert_eq!(parsed, sig);
            }
        }
    }

    #[test]
    fn parity_detects_single_bit_flips() {
        let sig = Sig::new(Mcs::QAM16_3_4, 1234);
        let bits = sig.to_bits();
        for k in 0..21 {
            let mut bad = bits.clone();
            bad[k] ^= 1;
            assert!(Sig::from_bits(&bad).is_err(), "flip at {k} undetected");
        }
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(Sig::from_bits(&[0; 23]).is_err());
        assert!(Sig::from_bits(&[0; 25]).is_err());
    }

    #[test]
    fn invalid_rate_code_rejected() {
        // Rate code 9 with fixed parity.
        let mut bits = Sig::new(Mcs::BPSK_1_2, 7).to_bits();
        bits[0] = 1;
        bits[3] = 1; // code becomes 9
        let parity = bits[..20].iter().fold(0u8, |a, &b| a ^ b);
        bits[20] = parity;
        let err = Sig::from_bits(&bits).unwrap_err();
        assert!(err.to_string().contains("rate code"));
    }

    #[test]
    fn one_symbol_at_base_rate() {
        // SIG must fit in a single BPSK-1/2 OFDM symbol (24 data bits).
        assert_eq!(SIG_BITS, Mcs::BPSK_1_2.data_bits_per_symbol());
    }

    #[test]
    fn display_contains_fields() {
        let s = Sig::new(Mcs::QAM64_3_4, 1500).to_string();
        assert!(s.contains("1500"));
        assert!(s.contains("QAM64"));
    }
}
