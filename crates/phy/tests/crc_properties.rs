//! The table-driven, branchless `SmallCrc::compute` against plain
//! bit-serial polynomial division.
//!
//! Both the TX side channel and the RX check run `compute` on every OFDM
//! symbol, so it divides eight bits per table lookup. The reference
//! below is the textbook one-bit-at-a-time loop; the two must agree for
//! every width, standard or custom polynomial and bit string, and a
//! non-binary input must still panic on either path.

use carpool_phy::crc::SmallCrc;
use proptest::prelude::*;

/// Bit-serial division: shift each bit in at the top, XOR the
/// polynomial on feedback.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn reference(width: u8, poly: u8, bits: &[u8]) -> u8 {
    let top = 1u16 << (width - 1);
    let mask = (1u16 << width) - 1;
    let mut reg = 0u16;
    for &bit in bits {
        assert!(bit <= 1);
        let feedback = ((reg & top) != 0) ^ (bit == 1);
        reg = (reg << 1) & mask;
        if feedback {
            reg ^= u16::from(poly);
        }
    }
    u8::try_from(reg).expect("masked to at most 8 bits")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn standard_crcs_match_the_bit_serial_reference(
        width in 1u8..=8,
        bits in prop::collection::vec(0u8..=1, 0..900),
    ) {
        let crc = SmallCrc::standard(width);
        prop_assert_eq!(crc.compute(&bits), reference(width, crc.poly(), &bits));
    }

    #[test]
    fn custom_polynomials_match_the_bit_serial_reference(
        width in 1u8..=8,
        poly in any::<u8>(),
        bits in prop::collection::vec(0u8..=1, 0..300),
    ) {
        let poly = if width == 8 { poly } else { poly & ((1 << width) - 1) };
        let crc = SmallCrc::new(width, poly);
        prop_assert_eq!(crc.compute(&bits), reference(width, poly, &bits));
    }

    #[test]
    fn verify_accepts_exactly_the_computed_checksum(
        width in 1u8..=8,
        bits in prop::collection::vec(0u8..=1, 1..400),
        flip in any::<u8>(),
    ) {
        let crc = SmallCrc::standard(width);
        let check = crc.compute(&bits);
        prop_assert!(crc.verify(&bits, check));
        let other = (check ^ flip) & ((1u16 << width) - 1) as u8;
        prop_assert_eq!(crc.verify(&bits, other), other == check);
    }
}

#[test]
#[should_panic(expected = "bit value 2 out of range")]
fn non_binary_input_panics_in_a_full_byte() {
    SmallCrc::CRC2.compute(&[0, 1, 1, 0, 2, 0, 1, 1, 0]);
}

#[test]
#[should_panic(expected = "bit value 3 out of range")]
fn non_binary_input_panics_in_the_tail() {
    SmallCrc::CRC6.compute(&[0, 1, 1, 0, 1, 0, 1, 1, 3]);
}

#[test]
#[should_panic(expected = "bit value 255 out of range")]
fn non_binary_input_panics_with_a_custom_polynomial() {
    SmallCrc::new(3, 0b101).compute(&[1, 255]);
}
