//! Property-based tests for the PHY primitives.

use carpool_phy::bits::{bits_to_bytes, bits_to_uint, bytes_to_bits, uint_to_bits};
use carpool_phy::convolutional::{coded_len, decode, encode, CodeRate};
use carpool_phy::crc::{append_fcs, check_fcs, SmallCrc};
use carpool_phy::fft::{fft, ifft};
use carpool_phy::interleaver::Interleaver;
use carpool_phy::math::{wrap_angle, Complex64};
use carpool_phy::mcs::Mcs;
use carpool_phy::modulation::Modulation;
use carpool_phy::rx::{receive, Estimation, SectionLayout};
use carpool_phy::scrambler::Scrambler;
use carpool_phy::sidechannel::{PhaseOffsetDecoder, PhaseOffsetEncoder, PhaseOffsetMod};
use carpool_phy::tx::{transmit, SectionSpec};
use proptest::prelude::*;

fn bit_vec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=1, 1..max_len)
}

fn any_modulation() -> impl Strategy<Value = Modulation> {
    prop::sample::select(Modulation::ALL.to_vec())
}

fn any_rate() -> impl Strategy<Value = CodeRate> {
    prop::sample::select(vec![
        CodeRate::Half,
        CodeRate::TwoThirds,
        CodeRate::ThreeQuarters,
    ])
}

fn any_mcs() -> impl Strategy<Value = Mcs> {
    prop::sample::select(Mcs::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bytes_bits_round_trip(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    fn uint_bits_round_trip(v in any::<u64>(), width in 1usize..=64) {
        let masked = if width == 64 { v } else { v & ((1u64 << width) - 1) };
        prop_assert_eq!(bits_to_uint(&uint_to_bits(masked, width), width), masked);
    }

    #[test]
    fn scrambler_is_involution(bits in bit_vec(600), seed in 1u8..0x80) {
        let once = Scrambler::new(seed).scramble(&bits);
        prop_assert_eq!(Scrambler::new(seed).scramble(&once), bits);
    }

    #[test]
    fn convolutional_round_trip(bits in bit_vec(400), rate in any_rate()) {
        let coded = encode(&bits, rate);
        prop_assert_eq!(coded.len(), coded_len(bits.len(), rate));
        prop_assert_eq!(decode(&coded, bits.len(), rate), bits);
    }

    #[test]
    fn viterbi_corrects_one_flip_at_half_rate(
        bits in bit_vec(300),
        flip_frac in 0.0f64..1.0,
    ) {
        let mut coded = encode(&bits, CodeRate::Half);
        let pos = ((coded.len() - 1) as f64 * flip_frac) as usize;
        coded[pos] ^= 1;
        prop_assert_eq!(decode(&coded, bits.len(), CodeRate::Half), bits);
    }

    #[test]
    fn small_crc_flags_any_single_flip(
        bits in bit_vec(100),
        width in prop::sample::select(vec![1u8, 2, 3, 4, 6, 8]),
        flip_frac in 0.0f64..1.0,
    ) {
        let crc = SmallCrc::standard(width);
        let checksum = crc.compute(&bits);
        let mut bad = bits.clone();
        let pos = ((bits.len() - 1) as f64 * flip_frac) as usize;
        bad[pos] ^= 1;
        prop_assert!(!crc.verify(&bad, checksum));
    }

    #[test]
    fn fcs_round_trip_and_detection(payload in prop::collection::vec(any::<u8>(), 1..300)) {
        let framed = append_fcs(&payload);
        prop_assert_eq!(check_fcs(&framed).expect("fcs valid"), &payload[..]);
        let mut bad = framed.clone();
        bad[0] ^= 0x01;
        prop_assert!(check_fcs(&bad).is_none());
    }

    #[test]
    fn fft_round_trip(re in prop::collection::vec(-10.0f64..10.0, 64)) {
        let x: [Complex64; 64] = std::array::from_fn(|k| Complex64::new(re[k], -re[k] * 0.5));
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn interleaver_round_trip(m in any_modulation(), seed in any::<u64>()) {
        let il = Interleaver::new(m, 48);
        let bits: Vec<u8> = (0..il.block_size())
            .map(|k| ((seed >> (k % 64)) & 1) as u8)
            .collect();
        prop_assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    #[test]
    fn modulation_round_trip(m in any_modulation(), seed in any::<u64>()) {
        let bps = m.bits_per_symbol();
        let bits: Vec<u8> = (0..bps * 48).map(|k| ((seed >> (k % 64)) & 1) as u8).collect();
        prop_assert_eq!(m.demap_all(&m.map_all(&bits)), bits);
    }

    #[test]
    fn phase_offset_round_trip_under_drift(
        values in prop::collection::vec(0u8..4, 1..80),
        drift in -0.02f64..0.02,
        two_bit in any::<bool>(),
    ) {
        let m = if two_bit { PhaseOffsetMod::TwoBit } else { PhaseOffsetMod::OneBit };
        let mask = (1u8 << m.bits_per_symbol()) - 1;
        let mut enc = PhaseOffsetEncoder::new(m);
        let mut dec = PhaseOffsetDecoder::new(m);
        dec.set_reference(0.0);
        for (n, v) in values.iter().enumerate() {
            let v = v & mask;
            let injected = enc.next_offset(v);
            let measured = wrap_angle(injected + drift * (n + 1) as f64);
            prop_assert_eq!(dec.decode(measured), Some(v));
        }
    }

    #[test]
    fn clean_channel_end_to_end(
        payload in bit_vec(1200),
        mcs in any_mcs(),
        scramble in any::<bool>(),
    ) {
        let spec = SectionSpec {
            bits: payload.clone(),
            mcs,
            scramble,
            side_channel: Some(Default::default()),
            qbpsk: false,
        };
        let tx = transmit(std::slice::from_ref(&spec)).expect("valid spec");
        let rx = receive(&tx.samples, &[SectionLayout::of(&spec)], Estimation::Standard)
            .expect("lengths match");
        prop_assert_eq!(&rx.sections[0].bits, &payload);
        prop_assert!(rx.sections[0].crc_ok.iter().all(|&ok| ok));
    }

    #[test]
    fn wrap_angle_is_idempotent_and_bounded(a in -100.0f64..100.0) {
        let w = wrap_angle(a);
        prop_assert!(w > -std::f64::consts::PI - 1e-12);
        prop_assert!(w <= std::f64::consts::PI + 1e-12);
        prop_assert!((wrap_angle(w) - w).abs() < 1e-12);
    }
}
