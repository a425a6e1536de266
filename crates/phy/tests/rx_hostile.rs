//! Hostile input to the receiver: truncated, silent or corrupted sample
//! buffers against random section layouts, in every FEC mode. Each call
//! must return `Ok` or `Err`; a panic fails the property.
//!
//! Layouts draw any MCS, up to 65,535 message bits, scrambling on/off,
//! the QBPSK mark on/off, and the side channel off or on with either
//! alphabet and a group of 0 to 9 symbols (valid or not). Sample
//! buffers are a real transmission of those layouts (when the
//! transmitter accepts them), silence, or noise laced with zeros, NaNs
//! and infinities; half are cut short of the length the layouts need,
//! half padded up to 25% past it. A cut buffer must return `Err`.

use carpool_phy::math::Complex64;
use carpool_phy::mcs::Mcs;
use carpool_phy::ofdm::SYMBOL_LEN;
use carpool_phy::preamble::PREAMBLE_LEN;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{receive_with, Estimation, Fec, SectionLayout};
use carpool_phy::sidechannel::PhaseOffsetMod;
use carpool_phy::tx::{transmit, SectionSpec, SideChannelConfig};
use proptest::prelude::*;

fn any_layout() -> impl Strategy<Value = SectionLayout> {
    (
        prop::sample::select(Mcs::ALL.to_vec()),
        0usize..=65_535,
        any::<bool>(),
        prop::option::of((
            prop::sample::select(vec![PhaseOffsetMod::OneBit, PhaseOffsetMod::TwoBit]),
            // Mostly valid groups; 0 and 9 never are, 8 only for 1 bit.
            prop::sample::select(vec![0usize, 1, 1, 2, 3, 4, 8, 9]),
        )),
        any::<bool>(),
    )
        .prop_map(
            |(mcs, message_bits, scramble, side_channel, qbpsk)| SectionLayout {
                message_bits,
                mcs,
                scramble,
                side_channel: side_channel.map(|(modulation, group_symbols)| SideChannelConfig {
                    modulation,
                    group_symbols,
                }),
                qbpsk,
            },
        )
}

/// Samples the layouts need: the preamble plus every section's symbols.
fn needed_len(layouts: &[SectionLayout]) -> usize {
    PREAMBLE_LEN
        + layouts
            .iter()
            .map(SectionLayout::symbol_count)
            .sum::<usize>()
            * SYMBOL_LEN
}

/// A buffer of `len` samples of the given kind: 0 a transmission of
/// `layouts` (falling back to noise when the transmitter rejects them),
/// 1 silence, 2 noise, 3 noise with zeros, NaNs and infinities.
fn samples(layouts: &[SectionLayout], kind: usize, len: usize, seed: u64) -> Vec<Complex64> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut noise = |corrupt: bool| {
        let r = next();
        let value = |bits: u64| (bits & 0xffff) as f64 / 32_768.0 - 1.0;
        match (corrupt, r >> 60) {
            (true, 0) => Complex64::ZERO,
            (true, 1) => Complex64::new(f64::NAN, 0.0),
            (true, 2) => Complex64::new(f64::INFINITY, f64::NEG_INFINITY),
            _ => Complex64::new(value(r), value(r >> 16)),
        }
    };
    let transmitted = (kind == 0)
        .then(|| {
            let specs: Vec<SectionSpec> = layouts
                .iter()
                .map(|l| SectionSpec {
                    bits: (0..l.message_bits).map(|k| u8::from(k % 3 == 0)).collect(),
                    mcs: l.mcs,
                    scramble: l.scramble,
                    side_channel: l.side_channel,
                    qbpsk: l.qbpsk,
                })
                .collect();
            transmit(&specs).ok()
        })
        .flatten();
    let mut out = match (kind, transmitted) {
        (_, Some(tx)) => tx.samples,
        (1, None) => Vec::new(),
        _ => (0..len).map(|_| noise(kind == 3)).collect(),
    };
    out.resize(len, Complex64::ZERO);
    out
}

const ESTIMATIONS: [Estimation; 2] = [
    Estimation::Standard,
    Estimation::Rte(CalibrationRule::Average),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn receive_with_never_panics(
        layouts in prop::collection::vec(any_layout(), 1..4),
        kind in 0usize..4,
        (cut, fraction) in (any::<bool>(), 0.0f64..1.0),
        seed in any::<u64>(),
        rte in any::<bool>(),
    ) {
        let needed = needed_len(&layouts);
        let fill = if cut { fraction } else { 1.0 + fraction / 4.0 };
        let len = (needed as f64 * fill) as usize;
        let buffer = samples(&layouts, kind, len, seed);
        let estimation = ESTIMATIONS[usize::from(rte)];
        for fec in [Fec::Hard, Fec::Soft, Fec::Off] {
            let received = receive_with(&buffer, &layouts, estimation, fec);
            if len < needed {
                prop_assert!(received.is_err());
            }
            if let Ok(frame) = received {
                prop_assert_eq!(frame.sections.len(), layouts.len());
                for (section, layout) in frame.sections.iter().zip(&layouts) {
                    prop_assert_eq!(section.raw_symbol_bits.len(), layout.symbol_count());
                    let decoded = if fec == Fec::Off { 0 } else { layout.message_bits };
                    prop_assert_eq!(section.bits.len(), decoded);
                }
            }
        }
    }
}
