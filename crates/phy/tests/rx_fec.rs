//! `Fec::Off` stops the receiver before the Viterbi decoder and changes
//! nothing else.
//!
//! Every MCS × {standard, RTE} estimation × side channel off/on × QBPSK
//! mark × {24, 800, 12,003}-bit section is received through a noisy,
//! rotating channel (so symbol CRCs fail now and then and RTE gates its
//! updates) inside a three-section frame. Against an all-`Hard` decode
//! of the same samples:
//!
//! * an all-`Off` decode yields the same raw symbol bits, CRC verdicts,
//!   side values and phase offsets, the same decoder position after
//!   each section, and no decoded bits;
//! * decodes that switch between `Off` and `Hard` section by section
//!   yield, for every `Hard` section, exactly the all-`Hard` section:
//!   `Off` leaves the channel estimator and the phase reference as
//!   `Hard` would.

use carpool_phy::math::Complex64;
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{Estimation, Fec, FrameDecoder, RxSection, SectionLayout};
use carpool_phy::tx::{transmit, SectionSpec, SideChannelConfig};

const ESTIMATIONS: [Estimation; 2] = [
    Estimation::Standard,
    Estimation::Rte(CalibrationRule::Average),
];

/// Receive SNR of the test channel: low enough that the denser
/// constellations see symbol errors and CRC failures.
const SNR_DB: f64 = 16.0;

/// Residual carrier rotation per sample (about 300 Hz at 20 Msample/s),
/// so phase tracking and the side channel's differential reference move.
const ROTATION_PER_SAMPLE: f64 = 1e-4;

fn bits(len: usize, salt: usize) -> Vec<u8> {
    (0..len)
        .map(|k| u8::from((k * 7 + k / 3 + salt) % 5 < 2))
        .collect()
}

/// Deterministic white Gaussian noise (xorshift + Box–Muller) at
/// [`SNR_DB`] below the frame's mean sample power, plus a constant
/// carrier rotation.
fn impair(samples: &[Complex64], seed: u64) -> Vec<Complex64> {
    let power = samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / samples.len() as f64;
    let sigma = (power / 10f64.powf(SNR_DB / 10.0) / 2.0).sqrt();
    let mut x = seed | 1;
    let mut uniform = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // 53 random bits in (0, 1].
        ((x >> 11) + 1) as f64 / (1u64 << 53) as f64
    };
    samples
        .iter()
        .enumerate()
        .map(|(n, &s)| {
            let r = sigma * (-2.0 * uniform().ln()).sqrt();
            let theta = std::f64::consts::TAU * uniform();
            let noise = Complex64::new(r * theta.cos(), r * theta.sin());
            s * Complex64::cis(ROTATION_PER_SAMPLE * n as f64) + noise
        })
        .collect()
}

/// The frame of one case: the section under test, a fixed QAM16 payload
/// with the side channel on, then the section under test again with
/// other bits.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn case_frame(
    mcs: Mcs,
    len: usize,
    side_channel: bool,
    qbpsk: bool,
) -> (Vec<Complex64>, Vec<SectionLayout>) {
    let case = |salt| SectionSpec {
        bits: bits(len, salt),
        mcs,
        scramble: true,
        side_channel: side_channel.then(SideChannelConfig::default),
        qbpsk,
    };
    let specs = [
        case(0),
        SectionSpec::payload(bits(400, 1), Mcs::QAM16_1_2),
        case(2),
    ];
    let tx = transmit(&specs).expect("valid specs");
    let seed = (len * 31 + mcs.coded_bits_per_symbol()) as u64;
    (
        impair(&tx.samples, seed),
        specs.iter().map(SectionLayout::of).collect(),
    )
}

/// Decodes every section of `layouts`, the `i`th with `modes[i]`, and
/// returns each section with the decoder position after it.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed decode fails the test"
)]
fn decode(
    samples: &[Complex64],
    layouts: &[SectionLayout],
    estimation: Estimation,
    modes: [Fec; 3],
) -> Vec<(RxSection, usize)> {
    let mut decoder = FrameDecoder::new(samples, estimation).expect("buffer holds the preamble");
    let mut out = Vec::new();
    for (layout, fec) in layouts.iter().zip(modes) {
        decoder = decoder.with_fec(fec);
        let section = decoder
            .decode_section(layout)
            .expect("buffer holds every section");
        out.push((section, decoder.position()));
    }
    out
}

#[test]
fn fec_off_matches_hard_before_the_decoder() {
    use Fec::{Hard, Off};
    let mut crc_failures = 0usize;
    for mcs in Mcs::ALL {
        for len in [24, 800, 12_003] {
            for side_channel in [false, true] {
                for qbpsk in [false, true] {
                    let (samples, layouts) = case_frame(mcs, len, side_channel, qbpsk);
                    for estimation in ESTIMATIONS {
                        let what = format!(
                            "{mcs} {len} bits, side channel {side_channel}, \
                             qbpsk {qbpsk}, {estimation:?}"
                        );
                        let hard = decode(&samples, &layouts, estimation, [Hard; 3]);
                        let off = decode(&samples, &layouts, estimation, [Off; 3]);
                        for (i, ((h, h_pos), (o, o_pos))) in hard.iter().zip(&off).enumerate() {
                            assert!(o.bits.is_empty(), "{what}: section {i} decoded bits");
                            assert!(!h.bits.is_empty(), "{what}: section {i}");
                            assert_eq!(o.raw_symbol_bits, h.raw_symbol_bits, "{what}: {i}");
                            assert_eq!(o.crc_ok, h.crc_ok, "{what}: section {i}");
                            assert_eq!(o.side_values, h.side_values, "{what}: section {i}");
                            let bits_of = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
                            let (h_phase, o_phase): (Vec<u64>, Vec<u64>) =
                                (bits_of(&h.phase_offsets), bits_of(&o.phase_offsets));
                            assert_eq!(o_phase, h_phase, "{what}: section {i}");
                            assert_eq!(o_pos, h_pos, "{what}: section {i}");
                            crc_failures += h.crc_ok.iter().filter(|&&ok| !ok).count();
                        }
                        for modes in [[Off, Hard, Off], [Hard, Off, Hard]] {
                            let mixed = decode(&samples, &layouts, estimation, modes);
                            for (i, (fec, (m, all))) in
                                modes.iter().zip(mixed.iter().zip(&hard)).enumerate()
                            {
                                if *fec == Hard {
                                    assert_eq!(m, all, "{what}: {modes:?} section {i}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // The channel must make RTE gate something, or the state check
    // above proves little.
    assert!(crc_failures > 0, "no symbol CRC failed at {SNR_DB} dB");
}
