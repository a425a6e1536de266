//! Bit-exact golden hashes of the receiver's outputs.
//!
//! `receive_with` feeds every PHY figure and the benchmark digests, so a
//! speed change to the RX chain must leave its outputs unchanged to the
//! last bit. This test transmits one QBPSK-led frame per MCS and side
//! channel option (off, 1-bit and 2-bit with CRC groups of 1, 2 and 3
//! symbols), impairs it with a drifting gain, a phase ramp and
//! deterministic noise near the MCS's error threshold, and receives it
//! under Standard estimation and RTE with each calibration rule, at
//! `Fec::Off` and `Fec::Hard`. It hashes the f64 bit patterns of the
//! initial channel estimate and the phase offsets, plus the raw symbol
//! bits, the CRC verdicts, the side values and the decoded bits. The
//! constants were recorded on the receiver that divided by the channel
//! estimate and re-modulated every side-channel symbol.

use carpool_phy::math::Complex64;
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{receive_with, Estimation, Fec, RxFrame, SectionLayout};
use carpool_phy::sidechannel::PhaseOffsetMod;
use carpool_phy::tx::{transmit, SectionSpec, SideChannelConfig};

/// 64-bit FNV-1a, fed word by word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn complex(&mut self, z: Complex64) {
        self.u64(z.re.to_bits());
        self.u64(z.im.to_bits());
    }

    fn frame(&mut self, frame: &RxFrame) {
        for carrier in -32..32 {
            self.complex(frame.initial_estimate.at(carrier));
        }
        for section in &frame.sections {
            self.u64(section.phase_offsets.len() as u64);
            for phase in &section.phase_offsets {
                self.u64(phase.to_bits());
            }
            self.u64(section.raw_symbol_bits.len() as u64);
            for row in &section.raw_symbol_bits {
                self.u64(row.len() as u64);
                self.bytes(row);
            }
            self.u64(section.crc_ok.len() as u64);
            self.bytes(
                &section
                    .crc_ok
                    .iter()
                    .map(|&ok| u8::from(ok))
                    .collect::<Vec<u8>>(),
            );
            self.u64(section.side_values.len() as u64);
            self.bytes(&section.side_values);
            self.u64(section.bits.len() as u64);
            self.bytes(&section.bits);
        }
    }
}

/// Deterministic xorshift64 stream, so the matrix depends on no `rand`
/// stream and no channel model.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn bit(&mut self) -> u8 {
        (self.next() >> 63) as u8
    }

    /// Uniform on `[-1, 1)`, from the top 53 bits.
    fn symmetric(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Per-MCS SNR in dB, close enough to each threshold that some symbol
/// CRCs fail and some pass.
fn snr_db(mcs: Mcs) -> f64 {
    match Mcs::ALL.iter().position(|&m| m == mcs) {
        Some(0) => 6.0,
        Some(1) => 8.0,
        Some(2) => 9.0,
        Some(3) => 12.0,
        Some(4) => 15.0,
        Some(5) => 18.0,
        Some(6) => 22.0,
        _ => 24.0,
    }
}

/// The samples after a static complex gain that drifts by 20% in
/// amplitude over the frame, a phase ramp (a residual carrier
/// frequency offset) and uniform noise at `snr_db` of the mean power.
fn impair(samples: &[Complex64], snr_db: f64, seed: u64) -> Vec<Complex64> {
    let power = samples.iter().map(|s| s.norm_sqr()).sum::<f64>() / samples.len() as f64;
    // Uniform on [-a, a] has variance a^2 / 3 per axis.
    let sigma = (power / 10f64.powf(snr_db / 10.0) / 2.0).sqrt();
    let a = 3f64.sqrt() * sigma;
    let mut rng = XorShift::new(seed);
    let n = samples.len() as f64;
    samples
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let t = k as f64;
            let gain = Complex64::from_polar(0.8 * (1.0 + 0.2 * t / n), 0.6 + 3e-5 * t);
            *s * gain + Complex64::new(a * rng.symmetric(), a * rng.symmetric())
        })
        .collect()
}

fn side_options() -> Vec<Option<SideChannelConfig>> {
    let mut out = vec![None];
    for modulation in [PhaseOffsetMod::OneBit, PhaseOffsetMod::TwoBit] {
        for group_symbols in 1..=3 {
            out.push(Some(SideChannelConfig {
                modulation,
                group_symbols,
            }));
        }
    }
    out
}

const ESTIMATIONS: [Estimation; 4] = [
    Estimation::Standard,
    Estimation::Rte(CalibrationRule::Average),
    Estimation::Rte(CalibrationRule::Replace),
    Estimation::Rte(CalibrationRule::Ewma(0.3)),
];

/// Hash of every case of one MCS, and how many symbol CRCs passed and
/// failed across them.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup or decode fails the test"
)]
fn mcs_hash(mcs: Mcs) -> (u64, usize, usize) {
    let mut h = Fnv::new();
    let (mut passed, mut failed) = (0, 0);
    for (k, side_channel) in side_options().into_iter().enumerate() {
        let seed = 1 + 16 * k as u64 + mcs.data_bits_per_symbol() as u64;
        let mut rng = XorShift::new(seed);
        let specs = [
            SectionSpec::header_qbpsk((0..48).map(|_| rng.bit()).collect()),
            SectionSpec {
                bits: (0..2_401).map(|_| rng.bit()).collect(),
                mcs,
                scramble: true,
                side_channel,
                qbpsk: false,
            },
        ];
        let layouts: Vec<SectionLayout> = specs.iter().map(SectionLayout::of).collect();
        let tx = transmit(&specs).expect("valid specs");
        let samples = impair(&tx.samples, snr_db(mcs), seed);
        for estimation in ESTIMATIONS {
            for fec in [Fec::Off, Fec::Hard] {
                let rx = receive_with(&samples, &layouts, estimation, fec).expect("decodes");
                for section in &rx.sections {
                    passed += section.crc_ok.iter().filter(|&&ok| ok).count();
                    failed += section.crc_ok.iter().filter(|&&ok| !ok).count();
                }
                h.frame(&rx);
            }
        }
    }
    (h.0, passed, failed)
}

#[test]
fn receive_matches_golden_hashes() {
    // One hash per entry of `Mcs::ALL`, BPSK-1/2 through 64-QAM-3/4.
    const GOLDEN: [u64; 8] = [
        0x7ac2_9776_b654_4bd5,
        0x0f3c_545c_548f_ed91,
        0x7673_120b_84e6_9e5d,
        0xa340_4302_8b7b_49c8,
        0x78f2_b359_5402_8bd5,
        0x549b_b233_8f58_f720,
        0xb837_6783_a2d5_04f4,
        0x54bb_6d29_3d6d_ca19,
    ];
    let results: Vec<(u64, usize, usize)> = Mcs::ALL.iter().map(|&m| mcs_hash(m)).collect();
    // Every MCS exercises both the CRC-pass (RTE update) and the
    // CRC-fail (vetoed group) branches.
    for (mcs, &(_, passed, failed)) in Mcs::ALL.iter().zip(&results) {
        assert!(
            passed > 0 && failed > 0,
            "{mcs}: {passed} passed, {failed} failed"
        );
    }
    let got: Vec<u64> = results.iter().map(|r| r.0).collect();
    assert_eq!(got, GOLDEN, "receive output changed: got {got:#018x?}");
}
