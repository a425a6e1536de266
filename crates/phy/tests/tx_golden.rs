//! Bit-exact golden hashes of the transmitter.
//!
//! `transmit` feeds every figure and the benchmark digests, so a speed
//! change to the TX chain must leave its output unchanged to the last
//! bit. This test hashes the f64 bit patterns of the baseband samples
//! plus every section's `symbol_bits` and `side_values` over a matrix of
//! all eight MCS, QBPSK on and off, the side channel off, 1-bit and
//! 2-bit with CRC groups of 1, 2 and 3 symbols, scrambled and clear
//! sections, and odd bit lengths. The constants were recorded on the
//! original allocating implementation.

use carpool_phy::mcs::Mcs;
use carpool_phy::sidechannel::PhaseOffsetMod;
use carpool_phy::tx::{transmit, SectionSpec, SideChannelConfig, TxFrame};

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

    fn frame(&mut self, frame: &TxFrame) {
        self.u64(frame.samples.len() as u64);
        for s in &frame.samples {
            self.u64(s.re.to_bits());
            self.u64(s.im.to_bits());
        }
        for info in &frame.sections {
            self.u64(info.first_symbol as u64);
            self.u64(info.num_symbols as u64);
            for row in &info.symbol_bits {
                self.u64(row.len() as u64);
                self.bytes(row);
            }
            self.u64(info.side_values.len() as u64);
            self.bytes(&info.side_values);
        }
    }
}

/// Deterministic pseudo-random bits (xorshift64), so the matrix does
/// not depend on any `rand` stream.
fn bits(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 63) as u8
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

/// Odd lengths: one bit, under one symbol, a few symbols, and a long
/// section whose symbol indices wrap the 127-entry pilot sequence.
const LENGTHS: [usize; 4] = [1, 37, 301, 3001];

/// Hash of every single-section case of one MCS.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn single_section_hash(mcs: Mcs) -> u64 {
    let mut h = Fnv::new();
    let mut seed = 1u64;
    for qbpsk in [false, true] {
        for side_channel in side_options() {
            for scramble in [false, true] {
                for len in LENGTHS {
                    seed += 1;
                    let spec = SectionSpec {
                        bits: bits(len, seed),
                        mcs,
                        scramble,
                        side_channel,
                        qbpsk,
                    };
                    h.frame(&transmit(&[spec]).expect("valid spec"));
                }
            }
        }
    }
    h.0
}

/// Hash of multi-section frames, which carry the pilot index and the
/// differential side-channel rotation across section boundaries.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn multi_section_hash() -> u64 {
    let mut h = Fnv::new();
    let sides = side_options();
    for (k, &mcs) in Mcs::ALL.iter().enumerate() {
        let next = Mcs::ALL[(k + 3) % Mcs::ALL.len()];
        let frame = transmit(&[
            SectionSpec::header_qbpsk(bits(48, 100 + k as u64)),
            SectionSpec::header(bits(24, 200 + k as u64)),
            SectionSpec {
                bits: bits(777 + 11 * k, 300 + k as u64),
                mcs,
                scramble: true,
                side_channel: sides[1 + k % (sides.len() - 1)],
                qbpsk: false,
            },
            SectionSpec {
                bits: bits(523, 400 + k as u64),
                mcs: next,
                scramble: true,
                side_channel: sides[(k + 2) % sides.len()],
                qbpsk: false,
            },
            SectionSpec::payload(bits(99, 500 + k as u64), mcs),
        ])
        .expect("valid specs");
        h.frame(&frame);
    }
    h.0
}

#[test]
fn transmit_matches_golden_hashes() {
    // One hash per entry of `Mcs::ALL`, BPSK-1/2 through 64-QAM-3/4.
    const GOLDEN: [u64; 8] = [
        0x44d5_5ffc_f1ac_e09c,
        0x53db_409f_38ed_5172,
        0xd7a2_13d6_b71a_68e5,
        0x656e_02b3_5292_c838,
        0xf6fa_50bc_a55f_dd4f,
        0x244b_b50e_09c5_6b05,
        0xe006_2994_f846_45c7,
        0x733b_ed94_5ebb_ef57,
    ];
    let got: Vec<u64> = Mcs::ALL.iter().map(|&m| single_section_hash(m)).collect();
    assert_eq!(got, GOLDEN, "transmit output changed: got {got:#018x?}");
}

#[test]
fn multi_section_transmit_matches_golden_hash() {
    const GOLDEN: u64 = 0x4342_a89a_2489_c4eb;
    let got = multi_section_hash();
    assert_eq!(got, GOLDEN, "multi-section output changed: got {got:#018x}");
}
