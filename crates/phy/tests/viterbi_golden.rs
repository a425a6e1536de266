//! Golden-corpus equivalence: the integer Viterbi kernel against an f64
//! reference oracle.
//!
//! The receiver's decoder quantizes LLRs to a `2^-7` fixed-point grid
//! (`quantize_llr`) and runs the branchless integer ACS kernel over the
//! levels; `decode_levels_with` is the public entry to that kernel. The
//! oracle below is a textbook f64 Viterbi with its own depuncturer and
//! trellis table, sharing no code with the library. On LLRs that
//! already sit on the quantization grid, quantization is exact and the
//! kernel must reproduce the oracle's decisions *bit for bit* —
//! including tie-breaks, which both resolve towards the low-numbered
//! predecessor. The corpus drives both over more than 10,000 seeded
//! frames at every code rate, weighted towards tie-prone small
//! magnitudes and erasure-heavy punctured rates, and requires zero
//! mismatches. Smaller tests hold the oracle and the kernel to the same
//! round trips, truncations and worst-case clamp lattices.
//!
//! A proptest section separately exercises the saturation edges of
//! [`quantize_llr`]: huge finite LLRs, infinities and NaN.

use carpool_phy::convolutional::{
    coded_len, decode, decode_levels_with, encode, quantize_llr, CodeRate, ViterbiScratch,
    CONSTRAINT_LENGTH, LLR_QUANT_CLAMP,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RATES: [CodeRate; 3] = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];

/// Trellis states of the K = 7 code.
const NUM_STATES: usize = 1 << (CONSTRAINT_LENGTH - 1);

/// Quantization step of `quantize_llr`: one level is `1 / LLR_SCALE`.
const LLR_SCALE: f64 = 128.0;

/// Frames per (rate, flavour) combination; 3 rates x 2 flavours x 1700
/// frames > 10,000 frames total.
const FRAMES_PER_CASE: usize = 1700;

/// Puncture pattern per input-bit period as `(keep_a, keep_b)` pairs,
/// IEEE 802.11-2012 Figure 18-9.
fn puncture_pattern(rate: CodeRate) -> &'static [(bool, bool)] {
    match rate {
        CodeRate::Half => &[(true, true)],
        CodeRate::TwoThirds => &[(true, true), (true, false)],
        CodeRate::ThreeQuarters => &[(true, true), (true, false), (false, true)],
    }
}

/// `(g0, g1)` output bits of the transition from `state` on `input`,
/// for the generators `g0 = 133` and `g1 = 171` (octal).
fn expected_outputs(state: usize, input: usize) -> (u8, u8) {
    let shift = ((state << 1) | input) as u32;
    let parity = |g: u32| ((shift & g).count_ones() & 1) as u8;
    (parity(0o133), parity(0o171))
}

/// Depunctures an LLR stream into per-step `(a, b)` pairs; punctured
/// and missing positions become zero-information LLRs.
fn oracle_depuncture(llrs: &[f64], total_in: usize, rate: CodeRate) -> Vec<(f64, f64)> {
    let pattern = puncture_pattern(rate);
    let mut it = llrs.iter();
    let mut take = |keep: bool| {
        if keep {
            it.next().copied().unwrap_or(0.0)
        } else {
            0.0
        }
    };
    (0..total_in)
        .map(|k| {
            let (keep_a, keep_b) = pattern[k % pattern.len()];
            let a = take(keep_a);
            (a, take(keep_b))
        })
        .collect()
}

/// The f64 reference Viterbi decoder. `llrs` are per-coded-bit LLRs in
/// transmission order, positive favouring bit 1. States are scanned in
/// ascending order and a candidate replaces the survivor only when
/// strictly better, so ties keep the low predecessor.
fn oracle_decode(llrs: &[f64], message_len: usize, rate: CodeRate) -> Vec<u8> {
    if message_len == 0 {
        return Vec::new();
    }
    let total_in = message_len + CONSTRAINT_LENGTH - 1;
    // Hypothesising bit 1 costs -llr, bit 0 costs +llr (constant
    // offsets cancel along paths).
    let bit_cost = |bit: u8, llr: f64| if bit == 1 { -llr } else { llr };
    let mut metrics = [f64::INFINITY; NUM_STATES];
    metrics[0] = 0.0;
    let mut history: Vec<[usize; NUM_STATES]> = Vec::with_capacity(total_in);
    for (la, lb) in oracle_depuncture(llrs, total_in, rate) {
        let mut next = [f64::INFINITY; NUM_STATES];
        let mut pred = [0usize; NUM_STATES];
        for (state, &m) in metrics.iter().enumerate() {
            if !m.is_finite() {
                continue;
            }
            for input in 0..2 {
                let (ea, eb) = expected_outputs(state, input);
                let ns = ((state << 1) | input) & (NUM_STATES - 1);
                let cand = m + bit_cost(ea, la) + bit_cost(eb, lb);
                if cand < next[ns] {
                    next[ns] = cand;
                    pred[ns] = state;
                }
            }
        }
        metrics = next;
        history.push(pred);
    }
    // The tail bits drive the encoder back to the zero state.
    let mut state = 0usize;
    let mut decoded = vec![0u8; total_in];
    for t in (0..total_in).rev() {
        decoded[t] = (state & 1) as u8;
        state = history[t][state];
    }
    decoded.truncate(message_len);
    decoded
}

/// The integer kernel on f64 LLRs: quantize each, then decode the levels.
fn kernel_decode(
    llrs: &[f64],
    message_len: usize,
    rate: CodeRate,
    scratch: &mut ViterbiScratch,
) -> Vec<u8> {
    let levels: Vec<i32> = llrs.iter().map(|&l| quantize_llr(l)).collect();
    decode_levels_with(&levels, message_len, rate, scratch)
}

/// Seeded xorshift bits, so the small tests need no RNG.
fn pseudo_random_bits(n: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 1) as u8
        })
        .collect()
}

/// `magnitude` with the sign of each coded bit (+ for 1, - for 0).
fn confident_llrs(coded: &[u8], magnitude: f64) -> Vec<f64> {
    coded
        .iter()
        .map(|&b| if b == 1 { magnitude } else { -magnitude })
        .collect()
}

/// Integer-valued LLR in [-64, 64]: exactly representable both as an
/// f64 path-metric summand and on the 2^-7 quantization grid (where it
/// becomes `k * 128`), so oracle and kernel see order-isomorphic
/// metrics — ties included.
fn grid_llr(rng: &mut StdRng) -> f64 {
    // Two-thirds of positions draw from a tie-prone tiny alphabet.
    if rng.gen_range(0..3) < 2 {
        f64::from(rng.gen_range(-2i32..=2))
    } else {
        f64::from(rng.gen_range(-64i32..=64))
    }
}

/// Corpus flavour A: LLRs loosely correlated with a real codeword, as a
/// noisy receiver would produce.
fn codeword_frame(rng: &mut StdRng, rate: CodeRate, message_len: usize) -> Vec<f64> {
    let bits: Vec<u8> = (0..message_len).map(|_| rng.gen_range(0..=1)).collect();
    let coded = encode(&bits, rate);
    coded
        .iter()
        .map(|&b| {
            let sign = if b == 1 { 1.0 } else { -1.0 };
            let mag = grid_llr(rng).abs();
            // A fifth of positions carry the wrong sign (channel errors).
            if rng.gen_range(0..5) == 0 {
                -sign * mag
            } else {
                sign * mag
            }
        })
        .collect()
}

/// Corpus flavour B: adversarial pure-noise LLRs with no underlying
/// codeword. Equivalence must hold for arbitrary inputs.
fn noise_frame(rng: &mut StdRng, rate: CodeRate, message_len: usize) -> Vec<f64> {
    (0..coded_len(message_len, rate))
        .map(|_| grid_llr(rng))
        .collect()
}

#[test]
fn golden_corpus_integer_kernel_matches_f64_oracle() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_2026);
    let mut scratch = ViterbiScratch::default();
    let mut frames = 0usize;
    for rate in RATES {
        for flavour in 0..2 {
            for _ in 0..FRAMES_PER_CASE {
                let message_len = rng.gen_range(48..=128);
                let llrs = if flavour == 0 {
                    codeword_frame(&mut rng, rate, message_len)
                } else {
                    noise_frame(&mut rng, rate, message_len)
                };
                let fast = kernel_decode(&llrs, message_len, rate, &mut scratch);
                let oracle = oracle_decode(&llrs, message_len, rate);
                assert_eq!(
                    fast, oracle,
                    "mismatch at rate {rate}, flavour {flavour}, frame {frames}"
                );
                frames += 1;
            }
        }
    }
    assert!(frames >= 10_000, "corpus too small: {frames}");
}

#[test]
fn golden_corpus_truncated_frames_match_oracle() {
    // A section's usable-length cut truncates its last symbol, so the
    // kernel sees frames that end mid-puncture-period: the missing
    // positions are erasures for both decoders.
    let mut rng = StdRng::seed_from_u64(0xBA7C_4AC5);
    let mut scratch = ViterbiScratch::default();
    let mut frames = 0usize;
    for rate in RATES {
        for flavour in 0..2 {
            for _ in 0..FRAMES_PER_CASE / 4 {
                let message_len = rng.gen_range(48..=128);
                let mut llrs = if flavour == 0 {
                    codeword_frame(&mut rng, rate, message_len)
                } else {
                    noise_frame(&mut rng, rate, message_len)
                };
                // Cut 0..=7 trailing stream positions: every puncture-
                // period boundary offset for every rate.
                let cut = rng.gen_range(0usize..8).min(llrs.len());
                llrs.truncate(llrs.len() - cut);
                let fast = kernel_decode(&llrs, message_len, rate, &mut scratch);
                let oracle = oracle_decode(&llrs, message_len, rate);
                assert_eq!(
                    fast, oracle,
                    "mismatch at rate {rate}, flavour {flavour}, frame {frames}, cut {cut}"
                );
                frames += 1;
            }
        }
    }
    assert!(frames >= 2_500, "corpus too small: {frames}");
}

#[test]
fn golden_corpus_hard_levels_match_hard_decoder() {
    // The fused hard path scatters ±1 levels; fed those, the levels
    // entry point must match the hard-input decoder on every frame,
    // channel errors included, and both must match the oracle fed ±1
    // LLRs (a Hamming-metric Viterbi with the same tie-break).
    let mut rng = StdRng::seed_from_u64(0x5EED_2026);
    let mut scratch = ViterbiScratch::default();
    for (frame, rate) in RATES.iter().cycle().take(900).enumerate() {
        let message_len = rng.gen_range(48..=128);
        let bits: Vec<u8> = (0..message_len).map(|_| rng.gen_range(0..=1)).collect();
        let mut coded = encode(&bits, *rate);
        for b in coded.iter_mut() {
            // ~6% raw bit errors: enough to exercise non-trivial
            // traceback without overwhelming the code.
            if rng.gen_range(0..16) == 0 {
                *b ^= 1;
            }
        }
        let levels: Vec<i32> = coded.iter().map(|&b| i32::from(b) * 2 - 1).collect();
        let via_levels = decode_levels_with(&levels, message_len, *rate, &mut scratch);
        let via_hard = decode(&coded, message_len, *rate);
        assert_eq!(
            via_levels, via_hard,
            "mismatch at rate {rate}, frame {frame}"
        );
        let oracle = oracle_decode(&confident_llrs(&coded, 1.0), message_len, *rate);
        assert_eq!(
            via_hard, oracle,
            "oracle mismatch at rate {rate}, frame {frame}"
        );
    }
}

#[test]
fn saturated_levels_at_clamp_match_oracle() {
    // Frames dominated by full-scale ±LLR_QUANT_CLAMP levels drive the
    // branch metric to its declared ±2^21 budget edge on nearly every
    // step; the plain (non-saturating) adds of the batched kernel must
    // still agree with the oracle exactly. Levels on the 2^-7 grid map
    // back to f64 losslessly, so both decoders see identical inputs.
    let mut rng = StdRng::seed_from_u64(0xC1A3_2026);
    let mut scratch = ViterbiScratch::default();
    const ALPHABET: [i32; 7] = [
        -LLR_QUANT_CLAMP,
        -LLR_QUANT_CLAMP,
        -LLR_QUANT_CLAMP,
        -128,
        0,
        128,
        LLR_QUANT_CLAMP,
    ];
    for rate in RATES {
        for frame in 0..300 {
            let message_len = rng.gen_range(48..=96);
            let levels: Vec<i32> = (0..coded_len(message_len, rate))
                .map(|_| {
                    let v = ALPHABET[rng.gen_range(0..ALPHABET.len())];
                    if rng.gen_range(0..2) == 0 {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            let llrs: Vec<f64> = levels.iter().map(|&q| f64::from(q) / LLR_SCALE).collect();
            let via_levels = decode_levels_with(&levels, message_len, rate, &mut scratch);
            let oracle = oracle_decode(&llrs, message_len, rate);
            assert_eq!(via_levels, oracle, "mismatch at rate {rate}, frame {frame}");
        }
    }
}

#[test]
fn grid_llrs_match_oracle_at_every_rate() {
    // Integer LLRs in [-3, 3], a few with the wrong sign: many exact
    // ties, which both decoders must break the same way.
    for (seed, rate) in [3u64, 5, 7].into_iter().zip(RATES) {
        let bits = pseudo_random_bits(160, seed);
        let coded = encode(&bits, rate);
        let llrs: Vec<f64> = coded
            .iter()
            .enumerate()
            .map(|(k, &b)| {
                let sign = if b == 1 { 1.0 } else { -1.0 };
                let mag = ((k * 2654435761) >> 7) % 4;
                sign * mag as f64 * if k % 17 == 0 { -1.0 } else { 1.0 }
            })
            .collect();
        assert_eq!(
            kernel_decode(&llrs, 160, rate, &mut ViterbiScratch::default()),
            oracle_decode(&llrs, 160, rate),
            "rate {rate}"
        );
    }
}

#[test]
fn soft_round_trip_all_rates() {
    let mut scratch = ViterbiScratch::default();
    for rate in RATES {
        let bits = pseudo_random_bits(200, 5);
        let llrs = confident_llrs(&encode(&bits, rate), 3.0);
        assert_eq!(oracle_decode(&llrs, 200, rate), bits, "oracle, rate {rate}");
        assert_eq!(
            kernel_decode(&llrs, 200, rate, &mut scratch),
            bits,
            "kernel, rate {rate}"
        );
    }
}

#[test]
fn soft_decoders_use_confidence() {
    // Three adjacent bits with the wrong sign but tiny magnitude: a
    // soft decoder recovers where a hard decoder may not.
    let bits = pseudo_random_bits(120, 21);
    let coded = encode(&bits, CodeRate::Half);
    let mut llrs = confident_llrs(&coded, 4.0);
    for k in 40..43 {
        llrs[k] = if coded[k] == 1 { -0.1 } else { 0.1 };
    }
    assert_eq!(oracle_decode(&llrs, 120, CodeRate::Half), bits);
    let kernel = kernel_decode(&llrs, 120, CodeRate::Half, &mut ViterbiScratch::default());
    assert_eq!(kernel, bits);
}

#[test]
fn truncated_input_decodes_its_head() {
    // The last eight coded bits are missing: erasures for both decoders,
    // which still recover everything the surviving bits cover.
    let bits = pseudo_random_bits(64, 3);
    let coded = encode(&bits, CodeRate::Half);
    let llrs = confident_llrs(&coded[..coded.len() - 8], 2.0);
    let oracle = oracle_decode(&llrs, 64, CodeRate::Half);
    let kernel = kernel_decode(&llrs, 64, CodeRate::Half, &mut ViterbiScratch::default());
    assert_eq!(oracle.len(), 64);
    assert_eq!(&oracle[..50], &bits[..50]);
    assert_eq!(kernel, oracle);
}

#[test]
fn empty_message_decodes_to_nothing() {
    assert!(oracle_decode(&[], 0, CodeRate::Half).is_empty());
    assert!(decode_levels_with(&[], 0, CodeRate::Half, &mut ViterbiScratch::default()).is_empty());
    assert!(decode(&[], 0, CodeRate::Half).is_empty());
}

#[test]
fn scratch_reuse_across_rates_and_lengths_matches_fresh_decodes() {
    // One scratch carried through every rate and a growing, then
    // shrinking, frame length must decode exactly as a fresh decoder.
    let mut scratch = ViterbiScratch::default();
    for rate in RATES {
        for n in [1usize, 48, 200, 17] {
            let bits = pseudo_random_bits(n, n as u64 + 31);
            let coded = encode(&bits, rate);
            let levels: Vec<i32> = coded.iter().map(|&b| i32::from(b) * 2 - 1).collect();
            assert_eq!(
                decode_levels_with(&levels, n, rate, &mut scratch),
                decode(&coded, n, rate),
                "hard rate {rate} n {n}"
            );
            let llrs = confident_llrs(&coded, 2.5);
            assert_eq!(
                kernel_decode(&llrs, n, rate, &mut scratch),
                oracle_decode(&llrs, n, rate),
                "soft rate {rate} n {n}"
            );
        }
    }
}

/// `n` seeded levels, uniform over `-span..=span`.
fn random_levels(n: usize, span: i32, seed: u64) -> Vec<i32> {
    let mut x = seed | 1;
    let width = u64::from(2 * span.unsigned_abs() + 1);
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % width) as i32 - span
        })
        .collect()
}

#[test]
fn worst_case_lattices_match_oracle() {
    // The lattices on which the unit tests hold the AVX2 kernel to the
    // portable one — every level at the clamp (constant, alternating,
    // with erasures), uniform random levels and tie-prone small ones —
    // at lengths around the kernel's phase boundaries (markers alive
    // for the first six steps, the first normalization at step 32) plus
    // a long frame. The levels are exact on the oracle's LLR grid.
    let c = LLR_QUANT_CLAMP;
    for (seed, rate) in [11u64, 13, 17].into_iter().zip(RATES) {
        for message_len in [1, 5, 6, 26, 27, 31, 32, 33, 64, 4096] {
            let n = coded_len(message_len, rate);
            let lattices: [(&str, Vec<i32>); 6] = [
                ("all +clamp", vec![c; n]),
                ("all -clamp", vec![-c; n]),
                (
                    "alternating ±clamp",
                    (0..n).map(|k| if k % 2 == 0 { c } else { -c }).collect(),
                ),
                (
                    "±clamp with erasures",
                    (0..n).map(|k| [c, 0, -c, -c, 0, c, 0][k % 7]).collect(),
                ),
                ("random levels", random_levels(n, c, seed)),
                ("tie-prone small levels", random_levels(n, 3, seed)),
            ];
            let mut scratch = ViterbiScratch::default();
            for (name, levels) in lattices {
                let llrs: Vec<f64> = levels.iter().map(|&q| f64::from(q) / LLR_SCALE).collect();
                assert_eq!(
                    decode_levels_with(&levels, message_len, rate, &mut scratch),
                    oracle_decode(&llrs, message_len, rate),
                    "{name}, rate {rate}, {message_len} bits"
                );
            }
        }
    }
}

#[test]
fn quantizer_edge_values() {
    // NaN carries no information -> erasure.
    assert_eq!(quantize_llr(f64::NAN), 0);
    // Infinities saturate at the clamp instead of overflowing.
    assert_eq!(quantize_llr(f64::INFINITY), LLR_QUANT_CLAMP);
    assert_eq!(quantize_llr(f64::NEG_INFINITY), -LLR_QUANT_CLAMP);
    assert_eq!(quantize_llr(0.0), 0);
    assert_eq!(quantize_llr(1.0), 128);
    assert_eq!(quantize_llr(-1.0), -128);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Saturating quantization never leaves the clamp interval, for any
    // finite or non-finite input (raw bit patterns cover every float,
    // NaNs and infinities included).
    #[test]
    fn quantizer_always_within_clamp(bits in any::<u64>()) {
        let q = quantize_llr(f64::from_bits(bits));
        prop_assert!((-LLR_QUANT_CLAMP..=LLR_QUANT_CLAMP).contains(&q));
    }

    // Frames peppered with saturation-edge LLRs (huge magnitudes,
    // infinities, NaN) still decode without panic or metric wrap, and
    // confidently-signed positions dominate the decision.
    #[test]
    fn saturated_frames_decode_cleanly(
        seed in any::<u64>(),
        rate_idx in 0usize..3,
    ) {
        let rate = RATES[rate_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let bits: Vec<u8> = (0..80).map(|_| rng.gen_range(0..=1)).collect();
        let coded = encode(&bits, rate);
        let llrs: Vec<f64> = coded
            .iter()
            .map(|&b| {
                let sign = if b == 1 { 1.0 } else { -1.0 };
                match rng.gen_range(0..4) {
                    // Far beyond the clamp: saturates, keeps its sign.
                    0 => sign * 1e18,
                    1 => sign * f64::INFINITY,
                    // NaN quantizes to an erasure; the code corrects it.
                    2 if rng.gen_range(0..8) == 0 => f64::NAN,
                    _ => sign * 8.0,
                }
            })
            .collect();
        let decoded = kernel_decode(&llrs, bits.len(), rate, &mut ViterbiScratch::default());
        prop_assert_eq!(decoded, bits);
    }
}
