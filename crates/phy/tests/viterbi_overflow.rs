//! The integer Viterbi kernel's worst-case lattices, through the public
//! decoders.
//!
//! The compile-time half of the `i32` budget proof is the set of
//! `const` asserts in `src/convolutional.rs`. They bound the branch
//! costs, the unreached-state marker, the finite path metrics and the
//! normalization subtraction. This test drives the public decoders with
//! the lattices that push those bounds hardest: every level at the
//! quantizer clamp, constant or alternating in sign, mixed with
//! erasures, up to the longest frame the SIG length field allows, at
//! every code rate, and checks the decoded shape and the all-zeros
//! codeword. The test profile keeps overflow checks on, and the first
//! check proves that this build traps `i32` overflow at all. On a host
//! with AVX2 the decoders run the AVX2 kernel, whose lane adds wrap
//! silently, so the runtime proof for the kernel arithmetic is the
//! unit test `portable_kernel_cannot_wrap_on_clamp_lattices` in
//! `src/convolutional.rs`: it runs these lattices through the trapping
//! portable kernel and requires the AVX2 kernel to match it.
//!
//! The whole file compiles only with debug assertions on, the one build
//! in which `i32` overflow traps: in a release build every test here
//! could only fail its first check.
#![cfg(debug_assertions)]

use std::hint::black_box;

use carpool_phy::convolutional::{
    coded_len, decode_levels_with, quantize_llr, CodeRate, ViterbiScratch, LLR_QUANT_CLAMP,
};

const RATES: [CodeRate; 3] = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];

/// Information bits of the longest payload the 16-bit SIG length field
/// allows (65,535 bytes).
const LONGEST_FRAME_BITS: usize = 8 * 65_535;

/// Message lengths around the kernel's phase boundaries (the trellis
/// runs six tail steps past the message): ending inside the first
/// `K-1 = 6` steps, while unreached-state markers are alive; ending at
/// and one past the first normalization (step 32); and a few
/// normalization passes on.
const SHORT_LENGTHS: [usize; 7] = [1, 5, 6, 26, 27, 64, 4_096];

/// Proves this build traps `i32` overflow. The probe's own "attempt to
/// add with overflow" panic is expected: it shows up first in a failing
/// test's captured output, before the panic that failed the test.
fn assert_overflow_traps() {
    let wrapped = std::panic::catch_unwind(|| black_box(i32::MAX) + 1);
    assert!(
        wrapped.is_err(),
        "this build does not trap i32 overflow, so the kernel runs below \
         would prove nothing; run the test with overflow checks on"
    );
}

/// The worst-case level patterns over `n` coded bits, by name.
fn patterns(n: usize) -> [(&'static str, Vec<i32>); 4] {
    let c = LLR_QUANT_CLAMP;
    [
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
    ]
}

/// Decodes `levels` and checks the output shape; an all-`-clamp`
/// lattice is the all-zeros codeword, so it must decode to zeros.
fn decode_checked(
    name: &str,
    levels: &[i32],
    message_len: usize,
    rate: CodeRate,
    scratch: &mut ViterbiScratch,
) {
    let decoded = decode_levels_with(levels, message_len, rate, scratch);
    assert_eq!(decoded.len(), message_len, "{name}, rate {rate}");
    if levels.iter().all(|&q| q == -LLR_QUANT_CLAMP) {
        assert!(
            decoded.iter().all(|&b| b == 0),
            "{name}, rate {rate}, {message_len} bits: the all-zeros codeword must decode to zeros"
        );
    }
}

#[test]
fn clamp_lattices_cannot_wrap_at_any_length_or_rate() {
    assert_overflow_traps();
    let mut scratch = ViterbiScratch::default();
    for rate in RATES {
        for message_len in SHORT_LENGTHS {
            for (name, levels) in patterns(coded_len(message_len, rate)) {
                decode_checked(name, &levels, message_len, rate, &mut scratch);
            }
        }
    }
}

#[test]
fn longest_sig_frame_cannot_wrap_at_any_rate() {
    assert_overflow_traps();
    let mut scratch = ViterbiScratch::default();
    // One pattern per rate keeps the unoptimized run short; together
    // the three cover a constant, an alternating and an erasure-mixed
    // lattice over ~16k normalization passes each.
    for (rate, pick) in RATES.into_iter().zip([0, 2, 3]) {
        let patterns = patterns(coded_len(LONGEST_FRAME_BITS, rate));
        let (name, levels) = &patterns[pick];
        decode_checked(name, levels, LONGEST_FRAME_BITS, rate, &mut scratch);
    }
}

#[test]
fn infinite_llrs_saturate_at_the_clamp_and_cannot_wrap() {
    assert_overflow_traps();
    let mut scratch = ViterbiScratch::default();
    for rate in RATES {
        for message_len in SHORT_LENGTHS {
            let n = coded_len(message_len, rate);
            let inf = f64::INFINITY;
            let lattices: [(&str, Vec<f64>); 4] = [
                ("all +inf", vec![inf; n]),
                ("all -inf", vec![-inf; n]),
                (
                    "alternating ±inf",
                    (0..n)
                        .map(|k| if k % 2 == 0 { inf } else { -inf })
                        .collect(),
                ),
                (
                    "±inf with NaN and zero erasures",
                    (0..n)
                        .map(|k| [inf, f64::NAN, -inf, -inf, 0.0, inf][k % 6])
                        .collect(),
                ),
            ];
            for (name, llrs) in lattices {
                let levels: Vec<i32> = llrs.iter().map(|&l| quantize_llr(l)).collect();
                let decoded = decode_levels_with(&levels, message_len, rate, &mut scratch);
                assert_eq!(decoded.len(), message_len, "{name}, rate {rate}");
                if name == "all -inf" {
                    assert!(decoded.iter().all(|&b| b == 0), "{name}, rate {rate}");
                }
            }
        }
    }
}
