//! Statistical equivalence of the ziggurat normal generator to N(0, 1).
//!
//! `complex_gaussian(rng, 2.0)` scales each component by exactly 1.0, so
//! its in-phase then quadrature components are the generator's raw
//! variates in draw order. Four million of them are checked for their
//! first four moments and for tail counts against the normal
//! distribution function; a counting RNG shows the rare wedge and tail
//! paths are exercised; and the first 32 variates for one seed are
//! pinned, so any later change to the noise stream is deliberate.

use carpool_channel::noise::complex_gaussian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Variates drawn by the moment and tail tests.
const N: usize = 4_000_000;

/// Right edge of the ziggurat's base layer: values beyond it come only
/// from the tail sampler.
const TAIL_START: f64 = 3.654_152_885_361_009;

/// `n` standard normal variates, in draw order.
fn variates(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let c = complex_gaussian(&mut rng, 2.0);
        out.push(c.re);
        out.push(c.im);
    }
    out.truncate(n);
    out
}

#[test]
fn first_four_moments_match_the_standard_normal() {
    let xs = variates(0x5eed_0001, N);
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let (mut m2, mut m3, mut m4) = (0.0, 0.0, 0.0);
    for &x in &xs {
        let d = x - mean;
        let d2 = d * d;
        m2 += d2;
        m3 += d2 * d;
        m4 += d2 * d2;
    }
    let (m2, m3, m4) = (m2 / n, m3 / n, m4 / n);
    let skewness = m3 / m2.powf(1.5);
    let kurtosis = m4 / (m2 * m2);
    // Standard errors at n = 4e6: mean 5e-4, variance 7e-4, skewness
    // 1.2e-3, kurtosis 2.4e-3; every tolerance is about 6 of them.
    assert!(mean.abs() < 0.003, "mean {mean}");
    assert!((m2 - 1.0).abs() < 0.004, "variance {m2}");
    assert!(skewness.abs() < 0.008, "skewness {skewness}");
    assert!((kurtosis - 3.0).abs() < 0.015, "kurtosis {kurtosis}");
}

#[test]
fn tail_counts_match_the_normal_distribution_function() {
    let xs = variates(0x5eed_0002, N);
    let n = xs.len() as f64;
    // One-sided upper tail probabilities 1 - Φ(t).
    for (t, p) in [
        (1.0, 0.158_655_253_931_457_07),
        (2.0, 0.022_750_131_948_179_22),
        (3.0, 0.001_349_898_031_630_095_7),
        (TAIL_START, 0.000_129_016_243_826_950_65),
        (4.0, 0.000_031_671_241_833_119_965),
    ] {
        let above = xs.iter().filter(|&&x| x > t).count() as f64;
        let below = xs.iter().filter(|&&x| x < -t).count() as f64;
        let sd = (n * p * (1.0 - p)).sqrt();
        for (side, count) in [("upper", above), ("lower", below)] {
            let z = (count - n * p) / sd;
            assert!(
                z.abs() < 4.0,
                "{side} tail beyond {t}: {count} draws, expected {:.1} (z = {z:.2})",
                n * p
            );
        }
    }
}

/// Counts the 64-bit words the generator consumes.
struct CountingRng {
    inner: StdRng,
    words: u64,
}

impl Rng for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

#[test]
fn wedge_and_tail_paths_are_both_taken() {
    let mut rng = CountingRng {
        inner: StdRng::seed_from_u64(0x5eed_0003),
        words: 0,
    };
    let pairs = N / 2;
    // A variate accepted in its layer's rectangle costs one word. A
    // wedge test draws a second word, and the tail draws two more on
    // top of the layer word, so a pair that costs exactly three words
    // is one rectangle accept plus one wedge accept. Values beyond the
    // base layer's edge come only from the tail.
    let (mut one_word_each, mut wedge_accepts, mut tail_values) = (0usize, 0usize, 0usize);
    for _ in 0..pairs {
        let before = rng.words;
        let c = complex_gaussian(&mut rng, 2.0);
        match rng.words - before {
            2 => one_word_each += 1,
            3 => wedge_accepts += 1,
            _ => {}
        }
        tail_values += usize::from(c.re.abs() > TAIL_START) + usize::from(c.im.abs() > TAIL_START);
    }
    let total = rng.words as f64;
    assert!(wedge_accepts > 0, "no wedge accept in {pairs} pairs");
    assert!(tail_values > 0, "no tail draw in {pairs} pairs");
    // The fast path carries the generator: ~98.5% of variates take one
    // word, so ~97% of pairs take two and the average stays near one
    // word per variate.
    let fast_share = one_word_each as f64 / pairs as f64;
    assert!(fast_share > 0.96, "fast-path share {fast_share}");
    let words_per_variate = total / (2 * pairs) as f64;
    assert!(
        words_per_variate < 1.03,
        "{words_per_variate} words per variate"
    );
}

/// The first 32 variates for seed 2024, as IEEE-754 bit patterns.
const GOLDEN_SEED: u64 = 2024;
const GOLDEN: [u64; 32] = [
    0xbfff_7075_c316_7e62,
    0x3fef_2270_d48c_90aa,
    0xc009_053a_b0fb_6875,
    0xbff2_4e31_7e72_92b4,
    0x3fe6_4c4f_8243_fb84,
    0xbfd1_eeec_c1a9_3363,
    0xbfd1_20a5_24f1_ddbc,
    0xbfea_084a_a277_78a3,
    0x3fba_f8e8_b4d3_dd15,
    0xbff2_999a_a0bd_d33a,
    0x3fd7_4131_3fe7_9653,
    0x3ff4_ee4f_c27f_c1f9,
    0x3ff2_45d0_a9c3_5ccd,
    0xbfdb_8f59_a9fb_7298,
    0x3ff7_e897_2d19_e5e5,
    0xbfff_3c8b_4354_34b7,
    0xc005_7686_3ccf_c05c,
    0x3fcd_bbad_f665_283a,
    0x3ff6_8b11_4555_f977,
    0xbfdd_86ba_7a27_2c77,
    0x3fe9_98ba_5ec3_0c16,
    0xbfe2_29d1_44db_9678,
    0xbfec_29cb_aa4e_7095,
    0xbfb6_115f_9e96_502d,
    0xbfb1_ca59_474d_690e,
    0xbfed_8610_b9b9_56fb,
    0xbff4_6ebf_b22c_a139,
    0x3f93_2143_3fed_f835,
    0x3fcd_60e2_a719_9cec,
    0x3ff8_81c2_b731_b6ec,
    0x3f84_54be_6efe_62ab,
    0xbff4_b042_dddc_0027,
];

#[test]
fn first_variates_are_pinned() {
    let got: Vec<u64> = variates(GOLDEN_SEED, GOLDEN.len())
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(
        got,
        GOLDEN,
        "the noise stream changed; if deliberate, re-pin with {:?}",
        variates(GOLDEN_SEED, GOLDEN.len())
    );
}
