//! Analytical and Monte-Carlo false-positive analysis of the A-HDR.
//!
//! Reproduces the derivation in paper Section 4.1: with `N` receivers and
//! `h` hashes per set, a given hash set false-positives with ratio
//! `r_FP = (1 - (1 - 1/48)^{hN})^h ≈ (1 - e^{-hN/48})^h`, minimised at
//! `h = (48/N) ln 2`. For N = 4..8 and h = 4 the ratio spans 0.31%–5.59%.

use crate::{AggregationHeader, BLOOM_BITS};
use carpool_obs::flight::{AHDR_BITMAP_SHIFT, AHDR_OUTSIDER};
use carpool_obs::TraceKind;
use rand::Rng;

/// Exact single-set false positive ratio for `hashes` hash functions and
/// `receivers` inserted addresses.
///
/// # Panics
///
/// Panics if `hashes` is zero.
pub fn false_positive_ratio(hashes: usize, receivers: usize) -> f64 {
    assert!(hashes > 0, "need at least one hash");
    let m = BLOOM_BITS as f64;
    let fill = 1.0 - (1.0 - 1.0 / m).powi((hashes * receivers) as i32);
    fill.powi(hashes as i32)
}

/// The approximate form used in the paper: `(1 - e^{-hN/48})^h`.
#[cfg(test)]
fn false_positive_ratio_approx(hashes: usize, receivers: usize) -> f64 {
    let m = BLOOM_BITS as f64;
    let fill = 1.0 - (-(hashes as f64) * receivers as f64 / m).exp();
    fill.powi(hashes as i32)
}

/// The optimal (real-valued) hash count `h = (48/N) ln 2`.
///
/// # Panics
///
/// Panics if `receivers` is zero.
pub fn optimal_hash_count(receivers: usize) -> f64 {
    assert!(receivers > 0, "need at least one receiver");
    BLOOM_BITS as f64 / receivers as f64 * std::f64::consts::LN_2
}

/// False positive ratio at the *optimal* hash count for `receivers`:
/// `r_FP = 0.5^{(48/N) ln 2}` — the quantity behind the paper's quoted
/// "0.31% to 5.59%" range for N = 4..8.
pub fn optimal_false_positive_ratio(receivers: usize) -> f64 {
    0.5f64.powf(optimal_hash_count(receivers))
}

/// Relative header overhead of the Bloom A-HDR versus listing `n`
/// 48-bit MAC addresses explicitly (the paper quotes 12.5% for n = 8).
pub fn ahdr_overhead_vs_explicit(n: usize) -> f64 {
    BLOOM_BITS as f64 / (48.0 * n as f64)
}

/// Monte-Carlo estimate of the per-set false positive ratio: builds
/// headers for `receivers` random addresses and probes them with fresh
/// random addresses.
pub fn measure_false_positive_ratio<R: Rng + ?Sized>(
    hashes: usize,
    receivers: usize,
    trials: usize,
    rng: &mut R,
) -> f64 {
    measure_false_positive_ratio_obs(hashes, receivers, trials, rng, &carpool_obs::Obs::noop())
}

/// Like [`measure_false_positive_ratio`], but records each probe to the
/// observability handle as one graded A-HDR check
/// ([`TraceKind::AhdrDecision`] with ground truth
/// [`carpool_obs::flight::AHDR_OUTSIDER`]: the outsider is never
/// aboard), stamped at the trial index. Its kind feeds the
/// `carpool.ahdr_false_positive` / `carpool.ahdr_true_negative`
/// counters. The whole measurement runs in a `bloom.fp_measure` span.
pub fn measure_false_positive_ratio_obs<R: Rng + ?Sized>(
    hashes: usize,
    receivers: usize,
    trials: usize,
    rng: &mut R,
    obs: &carpool_obs::Obs,
) -> f64 {
    let _span = obs.span(carpool_obs::names::BLOOM_FP_MEASURE);
    let mut false_hits = 0usize;
    let mut probes = 0usize;
    for trial in 0..trials {
        let addrs: Vec<[u8; 6]> = (0..receivers).map(|_| rng.gen()).collect();
        // The receiver count was validated by the caller; a rejected header
        // would only skip the trial rather than abort the measurement.
        let Ok(hdr) = AggregationHeader::for_receivers(&addrs, hashes) else {
            continue;
        };
        let outsider: [u8; 6] = rng.gen();
        let station = outsider.iter().fold(0u64, |acc, &b| (acc << 8) | b as u64);
        for i in 0..receivers {
            probes += 1;
            let hit = hdr.query(&outsider, i);
            if hit {
                false_hits += 1;
            }
            if obs.enabled() {
                obs.trace(
                    TraceKind::AhdrDecision,
                    trial as f64,
                    station,
                    (u64::from(hit) << (AHDR_BITMAP_SHIFT as usize + i))
                        | hdr.probe_mask(&outsider, i),
                    AHDR_OUTSIDER,
                );
            }
        }
    }
    false_hits as f64 / probes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn obs_variant_matches_plain_and_counts_probes() {
        use carpool_obs::{MemoryRecorder, Obs};
        use std::sync::Arc;

        let recorder = Arc::new(MemoryRecorder::new());
        let obs = Obs::with_recorder(recorder.clone());
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let plain = measure_false_positive_ratio(4, 6, 500, &mut a);
        let traced = measure_false_positive_ratio_obs(4, 6, 500, &mut b, &obs);
        assert_eq!(plain, traced);
        let snap = recorder.snapshot();
        let hits = snap.counter("carpool.ahdr_false_positive");
        assert_eq!(hits + snap.counter("carpool.ahdr_true_negative"), 500 * 6);
        assert_eq!(hits as f64 / (500.0 * 6.0), traced);
    }

    #[test]
    fn paper_quoted_range_for_4_to_8_receivers() {
        // Paper Section 4.1: "If the number of receivers is 4-8, the
        // false positive ratio ranges from 0.31% to 5.59%" — evaluated at
        // the optimal h for each N.
        let low = optimal_false_positive_ratio(4);
        let high = optimal_false_positive_ratio(8);
        assert!((low - 0.0031).abs() < 0.0003, "low {low}");
        assert!((high - 0.0559).abs() < 0.0005, "high {high}");
    }

    #[test]
    fn exact_and_approx_agree() {
        for n in 1..=8 {
            for h in 1..=8 {
                let e = false_positive_ratio(h, n);
                let a = false_positive_ratio_approx(h, n);
                assert!((e - a).abs() < 0.01, "h={h} n={n}: {e} vs {a}");
            }
        }
    }

    #[test]
    fn optimal_h_for_8_receivers_is_about_4() {
        // (48/8) ln 2 = 4.16 — the paper rounds to h = 4.
        let h = optimal_hash_count(8);
        assert!((h - 4.16).abs() < 0.01, "h {h}");
    }

    #[test]
    fn optimum_is_a_minimum() {
        for n in [4usize, 6, 8] {
            let h_opt = optimal_hash_count(n).round() as usize;
            let at = false_positive_ratio(h_opt, n);
            assert!(at <= false_positive_ratio(h_opt.saturating_sub(2).max(1), n));
            assert!(at <= false_positive_ratio(h_opt + 2, n));
        }
    }

    #[test]
    fn overhead_is_one_eighth_for_8_receivers() {
        assert!((ahdr_overhead_vs_explicit(8) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn measured_matches_analytical() {
        let mut rng = StdRng::seed_from_u64(17);
        for n in [4usize, 8] {
            let analytic = false_positive_ratio(4, n);
            let measured = measure_false_positive_ratio(4, n, 20_000, &mut rng);
            assert!(
                (measured - analytic).abs() < analytic * 0.35 + 0.002,
                "n={n}: measured {measured} analytic {analytic}"
            );
        }
    }

    #[test]
    fn ratio_grows_with_receivers() {
        let mut prev = 0.0;
        for n in 1..=8 {
            let r = false_positive_ratio(4, n);
            assert!(r > prev);
            prev = r;
        }
    }
}
