//! Gaussian noise generation and the AWGN channel.
//!
//! `rand` (the only external dependency) provides uniform variates; the
//! normal distribution is derived with the Box–Muller transform so the
//! crate needs no `rand_distr`.

use carpool_phy::math::{db_to_lin, mean_power, Complex64};
use rand::Rng;

/// Draws one standard normal variate via Box–Muller.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a circularly-symmetric complex Gaussian with variance
/// `variance` (total over both components).
pub fn complex_gaussian<R: Rng + ?Sized>(rng: &mut R, variance: f64) -> Complex64 {
    let s = (variance / 2.0).sqrt();
    Complex64::new(standard_normal(rng) * s, standard_normal(rng) * s)
}

/// Additive white Gaussian noise at a fixed SNR.
///
/// The noise power is `signal_power / 10^(snr_db/10)`, where the signal
/// power is measured from each processed buffer — so the configured SNR
/// is met exactly in expectation regardless of the transmit scaling.
#[derive(Debug, Clone)]
pub struct Awgn {
    snr_db: f64,
}

impl Awgn {
    /// Creates an AWGN stage targeting `snr_db` decibels.
    pub fn new(snr_db: f64) -> Awgn {
        Awgn { snr_db }
    }

    /// Target signal-to-noise ratio in dB.
    pub fn snr_db(&self) -> f64 {
        self.snr_db
    }

    /// Adds noise to `samples` in place, scaled to the measured signal
    /// power of the buffer.
    pub fn apply<R: Rng + ?Sized>(&self, samples: &mut [Complex64], rng: &mut R) {
        let signal_power = mean_power(samples);
        if signal_power == 0.0 {
            return;
        }
        let noise_power = signal_power / db_to_lin(self.snr_db);
        // `complex_gaussian`'s per-component scale, hoisted: the same
        // value, and the same in-phase-then-quadrature draw order.
        let scale = (noise_power / 2.0).sqrt();
        for s in samples.iter_mut() {
            let re = standard_normal(rng) * scale;
            let im = standard_normal(rng) * scale;
            *s += Complex64::new(re, im);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn complex_gaussian_variance() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let var = 0.25;
        let p: f64 = (0..n)
            .map(|_| complex_gaussian(&mut rng, var).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((p - var).abs() < 0.01, "power {p}");
    }

    #[test]
    fn awgn_meets_target_snr() {
        let mut rng = StdRng::seed_from_u64(11);
        let clean: Vec<Complex64> = (0..50_000)
            .map(|k| Complex64::cis(k as f64 * 0.01).scale(0.3))
            .collect();
        for snr in [0.0, 10.0, 20.0] {
            let mut noisy = clean.clone();
            Awgn::new(snr).apply(&mut noisy, &mut rng);
            let noise_power: f64 = noisy
                .iter()
                .zip(&clean)
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum::<f64>()
                / clean.len() as f64;
            let measured = 10.0 * (mean_power(&clean) / noise_power).log10();
            assert!(
                (measured - snr).abs() < 0.3,
                "snr {snr}: measured {measured}"
            );
        }
    }

    #[test]
    fn awgn_on_silence_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![Complex64::ZERO; 64];
        Awgn::new(10.0).apply(&mut buf, &mut rng);
        assert!(buf.iter().all(|s| *s == Complex64::ZERO));
    }

    #[test]
    fn awgn_is_reproducible_with_seed() {
        let clean: Vec<Complex64> = (0..100).map(|k| Complex64::new(k as f64, 0.0)).collect();
        let mut a = clean.clone();
        let mut b = clean.clone();
        Awgn::new(15.0).apply(&mut a, &mut StdRng::seed_from_u64(42));
        Awgn::new(15.0).apply(&mut b, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
