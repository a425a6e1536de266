//! Multipath Rayleigh fading with first-order Gauss–Markov time evolution.
//!
//! The channel is a tapped delay line whose taps are circularly-symmetric
//! complex Gaussians (Rayleigh envelopes) with an exponential power delay
//! profile. Temporal variation — the effect behind the paper's *BER
//! bias* (Fig. 3) — follows a first-order Gauss–Markov process: every
//! `update_interval` samples each tap evolves as
//!
//! ```text
//! h <- rho * h + sqrt(1 - rho^2) * CN(0, p_tap)
//! ```
//!
//! with `rho` chosen so the tap autocorrelation decays to 1/2 after one
//! *coherence time*. Coherence times of tens of microseconds to hundreds
//! of milliseconds (the range the paper cites from Vutukuru et al.) are
//! expressed in samples at the 20 Msample/s baseband rate.

use crate::noise::complex_gaussian;
use carpool_phy::math::Complex64;
use rand::Rng;

/// Baseband sample rate assumed by the simulator (20 MHz channel).
pub const SAMPLE_RATE: f64 = 20e6;

/// Power delay profile for the tapped delay line.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayProfile {
    powers: Vec<f64>,
}

impl DelayProfile {
    /// A single-tap (frequency-flat) profile.
    pub(crate) fn flat() -> DelayProfile {
        DelayProfile { powers: vec![1.0] }
    }

    /// An exponentially decaying profile with `taps` taps and per-tap
    /// decay `decay` (e.g. 0.5 halves the power each tap). Powers are
    /// normalised to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `taps == 0` or `decay <= 0`.
    pub fn exponential(taps: usize, decay: f64) -> DelayProfile {
        assert!(taps > 0, "need at least one tap");
        assert!(decay > 0.0, "decay must be positive");
        let mut powers: Vec<f64> = (0..taps).map(|k| decay.powi(k as i32)).collect();
        let total: f64 = powers.iter().sum();
        for p in &mut powers {
            *p /= total;
        }
        DelayProfile { powers }
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.powers.len()
    }

    /// `true` if the profile is a single tap.
    pub fn is_empty(&self) -> bool {
        self.powers.is_empty()
    }

    /// Normalised tap powers.
    pub(crate) fn powers(&self) -> &[f64] {
        &self.powers
    }
}

/// Time-varying multipath fading channel (Rayleigh or Rician).
///
/// Each tap is the sum of a fixed line-of-sight component (zero for
/// Rayleigh) and a scattered component that evolves by the Gauss–Markov
/// recursion. A Rician K-factor concentrates the power in the fixed
/// component of the first tap, modelling the strong direct path of the
/// paper's office testbed where deep fades are rare.
#[derive(Debug, Clone)]
pub(crate) struct FadingChannel {
    los: Vec<Complex64>,
    scattered: Vec<Complex64>,
    scatter_powers: Vec<f64>,
    taps: Vec<Complex64>,
    rho: f64,
    update_interval: usize,
    samples_until_update: usize,
}

impl FadingChannel {
    /// Creates a channel with fresh random taps.
    ///
    /// * `profile` — power delay profile.
    /// * `k_factor` — Rician K-factor: the first tap carries a fixed
    ///   line-of-sight component holding `k_factor / (k_factor + 1)` of
    ///   its power (`k_factor = 0` degenerates to Rayleigh). Typical
    ///   indoor LOS links have K of 5–20 (7–13 dB).
    /// * `coherence_time_s` — time for the tap autocorrelation to decay
    ///   to 1/2; `f64::INFINITY` freezes the channel (block fading).
    /// * `update_interval` — samples between tap updates.
    ///
    /// # Panics
    ///
    /// Panics if `k_factor < 0`, `coherence_time_s <= 0` or
    /// `update_interval == 0`.
    pub(crate) fn new_rician<R: Rng + ?Sized>(
        profile: DelayProfile,
        k_factor: f64,
        coherence_time_s: f64,
        update_interval: usize,
        rng: &mut R,
    ) -> FadingChannel {
        assert!(k_factor >= 0.0, "K-factor must be nonnegative");
        assert!(coherence_time_s > 0.0, "coherence time must be positive");
        assert!(update_interval > 0, "update interval must be positive");
        let mut los = vec![Complex64::ZERO; profile.len()];
        let mut scatter_powers: Vec<f64> = profile.powers().to_vec();
        if k_factor > 0.0 {
            let p0 = scatter_powers[0];
            let los_power = p0 * k_factor / (k_factor + 1.0);
            scatter_powers[0] = p0 / (k_factor + 1.0);
            let phase = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
            los[0] = Complex64::from_polar(los_power.sqrt(), phase);
        }
        let scattered: Vec<Complex64> = scatter_powers
            .iter()
            .map(|&p| complex_gaussian(rng, p))
            .collect();
        let taps: Vec<Complex64> = los.iter().zip(&scattered).map(|(l, sc)| *l + *sc).collect();
        let rho = if coherence_time_s.is_infinite() {
            1.0
        } else {
            let updates_per_coherence = coherence_time_s * SAMPLE_RATE / update_interval as f64;
            // rho^updates_per_coherence = 1/2
            0.5f64.powf(1.0 / updates_per_coherence.max(1e-9))
        };
        drop(profile);
        FadingChannel {
            los,
            scattered,
            scatter_powers,
            taps,
            rho,
            update_interval,
            samples_until_update: update_interval,
        }
    }

    fn evolve<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.rho >= 1.0 {
            return;
        }
        let innovation = (1.0 - self.rho * self.rho).sqrt();
        for ((sc, &p), (tap, los)) in self
            .scattered
            .iter_mut()
            .zip(&self.scatter_powers)
            .zip(self.taps.iter_mut().zip(&self.los))
        {
            let fresh = complex_gaussian(rng, p);
            *sc = sc.scale(self.rho) + fresh.scale(innovation);
            *tap = *los + *sc;
        }
    }

    /// Convolves `input` with the (evolving) tap vector.
    ///
    /// The output has the same length as the input; the convolution tail
    /// beyond the input length is truncated (the cyclic prefix of OFDM
    /// symbols absorbs inter-symbol leakage as long as the profile is
    /// shorter than the CP).
    #[cfg(test)]
    fn process<R: Rng + ?Sized>(&mut self, input: &[Complex64], rng: &mut R) -> Vec<Complex64> {
        let mut out = Vec::with_capacity(input.len());
        self.process_into(input, 0..input.len(), &mut out, rng);
        out
    }

    /// Appends output samples `range` of the convolution of `input` (the
    /// whole call's input: sample `n` reads `input[n - k]` for tap `k`,
    /// truncated at the start of `input`) to `out`. Calling it over
    /// consecutive ranges gives the samples one call over their union
    /// would.
    ///
    /// The taps evolve before every `update_interval`-th sample, so the
    /// samples run in stretches that share one tap vector.
    pub(crate) fn process_into<R: Rng + ?Sized>(
        &mut self,
        input: &[Complex64],
        range: std::ops::Range<usize>,
        out: &mut Vec<Complex64>,
        rng: &mut R,
    ) {
        let mut n = range.start;
        while n < range.end {
            // The sample that counts `samples_until_update` down to 0
            // evolves the taps before it is computed.
            if self.samples_until_update == 1 {
                self.evolve(rng);
                self.samples_until_update = self.update_interval + 1;
            }
            let run = (self.samples_until_update - 1).min(range.end - n);
            self.samples_until_update -= run;
            let stretch = n..n + run;
            n += run;
            if let [tap] = self.taps[..] {
                // Flat fading: the loop below with one tap, minus its
                // inner loop; the accumulator start keeps `ZERO + h·x` so
                // signed zeros come out the same.
                out.extend(input[stretch].iter().map(|&x| Complex64::ZERO + tap * x));
                continue;
            }
            out.extend(stretch.map(|n| {
                let mut acc = Complex64::ZERO;
                for (k, tap) in self.taps.iter().enumerate().take(n + 1) {
                    acc += *tap * input[n - k];
                }
                acc
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flat_profile_is_single_tap() {
        let p = DelayProfile::flat();
        assert_eq!(p.len(), 1);
        assert_eq!(p.powers(), &[1.0]);
    }

    #[test]
    fn exponential_profile_normalises() {
        let p = DelayProfile::exponential(8, 0.5);
        assert_eq!(p.len(), 8);
        let total: f64 = p.powers().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(p.powers()[0] > p.powers()[7]);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_profile_rejected() {
        DelayProfile::exponential(0, 0.5);
    }

    #[test]
    fn static_channel_is_pure_convolution() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ch =
            FadingChannel::new_rician(DelayProfile::flat(), 0.0, f64::INFINITY, 80, &mut rng);
        let h = ch.taps[0];
        let input: Vec<Complex64> = (0..100).map(|k| Complex64::new(k as f64, 0.5)).collect();
        let out = ch.process(&input, &mut rng);
        for (o, i) in out.iter().zip(&input) {
            assert!((*o - *i * h).abs() < 1e-12);
        }
    }

    #[test]
    fn infinite_coherence_freezes_taps() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ch = FadingChannel::new_rician(
            DelayProfile::exponential(4, 0.5),
            0.0,
            f64::INFINITY,
            10,
            &mut rng,
        );
        let before = ch.taps.clone();
        let input = vec![Complex64::ONE; 1000];
        ch.process(&input, &mut rng);
        assert_eq!(ch.taps, before);
        assert!((ch.rho - 1.0).abs() < 1e-12);
    }

    #[test]
    fn finite_coherence_evolves_taps() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut ch = FadingChannel::new_rician(DelayProfile::flat(), 0.0, 1e-3, 80, &mut rng);
        let before = ch.taps.clone();
        let input = vec![Complex64::ONE; 8000];
        ch.process(&input, &mut rng);
        assert_ne!(ch.taps, before);
        assert!(ch.rho < 1.0);
    }

    #[test]
    fn rho_halves_correlation_at_coherence_time() {
        let update = 80usize;
        let coherence = 500e-6;
        let mut rng = StdRng::seed_from_u64(1);
        let ch = FadingChannel::new_rician(DelayProfile::flat(), 0.0, coherence, update, &mut rng);
        let updates_per_coherence = coherence * SAMPLE_RATE / update as f64;
        let decay = ch.rho.powf(updates_per_coherence);
        assert!((decay - 0.5).abs() < 1e-9, "decay {decay}");
    }

    #[test]
    fn average_channel_power_is_unit() {
        // Over many channel realisations the mean output power equals
        // the input power (profile normalised to 1).
        let mut rng = StdRng::seed_from_u64(21);
        let input = vec![Complex64::ONE; 256];
        let mut total = 0.0;
        let reps = 3000;
        for _ in 0..reps {
            let mut ch = FadingChannel::new_rician(
                DelayProfile::exponential(4, 0.5),
                0.0,
                f64::INFINITY,
                80,
                &mut rng,
            );
            let out = ch.process(&input, &mut rng);
            total += carpool_phy::math::mean_power(&out[8..]); // skip transient
        }
        let avg = total / reps as f64;
        assert!((avg - 1.0).abs() < 0.1, "avg power {avg}");
    }

    #[test]
    fn evolution_preserves_tap_power_statistics() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut ch = FadingChannel::new_rician(DelayProfile::flat(), 0.0, 50e-6, 16, &mut rng);
        let input = vec![Complex64::ONE; 16];
        let mut acc = 0.0;
        let reps = 20_000;
        for _ in 0..reps {
            ch.process(&input, &mut rng);
            acc += ch.taps[0].norm_sqr();
        }
        let avg = acc / reps as f64;
        // The Gauss-Markov tap process is strongly autocorrelated at a
        // 50 us coherence time, so the sample-mean variance stays high
        // even at 20k reps; 0.1 matches the sibling power test above.
        assert!((avg - 1.0).abs() < 0.1, "avg tap power {avg}");
    }
}
