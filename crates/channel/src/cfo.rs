//! Residual carrier frequency offset (CFO).
//!
//! After coarse correction from the preamble, real receivers retain a
//! small residual frequency error that rotates the constellation at a
//! constant rate — the *inherent phase offset* that the paper's side
//! channel must coexist with (Section 5.2). This stage applies a pure
//! phase ramp `e^{j 2 pi df t}` to the sample stream.
//!
//! The ramp is a unit phasor advanced by one complex multiply per
//! sample and re-anchored from the exact `cis(phase)` every
//! `ANCHOR_INTERVAL` samples, so a sine and a cosine are paid once per
//! block rather than per sample. Rounding drift between anchors stays
//! far below 1e-12; the scalar phase track is the plain per-sample
//! wrapped sum either way.

use carpool_phy::math::{wrap_angle, Complex64};

/// Samples between exact re-anchors of the rotation phasor.
const ANCHOR_INTERVAL: usize = 64;
/// Samples of the runs of four anchor blocks [`ResidualCfo::apply`]
/// rotates side by side; the link processes frames in runs this long.
pub(crate) const QUAD: usize = 4 * ANCHOR_INTERVAL;

/// Residual CFO stage with persistent phase across calls.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualCfo {
    freq_hz: f64,
    sample_rate: f64,
    phase: f64,
}

impl ResidualCfo {
    /// Creates a CFO of `freq_hz` at the given sample rate.
    ///
    /// Typical residual offsets after preamble correction are tens to a
    /// few hundred Hz; 100 Hz at 20 Msample/s rotates ~0.0018° per
    /// sample, i.e. ~0.14° per OFDM symbol — small between consecutive
    /// symbols, exactly the regime the differential side channel assumes.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate <= 0`.
    pub fn new(freq_hz: f64, sample_rate: f64) -> ResidualCfo {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        ResidualCfo {
            freq_hz,
            sample_rate,
            phase: 0.0,
        }
    }

    /// Phase advance per sample in radians.
    pub fn phase_per_sample(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.freq_hz / self.sample_rate
    }

    /// Current phase of the ramp in radians, in `(-pi, pi]`: the phase
    /// the next sample is rotated by.
    pub fn phase(&self) -> f64 {
        self.phase
    }

    /// Applies the rotation in place, advancing internal phase.
    ///
    /// Sample `k` is rotated by the phase the per-sample track
    /// `phase = wrap_angle(phase + step)` holds when it is reached, up to
    /// the phasor's rounding drift between anchors.
    pub fn apply(&mut self, samples: &mut [Complex64]) {
        self.apply_summing(samples, &[], &mut 0.0);
    }

    /// [`ResidualCfo::apply`], adding the energy `|s|²` of each sample of
    /// `done` (samples that precede `samples` and are final) to `energy`
    /// in order on the way.
    ///
    /// Each block's phasor is a serial chain of complex multiplies, so
    /// the blocks of every run of [`QUAD`] are rotated side by side:
    /// the phase track first runs through the run's samples to find the
    /// four anchors, then the four chains advance in one loop. Every
    /// sample gets the same multiplies in the same order as one block at
    /// a time; a shorter tail runs block by block. The phase track and
    /// the energy sum are serial chains too, independent of each other,
    /// so the first run's phase track also takes the energy terms.
    pub(crate) fn apply_summing(
        &mut self,
        samples: &mut [Complex64],
        done: &[Complex64],
        energy: &mut f64,
    ) {
        let step = self.phase_per_sample();
        let advance = Complex64::cis(step);
        let mut pending = done.iter();
        let mut quads = samples.chunks_exact_mut(QUAD);
        for quad in &mut quads {
            let mut phasors = [Complex64::ZERO; 4];
            for phasor in &mut phasors {
                *phasor = Complex64::cis(self.phase);
                for _ in 0..ANCHOR_INTERVAL {
                    self.phase = wrap_angle(self.phase + step);
                    if let Some(s) = pending.next() {
                        *energy += s.norm_sqr();
                    }
                }
            }
            let (blocks, _) = quad.as_chunks_mut::<ANCHOR_INTERVAL>();
            for i in 0..ANCHOR_INTERVAL {
                for (block, phasor) in blocks.iter_mut().zip(&mut phasors) {
                    block[i] *= *phasor;
                    *phasor *= advance;
                }
            }
        }
        *energy = pending.fold(*energy, |sum, s| sum + s.norm_sqr());
        for block in quads.into_remainder().chunks_mut(ANCHOR_INTERVAL) {
            let mut phasor = Complex64::cis(self.phase);
            for s in block {
                *s *= phasor;
                phasor *= advance;
                self.phase = wrap_angle(self.phase + step);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_offset_is_identity() {
        let mut cfo = ResidualCfo::new(0.0, 20e6);
        let mut buf: Vec<Complex64> = (0..10).map(|k| Complex64::new(k as f64, 1.0)).collect();
        let before = buf.clone();
        cfo.apply(&mut buf);
        assert_eq!(buf, before);
    }

    #[test]
    fn rotation_rate_matches_frequency() {
        let fs = 20e6;
        let f = 1000.0;
        let mut cfo = ResidualCfo::new(f, fs);
        let n = 20_000; // one full period at 1 kHz / 20 MHz
        let mut buf = vec![Complex64::ONE; n + 1];
        cfo.apply(&mut buf);
        // After a full period the rotation returns to start.
        assert!((buf[n] - buf[0]).abs() < 1e-6);
        // Quarter period: 90 degrees.
        let q = n / 4;
        let angle = buf[q].arg();
        assert!(
            (angle - std::f64::consts::FRAC_PI_2).abs() < 1e-6,
            "angle {angle}"
        );
    }

    #[test]
    fn phase_persists_across_calls() {
        let mut cfo = ResidualCfo::new(500.0, 20e6);
        let mut a = vec![Complex64::ONE; 100];
        let mut b = vec![Complex64::ONE; 100];
        cfo.apply(&mut a);
        cfo.apply(&mut b);
        // The first sample of the second buffer continues where the
        // first ended (one step later).
        let step = cfo.phase_per_sample();
        let expected = a[99].arg() + step;
        assert!((b[0].arg() - expected).abs() < 1e-9);
    }

    #[test]
    fn magnitude_is_preserved() {
        let mut cfo = ResidualCfo::new(123.0, 20e6);
        let mut buf: Vec<Complex64> = (0..50).map(|k| Complex64::new(k as f64, -2.0)).collect();
        let mags: Vec<f64> = buf.iter().map(|s| s.abs()).collect();
        cfo.apply(&mut buf);
        for (s, m) in buf.iter().zip(mags) {
            assert!((s.abs() - m).abs() < 1e-9);
        }
    }
}
