//! The phasor CFO rotation against the exact per-sample oracle.
//!
//! `ResidualCfo::apply` advances a unit phasor by one complex multiply
//! per sample and re-anchors it from `cis(phase)` every 64 samples. The
//! oracle rotates every sample by `cis(phase)` of the serial wrapped
//! phase track, which is what `apply` did before. The rotated values may
//! differ in the last bits; the phase track itself must not differ at
//! all.

use carpool_channel::fading::SAMPLE_RATE;
use carpool_channel::ResidualCfo;
use carpool_phy::math::{wrap_angle, Complex64};

/// The reference: per-sample exact rotation over the serial phase track.
struct Oracle {
    phase: f64,
    step: f64,
}

impl Oracle {
    fn apply(&mut self, samples: &mut [Complex64]) {
        for s in samples.iter_mut() {
            *s = s.rotate(self.phase);
            self.phase = wrap_angle(self.phase + self.step);
        }
    }
}

/// Unit-magnitude test signal with a varying phase.
fn signal(n: usize) -> Vec<Complex64> {
    (0..n).map(|k| Complex64::cis(k as f64 * 0.37)).collect()
}

#[test]
fn phasor_tracks_the_exact_rotation_within_1e_12() {
    for freq_hz in [100.0, 100e3] {
        let mut cfo = ResidualCfo::new(freq_hz, SAMPLE_RATE);
        let mut oracle = Oracle {
            phase: 0.0,
            step: cfo.phase_per_sample(),
        };
        // One million samples, in frame-sized calls of varying length so
        // anchors fall at different offsets of the stream.
        let mut done = 0usize;
        let mut worst = 0.0f64;
        for len in [1, 63, 65, 1000, 4321, 20_000].iter().cycle() {
            if done >= 1_000_000 {
                break;
            }
            let input = signal(*len);
            let mut fast = input.clone();
            let mut exact = input;
            cfo.apply(&mut fast);
            oracle.apply(&mut exact);
            for (a, b) in fast.iter().zip(&exact) {
                worst = worst.max((*a - *b).abs());
            }
            done += len;
        }
        assert!(worst < 1e-12, "{freq_hz} Hz: worst deviation {worst:e}");
    }
}

#[test]
fn phase_track_is_bit_equal_to_the_serial_sum() {
    for freq_hz in [100.0, 123.4, 100e3, -250e3] {
        let mut cfo = ResidualCfo::new(freq_hz, SAMPLE_RATE);
        let step = cfo.phase_per_sample();
        let mut phase = 0.0;
        for len in [1, 63, 65, 1000, 1, 64, 128, 63, 65, 1000] {
            let mut buf = vec![Complex64::ONE; len];
            cfo.apply(&mut buf);
            for _ in 0..len {
                phase = wrap_angle(phase + step);
            }
            assert_eq!(
                cfo.phase().to_bits(),
                phase.to_bits(),
                "{freq_hz} Hz after a call of {len} samples"
            );
        }
    }
}

#[test]
fn anchor_samples_match_the_oracle_bit_for_bit() {
    // At each anchor the phasor is the exact cis(phase), so the first
    // sample of every 64-sample block is rotated exactly as before.
    let mut cfo = ResidualCfo::new(100e3, SAMPLE_RATE);
    let mut oracle = Oracle {
        phase: 0.0,
        step: cfo.phase_per_sample(),
    };
    let input = signal(64 * 50 + 17);
    let mut fast = input.clone();
    let mut exact = input;
    cfo.apply(&mut fast);
    oracle.apply(&mut exact);
    for k in (0..fast.len()).step_by(64) {
        assert_eq!(fast[k], exact[k], "anchor sample {k}");
    }
}
