//! VoIP traffic per Brady's ON/OFF model (paper Section 7.2.2).
//!
//! The paper's delay-sensitive workload: "an ON/OFF UDP stream with a
//! peak rate of 96 Kbit/s and frame size of 120 B according to IEEE
//! 802.11n requirements", generated with Brady's two-state voice model —
//! exponentially distributed talkspurts and silences. During a
//! talkspurt, 120-byte frames are emitted every 10 ms
//! (120 B x 8 / 96 kbit/s).

use rand::Rng;

/// Default Brady talkspurt mean duration (seconds).
pub(crate) const TALKSPURT_MEAN_S: f64 = 1.0;
/// Default Brady silence mean duration (seconds).
pub(crate) const SILENCE_MEAN_S: f64 = 1.35;
/// VoIP frame size in bytes (802.11n usage model).
pub(crate) const VOIP_FRAME_BYTES: usize = 120;
/// Peak rate in bit/s.
pub(crate) const VOIP_PEAK_RATE_BPS: f64 = 96_000.0;

/// Packetisation interval during a talkspurt.
pub(crate) fn frame_interval() -> f64 {
    VOIP_FRAME_BYTES as f64 * 8.0 / VOIP_PEAK_RATE_BPS
}

/// A timed frame arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub `VoipSource::generate` and `BackgroundSource::generate` return it
pub struct Arrival {
    /// Arrival time in seconds.
    pub time: f64,
    /// Frame size in bytes.
    pub bytes: usize,
}

/// Brady ON/OFF VoIP source.
#[derive(Debug, Clone, PartialEq)]
pub struct VoipSource {
    talkspurt_mean: f64,
    silence_mean: f64,
}

impl VoipSource {
    /// A source with Brady's default parameters.
    pub fn new() -> VoipSource {
        VoipSource {
            talkspurt_mean: TALKSPURT_MEAN_S,
            silence_mean: SILENCE_MEAN_S,
        }
    }

    /// A source with custom ON/OFF means (seconds).
    ///
    /// # Panics
    ///
    /// Panics if either mean is not positive.
    pub fn with_means(talkspurt_mean: f64, silence_mean: f64) -> VoipSource {
        assert!(talkspurt_mean > 0.0, "talkspurt mean must be positive");
        assert!(silence_mean > 0.0, "silence mean must be positive");
        VoipSource {
            talkspurt_mean,
            silence_mean,
        }
    }

    /// Long-run fraction of time spent talking.
    fn activity_factor(&self) -> f64 {
        self.talkspurt_mean / (self.talkspurt_mean + self.silence_mean)
    }

    /// Generates all frame arrivals in `[0, duration)`.
    ///
    /// The source starts in a random phase: with probability equal to
    /// the activity factor it begins mid-talkspurt.
    pub fn generate<R: Rng + ?Sized>(&self, duration: f64, rng: &mut R) -> Vec<Arrival> {
        let mut arrivals = Vec::new();
        let mut t = 0.0f64;
        let mut talking = rng.gen::<f64>() < self.activity_factor();
        while t < duration {
            if talking {
                let spurt = exponential(self.talkspurt_mean, rng);
                let end = (t + spurt).min(duration);
                let mut ft = t;
                while ft < end {
                    arrivals.push(Arrival {
                        time: ft,
                        bytes: VOIP_FRAME_BYTES,
                    });
                    ft += frame_interval();
                }
                t = end;
                talking = false;
            } else {
                t += exponential(self.silence_mean, rng);
                talking = true;
            }
        }
        arrivals
    }
}

impl Default for VoipSource {
    fn default() -> Self {
        VoipSource::new()
    }
}

/// Samples an exponential variate with the given mean.
pub fn exponential<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    let u: f64 = 1.0 - rng.gen::<f64>();
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn frame_interval_is_10ms() {
        assert!((frame_interval() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn arrivals_are_ordered_and_in_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let arrivals = VoipSource::new().generate(30.0, &mut rng);
        assert!(!arrivals.is_empty());
        for w in arrivals.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(arrivals.iter().all(|a| a.time < 30.0 && a.bytes == 120));
    }

    #[test]
    fn mean_rate_matches_activity_factor() {
        let mut rng = StdRng::seed_from_u64(9);
        let src = VoipSource::new();
        let duration = 2_000.0;
        let arrivals = src.generate(duration, &mut rng);
        let bits = arrivals.len() as f64 * 120.0 * 8.0;
        let measured = bits / duration;
        let expected = src.activity_factor() * VOIP_PEAK_RATE_BPS;
        assert!(
            (measured - expected).abs() < expected * 0.1,
            "measured {measured} expected {expected}"
        );
    }

    #[test]
    fn talkspurts_emit_at_peak_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = VoipSource::with_means(100.0, 0.001).generate(10.0, &mut rng);
        // Nearly always ON: arrival count ~ duration / 10 ms.
        let expected = 10.0 / frame_interval();
        assert!(
            (arrivals.len() as f64 - expected).abs() < expected * 0.05,
            "{} arrivals",
            arrivals.len()
        );
    }

    #[test]
    fn exponential_mean_is_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mean = 0.047;
        let sum: f64 = (0..n).map(|_| exponential(mean, &mut rng)).sum();
        let measured = sum / n as f64;
        assert!((measured - mean).abs() < mean * 0.02, "{measured}");
    }

    #[test]
    fn default_activity_factor() {
        let af = VoipSource::new().activity_factor();
        assert!((af - 1.0 / 2.35).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_rejected() {
        VoipSource::with_means(0.0, 1.0);
    }
}
