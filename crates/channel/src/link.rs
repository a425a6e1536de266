//! Composite link model: fading → CFO → AWGN, with the USRP power
//! calibration used by the paper's experiments.
//!
//! The paper sweeps the USRP transmit "power magnitude" from 0.0125 to
//! 0.2 (fraction of the XCVR2450's 20 dBm maximum). The simulator maps
//! that knob to receive SNR with [`power_magnitude_to_snr_db`]: doubling
//! the magnitude adds 3 dB (it is an amplitude-squared power scale), and
//! the anchor point is calibrated so the standard PHY's BER curves land
//! in the ranges reported in the paper's Fig. 11/12.

use crate::cfo::{ResidualCfo, QUAD};
use crate::fading::{DelayProfile, FadingChannel, SAMPLE_RATE};
use crate::noise::Awgn;
use carpool_phy::math::Complex64;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Samples between fading tap updates: one OFDM symbol.
const FADING_UPDATE_INTERVAL: usize = 80;

/// SNR (dB) corresponding to the paper's lowest power magnitude 0.0125.
///
/// Chosen so that at magnitude 0.0125 QAM64 is heavily errored while
/// BPSK is nearly clean, and at 0.2 all modulations decode well — the
/// qualitative regime of the paper's Fig. 11.
pub(crate) const SNR_AT_MIN_POWER_DB: f64 = 14.0;
/// The paper's minimum power magnitude setting.
pub(crate) const MIN_POWER_MAGNITUDE: f64 = 0.0125;

/// Maps a USRP power magnitude (0.0125–0.2 in the paper) to receive SNR.
///
/// # Panics
///
/// Panics if `magnitude` is not positive.
///
/// # Examples
///
/// ```
/// use carpool_channel::link::power_magnitude_to_snr_db;
/// let low = power_magnitude_to_snr_db(0.0125);
/// let high = power_magnitude_to_snr_db(0.2);
/// assert!((high - low - 12.04).abs() < 0.01); // 16x power = ~12 dB
/// ```
pub fn power_magnitude_to_snr_db(magnitude: f64) -> f64 {
    assert!(magnitude > 0.0, "power magnitude must be positive");
    SNR_AT_MIN_POWER_DB + 10.0 * (magnitude / MIN_POWER_MAGNITUDE).log10()
}

/// A complete link: time-varying multipath fading, residual CFO and AWGN.
///
/// Build with [`LinkChannel::builder`]; process whole frames with
/// [`LinkChannel::transmit`].
#[derive(Debug)]
pub struct LinkChannel {
    fading: Option<FadingChannel>,
    cfo: Option<ResidualCfo>,
    awgn: Option<Awgn>,
    rng: StdRng,
    obs: carpool_obs::Obs,
}

impl LinkChannel {
    /// Starts building a link channel.
    pub fn builder() -> LinkChannelBuilder {
        LinkChannelBuilder::default()
    }

    /// Attaches an observability handle; `transmit` then reports frame
    /// and sample counts plus a `channel.transmit` timing span.
    pub fn with_obs(mut self, obs: carpool_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Passes a frame of baseband samples through the link.
    ///
    /// The output is written once: one pass over runs of four of the
    /// CFO's 64-sample re-anchoring blocks runs fading into the output
    /// and rotates the run by the CFO. When AWGN is on, the energy of the
    /// output is summed in the order [`carpool_phy::math::mean_power`]
    /// sums it: the CFO sums each run's while it tracks the next run's
    /// phase, without CFO each run is summed as it is written. The noise
    /// is then added in place, scaled from that sum.
    pub fn transmit(&mut self, samples: &[Complex64]) -> Vec<Complex64> {
        let _span = self.obs.span(carpool_obs::names::CHANNEL_TRANSMIT);
        let measure = self.awgn.is_some();
        let mut out = Vec::with_capacity(samples.len());
        let mut energy = 0.0;
        // `out[..summed]` is in `energy`.
        let mut summed = 0;
        for start in (0..samples.len()).step_by(QUAD) {
            let end = samples.len().min(start + QUAD);
            match &mut self.fading {
                Some(f) => f.process_into(samples, start..end, &mut out, &mut self.rng),
                None => out.extend_from_slice(&samples[start..end]),
            }
            let (done, run) = out.split_at_mut(start);
            match &mut self.cfo {
                Some(cfo) if measure => {
                    cfo.apply_summing(run, &done[summed..], &mut energy);
                    summed = start;
                }
                Some(cfo) => cfo.apply(run),
                None if measure => {
                    energy = run.iter().fold(energy, |sum, s| sum + s.norm_sqr());
                    summed = end;
                }
                None => {}
            }
        }
        if let Some(awgn) = &self.awgn {
            if !out.is_empty() {
                energy = out[summed..]
                    .iter()
                    .fold(energy, |sum, s| sum + s.norm_sqr());
                let signal_power = energy / out.len() as f64;
                awgn.apply(&mut out, signal_power, &mut self.rng);
            }
        }
        if self.obs.enabled() {
            self.obs.counter("channel.frames", 1);
            self.obs.counter("channel.samples", samples.len() as u64);
        }
        out
    }
}

/// Builder for [`LinkChannel`].
#[derive(Debug, Clone)]
pub struct LinkChannelBuilder {
    snr_db: Option<f64>,
    profile: DelayProfile,
    coherence_time_s: Option<f64>,
    rician_k: f64,
    cfo_hz: f64,
    seed: u64,
}

impl Default for LinkChannelBuilder {
    fn default() -> Self {
        LinkChannelBuilder {
            snr_db: None,
            profile: DelayProfile::flat(),
            coherence_time_s: None,
            rician_k: 0.0,
            cfo_hz: 0.0,
            seed: 0,
        }
    }
}

impl LinkChannelBuilder {
    /// Sets AWGN at the given SNR. Without this call the link is
    /// noiseless.
    pub fn snr_db(&mut self, snr_db: f64) -> &mut Self {
        self.snr_db = Some(snr_db);
        self
    }

    /// Sets the multipath power delay profile (default: flat single tap).
    pub fn profile(&mut self, profile: DelayProfile) -> &mut Self {
        self.profile = profile;
        self
    }

    /// Enables Rayleigh fading with the given coherence time in seconds.
    /// Without this call the channel, if faded at all, is static.
    pub fn coherence_time(&mut self, seconds: f64) -> &mut Self {
        self.coherence_time_s = Some(seconds);
        self
    }

    /// Enables *static* Rayleigh fading (a random draw per link that
    /// never evolves).
    pub fn static_fading(&mut self) -> &mut Self {
        self.coherence_time_s = Some(f64::INFINITY);
        self
    }

    /// Rician K-factor of the first tap (default 0 = Rayleigh). Indoor
    /// line-of-sight links like the paper's office testbed are well
    /// modelled by K of 5-20.
    pub fn rician_k(&mut self, k: f64) -> &mut Self {
        self.rician_k = k;
        self
    }

    /// Residual carrier frequency offset in Hz (default 0).
    pub fn cfo_hz(&mut self, hz: f64) -> &mut Self {
        self.cfo_hz = hz;
        self
    }

    /// RNG seed for reproducibility (default 0).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Builds the channel.
    pub fn build(&self) -> LinkChannel {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let fading = self.coherence_time_s.map(|ct| {
            FadingChannel::new_rician(
                self.profile.clone(),
                self.rician_k,
                ct,
                FADING_UPDATE_INTERVAL,
                &mut rng,
            )
        });
        let cfo = if self.cfo_hz != 0.0 {
            Some(ResidualCfo::new(self.cfo_hz, SAMPLE_RATE))
        } else {
            None
        };
        let awgn = self.snr_db.map(Awgn::new);
        LinkChannel {
            fading,
            cfo,
            awgn,
            rng,
            obs: carpool_obs::Obs::noop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carpool_phy::math::mean_power;

    fn tone(n: usize) -> Vec<Complex64> {
        (0..n).map(|k| Complex64::cis(k as f64 * 0.05)).collect()
    }

    #[test]
    fn noiseless_identity_link() {
        let mut link = LinkChannel::builder().build();
        let input = tone(500);
        assert_eq!(link.transmit(&input), input);
    }

    #[test]
    fn awgn_only_link_perturbs() {
        let mut link = LinkChannel::builder().snr_db(10.0).seed(4).build();
        let input = tone(500);
        let out = link.transmit(&input);
        assert_ne!(out, input);
        assert_eq!(out.len(), input.len());
    }

    #[test]
    fn power_mapping_is_3db_per_doubling() {
        let a = power_magnitude_to_snr_db(0.05);
        let b = power_magnitude_to_snr_db(0.1);
        assert!((b - a - 10.0 * 2f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_output() {
        let input = tone(300);
        let mut a = LinkChannel::builder()
            .snr_db(12.0)
            .static_fading()
            .cfo_hz(200.0)
            .seed(77)
            .build();
        let mut b = LinkChannel::builder()
            .snr_db(12.0)
            .static_fading()
            .cfo_hz(200.0)
            .seed(77)
            .build();
        assert_eq!(a.transmit(&input), b.transmit(&input));
    }

    #[test]
    fn different_seeds_differ() {
        let input = tone(300);
        let mut a = LinkChannel::builder().static_fading().seed(1).build();
        let mut b = LinkChannel::builder().static_fading().seed(2).build();
        assert_ne!(a.transmit(&input), b.transmit(&input));
    }

    #[test]
    fn fading_preserves_length_and_finite_power() {
        let mut link = LinkChannel::builder()
            .profile(DelayProfile::exponential(6, 0.6))
            .coherence_time(1e-3)
            .snr_db(25.0)
            .seed(8)
            .build();
        let input = tone(2000);
        let out = link.transmit(&input);
        assert_eq!(out.len(), input.len());
        assert!(mean_power(&out).is_finite());
        assert!(out.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn obs_counts_frames_and_samples() {
        use carpool_obs::{MemoryRecorder, Obs};
        use std::sync::Arc;

        let recorder = Arc::new(MemoryRecorder::new());
        let mut link = LinkChannel::builder()
            .snr_db(20.0)
            .seed(3)
            .build()
            .with_obs(Obs::with_recorder(recorder.clone()));
        link.transmit(&tone(400));
        link.transmit(&tone(100));
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("channel.frames"), 2);
        assert_eq!(snap.counter("channel.samples"), 500);
        let span = snap
            .histogram("span.channel.transmit")
            .expect("span histogram");
        assert_eq!(span.count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_power_magnitude_rejected() {
        power_magnitude_to_snr_db(0.0);
    }
}
