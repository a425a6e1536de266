//! Per-station rate adaptation.
//!
//! The paper's frame format lets "different subframes adopt different
//! MCSs" (Section 4.1) — each receiver is served at the rate its link
//! supports. This module provides the standard SNR-threshold rate table
//! used by the simulator when per-station link qualities are configured.

use carpool_phy::mcs::Mcs;

/// SNR thresholds (dB) above which each 802.11a/g rate is reliable,
/// ordered like [`Mcs::ALL`]. Derived from the standard's receiver
/// sensitivity ladder shifted to post-equalisation SNR.
pub(crate) const SNR_THRESHOLDS_DB: [f64; 8] = [5.0, 7.0, 9.5, 12.5, 16.0, 19.5, 23.5, 25.5];

/// Picks the fastest MCS whose threshold the link clears; links below
/// every threshold fall back to the base rate.
pub(crate) fn mcs_for_snr(snr_db: f64) -> Mcs {
    let mut chosen = Mcs::BPSK_1_2;
    for (mcs, &threshold) in Mcs::ALL.iter().zip(SNR_THRESHOLDS_DB.iter()) {
        if snr_db >= threshold {
            chosen = *mcs;
        }
    }
    chosen
}

/// Maps a distance-flavoured path loss to SNR: `snr_ref` at 1 m with
/// log-distance decay of `exponent x 10 dB` per decade. Handy for
/// placing simulated stations around the AP.
#[cfg(test)]
fn snr_at_distance(snr_ref_db: f64, distance_m: f64, exponent: f64) -> f64 {
    assert!(distance_m > 0.0, "distance must be positive");
    snr_ref_db - 10.0 * exponent * distance_m.log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_increasing() {
        for w in SNR_THRESHOLDS_DB.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn rate_is_monotone_in_snr() {
        let mut prev = 0.0;
        for snr in [0.0, 6.0, 8.0, 10.0, 14.0, 18.0, 21.0, 24.0, 28.0] {
            let rate = mcs_for_snr(snr).data_rate_bps();
            assert!(rate >= prev, "snr {snr}");
            prev = rate;
        }
    }

    #[test]
    fn extremes() {
        assert_eq!(mcs_for_snr(f64::NEG_INFINITY), Mcs::BPSK_1_2);
        assert_eq!(mcs_for_snr(100.0), Mcs::QAM64_3_4);
    }

    #[test]
    fn each_threshold_activates_its_rate() {
        for (mcs, &t) in Mcs::ALL.iter().zip(SNR_THRESHOLDS_DB.iter()) {
            assert_eq!(mcs_for_snr(t + 0.01), *mcs);
        }
    }

    #[test]
    fn path_loss_model() {
        let near = snr_at_distance(40.0, 1.0, 3.0);
        let far = snr_at_distance(40.0, 10.0, 3.0);
        assert_eq!(near, 40.0);
        assert!((near - far - 30.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_distance_rejected() {
        snr_at_distance(40.0, 0.0, 3.0);
    }
}
