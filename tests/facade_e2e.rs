//! Facade-level integration: calibration bridge and energy analysis.

use carpool::calibrate::{measure_symbol_error_curves, CalibrationConfig};
use carpool::energy::{energy_overhead_bound, DevicePowerModel};
use carpool_mac::error_model::{EstimationScheme, FrameErrorModel};
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::{SimConfig, Simulator};
use carpool_phy::mcs::Mcs;

#[test]
fn calibrated_curves_drive_the_mac_simulator() {
    // The full trace-driven loop: PHY Monte-Carlo -> error curves ->
    // MAC simulation, exactly as the paper feeds USRP traces into its
    // MATLAB simulator. Sixty frames per scheme keep the head-vs-tail
    // comparison below clear of Monte-Carlo noise: at six, a sweep of
    // 40 calibration seeds had the head below the tail on 4 of them.
    let calibration = CalibrationConfig {
        frames: 60,
        payload_bits: 10_000,
        snr_db: 28.0,
        coherence_time_s: 4e-3,
        ..CalibrationConfig::default()
    };
    let curves = measure_symbol_error_curves(&calibration);

    // Sanity: the measured curves encode the BER bias.
    let head = curves.subframe_success_prob(EstimationScheme::Standard, Mcs::QAM64_3_4, 0, 10);
    let tail = curves.subframe_success_prob(EstimationScheme::Standard, Mcs::QAM64_3_4, 120, 10);
    assert!(head >= tail, "head {head} tail {tail}");

    let config = SimConfig {
        protocol: Protocol::Carpool,
        num_stas: 16,
        duration_s: 2.0,
        seed: 3,
        ..SimConfig::default()
    };
    let report = Simulator::new(config, Box::new(curves)).run();
    assert!(report.downlink.delivered_frames > 0);
}

#[test]
fn paper_energy_bounds_hold() {
    assert!(energy_overhead_bound(8, 4, 0.90) < 0.003_5);
    assert!(energy_overhead_bound(4, 4, 0.90) < 0.001);
}

#[test]
fn carpool_clients_spend_no_more_power_than_legacy() {
    let model = DevicePowerModel::E_MILI;
    let mut powers = Vec::new();
    for protocol in [Protocol::Carpool, Protocol::Dot11] {
        let config = SimConfig {
            protocol,
            num_stas: 20,
            duration_s: 4.0,
            seed: 9,
            ..SimConfig::default()
        };
        let report =
            Simulator::new(config, Box::new(carpool_mac::BerBiasModel::calibrated())).run();
        let mean: f64 = report
            .sta_airtime
            .iter()
            .map(|s| model.mean_power_w(s))
            .sum::<f64>()
            / report.sta_airtime.len() as f64;
        powers.push(mean);
    }
    assert!(
        powers[0] <= powers[1] * 1.01,
        "carpool {:.3} W vs 802.11 {:.3} W",
        powers[0],
        powers[1]
    );
}
