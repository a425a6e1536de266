//! Facade-level integration: PHY Monte-Carlo → MAC bridge and energy
//! analysis.

use carpool::energy::{energy_overhead_bound, DevicePowerModel};
use carpool::montecarlo::{run_frames, ChannelPoint, Fading};
use carpool_mac::error_model::{EstimationScheme, FrameErrorModel, SymbolErrorCurve};
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::{SimConfig, Simulator};
use carpool_obs::Obs;
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{Estimation, Fec};
use carpool_phy::tx::SectionSpec;

/// Per-symbol side-channel CRC failure rates of `frames` QAM64-3/4
/// frames of `payload_bits` bits through a Rayleigh link, for standard
/// estimation and for RTE, as a MAC error model.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn measured_curves(
    snr_db: f64,
    coherence_s: f64,
    cfo_hz: f64,
    frames: usize,
    payload_bits: usize,
) -> SymbolErrorCurve {
    let payload = (0..payload_bits)
        .map(|k| ((k * 13 + k / 7) % 3 == 0) as u8)
        .collect();
    let spec = SectionSpec::payload(payload, Mcs::QAM64_3_4);
    let fading = Fading::TimeVarying {
        coherence_s,
        rician_k: 0.0,
    };
    let channel = ChannelPoint {
        snr_db,
        fading,
        cfo_hz,
    };
    let curve = |estimation| {
        let tally = run_frames(
            &spec,
            channel,
            estimation,
            Fec::Off,
            frames,
            4242,
            &Obs::noop(),
        );
        let failures = tally.expect("valid spec").crc_failures_by_symbol;
        failures.iter().map(|&f| f as f64 / frames as f64).collect()
    };
    SymbolErrorCurve::new(
        curve(Estimation::Standard),
        curve(Estimation::Rte(CalibrationRule::Average)),
    )
}

#[test]
fn calibrated_curves_drive_the_mac_simulator() {
    // The full trace-driven loop: PHY Monte-Carlo -> error curves ->
    // MAC simulation, exactly as the paper feeds USRP traces into its
    // MATLAB simulator. Sixty frames per scheme keep the head-vs-tail
    // comparison below clear of Monte-Carlo noise: at six, a sweep of
    // 40 calibration seeds had the head below the tail on 4 of them.
    let curves = measured_curves(28.0, 4e-3, 100.0, 60, 10_000);

    // Sanity: the measured curves encode the BER bias.
    let head = curves.subframe_success_prob(EstimationScheme::Standard, Mcs::QAM64_3_4, 0, 10);
    let tail = curves.subframe_success_prob(EstimationScheme::Standard, Mcs::QAM64_3_4, 120, 10);
    assert!(head >= tail, "head {head} tail {tail}");

    // A clean, static channel measures no failures.
    let clean = measured_curves(60.0, f64::INFINITY, 0.0, 2, 4_000);
    let p = clean.subframe_success_prob(EstimationScheme::Standard, Mcs::QAM64_3_4, 0, 50);
    assert!(p > 0.999, "clean channel p {p}");

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
