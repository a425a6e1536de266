//! Cross-crate integration: the PHY chain through the channel models.
//!
//! These tests assert the paper's central PHY claims end to end:
//! BER bias appears under standard estimation on a time-varying channel
//! (Fig. 3) and real-time estimation removes it (Fig. 13).

use carpool::montecarlo::{run_frames, ChannelPoint, PhyTally};
use carpool_bench::{pattern_bits, OFFICE_FADING};
use carpool_channel::link::LinkChannel;
use carpool_obs::Obs;
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{receive, Estimation, Fec, SectionLayout};
use carpool_phy::tx::{transmit, SectionSpec};

/// The paper's office link at 28 dB.
const OFFICE: ChannelPoint = ChannelPoint {
    snr_db: 28.0,
    fading: OFFICE_FADING,
    cfo_hz: 100.0,
};

/// Pre-FEC tallies of `frames` office-link frames, seeded from `seed`.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn office_tally(spec: &SectionSpec, estimation: Estimation, frames: usize, seed: u64) -> PhyTally {
    run_frames(
        spec,
        OFFICE,
        estimation,
        Fec::Off,
        frames,
        seed,
        &Obs::noop(),
    )
    .expect("valid spec")
}

/// Raw (pre-FEC) BER per symbol index averaged over frames.
fn ber_by_symbol(estimation: Estimation, frames: usize) -> Vec<f64> {
    let spec = SectionSpec::payload(pattern_bits(24_000, 99), Mcs::QAM64_3_4);
    let bits = (frames * spec.mcs.coded_bits_per_symbol()) as f64;
    office_tally(&spec, estimation, frames, 1000)
        .bit_errors_by_symbol
        .iter()
        .map(|&e| e as f64 / bits)
        .collect()
}

#[test]
fn ber_bias_appears_under_standard_estimation() {
    let bers = ber_by_symbol(Estimation::Standard, 30);
    let n = bers.len();
    let head: f64 = bers[..n / 5].iter().sum::<f64>() / (n / 5) as f64;
    let tail: f64 = bers[n - n / 5..].iter().sum::<f64>() / (n / 5) as f64;
    assert!(
        tail > head * 2.0,
        "no BER bias: head {head:.2e} tail {tail:.2e}"
    );
}

#[test]
fn rte_flattens_the_bias() {
    let std = ber_by_symbol(Estimation::Standard, 30);
    let rte = ber_by_symbol(Estimation::Rte(CalibrationRule::Average), 30);
    let n = std.len();
    let tail_std: f64 = std[n - n / 5..].iter().sum::<f64>() / (n / 5) as f64;
    let tail_rte: f64 = rte[n - n / 5..].iter().sum::<f64>() / (n / 5) as f64;
    assert!(
        tail_rte < tail_std / 2.0,
        "RTE tail {tail_rte:.2e} vs standard tail {tail_std:.2e}"
    );
}

#[test]
fn side_channel_survives_the_office_link() {
    let spec = SectionSpec::payload(pattern_bits(16_000, 5), Mcs::QPSK_1_2);
    let tally = office_tally(&spec, Estimation::Standard, 10, 50);
    // A wrong two-bit value has one or two wrong bits, so a bit error
    // rate under 0.5% bounds the value error rate under 1%.
    let ber = tally.side_errors as f64 / tally.side_bits as f64;
    assert!(ber < 0.005, "side channel bit error rate {ber}");
}

#[test]
fn payload_decodes_through_noisy_multipath() {
    use carpool_channel::DelayProfile;
    let spec = SectionSpec::payload(pattern_bits(8_000, 3), Mcs::QPSK_1_2);
    let tx = transmit(std::slice::from_ref(&spec)).expect("valid spec");
    let mut link = LinkChannel::builder()
        .snr_db(30.0)
        .profile(DelayProfile::exponential(6, 0.5))
        .static_fading()
        .rician_k(10.0)
        .cfo_hz(80.0)
        .seed(11)
        .build();
    let rx_samples = link.transmit(&tx.samples);
    let rx = receive(
        &rx_samples,
        &[SectionLayout::of(&spec)],
        Estimation::Standard,
    )
    .expect("lengths match");
    assert_eq!(rx.sections[0].bits, spec.bits, "frequency-selective link");
}

#[test]
#[ignore = "diagnostic: prints BER-bias curves; run manually with --ignored --nocapture"]
fn diagnostic_ber_bias() {
    let bers = ber_by_symbol(Estimation::Standard, 40);
    let rte = ber_by_symbol(Estimation::Rte(CalibrationRule::Average), 40);
    let n = bers.len();
    println!("symbols: {n}");
    for k in (0..n).step_by((n / 15).max(1)) {
        println!("sym {k:4}  std {:.5}  rte {:.5}", bers[k], rte[k]);
    }
}
