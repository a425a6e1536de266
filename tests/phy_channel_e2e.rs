//! Cross-crate integration: the PHY chain through the channel models.
//!
//! These tests assert the paper's central PHY claims end to end:
//! BER bias appears under standard estimation on a time-varying channel
//! (Fig. 3) and real-time estimation removes it (Fig. 13).

use carpool_channel::link::LinkChannel;
use carpool_phy::bits::{bit_error_rate, hamming_distance};
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{receive, Estimation, SectionLayout};
use carpool_phy::tx::{transmit, SectionSpec};

fn pattern_bits(n: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 1) as u8
        })
        .collect()
}

fn office_link(seed: u64) -> LinkChannel {
    LinkChannel::builder()
        .snr_db(28.0)
        .coherence_time(4e-3)
        .rician_k(15.0)
        .cfo_hz(100.0)
        .seed(seed)
        .build()
}

/// Raw (pre-FEC) BER per symbol index averaged over frames.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn ber_by_symbol(estimation: Estimation, frames: usize) -> Vec<f64> {
    let spec = SectionSpec::payload(pattern_bits(24_000, 99), Mcs::QAM64_3_4);
    let tx = transmit(std::slice::from_ref(&spec)).expect("valid spec");
    let layouts = [SectionLayout::of(&spec)];
    let n_sym = tx.sections[0].num_symbols;
    let mut errs = vec![0.0f64; n_sym];
    for f in 0..frames {
        let rx_samples = office_link(1000 + f as u64).transmit(&tx.samples);
        let rx = receive(&rx_samples, &layouts, estimation).expect("lengths match");
        for (k, (t, r)) in tx.sections[0]
            .symbol_bits
            .iter()
            .zip(&rx.sections[0].raw_symbol_bits)
            .enumerate()
        {
            errs[k] += bit_error_rate(t, r);
        }
    }
    errs.iter().map(|e| e / frames as f64).collect()
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
    let tx = transmit(std::slice::from_ref(&spec)).expect("valid spec");
    let layouts = [SectionLayout::of(&spec)];
    let mut side_errors = 0usize;
    let mut side_total = 0usize;
    for f in 0..10 {
        let rx_samples = office_link(50 + f).transmit(&tx.samples);
        let rx = receive(&rx_samples, &layouts, Estimation::Standard).expect("lengths match");
        side_errors += hamming_distance(&tx.sections[0].side_values, &rx.sections[0].side_values);
        side_total += tx.sections[0].side_values.len();
    }
    let ser = side_errors as f64 / side_total as f64;
    assert!(ser < 0.01, "side channel symbol error rate {ser}");
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
