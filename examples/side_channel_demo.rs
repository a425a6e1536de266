//! The phase offset side channel and real-time channel estimation,
//! end to end: send a long frame through a drifting channel and watch
//! the per-symbol CRCs gate data-pilot calibration.
//!
//! Run with `cargo run --release --example side_channel_demo`.
#![allow(
    clippy::print_stdout,
    reason = "example binary: printing the walkthrough is its job"
)]

use carpool_channel::link::LinkChannel;
use carpool_phy::bits::{bit_error_rate, hamming_distance};
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{receive, Estimation, SectionLayout};
use carpool_phy::tx::{transmit, SectionSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8 KB QAM64 frame — long enough for the channel to drift.
    let payload: Vec<u8> = (0..8 * 1024 * 8)
        .map(|k| ((k * 31 + 7) % 5 < 2) as u8)
        .collect();
    let spec = SectionSpec::payload(payload.clone(), Mcs::QAM64_3_4);
    let tx = transmit(std::slice::from_ref(&spec))?;
    let n_sym = tx.sections[0].num_symbols;
    println!(
        "frame: {} OFDM symbols; side channel carries {} CRC bits total",
        n_sym,
        2 * n_sym
    );

    let channel = |seed: u64| {
        LinkChannel::builder()
            .snr_db(27.0)
            .coherence_time(4e-3)
            .rician_k(15.0)
            .cfo_hz(120.0)
            .seed(seed)
            .build()
    };

    // Same waveform, two receivers: standard estimation vs RTE.
    let rx_samples = channel(99).transmit(&tx.samples);
    let layouts = [SectionLayout::of(&spec)];
    let standard = receive(&rx_samples, &layouts, Estimation::Standard)?;
    let rte = receive(
        &rx_samples,
        &layouts,
        Estimation::Rte(CalibrationRule::Average),
    )?;

    // Side channel diagnostics (from the RTE receiver).
    let side_tx = &tx.sections[0].side_values;
    let side_rx = &rte.sections[0].side_values;
    let side_errs = hamming_distance(side_tx, side_rx);
    let crc_pass = rte.sections[0].crc_ok.iter().filter(|&&ok| ok).count();
    println!(
        "side channel: {side_errs}/{} symbol values wrong; CRC passed on {crc_pass}/{n_sym} symbols",
        side_tx.len()
    );

    // BER by frame region, standard vs RTE.
    println!("{:>14} {:>12} {:>12}", "frame region", "standard", "RTE");
    let region = n_sym / 4;
    for (name, range) in [
        ("first 25%", 0..region),
        ("second 25%", region..2 * region),
        ("third 25%", 2 * region..3 * region),
        ("last 25%", 3 * region..n_sym),
    ] {
        let ber = |rx: &carpool_phy::rx::RxFrame| {
            let mut errs = 0usize;
            let mut total = 0usize;
            for k in range.clone() {
                errs += hamming_distance(
                    &tx.sections[0].symbol_bits[k],
                    &rx.sections[0].raw_symbol_bits[k],
                );
                total += tx.sections[0].symbol_bits[k].len();
            }
            errs as f64 / total as f64
        };
        println!("{name:>14} {:>12.2e} {:>12.2e}", ber(&standard), ber(&rte));
    }

    let std_ber = bit_error_rate(&payload, &standard.sections[0].bits);
    let rte_ber = bit_error_rate(&payload, &rte.sections[0].bits);
    println!("post-FEC payload BER: standard {std_ber:.2e}, RTE {rte_ber:.2e}");
    println!("(standard estimation goes stale over the frame; RTE keeps calibrating)");
    Ok(())
}
