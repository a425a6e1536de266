//! Ablation — soft- vs hard-decision Viterbi decoding.
//!
//! Not a paper figure: the paper's GNURadio pipeline decodes hard. This
//! extension quantifies what an LLR-based receiver would add on top of
//! Carpool — classically ~2 dB on AWGN — by sweeping SNR and comparing
//! post-FEC frame error rates for the two decoders on identical
//! waveforms.
#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "bench target: the printed table is its output; a failed setup aborts the run"
)]

use carpool::montecarlo::{run_frames, ChannelPoint, Fading};
use carpool_bench::{banner, pattern_bits};
use carpool_obs::Obs;
use carpool_phy::mcs::Mcs;
use carpool_phy::rx::{Estimation, Fec};
use carpool_phy::tx::SectionSpec;

fn fer(mcs: Mcs, snr_db: f64, frames: usize, fec: Fec) -> f64 {
    let spec = SectionSpec::payload(pattern_bits(1500 * 8, 3), mcs);
    let channel = ChannelPoint {
        snr_db,
        fading: Fading::None,
        cfo_hz: 100.0,
    };
    let tally = run_frames(
        &spec,
        channel,
        Estimation::Standard,
        fec,
        frames,
        7000,
        &Obs::noop(),
    )
    .expect("valid spec");
    tally.frame_errors as f64 / frames as f64
}

fn main() {
    banner(
        "Ablation",
        "hard vs soft Viterbi: 1500 B frame error rate over SNR (AWGN + CFO)",
    );
    for (mcs, snrs) in [
        (Mcs::QPSK_1_2, [4.0, 5.0, 6.0, 7.0, 8.0]),
        (Mcs::QAM64_3_4, [22.0, 23.0, 24.0, 25.0, 26.0]),
    ] {
        println!("--- {mcs} ---");
        println!("{:>8} {:>10} {:>10}", "SNR dB", "hard FER", "soft FER");
        for snr in snrs {
            let hard = fer(mcs, snr, 40, Fec::Hard);
            let soft = fer(mcs, snr, 40, Fec::Soft);
            println!("{snr:>8} {hard:>10.3} {soft:>10.3}");
        }
    }
    println!("soft decoding shifts the FER waterfall left by ~1.5-2 dB");
}
