//! Fig. 3 — BER bias in a long frame.
//!
//! Paper setup: a fixed USRP pair 3 m apart, 1000 transmissions of 4 KB
//! QAM64 frames; the per-symbol BER grows with the symbol index because
//! the preamble channel estimate goes stale. Here: the same 4 KB QAM64
//! frames through the time-varying fading link, standard estimation.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_phy, PhyRunConfig, OFFICE_FADING};
use carpool_phy::mcs::Mcs;
use carpool_phy::rx::Estimation;

fn main() {
    banner(
        "Fig 3",
        "BER bias vs symbol index (4 KB QAM64, standard estimation)",
    );
    let config = PhyRunConfig {
        mcs: Mcs::QAM64_3_4,
        payload_bits: 4 * 1024 * 8,
        estimation: Estimation::Standard,
        snr_db: 27.0,
        fading: OFFICE_FADING,
        frames: 60,
        ..PhyRunConfig::default()
    };
    let result = run_phy(&config);
    let n = result.ber_by_symbol.len();
    println!(
        "frames: {} x {} symbols, SNR {} dB",
        config.frames, n, config.snr_db
    );
    println!("{:>12} {:>12}", "symbol idx", "BER");
    for k in (0..n).step_by((n / 12).max(1)) {
        println!("{k:>12} {:>12.6}", result.ber_by_symbol[k]);
    }
    let head: f64 = result.ber_by_symbol[..n / 10].iter().sum::<f64>() / (n / 10) as f64;
    let tail: f64 = result.ber_by_symbol[n - n / 10..].iter().sum::<f64>() / (n / 10) as f64;
    println!(
        "head BER {head:.6}  tail BER {tail:.6}  bias x{:.1}",
        tail / head.max(1e-12)
    );
    println!("paper: BER rises with symbol index (~2e-4 -> ~1.6e-3 over 110 symbols)");
    assert!(tail > head, "BER bias must be visible");
}
