//! Fig. 11 — Impact of the phase offset side channel on data decoding.
//!
//! Paper: BER of the standard PHY vs the PHY with the 2-bit side channel
//! over transmit power 0.0125–0.2 for BPSK/QPSK/QAM16/QAM64; differences
//! stay within a few percent, i.e. injection is harmless.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_phy, Fading, PhyRunConfig};
use carpool_channel::link::power_magnitude_to_snr_db;
use carpool_phy::convolutional::CodeRate;
use carpool_phy::mcs::Mcs;
use carpool_phy::modulation::Modulation;
use carpool_phy::rx::Estimation;

const POWERS: [f64; 5] = [0.0125, 0.025, 0.05, 0.1, 0.2];

fn mcs_for(m: Modulation) -> Mcs {
    Mcs::new(m, CodeRate::Half)
}

fn main() {
    banner(
        "Fig 11",
        "data BER with vs without phase offset side channel (static link)",
    );
    println!(
        "{:>8} {:>9} {:>13} {:>13} {:>9}",
        "modul.", "power", "w/ offset", "standard", "ratio"
    );
    for m in Modulation::ALL {
        for p in POWERS {
            let base = PhyRunConfig {
                mcs: mcs_for(m),
                payload_bits: 1024 * 8,
                estimation: Estimation::Standard,
                snr_db: power_magnitude_to_snr_db(p),
                fading: Fading::None,
                cfo_hz: 100.0,
                frames: 25,
                ..PhyRunConfig::default()
            };
            let with = run_phy(&base);
            let without = run_phy(&PhyRunConfig {
                side_channel: None,
                ..base
            });
            let ratio = if without.data_ber > 0.0 {
                with.data_ber / without.data_ber
            } else if with.data_ber == 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
            println!(
                "{:>8} {:>9} {:>13.2e} {:>13.2e} {:>9.3}",
                m.to_string(),
                p,
                with.data_ber,
                without.data_ber,
                ratio
            );
        }
    }
    println!("paper: BER differences between the two PHYs within ~1-5.5%");
}
