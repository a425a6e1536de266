//! Fig. 14 — BER of RTE vs standard estimation per modulation.
//!
//! Paper: at power magnitudes 0.05 and 0.2, RTE achieves several times
//! lower BER for QAM16/QAM64 while gains for BPSK/QPSK are marginal
//! (higher-order constellations are more sensitive to channel drift).
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_phy, PhyRunConfig, OFFICE_FADING};
use carpool_channel::link::power_magnitude_to_snr_db;
use carpool_phy::convolutional::CodeRate;
use carpool_phy::mcs::Mcs;
use carpool_phy::modulation::Modulation;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::Estimation;

fn main() {
    banner("Fig 14", "BER of RTE vs standard per modulation");
    for power in [0.05, 0.2] {
        println!("--- power magnitude {power} ---");
        println!(
            "{:>8} {:>13} {:>13} {:>8}",
            "modul.", "Standard", "RTE", "gain"
        );
        for m in Modulation::ALL {
            let base = PhyRunConfig {
                mcs: Mcs::new(m, CodeRate::Half),
                payload_bits: 4 * 1024 * 8,
                snr_db: power_magnitude_to_snr_db(power),
                fading: OFFICE_FADING,
                frames: 30,
                ..PhyRunConfig::default()
            };
            let std = run_phy(&PhyRunConfig {
                estimation: Estimation::Standard,
                ..base
            });
            let rte = run_phy(&PhyRunConfig {
                estimation: Estimation::Rte(CalibrationRule::Average),
                ..base
            });
            let gain = if std.data_ber > 1e-6 {
                format!("{:.1}x", std.data_ber / rte.data_ber.max(1e-6))
            } else {
                "—".to_string() // both at the measurement floor
            };
            println!(
                "{:>8} {:>13.2e} {:>13.2e} {:>8}",
                m.to_string(),
                std.data_ber,
                rte.data_ber,
                gain
            );
        }
    }
    println!("paper: several-fold BER reduction for QAM16/QAM64, marginal for BPSK/QPSK");
}
