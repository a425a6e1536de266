//! Fig. 13 — BER bias of real-time estimation vs standard estimation.
//!
//! Paper: 4 KB frames at power 0.2, receivers at varied locations; RTE
//! largely flattens the BER-vs-symbol-index curve for QAM64 and QAM16
//! (65% / 27% overall BER reduction respectively).
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_phy, PhyRunConfig, OFFICE_FADING};
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::Estimation;

fn curves(mcs: Mcs, snr_db: f64) -> (Vec<f64>, Vec<f64>, f64, f64) {
    let base = PhyRunConfig {
        mcs,
        payload_bits: 4 * 1024 * 8,
        snr_db,
        fading: OFFICE_FADING,
        frames: 50,
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
    (
        std.ber_by_symbol,
        rte.ber_by_symbol,
        std.data_ber,
        rte.data_ber,
    )
}

fn main() {
    banner(
        "Fig 13",
        "BER bias: RTE vs standard (4 KB frames, power 0.2 regime)",
    );
    // Operating SNRs differ per modulation, standing in for the varied
    // receiver locations of the paper's measurement campaign.
    for (mcs, snr_db) in [(Mcs::QAM64_3_4, 27.0), (Mcs::QAM16_1_2, 19.0)] {
        let (std_curve, rte_curve, std_ber, rte_ber) = curves(mcs, snr_db);
        println!("--- {mcs} ---");
        println!("{:>12} {:>12} {:>12}", "symbol idx", "Standard", "RTE");
        let n = std_curve.len();
        for k in (0..n).step_by((n / 10).max(1)) {
            println!("{k:>12} {:>12.6} {:>12.6}", std_curve[k], rte_curve[k]);
        }
        let reduction = (std_ber - rte_ber) / std_ber.max(1e-12) * 100.0;
        println!(
            "overall BER: standard {std_ber:.2e}, RTE {rte_ber:.2e} (reduction {reduction:.0}%)"
        );
        assert!(rte_ber < std_ber, "RTE must reduce BER for {mcs}");
    }
    println!("paper: RTE cuts QAM64 BER by ~65% and QAM16 by ~27%, flattening the tail");
}
