//! Ablation — RTE calibration rule (paper Eq. 3 vs alternatives).
//!
//! The paper folds each data-pilot estimate with an equal-weight
//! average, `H̃ = (H̃ + Ĥ)/2`. This ablation compares that rule against
//! full replacement and EWMA smoothing on the Fig. 13 workload.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_phy, PhyRunConfig, OFFICE_FADING};
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::Estimation;

fn main() {
    banner("Ablation", "RTE folding rule on 4 KB QAM64 frames");
    let base = PhyRunConfig {
        mcs: Mcs::QAM64_3_4,
        payload_bits: 4 * 1024 * 8,
        snr_db: 27.0,
        fading: OFFICE_FADING,
        frames: 40,
        ..PhyRunConfig::default()
    };
    let rules: [(&str, Estimation); 5] = [
        ("standard (no RTE)", Estimation::Standard),
        ("Eq.3 average", Estimation::Rte(CalibrationRule::Average)),
        ("replace", Estimation::Rte(CalibrationRule::Replace)),
        ("EWMA a=0.25", Estimation::Rte(CalibrationRule::Ewma(0.25))),
        ("EWMA a=0.75", Estimation::Rte(CalibrationRule::Ewma(0.75))),
    ];
    println!("{:>20} {:>13}", "rule", "raw BER");
    let mut results = Vec::new();
    for (name, estimation) in rules {
        let r = run_phy(&PhyRunConfig { estimation, ..base });
        println!("{name:>20} {:>13.2e}", r.data_ber);
        results.push((name, r.data_ber));
    }
    let standard = results[0].1;
    let average = results[1].1;
    assert!(
        average < standard,
        "Eq.3 averaging must beat preamble-only estimation"
    );
    println!(
        "Eq.3 average reduces BER by {:.0}% vs standard",
        (1.0 - average / standard) * 100.0
    );
}
