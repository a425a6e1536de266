//! Ablation — incremental Carpool deployment (paper Section 4.3).
//!
//! Carpool is "an optional mechanism": stations negotiate it at
//! association and legacy clients keep working. This ablation sweeps
//! the fraction of Carpool-capable stations in the crowded VoIP cell
//! and shows graceful, monotone gains with adoption — legacy stations
//! are never starved.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool::voip_cell;
use carpool_bench::{banner, run_mac};
use carpool_mac::protocol::Protocol;

fn main() {
    banner(
        "Ablation",
        "incremental deployment: goodput vs Carpool adoption (30 STAs, VoIP)",
    );
    println!(
        "{:>10} {:>12} {:>10} {:>14} {:>14}",
        "adoption", "goodput", "delay", "frames/TXOP", "legacy rx s"
    );
    let mut last = 0.0;
    for fraction in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut cfg = voip_cell(Protocol::Carpool, 30, 2);
        cfg.carpool_fraction = fraction;
        let r = run_mac(cfg);
        let legacy_start = (fraction * 30.0).ceil() as usize;
        // Folded from +0.0: an empty `f64` sum is -0.0, which would
        // print as "-0.00" at full adoption.
        let legacy_rx = r.sta_airtime[legacy_start.min(30)..]
            .iter()
            .fold(0.0, |acc, s| acc + s.rx_s);
        println!(
            "{:>9.0}% {:>9.2} Mb {:>8.3} s {:>14.2} {:>14.2}",
            fraction * 100.0,
            r.downlink_goodput_mbps(),
            r.downlink_delay_s(),
            r.channel.mean_aggregation(),
            legacy_rx
        );
        if fraction > 0.0 {
            assert!(
                r.downlink_goodput_mbps() >= last * 0.9,
                "adoption must not hurt"
            );
        }
        last = r.downlink_goodput_mbps();
    }
    println!("adoption pays incrementally; legacy clients keep their service");
}
