//! Ablation — Bloom A-HDR vs explicit MAC-address headers.
//!
//! Reproduces the paper's Section 3 overhead example (eight receivers'
//! addresses at the base rate cost ~3x the payload airtime of 1500 B at
//! 600 Mbit/s) and measures the MAC-level effect by comparing Carpool
//! (A-HDR) with MU-Aggregation (explicit addresses) under identical
//! estimation quality.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_mac, voip_config};
use carpool_frame::airtime::{ahdr_airtime, CONTROL_MCS};
use carpool_mac::protocol::Protocol;

fn main() {
    banner(
        "Ablation",
        "aggregation header encoding: Bloom A-HDR vs explicit addresses",
    );

    // Airtime arithmetic (paper Section 3 example, adapted to this PHY).
    println!("header airtime for N receivers at the base rate:");
    println!(
        "{:>4} {:>14} {:>14} {:>8}",
        "N", "explicit", "A-HDR", "saving"
    );
    for n in [2usize, 4, 8] {
        let explicit = CONTROL_MCS.airtime_for_bits(n * 48);
        let ahdr = ahdr_airtime();
        println!(
            "{n:>4} {:>11.1} µs {:>11.1} µs {:>7.0}%",
            explicit * 1e6,
            ahdr * 1e6,
            (1.0 - ahdr / explicit) * 100.0
        );
    }

    // MAC-level effect: same multi-user selection, different headers.
    // (MU-Aggregation also lacks RTE; its extra loss is part of the
    // protocol, so this comparison bounds the header effect.)
    println!();
    println!("30-STA VoIP scenario, downlink goodput:");
    for p in [Protocol::Carpool, Protocol::MuAggregation] {
        let r = run_mac(voip_config(p, 30, 21));
        println!(
            "  {:<16} {:>6.2} Mbit/s (mean delay {:.3} s)",
            p.name(),
            r.downlink_goodput_mbps(),
            r.downlink_delay_s()
        );
    }
    println!("paper: per-receiver addresses at the lowest rate do not scale with N");
}
