//! Fig. 15 — Goodput and latency for VoIP traffic.
//!
//! Paper: two-way Brady VoIP per STA, 10–30 STAs, two APs; Carpool keeps
//! growing linearly while A-MPDU tapers and 802.11 collapses
//! (0.55 → 0.18 Mbit/s from 22 to 30 STAs); WiFox sits in between.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_mac, voip_config, ResultsTable, SWEEP_PROTOCOLS};

fn main() {
    banner(
        "Fig 15(a)",
        "downlink goodput (Mbit/s) for VoIP vs number of STAs",
    );
    let mut goodput = ResultsTable::for_protocols("STAs");
    let mut latency = ResultsTable::for_protocols("STAs");
    for n in (10..=30).step_by(2) {
        let mut goodput_row = vec![n.to_string()];
        let mut latency_row = vec![n.to_string()];
        for p in SWEEP_PROTOCOLS {
            let report = run_mac(voip_config(p, n, 1));
            goodput_row.push(format!("{:.2}", report.downlink_goodput_mbps()));
            latency_row.push(format!("{:.3}", report.downlink_delay_s()));
        }
        goodput.row(goodput_row);
        latency.row(latency_row);
    }
    goodput.print();

    banner(
        "Fig 15(b)",
        "downlink latency (s) for VoIP vs number of STAs",
    );
    latency.print();
    println!("paper: Carpool grows ~linearly with low delay; A-MPDU tapers after ~22;");
    println!("       802.11 collapses to ~0.18 Mbit/s at 30 STAs; WiFox in between");
}
