//! Fig. 16 — Goodput and latency with SIGCOMM'08 UDP/TCP background.
//!
//! Paper: the VoIP scenario plus uplink background traffic injected per
//! the SIGCOMM'08 statistics (TCP 47 ms / UDP 88 ms inter-arrivals,
//! Fig. 1(b) frame sizes). Headline numbers: Carpool reaches 1.12–3.2x
//! the goodput of A-MPDU from 20 to 30 STAs, keeps delay below ~0.2 s
//! while A-MPDU and 802.11 suffer ~0.8 s and ~1.5 s.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool::busy_cell;
use carpool_bench::{banner, run_mac, ResultsTable, SWEEP_PROTOCOLS};

fn main() {
    banner(
        "Fig 16(a)",
        "downlink goodput (Mbit/s) with UDP/TCP background traffic",
    );
    let mut goodput = ResultsTable::for_protocols("STAs");
    let mut latency = ResultsTable::for_protocols("STAs");
    let mut carpool_vs_ampdu: Vec<(usize, f64)> = Vec::new();
    for n in (10..=30).step_by(2) {
        let mut goodput_row = vec![n.to_string()];
        let mut latency_row = vec![n.to_string()];
        let mut goodputs = Vec::new();
        for p in SWEEP_PROTOCOLS {
            let report = run_mac(busy_cell(p, n, 3));
            goodput_row.push(format!("{:.2}", report.downlink_goodput_mbps()));
            latency_row.push(format!("{:.3}", report.downlink_delay_s()));
            goodputs.push(report.downlink_goodput_mbps());
        }
        goodput.row(goodput_row);
        latency.row(latency_row);
        carpool_vs_ampdu.push((n, goodputs[0] / goodputs[2].max(1e-9)));
    }
    goodput.print();

    banner("Fig 16(b)", "downlink latency (s) with background traffic");
    latency.print();

    println!();
    println!("Carpool / A-MPDU goodput ratio (paper: 1.12x at 20 STAs up to 3.2x at 30):");
    for (n, ratio) in carpool_vs_ampdu {
        if n >= 20 {
            println!("  {n} STAs: {ratio:.2}x");
        }
    }
}
