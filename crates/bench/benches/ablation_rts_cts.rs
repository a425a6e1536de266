//! Ablation — multicast RTS/CTS under hidden terminals (paper Fig. 7).
//!
//! "In dense environments, it is likely there exist hidden terminals...
//! To mitigate hidden terminal issues, we adopt a mechanism based on the
//! RTS/CTS signaling": one multicast RTS carrying the A-HDR, answered by
//! sequential CTSs. This ablation sweeps the fraction of mutually hidden
//! STA pairs and compares Carpool with and without the signalling.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool::busy_cell;
use carpool_bench::{banner, run_mac};
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::HiddenTerminals;

fn main() {
    banner(
        "Ablation",
        "RTS/CTS vs hidden terminals (Carpool, 20 STAs, uplink background)",
    );
    println!(
        "{:>14} {:>12} {:>12} {:>14} {:>14} {:>11}",
        "hidden pairs", "no RTS up", "RTS up", "no RTS losses", "RTS losses", "loss ratio"
    );
    for fraction in [0.0, 0.2, 0.5] {
        let mut results = Vec::new();
        for use_rts in [false, true] {
            let mut cfg = busy_cell(Protocol::Carpool, 20, 13);
            cfg.use_rts_cts = use_rts;
            if fraction > 0.0 {
                cfg.hidden_terminals = Some(HiddenTerminals { fraction });
            }
            let r = run_mac(cfg);
            results.push((
                r.uplink.goodput_bps(r.duration_s) / 1e6,
                r.channel.hidden_collisions,
            ));
        }
        let (basic, rts) = (results[0].1, results[1].1);
        let ratio = if basic == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", rts as f64 / basic as f64)
        };
        println!(
            "{:>13.0}% {:>9.2} Mb {:>9.2} Mb {:>14} {:>14} {:>11}",
            fraction * 100.0,
            results[0].0,
            results[1].0,
            basic,
            rts,
            ratio
        );
    }
    println!("loss ratio: hidden-terminal losses with RTS/CTS over those of basic access");
}
