//! Ablation — time-fairness scheduling (paper Section 8, Fairness).
//!
//! The paper sketches a time-occupancy scheduler on top of Carpool:
//! "the scheduling module in AP periodically checks the time occupancy
//! table and assigns higher priority to STAs with smaller time
//! occupancy". This ablation compares FIFO against that scheduler in a
//! heterogeneous cell (half the stations on a slow link), reporting
//! Jain's fairness index over per-station delivered bytes.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_mac, voip_config};
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::SchedulerPolicy;

fn main() {
    banner(
        "Ablation",
        "FIFO vs time-fair scheduling in a heterogeneous 20-STA cell",
    );
    // Half the stations near (54 Mbit/s), half far (6 Mbit/s): slow
    // stations eat airtime under FIFO.
    let snrs: Vec<f64> = (0..20)
        .map(|k| if k % 2 == 0 { 30.0 } else { 6.0 })
        .collect();
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "scheduler", "goodput", "delay", "fast STAs", "slow STAs", "Jain"
    );
    let mut delays = Vec::new();
    for (name, scheduler) in [
        ("FIFO", SchedulerPolicy::Fifo),
        ("time-fair", SchedulerPolicy::TimeFair),
    ] {
        let mut cfg = voip_config(Protocol::Carpool, 20, 4);
        cfg.per_sta_snr_db = Some(snrs.clone());
        cfg.scheduler = scheduler;
        let r = run_mac(cfg);
        let half_delay = |parity: usize| {
            let ms: Vec<&carpool_mac::FlowMetrics> = r
                .per_sta_downlink
                .iter()
                .enumerate()
                .filter(|(k, _)| k % 2 == parity)
                .map(|(_, m)| m)
                .collect();
            ms.iter().map(|m| m.mean_delay()).sum::<f64>() / ms.len() as f64
        };
        println!(
            "{name:>10} {:>9.2} Mb {:>8.3} s {:>8.3} s {:>8.3} s {:>8.3}",
            r.downlink_goodput_mbps(),
            r.downlink_delay_s(),
            half_delay(0),
            half_delay(1),
            r.downlink_fairness()
        );
        delays.push(r.downlink_delay_s());
    }
    // All offered traffic is eventually served under both disciplines
    // (Jain over bytes = 1); the scheduler's win is service latency.
    assert!(
        delays[1] <= delays[0] * 1.1,
        "time-fair must not worsen delay: {delays:?}"
    );
    println!("delivered bytes stay fair under both; the occupancy table cuts the");
    println!("queueing delay by serving under-served stations first");
}
