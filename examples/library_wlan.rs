//! The large-audience scenario of the paper's Section 2: a campus
//! library cell where two APs serve a crowd of stations with two-way
//! VoIP plus uplink background traffic, under all five MAC protocols.
//!
//! Run with `cargo run --release --example library_wlan [num_stas]`.
#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "example binary: printing the walkthrough is its job; a failed setup aborts the run"
)]

use carpool_mac::error_model::BerBiasModel;
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::{SimConfig, Simulator, UplinkTraffic};
use carpool_traffic::activity::ActivityProcess;
use carpool_traffic::stats::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let num_stas: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);

    // The measured context: how busy is a library cell?
    let mut rng = StdRng::seed_from_u64(7);
    let activity = ActivityProcess::library().sample_series(60, &mut rng);
    let mean = activity.iter().sum::<usize>() as f64 / activity.len() as f64;
    println!("library trace context:");
    println!(
        "  active STAs per AP over a minute: min {}, mean {mean:.1}, max {}",
        activity.iter().min().expect("non-empty"),
        activity.iter().max().expect("non-empty"),
    );
    println!(
        "  downlink share of traffic volume: {:.1}%",
        Trace::Library.downlink_ratio() * 100.0
    );
    println!();

    println!("simulating {num_stas} STAs, 2 APs, two-way VoIP + SIGCOMM background, 8 s:");
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>11}",
        "protocol", "goodput", "delay", "aggregation", "collisions"
    );
    for protocol in Protocol::ALL {
        let config = SimConfig {
            protocol,
            num_stas,
            duration_s: 8.0,
            seed: 42,
            uplink: Some(UplinkTraffic::default()),
            ..SimConfig::default()
        };
        let report = Simulator::new(config, Box::new(BerBiasModel::calibrated())).run();
        println!(
            "{:<16} {:>7.2} Mb {:>8.3} s {:>10.1} f {:>11}",
            protocol.name(),
            report.downlink_goodput_mbps(),
            report.downlink_delay_s(),
            report.channel.mean_aggregation(),
            report.channel.collisions
        );
    }
    println!();
    println!("(goodput = downlink MAC payload delivered; aggregation = frames per TXOP)");
}
