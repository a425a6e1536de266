//! Table 2 — PHY/MAC parameters used by the simulator.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::banner;
use carpool_frame::airtime::{
    ack_airtime, ahdr_airtime, sig_airtime, CW_MAX, CW_MIN, DIFS, PLCP_OVERHEAD, PROPAGATION_DELAY,
    SIFS, SLOT_TIME,
};

fn us(seconds: f64) -> String {
    format!("{:.1} µs", seconds * 1e6)
}

fn main() {
    banner(
        "Table 2",
        "PHY/MAC parameters (paper values reproduced exactly)",
    );
    println!("{:<28} {:>12}", "Slot time", us(SLOT_TIME));
    println!("{:<28} {:>12}", "SIFS", us(SIFS));
    println!("{:<28} {:>12}", "DIFS", us(DIFS));
    println!(
        "{:<28} {:>12}",
        "Minimal contention window",
        format!("{CW_MIN} slots")
    );
    println!(
        "{:<28} {:>12}",
        "Maximal contention window",
        format!("{CW_MAX} slots")
    );
    println!("{:<28} {:>12}", "PLCP header", us(PLCP_OVERHEAD));
    println!("{:<28} {:>12}", "Propagation delay", us(PROPAGATION_DELAY));
    println!();
    println!("derived Carpool header costs:");
    println!("{:<28} {:>12}", "A-HDR (48-bit Bloom)", us(ahdr_airtime()));
    println!("{:<28} {:>12}", "per-subframe SIG", us(sig_airtime()));
    println!("{:<28} {:>12}", "ACK at base rate", us(ack_airtime()));

    assert_eq!(SLOT_TIME, 9e-6);
    assert_eq!(SIFS, 10e-6);
    assert_eq!(DIFS, 28e-6);
    assert_eq!(CW_MIN, 15);
    assert_eq!(CW_MAX, 1023);
    assert_eq!(PLCP_OVERHEAD, 28e-6);
    assert_eq!(PROPAGATION_DELAY, 1e-6);
}
