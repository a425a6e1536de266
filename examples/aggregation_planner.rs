//! Planning a Carpool TXOP: frame selection from a mixed downlink
//! queue, A-HDR construction, airtime budget and the sequential-ACK
//! NAV schedule — the MAC-side anatomy of one transmission.
//!
//! Run with `cargo run --release --example aggregation_planner`.
#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "example binary: printing the walkthrough is its job; a failed setup aborts the run"
)]

use carpool_bloom::analysis::{false_positive_ratio, optimal_hash_count};
use carpool_bloom::AggregationHeader;
use carpool_frame::addr::MacAddress;
use carpool_frame::aggregation::{select, AggregationLimits, AggregationPolicy};
use carpool_frame::airtime::{ack_airtime, DataHeader, SIFS};
use carpool_frame::nav::{nav_ack, nav_data, nav_receiver, Protection, Txop};
use carpool_phy::mcs::Mcs;

fn main() {
    // A backlogged AP queue: interleaved frames for five stations, as
    // (destination, bytes).
    let queue: Vec<(MacAddress, usize)> = [
        (1u16, 300),
        (2, 1200),
        (1, 300),
        (3, 90),
        (4, 700),
        (2, 1200),
        (5, 150),
        (3, 90),
        (1, 300),
        (5, 150),
    ]
    .iter()
    .map(|&(sta, bytes)| (MacAddress::station(sta), bytes))
    .collect();
    // The selector reads `(queue position, dest, bytes)` lazily, head
    // first, and stops once the limits are full.
    let fifo = || {
        queue
            .iter()
            .enumerate()
            .map(|(k, &(dest, bytes))| (k, dest, bytes))
    };
    let (mut groups, mut positions) = (Vec::new(), Vec::new());

    println!("queue: {} frames for 5 stations", queue.len());
    for policy in [
        AggregationPolicy::None,
        AggregationPolicy::Ampdu,
        AggregationPolicy::MultiUser,
    ] {
        select(
            policy,
            &AggregationLimits::default(),
            fifo(),
            &mut groups,
            &mut positions,
        );
        println!(
            "  {policy:?}: {} frames across {} receivers",
            positions.len(),
            groups.len()
        );
    }
    println!();

    // Carpool takes the multi-user selection (the last one above);
    // build its A-HDR.
    let receivers: Vec<MacAddress> = groups.iter().map(|g| g.dest).collect();
    let header = AggregationHeader::for_receivers(&receivers, 4).expect("<=8 receivers");
    println!("A-HDR: {header} ({} bits set)", header.popcount());
    println!(
        "  optimal h for {} receivers: {:.2}; false positive ratio at h=4: {:.2}%",
        receivers.len(),
        optimal_hash_count(receivers.len()),
        false_positive_ratio(4, receivers.len()) * 100.0
    );
    for (i, r) in receivers.iter().enumerate() {
        assert!(header.query(r.as_bytes(), i), "no false negatives ever");
    }
    println!("  every receiver matches its own subframe (no false negatives)");
    println!();

    // Airtime and the sequential-ACK schedule: each receiver's subframe
    // is one section of OFDM symbols at its MCS.
    let payload_symbols: usize = groups
        .iter()
        .map(|g| {
            let group = &positions[g.start..g.start + g.len];
            let bytes: usize = group.iter().map(|&k| queue[k].1).sum();
            Mcs::QAM64_3_4.symbols_for_bits(bytes * 8)
        })
        .sum();
    let n = groups.len();
    let data_airtime = Txop::new(DataHeader::Ahdr, n, payload_symbols, Protection::Basic).data;
    println!("data PPDU airtime: {:.1} µs", data_airtime * 1e6);
    println!(
        "NAV_data (Eq. 1): {:.1} µs reserves the medium through all {} ACKs",
        nav_data(n, data_airtime) * 1e6,
        n
    );
    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "subframe", "NAV_i (Eq. 2)", "ACK starts at", "ACK's own NAV"
    );
    for i in 1..=n {
        println!(
            "{i:>10} {:>11.1} µs {:>11.1} µs {:>11.1} µs",
            nav_receiver(i) * 1e6,
            (SIFS + nav_receiver(i)) * 1e6,
            nav_ack(i, n) * 1e6
        );
    }
    println!(
        "(ACKs are spaced SIFS={} µs apart, each {:.1} µs long; the last NAV is 0 \
         like a legacy ACK)",
        SIFS * 1e6,
        ack_airtime() * 1e6
    );
}
