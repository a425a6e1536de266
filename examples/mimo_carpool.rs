//! Carpool over MU-MIMO (paper Section 8, Fig. 18): pack more
//! receivers than the AP has antennas into one transmission.
//!
//! Run with `cargo run --release --example mimo_carpool`.
#![allow(
    clippy::print_stdout,
    reason = "example binary: printing the walkthrough is its job"
)]

use carpool_frame::addr::MacAddress;
use carpool_frame::mimo::{MimoCarpoolFrame, MimoSubframe};
use carpool_phy::math::Complex64;
use carpool_phy::mcs::Mcs;
use carpool_phy::mimo::{decode_stream, observe, Matrix2, ZfPrecoder};
use carpool_phy::modulation::Modulation;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's example: a two-antenna AP with data for four stations.
    let subframes = vec![
        MimoSubframe::new(MacAddress::station(0), 800, Mcs::QAM16_1_2), // A
        MimoSubframe::new(MacAddress::station(1), 600, Mcs::QAM16_1_2), // B
        MimoSubframe::new(MacAddress::station(2), 700, Mcs::QAM64_2_3), // C
        MimoSubframe::new(MacAddress::station(3), 900, Mcs::QPSK_1_2),  // D
    ];
    let frame = MimoCarpoolFrame::pack(2, subframes)?;

    println!(
        "two-antenna AP, {} receivers -> {} precoding groups in ONE transmission:",
        frame.receiver_count(),
        frame.groups().len()
    );
    for (g, group) in frame.groups().iter().enumerate() {
        let members: Vec<String> = group.iter().map(|s| s.receiver.to_string()).collect();
        println!(
            "  group {g}: [{}]  ({:.1} µs incl. its VHT preamble)",
            members.join(", "),
            frame.group_airtime(g) * 1e6
        );
    }

    // Every station finds its group through the shared A-HDR.
    let hdr = frame.header();
    println!("shared A-HDR: {hdr}");
    for (g, group) in frame.groups().iter().enumerate() {
        for s in group {
            assert!(hdr.query(s.receiver.as_bytes(), g));
        }
    }
    println!("every receiver matches its group index in the Bloom filter");

    println!();
    println!(
        "airtime: Carpool MU-MIMO {:.1} µs vs plain 802.11ac MU-MIMO {:.1} µs ({} channel access(es) saved)",
        frame.exchange_airtime() * 1e6,
        frame.plain_mu_mimo_airtime() * 1e6,
        frame.accesses_saved()
    );

    // And the signal level: zero-forcing precoding for group 0's two
    // receivers over a random-ish 2x2 downlink channel.
    println!();
    let channel = Matrix2::from_rows(
        [Complex64::new(0.9, 0.2), Complex64::new(-0.4, 0.6)],
        [Complex64::new(0.1, -0.7), Complex64::new(0.8, 0.3)],
    );
    let precoder = ZfPrecoder::new(&channel)?;
    let m = Modulation::Qpsk;
    let bits_a: Vec<u8> = (0..96).map(|k| (k % 3 == 0) as u8).collect();
    let bits_b: Vec<u8> = (0..96).map(|k| (k % 5 < 2) as u8).collect();
    let group0 = precoder.precode(&m.map_all(&bits_a), &m.map_all(&bits_b), 4)?;
    for (r, (name, expect)) in [("A", &bits_a), ("B", &bits_b)].iter().enumerate() {
        let row = if r == 0 {
            [channel.a, channel.b]
        } else {
            [channel.c, channel.d]
        };
        let (bits, isr) = decode_stream(&observe(&group0, row), r, 4, m);
        println!(
            "  receiver {name}: stream decoded {} (residual interference {:.1e})",
            if &bits == *expect {
                "intact"
            } else {
                "CORRUPT"
            },
            isr
        );
    }
    println!("zero-forcing gives each receiver an interference-free scalar channel");
    Ok(())
}
