//! Section 8 / Fig. 18 — Carpool over MU-MIMO.
//!
//! Paper: a two-antenna 802.11ac AP serving four stations needs at least
//! two MU-MIMO transmissions (two precoding groups); Carpool aggregates
//! both groups into a single transmission that shares one legacy
//! preamble and one A-HDR, with per-group VHT preambles mid-frame.
#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "bench target: the printed table is its output; a failed setup aborts the run"
)]

use carpool_bench::{banner, ResultsTable};
use carpool_frame::addr::MacAddress;
use carpool_frame::mimo::{MimoCarpoolFrame, MimoSubframe};
use carpool_phy::mcs::Mcs;

fn sta(k: u16) -> MacAddress {
    MacAddress::station(k)
}

fn main() {
    banner(
        "Fig 18",
        "Carpool MU-MIMO vs plain 802.11ac MU-MIMO (airtime)",
    );
    let mut table = ResultsTable::new([
        "streams",
        "receivers",
        "groups",
        "Carpool µs",
        "plain µs",
        "saving",
    ]);
    for (streams, receivers) in [(2usize, 4u16), (2, 8), (4, 8), (1, 6)] {
        let subframes: Vec<MimoSubframe> = (0..receivers)
            .map(|k| MimoSubframe::new(sta(k), 800, Mcs::QAM16_1_2))
            .collect();
        let frame = MimoCarpoolFrame::pack(streams, subframes).expect("fits in 8 receivers");
        let carpool = frame.exchange_airtime();
        let plain = frame.plain_mu_mimo_airtime()
            + frame.groups().len() as f64 * carpool_frame::airtime::DIFS;
        table.row([
            streams.to_string(),
            receivers.to_string(),
            frame.groups().len().to_string(),
            format!("{:.1}", carpool * 1e6),
            format!("{:.1}", plain * 1e6),
            format!("{:.0}%", (1.0 - carpool / plain) * 100.0),
        ]);
        assert!(carpool < plain);
    }
    table.print();
    println!("(plain MU-MIMO pays preamble + ACKs + DIFS per group; contention extra)");
    println!("paper Fig 18: four streams for four STAs ride one transmission instead of two");
}
