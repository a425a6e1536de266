//! Fig. 17 — Goodput under latency requirements and frame sizes.
//!
//! (a) deadline-bounded goodput vs the traffic's latency requirement
//!     (10–200 ms), Carpool vs A-MPDU, 30 STAs, background uplink as in
//!     Fig. 16 — paper: 1.9–9.8x gain, shrinking as the bound loosens;
//! (b) goodput vs fixed downlink frame size (100–1500 B) at a 10 ms
//!     bound — paper: 2.8–3.6x over A-MPDU, 5–6.4x over 802.11.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_mac, ResultsTable};
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::{AggregationWait, DownlinkTraffic, SimConfig, UplinkTraffic};

/// Paper setup (Section 7.2.2): 30 STAs, the Fig. 16 uplink background,
/// downlink CBR at the VoIP packet rate with a per-frame latency
/// requirement. Expired frames are dropped; the latency bound also ends
/// the aggregation process early ("the aggregation process is ended when
/// the size of the buffered frames reaches the maximum frame size or the
/// delay of the oldest frame reaches the maximum latency limit").
fn cbr_config(
    protocol: Protocol,
    bytes: usize,
    deadline_s: f64,
    uplink_scale: f64,
    seed: u64,
) -> SimConfig {
    SimConfig {
        protocol,
        num_stas: 30,
        duration_s: 6.0,
        seed,
        downlink: DownlinkTraffic::Cbr {
            interval_s: 0.010,
            bytes,
        },
        // Uplink contention at the Fig. 16 level: the background scale
        // stands in for the STAs' own uplink streams (VoIP plus
        // TCP/UDP), which the paper keeps while replacing the downlink.
        uplink: Some(UplinkTraffic {
            tcp_fraction: 0.5,
            rate_scale: uplink_scale,
        }),
        deadline: Some(deadline_s),
        drop_expired_s: Some(deadline_s),
        aggregation_wait: Some(AggregationWait {
            max_latency_s: deadline_s * 0.5,
            max_bytes: 65_535,
        }),
        bidirectional_voip: false,
        ..SimConfig::default()
    }
}

fn in_deadline_mbps(cfg: SimConfig) -> f64 {
    let r = run_mac(cfg);
    r.downlink.in_deadline_goodput_bps(r.duration_s) / 1e6
}

fn main() {
    banner(
        "Fig 17(a)",
        "deadline-bounded goodput vs latency requirement (120 B VoIP-size frames, 30 STAs)",
    );
    let mut table = ResultsTable::new(["deadline ms", "Carpool", "A-MPDU", "gain"]);
    for deadline_ms in [10.0, 50.0, 100.0, 150.0, 200.0] {
        let d = deadline_ms / 1e3;
        // Heavier uplink (the STAs' own VoIP + background streams) keeps
        // the cell saturated as in the paper's Fig. 16 operating point.
        let carpool = in_deadline_mbps(cbr_config(Protocol::Carpool, 120, d, 4.0, 5));
        let ampdu = in_deadline_mbps(cbr_config(Protocol::Ampdu, 120, d, 4.0, 5));
        table.row([
            format!("{deadline_ms}"),
            format!("{carpool:.2}"),
            format!("{ampdu:.2}"),
            format!("{:.1}x", carpool / ampdu.max(1e-9)),
        ]);
    }
    table.print();
    println!("paper: Carpool 1.9-9.8x A-MPDU; gain shrinks as the bound loosens");

    banner(
        "Fig 17(b)",
        "goodput vs downlink frame size at a 10 ms latency requirement",
    );
    let mut table = ResultsTable::new([
        "bytes",
        "Carpool",
        "A-MPDU",
        "802.11",
        "vs A-MPDU",
        "vs 802.11",
    ]);
    for bytes in [100usize, 200, 400, 800, 1500] {
        let d = 0.010;
        let carpool = in_deadline_mbps(cbr_config(Protocol::Carpool, bytes, d, 2.0, 9));
        let ampdu = in_deadline_mbps(cbr_config(Protocol::Ampdu, bytes, d, 2.0, 9));
        let dot11 = in_deadline_mbps(cbr_config(Protocol::Dot11, bytes, d, 2.0, 9));
        table.row([
            bytes.to_string(),
            format!("{carpool:.2}"),
            format!("{ampdu:.2}"),
            format!("{dot11:.2}"),
            format!("{:.1}x", carpool / ampdu.max(1e-9)),
            format!("{:.1}x", carpool / dot11.max(1e-9)),
        ]);
    }
    table.print();
    println!("paper: 2.8-3.6x over A-MPDU and 5-6.4x over 802.11 across frame sizes");
}
