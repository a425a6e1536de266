//! Section 5.2 measurement study — CRC granularity vs side-channel
//! modulation.
//!
//! Paper: six schemes (1-bit and 2-bit offsets x 1–3 symbols per CRC
//! group) tested across locations/powers; "one symbol as a group and
//! two-bit phase offset side channel achieves best performance in most
//! cases". Figure of merit: the raw BER after RTE decoding — finer CRC
//! granularity means more data-pilot updates, a wider CRC means more
//! reliable gating; the two pull in opposite directions.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_phy, PhyRunConfig, ResultsTable, OFFICE_FADING};
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::Estimation;
use carpool_phy::sidechannel::PhaseOffsetMod;
use carpool_phy::tx::SideChannelConfig;

fn run_scheme(modulation: PhaseOffsetMod, group: usize) -> f64 {
    let config = PhyRunConfig {
        mcs: Mcs::QAM64_3_4,
        payload_bits: 4 * 1024 * 8,
        side_channel: Some(SideChannelConfig {
            modulation,
            group_symbols: group,
        }),
        estimation: Estimation::Rte(CalibrationRule::Average),
        snr_db: 26.0,
        fading: OFFICE_FADING,
        frames: 30,
        ..PhyRunConfig::default()
    };
    run_phy(&config).data_ber
}

fn main() {
    banner(
        "§5.2",
        "CRC granularity study: raw BER under RTE decoding (lower is better)",
    );
    let mut table = ResultsTable::new(["symbols/group", "1-bit offset", "2-bit offset"]);
    let mut best = (f64::INFINITY, PhaseOffsetMod::OneBit, 0usize);
    for group in 1..=3usize {
        let one = run_scheme(PhaseOffsetMod::OneBit, group);
        let two = run_scheme(PhaseOffsetMod::TwoBit, group);
        table.row([
            group.to_string(),
            format!("{one:.2e}"),
            format!("{two:.2e}"),
        ]);
        if one < best.0 {
            best = (one, PhaseOffsetMod::OneBit, group);
        }
        if two <= best.0 {
            best = (two, PhaseOffsetMod::TwoBit, group);
        }
    }
    table.print();
    println!(
        "best scheme: {} with {} symbol(s) per CRC group (raw BER {:.2e})",
        best.1, best.2, best.0
    );
    println!("paper: 2-bit offsets with one symbol per group won in most locations");
}
