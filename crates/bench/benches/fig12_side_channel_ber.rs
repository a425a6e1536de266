//! Fig. 12 — Reliability of the phase offset side channel.
//!
//! Paper: 1 KB frames per power setting; the BER of side-channel bits
//! beats BPSK (1-bit offsets) and QPSK (2-bit offsets) data subcarriers
//! because each offset is demodulated from four pilot subcarriers.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::{banner, run_phy, Fading, PhyRunConfig};
use carpool_channel::link::power_magnitude_to_snr_db;
use carpool_phy::mcs::Mcs;
use carpool_phy::rx::Estimation;
use carpool_phy::sidechannel::PhaseOffsetMod;
use carpool_phy::tx::SideChannelConfig;

const POWERS: [f64; 5] = [0.0125, 0.025, 0.05, 0.1, 0.2];

fn run(power: f64, mcs: Mcs, modulation: PhaseOffsetMod) -> (f64, f64) {
    let config = PhyRunConfig {
        mcs,
        payload_bits: 1024 * 8,
        side_channel: Some(SideChannelConfig {
            modulation,
            group_symbols: 1,
        }),
        estimation: Estimation::Standard,
        // Far-location receiver: 10 dB below the Fig. 11 operating
        // point, so low-order modulations show measurable error rates
        // (the paper's Fig. 12 y-axis tops out at ~1.6e-4).
        snr_db: power_magnitude_to_snr_db(power) - 10.0,
        fading: Fading::None,
        cfo_hz: 100.0,
        frames: 30,
        ..PhyRunConfig::default()
    };
    let r = run_phy(&config);
    (r.side_ber, r.data_ber)
}

fn main() {
    banner("Fig 12", "side-channel BER vs data-subcarrier BER");
    println!(
        "{:>9} {:>14} {:>12} {:>14} {:>12}",
        "power", "1-bit offset", "BPSK data", "2-bit offset", "QPSK data"
    );
    for p in POWERS {
        let (one_bit, bpsk) = run(p, Mcs::BPSK_1_2, PhaseOffsetMod::OneBit);
        let (two_bit, qpsk) = run(p, Mcs::QPSK_1_2, PhaseOffsetMod::TwoBit);
        println!("{p:>9} {one_bit:>14.2e} {bpsk:>12.2e} {two_bit:>14.2e} {qpsk:>12.2e}");
    }
    println!("paper: offsets decode more reliably than same-order data bits");
}
