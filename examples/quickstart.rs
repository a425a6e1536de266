//! Quickstart: one Carpool frame, three receivers, a noisy fading
//! channel — the core idea of the paper in ~40 lines.
//!
//! Run with `cargo run --release --example quickstart`.
#![allow(
    clippy::print_stdout,
    reason = "example binary: printing the walkthrough is its job"
)]

use carpool::link::CarpoolLink;
use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{CarpoolFrame, Subframe};
use carpool_phy::mcs::Mcs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three stations with pending downlink data; the AP carpools them
    // into a single PHY transmission, each at its own MCS.
    let stations = [
        MacAddress::station(1),
        MacAddress::station(2),
        MacAddress::station(3),
    ];
    let frame = CarpoolFrame::new(vec![
        Subframe::new(stations[0], Mcs::QPSK_1_2, b"weather for sta 1".to_vec()),
        Subframe::new(stations[1], Mcs::QAM16_3_4, vec![0x42; 600]),
        Subframe::new(stations[2], Mcs::QAM64_3_4, vec![0x17; 1200]),
    ])?;
    println!(
        "Carpool frame: {} subframes, {} payload bytes, A-HDR {}",
        frame.subframes().len(),
        frame.payload_bytes(),
        frame.header()
    );

    // An indoor link: 32 dB SNR, slow Rician fading, 100 Hz residual CFO.
    let mut link = CarpoolLink::builder()
        .snr_db(32.0)
        .coherence_time(5e-3)
        .cfo_hz(100.0)
        .seed(2026)
        .build();

    // Every station hears the same transmission; each decodes only its
    // own subframe (skipping the others after reading their SIG).
    for (k, sta) in stations.iter().enumerate() {
        let rx = link.deliver(&frame, *sta)?;
        let payload = rx.payload_at(k).ok_or("subframe not matched")?;
        let ok = payload == frame.subframes()[k].payload;
        println!(
            "station {sta}: matched {:?}, decoded {} B ({}), \
             decoded {} / skipped {} symbols",
            rx.matched_indices,
            payload.len(),
            if ok { "intact" } else { "CORRUPTED" },
            rx.symbols_decoded,
            rx.symbols_skipped,
        );
    }

    // A bystander checks the 2-symbol A-HDR and (almost always) drops
    // the frame without decoding any payload.
    let outsider = MacAddress::station(999);
    let rx = link.deliver(&frame, outsider)?;
    println!(
        "outsider {outsider}: matched {:?} — decoded only {} symbols",
        rx.matched_indices, rx.symbols_decoded
    );
    Ok(())
}
