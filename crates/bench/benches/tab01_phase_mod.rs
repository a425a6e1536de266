//! Table 1 — Phase offset modulation.
//!
//! Prints the modulation alphabets and verifies encode/decode round
//! trips including the paper's Fig. 8(b) "110" example.
#![allow(
    clippy::print_stdout,
    reason = "bench target: the printed table is its output"
)]

use carpool_bench::banner;
use carpool_phy::sidechannel::{PhaseOffsetDecoder, PhaseOffsetEncoder, PhaseOffsetMod};

fn main() {
    banner("Table 1", "phase offset modulation alphabets");
    for m in [PhaseOffsetMod::OneBit, PhaseOffsetMod::TwoBit] {
        println!("--- {m} ---");
        println!("{:>12} {:>8}", "offset", "data");
        for (angle, value) in m.alphabet() {
            println!(
                "{:>11.0}° {:>8}",
                angle.to_degrees(),
                format!("{value:0width$b}", width = m.bits_per_symbol())
            );
        }
        // Round-trip check across a long random-ish sequence with drift.
        let mut enc = PhaseOffsetEncoder::new(m);
        let mut dec = PhaseOffsetDecoder::new(m);
        dec.set_reference(0.0);
        let mut ok = 0;
        let total = 1000;
        for k in 0..total {
            let v = (k * 7 % (1 << m.bits_per_symbol())) as u8;
            let injected = enc.next_offset(v);
            let drift = 0.001 * k as f64;
            let measured = carpool_phy::math::wrap_angle(injected + drift);
            if dec.decode(measured) == Some(v) {
                ok += 1;
            }
        }
        println!("round trip under CFO drift: {ok}/{total} correct");
        assert_eq!(ok, total);
    }
    println!("paper Table 1: 90°/-90° = 1/0; 45°/135°/-135°/-45° = 11/01/00/10");
}
