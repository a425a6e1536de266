//! PHY/MAC timing parameters (paper Table 2) and airtime arithmetic.
//!
//! All durations are in seconds. Control frames and headers are priced
//! with the PHY implementation's true symbol counts (including the
//! convolutional tail); [`crate::nav::Txop`] assembles them with a data
//! payload's symbol count into the airtime of a whole exchange.

use crate::mac_frame::ACK_BYTES;
use crate::sig::SIG_BITS;
use carpool_bloom::BLOOM_BITS;
use carpool_phy::mcs::Mcs;

/// Slot time (Table 2): 9 µs.
pub const SLOT_TIME: f64 = 9e-6;
/// Short interframe space (Table 2): 10 µs.
pub const SIFS: f64 = 10e-6;
/// DCF interframe space (Table 2): 28 µs.
pub const DIFS: f64 = 28e-6;
/// Minimum contention window (Table 2): 15 slots.
pub const CW_MIN: u32 = 15;
/// Maximum contention window (Table 2): 1023 slots.
pub const CW_MAX: u32 = 1023;
/// PLCP preamble + header overhead (Table 2): 28 µs.
pub const PLCP_OVERHEAD: f64 = 28e-6;
/// One-way propagation delay (Table 2): 1 µs.
pub const PROPAGATION_DELAY: f64 = 1e-6;

/// Control frames (ACK/RTS/CTS) go at the mandatory base rate.
pub const CONTROL_MCS: Mcs = Mcs::BPSK_1_2;

/// Airtime of the A-HDR: two BPSK-1/2 OFDM symbols (paper Section 4.1).
pub fn ahdr_airtime() -> f64 {
    // 48 bits at 24 data bits/symbol = 2 symbols; the PHY implementation
    // spends an extra symbol on the convolutional tail.
    CONTROL_MCS.airtime_for_bits(BLOOM_BITS)
}

/// Airtime of one SIG field.
pub fn sig_airtime() -> f64 {
    CONTROL_MCS.airtime_for_bits(SIG_BITS)
}

/// Airtime of an ACK frame at the base rate.
pub fn ack_airtime() -> f64 {
    PLCP_OVERHEAD + CONTROL_MCS.airtime_for_bits(ACK_BYTES * 8)
}

/// Airtime of an RTS frame (20 bytes) at the base rate; Carpool's
/// multicast RTS additionally carries the A-HDR (paper Fig. 7).
pub fn rts_airtime(with_ahdr: bool) -> f64 {
    let base = PLCP_OVERHEAD + CONTROL_MCS.airtime_for_bits(20 * 8);
    if with_ahdr {
        base + ahdr_airtime()
    } else {
        base
    }
}

/// Airtime of a CTS frame (14 bytes) at the base rate.
pub(crate) fn cts_airtime() -> f64 {
    PLCP_OVERHEAD + CONTROL_MCS.airtime_for_bits(14 * 8)
}

/// Medium time a garbled PPDU of `airtime` seconds costs every station:
/// the PPDU, then the extended interframe space (SIFS + ACK + DIFS)
/// that stands in for the ACK or CTS that never comes.
pub fn garbled_airtime(airtime: f64) -> f64 {
    airtime + (SIFS + ack_airtime() + DIFS)
}

/// The PHY header a data PPDU carries after the legacy PLCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataHeader {
    /// A single-receiver PPDU: nothing beyond the PLCP.
    Plain,
    /// Carpool: the 48-bit A-HDR plus one SIG per subframe (Section 4.1).
    Ahdr,
    /// MU-Aggregation: one 48-bit MAC address per receiver at the base
    /// rate plus one SIG per subframe (the Section 3 example).
    Addresses,
}

impl DataHeader {
    /// Airtime of this header for `receivers` receivers.
    pub(crate) fn airtime(self, receivers: usize) -> f64 {
        match self {
            DataHeader::Plain => 0.0,
            DataHeader::Ahdr => ahdr_airtime() + receivers as f64 * sig_airtime(),
            DataHeader::Addresses => {
                CONTROL_MCS.airtime_for_bits(receivers * 48) + receivers as f64 * sig_airtime()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_constants() {
        assert_eq!(SLOT_TIME, 9e-6);
        assert_eq!(SIFS, 10e-6);
        assert_eq!(DIFS, 28e-6);
        assert_eq!(CW_MIN, 15);
        assert_eq!(CW_MAX, 1023);
        assert_eq!(PLCP_OVERHEAD, 28e-6);
        assert_eq!(PROPAGATION_DELAY, 1e-6);
    }

    #[test]
    fn ahdr_is_a_few_symbols() {
        use carpool_phy::mcs::SYMBOL_DURATION;
        // Two information symbols (+1 tail symbol in this PHY).
        let t = ahdr_airtime();
        assert!(
            (2.0 * SYMBOL_DURATION..=3.0 * SYMBOL_DURATION).contains(&t),
            "{t}"
        );
    }

    #[test]
    fn carpool_header_overhead_beats_explicit_addresses() {
        // The motivating example (paper Section 3): 8 receivers' MAC
        // addresses at base rate cost ~59 µs; the A-HDR costs ~8-12 µs.
        let explicit = CONTROL_MCS.airtime_for_bits(48 * 8);
        assert!(ahdr_airtime() < explicit / 3.0);
    }

    #[test]
    fn carpool_header_is_cheaper_than_mu_aggregation() {
        for n in 2..=8 {
            let carpool = DataHeader::Ahdr.airtime(n);
            let mu = DataHeader::Addresses.airtime(n);
            assert!(carpool < mu, "n={n}: {carpool} vs {mu}");
        }
        assert_eq!(DataHeader::Plain.airtime(1), 0.0);
    }

    #[test]
    fn ack_airtime_is_tens_of_microseconds() {
        let t = ack_airtime();
        assert!((30e-6..80e-6).contains(&t), "{t}");
    }

    #[test]
    fn rts_with_ahdr_is_longer() {
        assert!(rts_airtime(true) > rts_airtime(false));
        assert!(cts_airtime() < rts_airtime(false));
    }

    #[test]
    fn garbled_ppdu_costs_eifs() {
        let eifs = garbled_airtime(0.0);
        assert_eq!(eifs, SIFS + ack_airtime() + DIFS);
        assert_eq!(garbled_airtime(100e-6), 100e-6 + eifs);
    }
}
