//! NAV arithmetic for Carpool's sequential ACK (paper Section 4.2) and
//! multicast RTS/CTS (Fig. 7), and the airtime of a whole TXOP.
//!
//! Multiple receivers of a Carpool frame would all ACK after one SIFS and
//! collide; instead they ACK one by one, coordinated purely through the
//! Network Allocation Vector:
//!
//! * the data frame reserves the medium for the whole sequence
//!   (Eq. 1): `NAV_data = t_payload + N (t_ACK + t_SIFS)`;
//! * the receiver of subframe `i` defers its ACK by
//!   (Eq. 2): `NAV_i = (i - 1)(t_ACK + t_SIFS)`;
//! * the `j`-th ACK advertises the time left to the end of the sequence,
//!   `NAV_{N-j+1}`, so the last ACK carries `NAV_1 = 0` like a legacy ACK.
//!
//! Subframe indices here are 1-based, following the paper's notation.
//!
//! [`Txop`] combines them with [`crate::airtime`] into the airtime of a
//! whole exchange: the one timing model the MAC simulator runs on.

use crate::airtime::{
    ack_airtime, ahdr_airtime, cts_airtime, rts_airtime, DataHeader, PLCP_OVERHEAD, SIFS,
};
use carpool_phy::mcs::SYMBOL_DURATION;

/// `N (t_ACK + t_SIFS)`: `receivers` sequential ACKs, each after a SIFS.
fn ack_sequence(receivers: usize) -> f64 {
    receivers as f64 * (ack_airtime() + SIFS)
}

/// `n` sequential CTSs, each after a SIFS (Fig. 7).
fn cts_sequence(n: usize) -> f64 {
    n as f64 * (SIFS + cts_airtime())
}

/// NAV carried by an aggregated data frame for `receivers` receivers
/// whose payload lasts `payload_airtime` seconds (paper Eq. 1).
///
/// # Panics
///
/// Panics if `receivers == 0`.
pub fn nav_data(receivers: usize, payload_airtime: f64) -> f64 {
    assert!(receivers > 0, "need at least one receiver");
    payload_airtime + ack_sequence(receivers)
}

/// Deferral of the receiver of the `i`-th subframe, 1-based (paper Eq. 2).
///
/// # Panics
///
/// Panics if `i == 0`.
pub fn nav_receiver(i: usize) -> f64 {
    assert!(i >= 1, "subframe indices are 1-based");
    ack_sequence(i - 1)
}

/// NAV advertised by the `j`-th ACK of `n` total (1-based): the residual
/// reservation `NAV_{n-j+1}`, hence zero for the last ACK.
///
/// # Panics
///
/// Panics if `j == 0` or `j > n`.
pub fn nav_ack(j: usize, n: usize) -> f64 {
    assert!(j >= 1 && j <= n, "ACK index {j} outside 1..={n}");
    nav_receiver(n - j + 1)
}

/// NAV carried by a Carpool multicast RTS covering `receivers` CTSs, the
/// data frame of `payload_airtime`, and the sequential ACKs (Fig. 7).
///
/// # Panics
///
/// Panics if `receivers == 0`.
pub fn nav_rts(receivers: usize, payload_airtime: f64) -> f64 {
    cts_sequence(receivers) + SIFS + nav_data(receivers, payload_airtime)
}

/// NAV advertised by the `j`-th CTS of `n` (1-based): everything that
/// remains of the sequence after this CTS ends.
///
/// # Panics
///
/// Panics if `j == 0` or `j > n`.
pub fn nav_cts(j: usize, n: usize, payload_airtime: f64) -> f64 {
    assert!(j >= 1 && j <= n, "CTS index {j} outside 1..={n}");
    cts_sequence(n - j) + SIFS + nav_data(n, payload_airtime)
}

/// How a TXOP claims the medium ahead of its data PPDU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Basic access.
    Basic,
    /// An RTS, then one CTS per receiver in turn (Fig. 7).
    RtsCts {
        /// Whether the RTS carries the A-HDR.
        multicast: bool,
    },
}

/// The airtime of one TXOP, part by part: the MAC simulator advances
/// its clock by [`Txop::airtime`] and charges the parts to stations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Txop {
    /// OFDM symbols of the PHY header ahead of the first MPDU.
    pub header_symbols: usize,
    /// The data PPDU: PLCP, header and payload.
    pub data: f64,
    /// The sequential ACKs after it.
    pub acks: f64,
    /// The whole TXOP: any RTS and CTSs, the data PPDU and the ACKs.
    pub airtime: f64,
    /// A station the A-HDR turns away stays awake for the PLCP and the
    /// A-HDR (Section 4.1)...
    pub bystander_awake: f64,
    /// ...and sleeps through the rest of the TXOP.
    pub bystander_asleep: f64,
}

impl Txop {
    /// Times a TXOP whose data PPDU carries `header` and
    /// `payload_symbols` OFDM symbols to `receivers` receivers, each
    /// acknowledging in turn. The ACKs are Eq. 1's [`nav_data`]; the
    /// payload symbols are the caller's count (the MAC simulator rounds
    /// each MPDU separately).
    ///
    /// # Panics
    ///
    /// Panics if `receivers == 0`.
    pub fn new(
        header: DataHeader,
        receivers: usize,
        payload_symbols: usize,
        protection: Protection,
    ) -> Txop {
        let header_airtime = header.airtime(receivers);
        let data = PLCP_OVERHEAD + header_airtime + payload_symbols as f64 * SYMBOL_DURATION;
        let exchange = nav_data(receivers, data);
        let airtime = match protection {
            Protection::Basic => exchange,
            Protection::RtsCts { multicast } => {
                exchange + (rts_airtime(multicast) + cts_sequence(receivers) + SIFS)
            }
        };
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "header symbol counts are tiny and rounded"
        )]
        let header_symbols = (header_airtime / SYMBOL_DURATION).round() as usize;
        let ahdr = ahdr_airtime();
        Txop {
            header_symbols,
            data,
            acks: ack_sequence(receivers),
            airtime,
            bystander_awake: PLCP_OVERHEAD + ahdr,
            bystander_asleep: (airtime - PLCP_OVERHEAD - ahdr).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_matches_definition() {
        let t_payload = 500e-6;
        for n in 1..=8 {
            let expect = t_payload + n as f64 * (ack_airtime() + SIFS);
            assert!((nav_data(n, t_payload) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn eq2_first_receiver_does_not_defer() {
        assert_eq!(nav_receiver(1), 0.0);
        assert!((nav_receiver(2) - (ack_airtime() + SIFS)).abs() < 1e-12);
    }

    #[test]
    fn last_ack_nav_is_zero_like_legacy() {
        for n in 1..=8 {
            assert_eq!(nav_ack(n, n), 0.0, "n={n}");
        }
    }

    #[test]
    fn first_ack_reserves_rest_of_sequence() {
        let n = 5;
        assert!((nav_ack(1, n) - nav_receiver(n)).abs() < 1e-12);
    }

    /// Start of the `i`-th ACK after the data frame ends: its SIFS after
    /// the deferral of Eq. 2.
    fn ack_start(i: usize) -> f64 {
        SIFS + nav_receiver(i)
    }

    #[test]
    fn ack_sequence_back_to_back() {
        // ACK i ends exactly one SIFS before ACK i+1 starts.
        for i in 1..8 {
            let end_i = ack_start(i) + ack_airtime();
            let start_next = ack_start(i + 1);
            assert!((start_next - end_i - SIFS).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn whole_sequence_fits_nav_data() {
        let t_payload = 300e-6;
        for n in 1..=8usize {
            let last_ack_end = ack_start(n) + ack_airtime();
            let reserved = nav_data(n, t_payload) - t_payload;
            assert!(
                (last_ack_end - reserved).abs() < 1e-12,
                "n={n}: {last_ack_end} vs {reserved}"
            );
        }
    }

    #[test]
    fn rts_nav_covers_everything() {
        let n = 3;
        let t_payload = 200e-6;
        // RTS NAV >= all CTSs + data + all ACKs.
        let floor = n as f64 * (SIFS + cts_airtime())
            + SIFS
            + t_payload
            + n as f64 * (SIFS + ack_airtime());
        assert!(nav_rts(n, t_payload) >= floor - 1e-12);
    }

    #[test]
    fn cts_nav_decreases_with_index() {
        let n = 4;
        let t = 100e-6;
        let mut prev = f64::INFINITY;
        for j in 1..=n {
            let nav = nav_cts(j, n, t);
            assert!(nav < prev);
            prev = nav;
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_index_panics() {
        nav_receiver(0);
    }

    #[test]
    fn txop_parts_add_up() {
        use crate::airtime::{ahdr_airtime, sig_airtime};
        let n = 3;
        let basic = Txop::new(DataHeader::Ahdr, n, 100, Protection::Basic);
        let header = ahdr_airtime() + n as f64 * sig_airtime();
        assert!((basic.data - (PLCP_OVERHEAD + header + 100.0 * SYMBOL_DURATION)).abs() < 1e-15);
        assert_eq!(basic.airtime, nav_data(n, basic.data));
        assert_eq!(basic.airtime, basic.data + basic.acks);
        assert_eq!(
            basic.header_symbols as f64 * SYMBOL_DURATION,
            header,
            "the header is whole symbols"
        );
        let rts = Txop::new(
            DataHeader::Ahdr,
            n,
            100,
            Protection::RtsCts { multicast: true },
        );
        assert_eq!(rts.data, basic.data);
        let fig7 = rts_airtime(true) + nav_rts(n, rts.data);
        assert!(
            (rts.airtime - fig7).abs() < 1e-15,
            "{} vs {fig7}",
            rts.airtime
        );
        let bystander = basic.bystander_awake + basic.bystander_asleep;
        assert!((bystander - basic.airtime).abs() < 1e-15, "{bystander}");
    }

    #[test]
    fn aggregation_amortises_plcp() {
        use crate::airtime::DIFS;
        use carpool_phy::mcs::Mcs;
        // One Carpool frame with 4 x 500 B at QAM64 is far shorter than
        // four separate exchanges.
        let symbols = Mcs::QAM64_3_4.symbols_for_bits(500 * 8);
        let carpool = Txop::new(DataHeader::Ahdr, 4, 4 * symbols, Protection::Basic).airtime;
        let single = Txop::new(DataHeader::Plain, 1, symbols, Protection::Basic).airtime;
        let separate = 4.0 * (single + DIFS);
        // (The full gain also includes avoided backoff, which the MAC
        // simulator accounts for; pure airtime already saves ~20%.)
        assert!(carpool < separate * 0.85, "carpool {carpool} vs {separate}");
    }

    #[test]
    fn paper_example_1500b_at_54mbps() {
        use carpool_phy::mcs::Mcs;
        // ~222 µs payload + PLCP (Section 3 of the paper).
        let symbols = Mcs::QAM64_3_4.symbols_for_bits(1500 * 8);
        let t = Txop::new(DataHeader::Plain, 1, symbols, Protection::Basic).data;
        assert!((220e-6..260e-6).contains(&t), "{t}");
    }
}
