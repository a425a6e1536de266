//! The five MAC protocols compared in the paper's evaluation
//! (Section 7.2.1): IEEE 802.11, A-MPDU, MU-Aggregation, WiFox and
//! Carpool.

use crate::error_model::EstimationScheme;
use carpool_frame::aggregation::AggregationPolicy;
use carpool_frame::airtime::{ahdr_airtime, sig_airtime, CONTROL_MCS, CW_MIN};

/// A downlink MAC protocol variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Plain IEEE 802.11 DCF: one frame per transmission.
    Dot11,
    /// IEEE 802.11n MPDU aggregation for a single receiver.
    Ampdu,
    /// Multi-receiver aggregation *without* RTE (per-receiver MAC
    /// addresses in the PHY header, standard channel estimation).
    MuAggregation,
    /// WiFox: plain 802.11 frames, but the AP's channel access is
    /// prioritised to counter downlink/uplink asymmetry.
    Wifox,
    /// Carpool: multi-receiver aggregation with the Bloom-filter A-HDR
    /// and real-time channel estimation.
    Carpool,
}

impl Protocol {
    /// All protocols, in the paper's comparison order.
    pub const ALL: [Protocol; 5] = [
        Protocol::Carpool,
        Protocol::MuAggregation,
        Protocol::Ampdu,
        Protocol::Dot11,
        Protocol::Wifox,
    ];

    /// Frame-selection policy at the AP.
    pub(crate) fn aggregation_policy(&self) -> AggregationPolicy {
        match self {
            Protocol::Dot11 | Protocol::Wifox => AggregationPolicy::None,
            Protocol::Ampdu => AggregationPolicy::Ampdu,
            Protocol::MuAggregation | Protocol::Carpool => AggregationPolicy::MultiUser,
        }
    }

    /// Channel-estimation scheme of this protocol's receivers.
    pub fn estimation(&self) -> EstimationScheme {
        match self {
            Protocol::Carpool => EstimationScheme::Rte,
            _ => EstimationScheme::Standard,
        }
    }

    /// Minimum contention window of the AP (all protocols use the
    /// standard CW; WiFox's priority is modelled via
    /// [`Protocol::has_downlink_priority`] instead, because in a
    /// saturated cell a smaller CW only multiplies ties/collisions).
    pub(crate) fn ap_cw_min(&self) -> u32 {
        let _ = self;
        CW_MIN
    }

    /// WiFox gives the AP adaptive priority over competing STAs when its
    /// downlink queue backs up (paper Section 7.2.1: "WiFox alleviates
    /// traffic asymmetry by giving higher priority to downlink
    /// transmission in channel contention"). The simulator grants a
    /// backlogged WiFox AP preemptive (PIFS-like) access to a fraction
    /// of contention rounds.
    pub(crate) fn has_downlink_priority(&self) -> bool {
        matches!(self, Protocol::Wifox)
    }

    /// Extra PHY-header airtime of a multi-receiver aggregate with
    /// `receivers` destinations, beyond the legacy PLCP:
    ///
    /// * Carpool: the 48-bit A-HDR plus one SIG per subframe;
    /// * MU-Aggregation: one 48-bit MAC address per receiver at the base
    ///   rate (the naive design the paper's Section 3 example costs out)
    ///   plus one SIG per subframe;
    /// * single-receiver protocols: nothing.
    pub(crate) fn aggregation_header_airtime(&self, receivers: usize) -> f64 {
        match self {
            Protocol::Dot11 | Protocol::Wifox | Protocol::Ampdu => 0.0,
            Protocol::Carpool => ahdr_airtime() + receivers as f64 * sig_airtime(),
            Protocol::MuAggregation => {
                CONTROL_MCS.airtime_for_bits(receivers * 48) + receivers as f64 * sig_airtime()
            }
        }
    }

    /// Number of ACKs concluding a successful exchange with `receivers`
    /// addressed receivers (sequential ACK for multi-receiver frames,
    /// paper Section 4.2; one block ACK otherwise).
    pub(crate) fn acks_per_exchange(&self, receivers: usize) -> usize {
        match self {
            Protocol::MuAggregation | Protocol::Carpool => receivers.max(1),
            _ => 1,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Dot11 => "802.11",
            Protocol::Ampdu => "A-MPDU",
            Protocol::MuAggregation => "MU-Aggregation",
            Protocol::Wifox => "WiFox",
            Protocol::Carpool => "Carpool",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_match_paper_descriptions() {
        assert_eq!(
            Protocol::Dot11.aggregation_policy(),
            AggregationPolicy::None
        );
        assert_eq!(
            Protocol::Wifox.aggregation_policy(),
            AggregationPolicy::None
        );
        assert_eq!(
            Protocol::Ampdu.aggregation_policy(),
            AggregationPolicy::Ampdu
        );
        assert_eq!(
            Protocol::Carpool.aggregation_policy(),
            AggregationPolicy::MultiUser
        );
        assert_eq!(
            Protocol::MuAggregation.aggregation_policy(),
            AggregationPolicy::MultiUser
        );
    }

    #[test]
    fn only_carpool_uses_rte() {
        for p in Protocol::ALL {
            let expect_rte = p == Protocol::Carpool;
            assert_eq!(p.estimation() == EstimationScheme::Rte, expect_rte, "{p}");
        }
    }

    #[test]
    fn wifox_has_priority_access() {
        assert!(Protocol::Wifox.has_downlink_priority());
        assert!(!Protocol::Dot11.has_downlink_priority());
        assert_eq!(Protocol::Wifox.ap_cw_min(), CW_MIN);
    }

    #[test]
    fn carpool_header_is_cheaper_than_mu_aggregation() {
        for n in 2..=8 {
            let carpool = Protocol::Carpool.aggregation_header_airtime(n);
            let mu = Protocol::MuAggregation.aggregation_header_airtime(n);
            assert!(carpool < mu, "n={n}: {carpool} vs {mu}");
        }
    }

    #[test]
    fn sequential_ack_counts() {
        assert_eq!(Protocol::Carpool.acks_per_exchange(5), 5);
        assert_eq!(Protocol::MuAggregation.acks_per_exchange(3), 3);
        assert_eq!(Protocol::Ampdu.acks_per_exchange(1), 1);
        assert_eq!(Protocol::Dot11.acks_per_exchange(1), 1);
    }

    #[test]
    fn single_receiver_protocols_have_no_header_overhead() {
        for p in [Protocol::Dot11, Protocol::Wifox, Protocol::Ampdu] {
            assert_eq!(p.aggregation_header_airtime(1), 0.0, "{p}");
        }
    }
}
