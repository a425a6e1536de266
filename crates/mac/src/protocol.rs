//! The five MAC protocols compared in the paper's evaluation
//! (Section 7.2.1): IEEE 802.11, A-MPDU, MU-Aggregation, WiFox and
//! Carpool.

use crate::error_model::EstimationScheme;
use carpool_frame::aggregation::AggregationPolicy;
use carpool_frame::airtime::DataHeader;

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

    /// WiFox gives the AP adaptive priority over competing STAs when its
    /// downlink queue backs up (paper Section 7.2.1: "WiFox alleviates
    /// traffic asymmetry by giving higher priority to downlink
    /// transmission in channel contention"). The simulator grants a
    /// backlogged WiFox AP preemptive (PIFS-like) access to a fraction
    /// of contention rounds.
    pub(crate) fn has_downlink_priority(&self) -> bool {
        matches!(self, Protocol::Wifox)
    }

    /// Whether one TXOP serves several receivers behind one header, with
    /// sequential ACKs and a multicast RTS: Carpool and MU-Aggregation.
    pub(crate) fn multi_receiver(&self) -> bool {
        matches!(self, Protocol::Carpool | Protocol::MuAggregation)
    }

    /// PHY header of this protocol's aggregated downlink PPDU.
    pub(crate) fn data_header(&self) -> DataHeader {
        match self {
            Protocol::Dot11 | Protocol::Wifox | Protocol::Ampdu => DataHeader::Plain,
            Protocol::Carpool => DataHeader::Ahdr,
            Protocol::MuAggregation => DataHeader::Addresses,
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
    }

    #[test]
    fn multi_receiver_protocols_aggregate_behind_a_multi_receiver_header() {
        for p in Protocol::ALL {
            assert_eq!(
                p.multi_receiver(),
                p.aggregation_policy() == AggregationPolicy::MultiUser,
                "{p}"
            );
            assert_eq!(
                p.multi_receiver(),
                p.data_header() != DataHeader::Plain,
                "{p}"
            );
        }
    }
}
