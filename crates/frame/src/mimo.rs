//! Carpool over MU-MIMO (paper Section 8, Fig. 18).
//!
//! IEEE 802.11ac MU-MIMO serves at most as many receivers per
//! transmission as the AP has antennas — not enough for the scores of
//! stations in a public WLAN. Carpool extends it: several *precoding
//! groups* (each up to the antenna count) ride in one transmission,
//! sharing a single legacy preamble and A-HDR. Group `g`'s streams are
//! precoded with the channel of its own receivers and carry their VHT
//! preamble mid-frame (Fig. 18(b)); the A-HDR indexes receivers by
//! *group*, so every station knows when its group starts.
//!
//! This module models the scheme at the frame/airtime level: stream
//! layout, the shared A-HDR, and the airtime comparison against plain
//! MU-MIMO (which pays preamble + contention per group).

use crate::addr::MacAddress;
use crate::airtime::{ack_airtime, ahdr_airtime, sig_airtime, PLCP_OVERHEAD, SIFS};
use crate::FrameError;
use carpool_bloom::{AggregationHeader, DEFAULT_HASHES, MAX_RECEIVERS};
use carpool_phy::mcs::Mcs;

/// Airtime of one VHT (per-group) preamble: VHT-SIG plus one VHT-LTF per
/// spatial stream, approximated at one OFDM symbol each.
pub(crate) fn vht_preamble_airtime(streams: usize) -> f64 {
    use carpool_phy::mcs::SYMBOL_DURATION;
    (1 + streams) as f64 * SYMBOL_DURATION
}

/// One spatial payload inside a precoding group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MimoSubframe {
    /// Destination station.
    pub receiver: MacAddress,
    /// Payload bytes on this stream.
    pub bytes: usize,
    /// Per-stream MCS.
    pub mcs: Mcs,
}

impl MimoSubframe {
    /// Creates a stream payload descriptor.
    pub fn new(receiver: MacAddress, bytes: usize, mcs: Mcs) -> MimoSubframe {
        MimoSubframe {
            receiver,
            bytes,
            mcs,
        }
    }

    fn airtime(&self) -> f64 {
        sig_airtime() + self.mcs.airtime_for_bits(self.bytes * 8)
    }
}

/// A Carpool MU-MIMO aggregate: precoding groups transmitted back to
/// back inside one channel access.
#[derive(Debug, Clone, PartialEq)]
pub struct MimoCarpoolFrame {
    streams: usize,
    groups: Vec<Vec<MimoSubframe>>,
}

impl MimoCarpoolFrame {
    /// Builds a frame for an AP with `streams` antennas.
    ///
    /// # Errors
    ///
    /// * [`FrameError::Empty`] if there are no groups or an empty group.
    /// * [`FrameError::TooManyReceivers`] if a group exceeds `streams`
    ///   receivers or the total exceeds [`MAX_RECEIVERS`].
    /// * [`FrameError::Malformed`] if `streams` is zero or a receiver
    ///   repeats within a group (one stream per receiver).
    pub fn new(
        streams: usize,
        groups: Vec<Vec<MimoSubframe>>,
    ) -> Result<MimoCarpoolFrame, FrameError> {
        if streams == 0 {
            return Err(FrameError::Malformed {
                reason: "need at least one spatial stream".to_string(),
            });
        }
        if groups.is_empty() || groups.iter().any(|g| g.is_empty()) {
            return Err(FrameError::Empty);
        }
        let total: usize = groups.iter().map(|g| g.len()).sum();
        if total > MAX_RECEIVERS {
            return Err(FrameError::TooManyReceivers { count: total });
        }
        for g in &groups {
            if g.len() > streams {
                return Err(FrameError::TooManyReceivers { count: g.len() });
            }
            for (i, a) in g.iter().enumerate() {
                if g[..i].iter().any(|b| b.receiver == a.receiver) {
                    return Err(FrameError::Malformed {
                        reason: format!("receiver {} repeated in a group", a.receiver),
                    });
                }
            }
        }
        Ok(MimoCarpoolFrame { streams, groups })
    }

    /// Greedily packs subframes into groups of up to `streams` receivers
    /// in arrival order.
    ///
    /// # Errors
    ///
    /// See [`MimoCarpoolFrame::new`].
    pub fn pack(
        streams: usize,
        subframes: Vec<MimoSubframe>,
    ) -> Result<MimoCarpoolFrame, FrameError> {
        if streams == 0 {
            return Err(FrameError::Malformed {
                reason: "need at least one spatial stream".to_string(),
            });
        }
        let mut groups: Vec<Vec<MimoSubframe>> = Vec::new();
        for sf in subframes {
            match groups.last_mut() {
                Some(g) if g.len() < streams && !g.iter().any(|b| b.receiver == sf.receiver) => {
                    g.push(sf)
                }
                _ => groups.push(vec![sf]),
            }
        }
        MimoCarpoolFrame::new(streams, groups)
    }

    /// The precoding groups in transmission order.
    pub fn groups(&self) -> &[Vec<MimoSubframe>] {
        &self.groups
    }

    /// Total receivers across groups.
    pub(crate) fn receiver_count(&self) -> usize {
        self.groups.iter().map(|g| g.len()).sum()
    }

    /// The shared A-HDR: receivers of group `g` are inserted with group
    /// index `g` (paper: "the indices of A,B are 1, and the indices of
    /// C,D are 2" — zero-based here).
    pub fn header(&self) -> AggregationHeader {
        let mut hdr = AggregationHeader::new(DEFAULT_HASHES);
        for (g, group) in self.groups.iter().enumerate() {
            for sf in group {
                hdr.insert(sf.receiver.as_bytes(), g);
            }
        }
        hdr
    }

    /// Duration of one group: its VHT preamble plus its *longest* stream
    /// (streams are parallel in space, so the slowest pads the group).
    pub(crate) fn group_airtime(&self, group: usize) -> f64 {
        let g = &self.groups[group];
        let payload = g.iter().map(MimoSubframe::airtime).fold(0.0f64, f64::max);
        vht_preamble_airtime(self.streams) + payload
    }

    /// Airtime of the whole aggregate: one legacy preamble + A-HDR, then
    /// the groups back to back (Fig. 18(b)).
    fn data_airtime(&self) -> f64 {
        PLCP_OVERHEAD
            + ahdr_airtime()
            + (0..self.groups.len())
                .map(|g| self.group_airtime(g))
                .sum::<f64>()
    }

    /// Complete exchange time including one sequential ACK per receiver.
    pub fn exchange_airtime(&self) -> f64 {
        self.data_airtime() + self.receiver_count() as f64 * (SIFS + ack_airtime())
    }

    /// Airtime the *same* payloads would need under plain 802.11ac
    /// MU-MIMO: one full transmission (preamble + VHT preamble + ACKs)
    /// per group — the comparison of paper Fig. 18(a). Contention and
    /// backoff costs per extra access come on top in a loaded cell.
    pub fn plain_mu_mimo_airtime(&self) -> f64 {
        (0..self.groups.len())
            .map(|g| {
                PLCP_OVERHEAD
                    + self.group_airtime(g)
                    + self.groups[g].len() as f64 * (SIFS + ack_airtime())
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sta(k: u16) -> MacAddress {
        MacAddress::station(k)
    }

    fn sf(k: u16, bytes: usize) -> MimoSubframe {
        MimoSubframe::new(sta(k), bytes, Mcs::QAM16_1_2)
    }

    fn paper_example() -> MimoCarpoolFrame {
        // Fig. 18: a two-antenna AP, four data streams for four STAs in
        // two precoding groups: (A, B) then (C, D).
        MimoCarpoolFrame::new(
            2,
            vec![vec![sf(0, 800), sf(1, 600)], vec![sf(2, 700), sf(3, 900)]],
        )
        .expect("valid grouping")
    }

    #[test]
    fn paper_figure18_grouping() {
        let frame = paper_example();
        assert_eq!(frame.streams, 2);
        assert_eq!(frame.groups().len(), 2);
        assert_eq!(frame.receiver_count(), 4);
    }

    #[test]
    fn header_indexes_by_group() {
        let frame = paper_example();
        let hdr = frame.header();
        // A and B match group 0; C and D match group 1.
        assert!(hdr.query(sta(0).as_bytes(), 0));
        assert!(hdr.query(sta(1).as_bytes(), 0));
        assert!(hdr.query(sta(2).as_bytes(), 1));
        assert!(hdr.query(sta(3).as_bytes(), 1));
    }

    #[test]
    fn aggregate_beats_plain_mu_mimo() {
        let frame = paper_example();
        assert!(
            frame.exchange_airtime() < frame.plain_mu_mimo_airtime(),
            "carpool {} vs plain {}",
            frame.exchange_airtime(),
            frame.plain_mu_mimo_airtime()
        );
    }

    #[test]
    fn group_airtime_is_bounded_by_slowest_stream() {
        let frame = MimoCarpoolFrame::new(2, vec![vec![sf(0, 100), sf(1, 1500)]]).unwrap();
        let solo_slow = MimoCarpoolFrame::new(2, vec![vec![sf(1, 1500)]]).unwrap();
        assert!((frame.group_airtime(0) - solo_slow.group_airtime(0)).abs() < 1e-12);
    }

    #[test]
    fn pack_fills_groups_in_order() {
        let frame = MimoCarpoolFrame::pack(
            2,
            vec![sf(0, 100), sf(1, 100), sf(2, 100), sf(3, 100), sf(4, 100)],
        )
        .unwrap();
        let sizes: Vec<usize> = frame.groups().iter().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn pack_splits_duplicate_receiver() {
        // One stream per receiver per group: a repeat opens a new group.
        let frame = MimoCarpoolFrame::pack(2, vec![sf(0, 100), sf(0, 200), sf(1, 100)]).unwrap();
        assert_eq!(frame.groups().len(), 2);
        assert_eq!(frame.groups()[0].len(), 1);
        assert_eq!(frame.groups()[1].len(), 2);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            MimoCarpoolFrame::new(0, vec![vec![sf(0, 1)]]),
            Err(FrameError::Malformed { .. })
        ));
        assert!(matches!(
            MimoCarpoolFrame::new(2, vec![]),
            Err(FrameError::Empty)
        ));
        assert!(matches!(
            MimoCarpoolFrame::new(2, vec![vec![sf(0, 1), sf(1, 1), sf(2, 1)]]),
            Err(FrameError::TooManyReceivers { count: 3 })
        ));
        assert!(matches!(
            MimoCarpoolFrame::new(2, vec![vec![sf(0, 1), sf(0, 2)]]),
            Err(FrameError::Malformed { .. })
        ));
        let nine: Vec<Vec<MimoSubframe>> = (0..9u16).map(|k| vec![sf(k, 10)]).collect();
        assert!(matches!(
            MimoCarpoolFrame::new(2, nine),
            Err(FrameError::TooManyReceivers { count: 9 })
        ));
    }

    #[test]
    fn single_stream_degenerates_to_serial_carpool() {
        // With one antenna every group has one receiver; the aggregate
        // still shares one preamble across all of them.
        let frame = MimoCarpoolFrame::pack(1, vec![sf(0, 300), sf(1, 300), sf(2, 300)]).unwrap();
        assert_eq!(frame.groups().len(), 3);
        assert!(frame.exchange_airtime() < frame.plain_mu_mimo_airtime());
    }
}
