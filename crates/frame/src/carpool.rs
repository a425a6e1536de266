//! Carpool PPDU assembly and station-side parsing (paper Fig. 4).
//!
//! A Carpool frame is `[preamble][A-HDR][SIG_1][payload_1]...[SIG_N]
//! [payload_N]`. The A-HDR Bloom filter names each subframe's receiver;
//! every SIG gives the following payload's MCS and byte length so that a
//! station can hop over foreign subframes decoding only SIG symbols.
//!
//! The station-side flow implemented by [`receive_carpool_obs_with_scratch`]:
//!
//! 1. decode the A-HDR and compute the matched subframe indices — if
//!    none match, drop the frame immediately (only 2 symbols decoded);
//! 2. walk the subframes in order, decoding every SIG; decode the
//!    payloads of matched subframes and *skip* the rest;
//! 3. report per-subframe payloads plus decode/skip symbol counts for
//!    energy accounting (paper Section 8).

use crate::addr::MacAddress;
use crate::sig::{Sig, SIG_BITS};
use crate::FrameError;
use carpool_bloom::{AggregationHeader, BLOOM_BITS, DEFAULT_HASHES, MAX_RECEIVERS};
use carpool_obs::flight::AHDR_BITMAP_SHIFT;
use carpool_obs::TraceKind;
use carpool_phy::bits::{bits_to_bytes, bytes_to_bits};
use carpool_phy::math::Complex64;
use carpool_phy::mcs::{Mcs, SYMBOL_DURATION};
use carpool_phy::rx::{Estimation, FrameDecoder, PhyScratch, SectionLayout};
use carpool_phy::tx::{transmit, SectionSpec, SideChannelConfig, TxFrame};

/// One subframe: the MAC data for exactly one receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subframe {
    /// Destination station.
    pub receiver: MacAddress,
    /// MCS for this receiver (subframes may differ, paper Section 4.1).
    pub mcs: Mcs,
    /// MAC payload bytes (a single MPDU or an A-MPDU bundle).
    pub payload: Vec<u8>,
}

impl Subframe {
    /// Creates a subframe.
    pub fn new(receiver: MacAddress, mcs: Mcs, payload: Vec<u8>) -> Subframe {
        Subframe {
            receiver,
            mcs,
            payload,
        }
    }
}

/// A Carpool aggregate frame ready for transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct CarpoolFrame {
    subframes: Vec<Subframe>,
    hashes: usize,
    side_channel: Option<SideChannelConfig>,
}

impl CarpoolFrame {
    /// Builds a frame from subframes with the paper's default hash count
    /// and side-channel configuration.
    ///
    /// # Errors
    ///
    /// * [`FrameError::Empty`] if `subframes` is empty or any payload is
    ///   empty or longer than 65535 bytes (the SIG length field).
    /// * [`FrameError::TooManyReceivers`] beyond [`MAX_RECEIVERS`].
    pub fn new(subframes: Vec<Subframe>) -> Result<CarpoolFrame, FrameError> {
        CarpoolFrame::with_options(
            subframes,
            DEFAULT_HASHES,
            Some(SideChannelConfig::default()),
        )
    }

    /// Builds a frame with explicit hash count and side channel.
    ///
    /// # Errors
    ///
    /// See [`CarpoolFrame::new`].
    pub fn with_options(
        subframes: Vec<Subframe>,
        hashes: usize,
        side_channel: Option<SideChannelConfig>,
    ) -> Result<CarpoolFrame, FrameError> {
        if subframes.is_empty() {
            return Err(FrameError::Empty);
        }
        if subframes.len() > MAX_RECEIVERS {
            return Err(FrameError::TooManyReceivers {
                count: subframes.len(),
            });
        }
        for sf in &subframes {
            if sf.payload.is_empty() || sf.payload.len() > u16::MAX as usize {
                return Err(FrameError::Malformed {
                    reason: format!("payload of {} bytes unsupported", sf.payload.len()),
                });
            }
        }
        Ok(CarpoolFrame {
            subframes,
            hashes,
            side_channel,
        })
    }

    /// The subframes in transmission order.
    pub fn subframes(&self) -> &[Subframe] {
        &self.subframes
    }

    /// The computed aggregation header.
    pub fn header(&self) -> AggregationHeader {
        let receivers: Vec<&[u8]> = self
            .subframes
            .iter()
            .map(|s| s.receiver.as_bytes())
            .collect();
        // The receiver count was validated at construction, so the error
        // arm is unreachable; an empty header is the graceful fallback.
        AggregationHeader::for_receivers(&receivers, self.hashes)
            .unwrap_or_else(|_| AggregationHeader::new(self.hashes))
    }

    /// PHY section specs: `[A-HDR][SIG_1][payload_1]...`.
    pub fn to_specs(&self) -> Vec<SectionSpec> {
        let mut specs = Vec::with_capacity(1 + 2 * self.subframes.len());
        // The A-HDR is QBPSK-marked so any receiver can classify the
        // PPDU as Carpool at the first post-preamble symbol (Sec. 4.3).
        specs.push(SectionSpec::header_qbpsk(self.header().to_bits()));
        for sf in &self.subframes {
            let sig = Sig::new(sf.mcs, sf.payload.len() as u16);
            specs.push(SectionSpec::header(sig.to_bits()));
            let bits = bytes_to_bits(&sf.payload);
            specs.push(match self.side_channel {
                Some(sc) => SectionSpec {
                    bits,
                    mcs: sf.mcs,
                    scramble: true,
                    side_channel: Some(sc),
                    qbpsk: false,
                },
                None => SectionSpec::payload_legacy(bits, sf.mcs),
            });
        }
        specs
    }

    /// Modulates the frame to baseband samples.
    ///
    /// # Errors
    ///
    /// Propagates PHY configuration errors as [`FrameError::Phy`].
    pub fn transmit(&self) -> Result<TxFrame, FrameError> {
        transmit(&self.to_specs()).map_err(FrameError::Phy)
    }

    /// Total payload bytes across subframes.
    pub fn payload_bytes(&self) -> usize {
        self.subframes.iter().map(|s| s.payload.len()).sum()
    }
}

/// A subframe as seen by a receiving station.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub field `CarpoolReception::subframes` holds it
pub struct ReceivedSubframe {
    /// Position in the frame.
    pub index: usize,
    /// The decoded SIG field.
    pub sig: Sig,
    /// Decoded payload bytes — `Some` only for matched subframes.
    pub payload: Option<Vec<u8>>,
}

/// Outcome of a station processing a Carpool frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CarpoolReception {
    /// Subframe indices the A-HDR matched for this station.
    pub matched_indices: Vec<usize>,
    /// Every subframe's SIG, with payloads for matched ones.
    pub subframes: Vec<ReceivedSubframe>,
    /// OFDM symbols this station actually demodulated.
    pub symbols_decoded: usize,
    /// OFDM symbols skipped (energy saved, paper Section 8).
    pub symbols_skipped: usize,
}

impl CarpoolReception {
    /// Payload bytes decoded for this station at `index`, if any.
    pub fn payload_at(&self, index: usize) -> Option<&[u8]> {
        self.subframes
            .iter()
            .find(|s| s.index == index)
            .and_then(|s| s.payload.as_deref())
    }
}

/// Numeric station identity for flight records (address as a big-endian
/// integer over its six bytes).
fn station_id(addr: MacAddress) -> u64 {
    addr.as_bytes()
        .iter()
        .fold(0u64, |acc, &b| (acc << 8) | b as u64)
}

// An A-HDR record packs the probed Bloom positions below the matched
// subframe bitmap.
const _: () = assert!(BLOOM_BITS == AHDR_BITMAP_SHIFT as usize);

/// Station-side processing of a received Carpool frame: the one receive
/// entry point.
///
/// `side_channel` must mirror the transmitter's configuration (it is a
/// capability negotiated at association, paper Section 4.3).
///
/// Records a [`TraceKind::AhdrDecision`] for the A-HDR membership test
/// (ground truth unknown at this layer — callers who know whether the
/// station was really aboard record their own graded check), a
/// [`TraceKind::StaOutcome`] per decoded subframe or early drop, and a
/// `frame.receive` timing span. The attached PHY decoder inherits
/// `obs`, so side-CRC and RTE records interleave in the same stream.
/// Records are stamped at OFDM symbol positions in seconds. Pass
/// [`carpool_obs::Obs::noop`] to record nothing.
///
/// `scratch` is the caller's [`PhyScratch`]: its decode buffers, cached
/// RX scatter maps and Viterbi trellis are borrowed for this frame and
/// handed back (grown, never shrunk) on every exit path, so a worker
/// decoding frame after frame reuses them all; a one-off caller passes
/// `&mut PhyScratch::default()`. Results are bit-identical to a fresh
/// scratch — the workspace carries capacity, never values (see the
/// `carpool-par` determinism contract).
///
/// # Errors
///
/// * [`FrameError::Phy`] for malformed sample buffers, or a SIG whose
///   length or MCS points past the end of the buffer.
/// * [`FrameError::BadSig`] if a SIG fails its parity — the station
///   cannot navigate past an unreadable SIG, so parsing stops there.
#[allow(clippy::too_many_arguments)]
pub fn receive_carpool_obs_with_scratch(
    samples: &[Complex64],
    station: MacAddress,
    estimation: Estimation,
    hashes: usize,
    side_channel: Option<SideChannelConfig>,
    obs: &carpool_obs::Obs,
    scratch: &mut PhyScratch,
) -> Result<CarpoolReception, FrameError> {
    let _receive_span = obs.span(carpool_obs::names::FRAME_RECEIVE);
    let mut decoder = FrameDecoder::new(samples, estimation)
        .map_err(FrameError::Phy)?
        .with_obs(obs.clone())
        .with_scratch(std::mem::take(scratch));
    let result = walk_carpool_frame(&mut decoder, station, hashes, side_channel, obs);
    // Recover the workspace on success *and* error so a bad frame never
    // costs the worker its warmed buffers.
    *scratch = decoder.into_scratch();
    result
}

/// The frame walk of [`receive_carpool_obs_with_scratch`]; the caller
/// owns the decoder so it can reclaim the scratch afterwards.
fn walk_carpool_frame(
    decoder: &mut FrameDecoder<'_>,
    station: MacAddress,
    hashes: usize,
    side_channel: Option<SideChannelConfig>,
    obs: &carpool_obs::Obs,
) -> Result<CarpoolReception, FrameError> {
    // 1. A-HDR.
    let ahdr_layout = SectionLayout {
        message_bits: BLOOM_BITS,
        mcs: Mcs::BPSK_1_2,
        scramble: false,
        side_channel: None,
        qbpsk: true,
    };
    let ahdr_section = decoder
        .decode_section(&ahdr_layout)
        .map_err(FrameError::Phy)?;
    let header =
        AggregationHeader::from_bits(&ahdr_section.bits, hashes).map_err(FrameError::Bloom)?;
    let matched_indices = header.matched_indices(station.as_bytes(), MAX_RECEIVERS);
    let mut symbols_decoded = ahdr_layout.symbol_count();
    let mut symbols_skipped = 0usize;

    if obs.enabled() {
        // Payload b: low 48 bits = union of the Bloom positions the
        // station's matched hash sets probed, bits 48..56 = matched
        // subframe bitmap. Captures *which* filter bits drove the
        // membership decision, not just the verdict.
        let probe_union = matched_indices
            .iter()
            .fold(0u64, |m, &i| m | header.probe_mask(station.as_bytes(), i));
        let bitmap = matched_indices.iter().fold(0u64, |m, &i| m | (1 << i));
        obs.trace(
            TraceKind::AhdrDecision,
            decoder.position() as f64 * SYMBOL_DURATION,
            station_id(station),
            (bitmap << AHDR_BITMAP_SHIFT) | probe_union,
            0,
        );
    }

    // If nothing matches, the station drops the frame now.
    let Some(&last_matched) = matched_indices.last() else {
        let skipped = decoder.remaining_symbols();
        obs.counter("frame.symbols_skipped", skipped as u64);
        // Outcome payload b: bit 0 = delivered flag, upper bits = bytes.
        // An early A-HDR drop is b = 0.
        obs.trace(
            TraceKind::StaOutcome,
            decoder.position() as f64 * SYMBOL_DURATION,
            station_id(station),
            0,
            0,
        );
        return Ok(CarpoolReception {
            matched_indices,
            subframes: Vec::new(),
            symbols_decoded,
            symbols_skipped: skipped,
        });
    };

    // 2. Walk subframes: decode every SIG, decode or skip each payload.
    let sig_layout = SectionLayout {
        message_bits: SIG_BITS,
        mcs: Mcs::BPSK_1_2,
        scramble: false,
        side_channel: None,
        qbpsk: false,
    };
    let mut subframes = Vec::new();
    let mut index = 0usize;
    while index < MAX_RECEIVERS && decoder.remaining_symbols() >= sig_layout.symbol_count() {
        let sig_section = decoder
            .decode_section(&sig_layout)
            .map_err(FrameError::Phy)?;
        symbols_decoded += sig_layout.symbol_count();
        let sig = Sig::from_bits(&sig_section.bits)?;
        let payload_layout = SectionLayout {
            message_bits: sig.length_bytes as usize * 8,
            mcs: sig.mcs,
            scramble: true,
            side_channel,
            qbpsk: false,
        };
        let matched = matched_indices.contains(&index);
        let payload = if matched {
            let section = decoder
                .decode_section(&payload_layout)
                .map_err(FrameError::Phy)?;
            symbols_decoded += payload_layout.symbol_count();
            let bytes = bits_to_bytes(&section.bits);
            // Outcome payload b mirrors the early-drop site: bit 0 =
            // delivered, upper bits = payload length in bytes.
            obs.trace(
                TraceKind::StaOutcome,
                decoder.position() as f64 * SYMBOL_DURATION,
                station_id(station),
                ((bytes.len() as u64) << 1) | 1,
                0,
            );
            Some(bytes)
        } else {
            decoder
                .skip_section(&payload_layout)
                .map_err(FrameError::Phy)?;
            symbols_skipped += payload_layout.symbol_count();
            None
        };
        subframes.push(ReceivedSubframe {
            index,
            sig,
            payload,
        });
        // Paper: "After decoding its subframe, the receiver drops all
        // rear subframes."
        if index >= last_matched {
            symbols_skipped += decoder.remaining_symbols();
            break;
        }
        index += 1;
    }

    obs.counter("frame.symbols_decoded", symbols_decoded as u64);
    obs.counter("frame.symbols_skipped", symbols_skipped as u64);
    Ok(CarpoolReception {
        matched_indices,
        subframes,
        symbols_decoded,
        symbols_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sta(k: u16) -> MacAddress {
        MacAddress::station(k)
    }

    /// One unobserved receive with a fresh scratch.
    fn receive(
        samples: &[Complex64],
        station: MacAddress,
        estimation: Estimation,
        side_channel: Option<SideChannelConfig>,
    ) -> Result<CarpoolReception, FrameError> {
        receive_carpool_obs_with_scratch(
            samples,
            station,
            estimation,
            DEFAULT_HASHES,
            side_channel,
            &carpool_obs::Obs::noop(),
            &mut PhyScratch::default(),
        )
    }

    fn build_frame(n: usize) -> CarpoolFrame {
        let subframes: Vec<Subframe> = (0..n)
            .map(|k| {
                Subframe::new(
                    sta(k as u16),
                    if k % 2 == 0 {
                        Mcs::QPSK_1_2
                    } else {
                        Mcs::QAM16_3_4
                    },
                    vec![(k as u8) ^ 0x5A; 120 + 40 * k],
                )
            })
            .collect();
        CarpoolFrame::new(subframes).unwrap()
    }

    #[test]
    fn every_receiver_gets_its_payload() {
        let frame = build_frame(4);
        let tx = frame.transmit().unwrap();
        for k in 0..4u16 {
            let rx = receive(
                &tx.samples,
                sta(k),
                Estimation::Standard,
                Some(SideChannelConfig::default()),
            )
            .unwrap();
            assert!(rx.matched_indices.contains(&(k as usize)), "sta {k}");
            let payload = rx.payload_at(k as usize).unwrap();
            assert_eq!(
                payload,
                &frame.subframes()[k as usize].payload[..],
                "sta {k}"
            );
        }
    }

    #[test]
    fn outsider_mostly_drops_without_payload_decoding() {
        let frame = build_frame(3);
        let tx = frame.transmit().unwrap();
        let rx = receive(
            &tx.samples,
            sta(999),
            Estimation::Standard,
            Some(SideChannelConfig::default()),
        )
        .unwrap();
        // With 3 receivers the FP chance is small; an outsider usually
        // matches nothing. Whatever happens, its own payload never
        // appears (no false negatives only applies to inserted items).
        for s in &rx.subframes {
            if let Some(p) = &s.payload {
                // False positive decode: payload belongs to someone else.
                assert_ne!(p.len(), 0);
            }
        }
        if rx.matched_indices.is_empty() {
            assert!(rx.subframes.is_empty());
            assert!(rx.symbols_skipped > 0);
        }
    }

    #[test]
    fn middle_receiver_skips_foreign_payloads() {
        let frame = build_frame(5);
        let tx = frame.transmit().unwrap();
        let rx = receive(
            &tx.samples,
            sta(2),
            Estimation::Standard,
            Some(SideChannelConfig::default()),
        )
        .unwrap();
        assert!(rx.payload_at(2).is_some());
        // It should have skipped symbols (subframes 0, 1 bodies at least,
        // minus any false-positive decodes) and dropped the tail.
        assert!(rx.symbols_skipped > 0, "no symbols skipped");
        // Symbols decoded strictly less than the whole frame.
        assert!(rx.symbols_decoded < tx.payload_symbols());
    }

    #[test]
    fn rte_estimation_also_decodes() {
        use carpool_phy::rte::CalibrationRule;
        let frame = build_frame(2);
        let tx = frame.transmit().unwrap();
        let rx = receive(
            &tx.samples,
            sta(1),
            Estimation::Rte(CalibrationRule::Average),
            Some(SideChannelConfig::default()),
        )
        .unwrap();
        assert_eq!(rx.payload_at(1).unwrap(), &frame.subframes()[1].payload[..]);
    }

    #[test]
    fn obs_traces_membership_and_subframe_outcomes() {
        use carpool_obs::{FlightRecorder, MemoryRecorder, Obs};
        use std::sync::Arc;

        let frame = build_frame(3);
        let tx = frame.transmit().unwrap();
        let recorder = Arc::new(MemoryRecorder::new());
        let ring = Arc::new(FlightRecorder::new(4096));
        let obs = Obs::with_recorder(recorder.clone()).with_flight(ring.clone());

        let rx = receive_carpool_obs_with_scratch(
            &tx.samples,
            sta(1),
            Estimation::Standard,
            DEFAULT_HASHES,
            Some(SideChannelConfig::default()),
            &obs,
            &mut PhyScratch::default(),
        )
        .unwrap();
        assert!(rx.payload_at(1).is_some());

        let snap = recorder.snapshot();
        assert_eq!(snap.counter("frame.ahdr_match"), 1);
        assert!(snap.counter("frame.subframe_decoded") >= 1);
        assert!(snap.histogram("span.frame.receive").is_some());
        // PHY events flow through the same handle.
        assert!(snap.counter("phy.sections_decoded") > 0);
        // Matching subframe 1 of 3, the station skips one body (subframe
        // 0's) and drops the tail: one equalizer re-anchor.
        assert_eq!(rx.matched_indices, [1]);
        assert_eq!(snap.counter("phy.eq_reset"), 1);

        let records = ring.records();
        let accepted: u64 = records
            .iter()
            .filter(|r| r.kind() == Some(TraceKind::StaOutcome) && r.b() & 1 == 1)
            .map(|r| r.b() >> 1)
            .sum();
        assert_eq!(accepted, frame.subframes()[1].payload.len() as u64);
        assert!(records.iter().any(
            |r| r.kind() == Some(TraceKind::AhdrDecision) && r.b() >> AHDR_BITMAP_SHIFT == 0b10
        ));
    }

    #[test]
    fn construction_validations() {
        assert!(matches!(CarpoolFrame::new(vec![]), Err(FrameError::Empty)));
        let too_many: Vec<Subframe> = (0..9)
            .map(|k| Subframe::new(sta(k), Mcs::BPSK_1_2, vec![1]))
            .collect();
        assert!(matches!(
            CarpoolFrame::new(too_many),
            Err(FrameError::TooManyReceivers { count: 9 })
        ));
        let empty_payload = vec![Subframe::new(sta(0), Mcs::BPSK_1_2, vec![])];
        assert!(CarpoolFrame::new(empty_payload).is_err());
    }

    #[test]
    fn specs_have_expected_structure() {
        let frame = build_frame(3);
        let specs = frame.to_specs();
        assert_eq!(specs.len(), 1 + 2 * 3);
        assert_eq!(specs[0].bits.len(), BLOOM_BITS);
        for k in 0..3 {
            assert_eq!(specs[1 + 2 * k].bits.len(), SIG_BITS);
            assert!(specs[2 + 2 * k].scramble);
        }
    }

    #[test]
    fn payload_bytes_sums_subframes() {
        let frame = build_frame(2);
        assert_eq!(frame.payload_bytes(), 120 + 160);
    }

    #[test]
    fn without_side_channel_still_works() {
        let subframes = vec![Subframe::new(sta(0), Mcs::QPSK_1_2, vec![9; 200])];
        let frame = CarpoolFrame::with_options(subframes, DEFAULT_HASHES, None).unwrap();
        let tx = frame.transmit().unwrap();
        let rx = receive(&tx.samples, sta(0), Estimation::Standard, None).unwrap();
        assert_eq!(rx.payload_at(0).unwrap(), &frame.subframes()[0].payload[..]);
    }
}
