//! Backward compatibility with legacy 802.11 nodes (paper Section 4.3).
//!
//! Carpool must coexist with legacy stations: "Carpool nodes can easily
//! recognize Carpool frames and legacy frames by decoding A-HDR at PHY.
//! On the other hand, legacy nodes do not support the PLCP of Carpool
//! frames, and therefore cannot decode Carpool frames at PHY."
//!
//! The implementation uses the classic 802.11 format-detection trick:
//! the Carpool A-HDR is transmitted QBPSK (data subcarriers rotated
//! 90°), while a legacy PPDU starts with a real-axis BPSK SIG. One
//! look at the first post-preamble symbol's constellation classifies
//! the frame.

use crate::sig::Sig;
#[cfg(test)]
use crate::sig::SIG_BITS;
use crate::FrameError;
#[cfg(test)]
use carpool_phy::bits::bits_to_bytes;
use carpool_phy::bits::bytes_to_bits;
use carpool_phy::math::Complex64;
use carpool_phy::mcs::Mcs;
#[cfg(test)]
use carpool_phy::rx::SectionLayout;
use carpool_phy::rx::{Estimation, FrameDecoder};
use carpool_phy::tx::{transmit, SectionSpec, TxFrame};

/// PPDU format classes distinguishable at the first payload symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub `classify` returns it
pub enum FrameClass {
    /// A Carpool aggregate (QBPSK A-HDR right after the preamble).
    Carpool,
    /// A legacy single-receiver PPDU (real-axis SIG first).
    Legacy,
}

/// Classifies a received PPDU by the constellation axis of its first
/// post-preamble symbol.
///
/// # Errors
///
/// Propagates PHY errors for buffers too short to hold a preamble and
/// one symbol.
pub fn classify(samples: &[Complex64]) -> Result<FrameClass, FrameError> {
    let decoder = FrameDecoder::new(samples, Estimation::Standard).map_err(FrameError::Phy)?;
    if decoder.peek_is_qbpsk().map_err(FrameError::Phy)? {
        Ok(FrameClass::Carpool)
    } else {
        Ok(FrameClass::Legacy)
    }
}

/// A legacy (single-receiver, non-Carpool) PPDU: `[preamble][SIG][payload]`.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(dead-api): the legacy transmit path of paper Section 4.3; this module's tests classify and decode its frames
pub struct LegacyFrame {
    /// Payload MCS.
    pub mcs: Mcs,
    /// MAC payload bytes.
    pub payload: Vec<u8>,
}

impl LegacyFrame {
    /// Creates a legacy frame.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Malformed`] for empty or oversized payloads.
    pub fn new(mcs: Mcs, payload: Vec<u8>) -> Result<LegacyFrame, FrameError> {
        if payload.is_empty() || payload.len() > u16::MAX as usize {
            return Err(FrameError::Malformed {
                reason: format!("payload of {} bytes unsupported", payload.len()),
            });
        }
        Ok(LegacyFrame { mcs, payload })
    }

    /// PHY sections: a real-axis SIG, then the payload (no side channel
    /// — legacy transmitters do not inject phase offsets).
    pub fn to_specs(&self) -> Vec<SectionSpec> {
        let sig = Sig::new(self.mcs, self.payload.len() as u16);
        vec![
            SectionSpec::header(sig.to_bits()),
            SectionSpec::payload_legacy(bytes_to_bits(&self.payload), self.mcs),
        ]
    }

    /// Modulates to baseband samples.
    ///
    /// # Errors
    ///
    /// Propagates PHY errors.
    pub fn transmit(&self) -> Result<TxFrame, FrameError> {
        transmit(&self.to_specs()).map_err(FrameError::Phy)
    }
}

/// Legacy-receiver processing: parse the SIG, decode the payload.
/// Works on both legacy stations and Carpool stations serving legacy
/// traffic (a Carpool node "runs the corresponding version of protocol
/// supported by the client").
///
/// # Errors
///
/// * [`FrameError::BadSig`] if the SIG fails validation — which is the
///   normal outcome when a legacy node hears a Carpool PPDU.
/// * [`FrameError::Phy`] for malformed buffers.
#[cfg(test)]
fn receive_legacy(samples: &[Complex64]) -> Result<Vec<u8>, FrameError> {
    let mut decoder = FrameDecoder::new(samples, Estimation::Standard).map_err(FrameError::Phy)?;
    let sig_layout = SectionLayout {
        message_bits: SIG_BITS,
        mcs: Mcs::BPSK_1_2,
        scramble: false,
        side_channel: None,
        qbpsk: false,
    };
    let sig_section = decoder
        .decode_section(&sig_layout)
        .map_err(FrameError::Phy)?;
    let sig = Sig::from_bits(&sig_section.bits)?;
    let payload_layout = SectionLayout {
        message_bits: sig.length_bytes as usize * 8,
        mcs: sig.mcs,
        scramble: true,
        side_channel: None,
        qbpsk: false,
    };
    let section = decoder
        .decode_section(&payload_layout)
        .map_err(FrameError::Phy)?;
    Ok(bits_to_bytes(&section.bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MacAddress;
    use crate::carpool::{CarpoolFrame, Subframe};

    fn carpool_samples() -> Vec<Complex64> {
        let frame = CarpoolFrame::new(vec![
            Subframe::new(MacAddress::station(1), Mcs::QPSK_1_2, vec![0xAA; 150]),
            Subframe::new(MacAddress::station(2), Mcs::QAM16_1_2, vec![0xBB; 150]),
        ])
        .expect("two receivers");
        frame.transmit().expect("modulates").samples
    }

    #[test]
    fn legacy_frame_round_trip() {
        let frame = LegacyFrame::new(Mcs::QAM16_3_4, vec![0x5A; 700]).unwrap();
        let tx = frame.transmit().unwrap();
        assert_eq!(receive_legacy(&tx.samples).unwrap(), frame.payload);
    }

    #[test]
    fn classification_separates_the_formats() {
        let legacy = LegacyFrame::new(Mcs::QPSK_1_2, vec![1; 100])
            .unwrap()
            .transmit()
            .unwrap();
        assert_eq!(classify(&legacy.samples).unwrap(), FrameClass::Legacy);
        assert_eq!(classify(&carpool_samples()).unwrap(), FrameClass::Carpool);
    }

    #[test]
    fn legacy_node_cannot_parse_a_carpool_ppdu() {
        // "Legacy nodes do not support the PLCP of Carpool frames": the
        // A-HDR is not a valid SIG (QBPSK axis + parity), so a legacy
        // receive attempt errors out instead of mis-decoding.
        let err = receive_legacy(&carpool_samples());
        assert!(err.is_err(), "legacy parse should fail: {err:?}");
    }

    #[test]
    fn classification_is_noise_robust() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let legacy = LegacyFrame::new(Mcs::QPSK_1_2, vec![7; 200])
            .unwrap()
            .transmit()
            .unwrap();
        let carpool = carpool_samples();
        // ~13 dB SNR relative to the OFDM signal power (~0.0127).
        let noise_amp = 0.025f64;
        for (samples, expect) in [
            (&legacy.samples, FrameClass::Legacy),
            (&carpool, FrameClass::Carpool),
        ] {
            let noisy: Vec<Complex64> = samples
                .iter()
                .map(|s| {
                    *s + Complex64::new(
                        (rng.gen::<f64>() - 0.5) * noise_amp,
                        (rng.gen::<f64>() - 0.5) * noise_amp,
                    )
                })
                .collect();
            assert_eq!(classify(&noisy).unwrap(), expect);
        }
    }

    #[test]
    fn oversized_legacy_payload_rejected() {
        assert!(LegacyFrame::new(Mcs::BPSK_1_2, vec![]).is_err());
        assert!(LegacyFrame::new(Mcs::BPSK_1_2, vec![0; 70_000]).is_err());
    }
}
