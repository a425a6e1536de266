//! MAC frame formats and A-MPDU bundling.
//!
//! A compact MAC header (type, addresses, sequence number) plus payload,
//! protected by the CRC-32 FCS. Multiple MPDUs for the *same* receiver
//! can be bundled A-MPDU-style with per-MPDU delimiters, which is what an
//! individual Carpool subframe carries when IEEE 802.11n MAC aggregation
//! is layered below the PHY aggregation (paper Fig. 4: "the MAC data can
//! be either single data unit or aggregation data unit").

use crate::addr::MacAddress;
use crate::FrameError;
use carpool_phy::crc::{append_fcs, check_fcs};

/// MAC frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A data frame.
    Data,
    /// An acknowledgement.
    Ack,
    /// Request to send.
    Rts,
    /// Clear to send.
    Cts,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Ack => 1,
            FrameKind::Rts => 2,
            FrameKind::Cts => 3,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::Ack),
            2 => Some(FrameKind::Rts),
            3 => Some(FrameKind::Cts),
            _ => None,
        }
    }
}

/// Size in bytes of the serialised MAC header (kind + 2 addresses + seq).
pub const MAC_HEADER_BYTES: usize = 1 + 6 + 6 + 2;
/// Size in bytes of the FCS trailer.
pub const FCS_BYTES: usize = 4;
/// Size of a serialised ACK frame (header + FCS, no body).
pub(crate) const ACK_BYTES: usize = MAC_HEADER_BYTES + FCS_BYTES;

/// A MAC protocol data unit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MacFrame {
    /// Frame type.
    pub kind: FrameKind,
    /// Destination address.
    pub dest: MacAddress,
    /// Source address.
    pub src: MacAddress,
    /// Sequence number.
    pub seq: u16,
    /// Payload bytes (empty for control frames).
    pub body: Vec<u8>,
}

impl MacFrame {
    /// Creates a data frame.
    pub fn data(dest: MacAddress, src: MacAddress, seq: u16, body: Vec<u8>) -> MacFrame {
        MacFrame {
            kind: FrameKind::Data,
            dest,
            src,
            seq,
            body,
        }
    }

    /// Serialised length including header and FCS.
    fn wire_len(&self) -> usize {
        MAC_HEADER_BYTES + self.body.len() + FCS_BYTES
    }

    /// Serialises to bytes with a trailing FCS.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.push(self.kind.to_byte());
        out.extend_from_slice(&self.dest.octets());
        out.extend_from_slice(&self.src.octets());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.body);
        append_fcs(&out)
    }

    /// Parses a frame, verifying the FCS.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadFcs`] if the checksum fails or
    /// [`FrameError::Malformed`] for structural problems.
    pub fn from_bytes(bytes: &[u8]) -> Result<MacFrame, FrameError> {
        let payload = check_fcs(bytes).ok_or(FrameError::BadFcs)?;
        if payload.len() < MAC_HEADER_BYTES {
            return Err(FrameError::Malformed {
                reason: format!("{} bytes below minimum header", payload.len()),
            });
        }
        let kind = FrameKind::from_byte(payload[0]).ok_or_else(|| FrameError::Malformed {
            reason: format!("unknown frame kind {}", payload[0]),
        })?;
        let mut dest = [0u8; 6];
        dest.copy_from_slice(&payload[1..7]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&payload[7..13]);
        let seq = u16::from_le_bytes([payload[13], payload[14]]);
        Ok(MacFrame {
            kind,
            dest: dest.into(),
            src: src.into(),
            seq,
            body: payload[MAC_HEADER_BYTES..].to_vec(),
        })
    }
}

/// An A-MPDU bundle: several MPDUs for one receiver, each behind a
/// 2-byte length delimiter so undamaged MPDUs survive partial corruption.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AmpduBundle {
    frames: Vec<MacFrame>,
}

impl AmpduBundle {
    /// Creates an empty bundle.
    pub fn new() -> AmpduBundle {
        AmpduBundle { frames: Vec::new() }
    }

    /// Bundles existing frames.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Malformed`] if frames have differing
    /// destinations — an A-MPDU addresses exactly one receiver.
    pub fn from_frames(frames: Vec<MacFrame>) -> Result<AmpduBundle, FrameError> {
        if let Some(first) = frames.first() {
            if frames.iter().any(|f| f.dest != first.dest) {
                return Err(FrameError::Malformed {
                    reason: "A-MPDU frames must share one destination".to_string(),
                });
            }
        }
        Ok(AmpduBundle { frames })
    }

    /// Adds a frame.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Malformed`] if the destination differs from
    /// the frames already bundled.
    pub fn push(&mut self, frame: MacFrame) -> Result<(), FrameError> {
        if let Some(first) = self.frames.first() {
            if frame.dest != first.dest {
                return Err(FrameError::Malformed {
                    reason: "A-MPDU frames must share one destination".to_string(),
                });
            }
        }
        self.frames.push(frame);
        Ok(())
    }

    /// Number of bundled frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` if the bundle has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Serialised length.
    fn wire_len(&self) -> usize {
        self.frames.iter().map(|f| 2 + f.wire_len()).sum()
    }

    /// Serialises the bundle with per-MPDU delimiters.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        for f in &self.frames {
            let bytes = f.to_bytes();
            out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        out
    }

    /// Parses a bundle, returning each MPDU's parse result separately —
    /// a corrupted MPDU yields an error slot while intact ones survive,
    /// mirroring selective A-MPDU acknowledgement.
    pub fn parse_lossy(bytes: &[u8]) -> Vec<Result<MacFrame, FrameError>> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos + 2 <= bytes.len() {
            let len = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]) as usize;
            pos += 2;
            if pos + len > bytes.len() {
                out.push(Err(FrameError::Malformed {
                    reason: "delimiter exceeds buffer".to_string(),
                }));
                break;
            }
            out.push(MacFrame::from_bytes(&bytes[pos..pos + len]));
            pos += len;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u16) -> MacFrame {
        MacFrame::data(
            MacAddress::station(1),
            MacAddress::access_point(0),
            seq,
            vec![seq as u8; 100],
        )
    }

    #[test]
    fn frame_round_trip() {
        let f = frame(7);
        assert_eq!(MacFrame::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn ack_round_trip() {
        let a = MacFrame {
            kind: FrameKind::Ack,
            dest: MacAddress::access_point(0),
            src: MacAddress::station(3),
            seq: 99,
            body: Vec::new(),
        };
        let parsed = MacFrame::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(parsed.kind, FrameKind::Ack);
        assert_eq!(parsed.seq, 99);
        assert!(parsed.body.is_empty());
        assert_eq!(a.wire_len(), ACK_BYTES);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = frame(1).to_bytes();
        bytes[20] ^= 0xFF;
        assert!(matches!(
            MacFrame::from_bytes(&bytes),
            Err(FrameError::BadFcs)
        ));
    }

    #[test]
    fn wire_len_matches_serialisation() {
        let f = frame(3);
        assert_eq!(f.to_bytes().len(), f.wire_len());
    }

    #[test]
    fn bundle_round_trip() {
        let mut b = AmpduBundle::new();
        for seq in 0..5 {
            b.push(frame(seq)).unwrap();
        }
        assert_eq!(b.len(), 5);
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), b.wire_len());
        let parsed = AmpduBundle::parse_lossy(&bytes);
        assert_eq!(parsed.len(), 5);
        for (k, p) in parsed.into_iter().enumerate() {
            assert_eq!(p.unwrap(), frame(k as u16));
        }
    }

    #[test]
    fn bundle_rejects_mixed_destinations() {
        let mut b = AmpduBundle::new();
        b.push(frame(0)).unwrap();
        let other = MacFrame::data(
            MacAddress::station(2),
            MacAddress::access_point(0),
            1,
            vec![],
        );
        assert!(b.push(other).is_err());
    }

    #[test]
    fn lossy_parse_salvages_intact_mpdus() {
        let mut b = AmpduBundle::new();
        for seq in 0..3 {
            b.push(frame(seq)).unwrap();
        }
        let mut bytes = b.to_bytes();
        // Corrupt a byte inside the second MPDU's body.
        let first_len = 2 + frame(0).wire_len();
        bytes[first_len + 30] ^= 0x55;
        let parsed = AmpduBundle::parse_lossy(&bytes);
        assert!(parsed[0].is_ok());
        assert!(parsed[1].is_err());
        assert!(parsed[2].is_ok());
    }

    #[test]
    fn truncated_bundle_reports_malformed_tail() {
        let mut b = AmpduBundle::new();
        b.push(frame(0)).unwrap();
        let bytes = b.to_bytes();
        let parsed = AmpduBundle::parse_lossy(&bytes[..bytes.len() - 5]);
        assert_eq!(parsed.len(), 1);
        assert!(parsed[0].is_err());
    }

    #[test]
    fn empty_bundle_behaviour() {
        let b = AmpduBundle::new();
        assert!(b.is_empty());
        assert_eq!(b.wire_len(), 0);
        assert!(AmpduBundle::parse_lossy(&[]).is_empty());
    }
}
