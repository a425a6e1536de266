#![warn(missing_docs)]
//! # carpool-frame — frame formats, aggregation and channel reservation
//!
//! Everything between raw PHY sections and the MAC state machine:
//!
//! * [`addr`] — MAC addressing for simulated stations and APs.
//! * [`mac_frame`] — MPDUs with FCS and A-MPDU bundling.
//! * [`sig`] — per-subframe SIG fields (MCS + length) that let stations
//!   skip foreign subframes.
//! * [`carpool`] — assembly and station-side parsing of Carpool frames
//!   (A-HDR + subframes, paper Fig. 4), on top of `carpool-phy`.
//! * [`aggregation`] — the frame-selection policies compared in the
//!   paper: legacy 802.11, A-MPDU and multi-user aggregation.
//! * [`airtime`] — Table 2 timing parameters and airtime arithmetic.
//! * [`nav`] — sequential-ACK and RTS/CTS NAV equations (Eqs. 1–2).
//!
//! # Examples
//!
//! ```
//! use carpool_frame::addr::MacAddress;
//! use carpool_frame::carpool::{receive_carpool_obs_with_scratch, CarpoolFrame, Subframe};
//! use carpool_obs::Obs;
//! use carpool_phy::mcs::Mcs;
//! use carpool_phy::rx::{Estimation, PhyScratch};
//! use carpool_phy::tx::SideChannelConfig;
//!
//! # fn main() -> Result<(), carpool_frame::FrameError> {
//! let frame = CarpoolFrame::new(vec![
//!     Subframe::new(MacAddress::station(1), Mcs::QPSK_1_2, vec![0xAB; 200]),
//!     Subframe::new(MacAddress::station(2), Mcs::QAM16_3_4, vec![0xCD; 400]),
//! ])?;
//! let tx = frame.transmit()?;
//! let rx = receive_carpool_obs_with_scratch(
//!     &tx.samples,
//!     MacAddress::station(2),
//!     Estimation::Standard,
//!     carpool_bloom::DEFAULT_HASHES,
//!     Some(SideChannelConfig::default()),
//!     &Obs::noop(),
//!     &mut PhyScratch::default(),
//! )?;
//! assert_eq!(rx.payload_at(1).unwrap(), &[0xCD; 400][..]);
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod aggregation;
pub mod airtime;
pub mod carpool;
pub mod mac_frame;
pub mod mimo;
pub mod nav;
pub mod sig;

use carpool_bloom::BloomError;
use carpool_phy::PhyError;

/// Errors produced by framing and parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// A SIG field failed validation.
    BadSig {
        /// Human-readable reason.
        reason: String,
    },
    /// A frame check sequence did not match.
    BadFcs,
    /// A structurally invalid frame or bundle.
    Malformed {
        /// Human-readable reason.
        reason: String,
    },
    /// More receivers than a Carpool frame supports.
    TooManyReceivers {
        /// Receivers requested.
        count: usize,
    },
    /// An empty frame was requested.
    Empty,
    /// An underlying PHY error.
    Phy(PhyError),
    /// An underlying Bloom filter error.
    Bloom(BloomError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadSig { reason } => write!(f, "bad SIG field: {reason}"),
            FrameError::BadFcs => f.write_str("frame check sequence mismatch"),
            FrameError::Malformed { reason } => write!(f, "malformed frame: {reason}"),
            FrameError::TooManyReceivers { count } => {
                write!(
                    f,
                    "{count} receivers exceed the Carpool limit of {}",
                    carpool_bloom::MAX_RECEIVERS
                )
            }
            FrameError::Empty => f.write_str("frame has no subframes"),
            FrameError::Phy(e) => write!(f, "phy error: {e}"),
            FrameError::Bloom(e) => write!(f, "aggregation header error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Phy(e) => Some(e),
            FrameError::Bloom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PhyError> for FrameError {
    fn from(e: PhyError) -> FrameError {
        FrameError::Phy(e)
    }
}

impl From<BloomError> for FrameError {
    fn from(e: BloomError) -> FrameError {
        FrameError::Bloom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = FrameError::TooManyReceivers { count: 12 };
        assert!(e.to_string().contains("12"));
        let p = FrameError::Phy(PhyError::EmptyFrame);
        assert!(std::error::Error::source(&p).is_some());
        assert!(std::error::Error::source(&FrameError::BadFcs).is_none());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrameError>();
    }
}
