#![warn(missing_docs)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
//! # carpool-phy — an IEEE 802.11-style OFDM PHY with Carpool extensions
//!
//! A from-scratch software implementation of the 20 MHz OFDM physical
//! layer used by IEEE 802.11a/g (and, per-subframe, by the Carpool
//! design): 64-point FFT with 48 data + 4 pilot subcarriers, STF/LTF
//! preamble, frame-synchronous scrambler, K=7 convolutional code with
//! Viterbi decoding, block interleaver and Gray-coded BPSK/QPSK/16-QAM/
//! 64-QAM — plus the two PHY mechanisms contributed by the Carpool paper:
//!
//! * the **phase offset side channel** ([`sidechannel`]): per-symbol
//!   constellation rotations that carry a symbol-level CRC without
//!   affecting standard data decoding, and
//! * **real-time channel estimation** ([`rte`]): CRC-verified symbols act
//!   as data pilots that continuously recalibrate the channel estimate,
//!   eliminating the BER bias of long aggregated frames.
//!
//! The chain is exercised end to end by [`tx::transmit`] and
//! [`rx::receive`].
//!
//! # Examples
//!
//! ```
//! use carpool_phy::mcs::Mcs;
//! use carpool_phy::rx::{receive, Estimation, SectionLayout};
//! use carpool_phy::tx::{transmit, SectionSpec};
//!
//! # fn main() -> Result<(), carpool_phy::PhyError> {
//! let spec = SectionSpec::payload(vec![1, 0, 1, 1, 0, 1, 0, 0], Mcs::QAM16_1_2);
//! let tx = transmit(std::slice::from_ref(&spec))?;
//! let rx = receive(&tx.samples, &[SectionLayout::of(&spec)], Estimation::Standard)?;
//! assert_eq!(rx.sections[0].bits, spec.bits);
//! # Ok(())
//! # }
//! ```

pub mod bits;
pub mod convolutional;
pub mod crc;
pub mod equalizer;
pub mod fft;
pub mod interleaver;
pub mod math;
pub mod mcs;
pub mod mimo;
pub mod modulation;
pub mod ofdm;
pub mod preamble;
pub mod rte;
pub mod rx;
pub mod scrambler;
pub mod sidechannel;
pub mod tx;
pub mod txcache;

/// Errors produced by the PHY layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PhyError {
    /// The sample buffer does not match the expected frame structure.
    LengthMismatch {
        /// Samples required by the layout.
        expected: usize,
        /// Samples actually provided.
        actual: usize,
    },
    /// A frame with no sections or an empty section was requested.
    EmptyFrame,
    /// A configuration parameter is out of its supported range.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for PhyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhyError::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} samples, got {actual}")
            }
            PhyError::EmptyFrame => f.write_str("frame has no content"),
            PhyError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for PhyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = PhyError::LengthMismatch {
            expected: 10,
            actual: 4,
        };
        assert!(e.to_string().contains("10"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PhyError>();
    }
}
