#![warn(missing_docs)]
//! # carpool-channel — complex-baseband wireless channel models
//!
//! The Carpool paper evaluates its PHY on USRP radios in a 10m x 10m
//! office. This crate is the software substitute: it degrades a baseband
//! sample stream with the impairments that matter to the paper's
//! mechanisms —
//!
//! * [`noise`] — AWGN at a target SNR (the x-axis of Fig. 11/12 via the
//!   USRP power-magnitude calibration in [`link`]),
//! * [`fading`] — multipath Rayleigh fading with Gauss–Markov temporal
//!   evolution parameterised by *coherence time* (the cause of the BER
//!   bias in Fig. 3 and the target of real-time channel estimation),
//! * [`cfo`] — residual carrier frequency offset (the *inherent phase
//!   offset* the differential side channel is designed around).
//!
//! [`link::LinkChannel`] composes all three behind a builder.
//!
//! # Examples
//!
//! ```
//! use carpool_channel::link::LinkChannel;
//! use carpool_phy::math::Complex64;
//!
//! let mut link = LinkChannel::builder()
//!     .snr_db(25.0)
//!     .static_fading()
//!     .cfo_hz(150.0)
//!     .seed(7)
//!     .build();
//! let tx = vec![Complex64::ONE; 160];
//! let rx = link.transmit(&tx);
//! assert_eq!(rx.len(), tx.len());
//! ```

pub mod cfo;
pub mod fading;
pub mod link;
pub mod noise;

pub use cfo::ResidualCfo;
pub use fading::DelayProfile;
pub use link::{power_magnitude_to_snr_db, LinkChannel, LinkChannelBuilder};
