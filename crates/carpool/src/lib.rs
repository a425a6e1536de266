#![warn(missing_docs)]
//! # carpool — multi-receiver PHY frame aggregation for public WLANs
//!
//! A full software reproduction of *"Less Transmissions, More
//! Throughput: Bringing Carpool to Public WLANs"* (ICDCS 2015). Carpool
//! lets a Wi-Fi AP feed frames for **multiple receivers into one PHY
//! transmission**, slashing contention in crowded public WLANs. Its two
//! mechanisms:
//!
//! * a **coded Bloom filter aggregation header** (A-HDR) that names each
//!   subframe's receiver in 48 bits regardless of receiver count, and
//! * **real-time channel estimation** (RTE): a phase-offset side channel
//!   carries per-symbol CRCs, and correctly decoded symbols become data
//!   pilots that keep the channel estimate fresh across long frames.
//!
//! This facade crate re-exports the whole stack and adds what ties it
//! together:
//!
//! * [`link`] — end-to-end AP→channel→station delivery,
//! * [`montecarlo`] — the PHY Monte-Carlo loop behind every BER figure,
//! * [`energy`] — the Section 8 device energy analysis.
//!
//! The substrate crates: [`carpool_phy`] (OFDM PHY), [`carpool_channel`]
//! (channel models), [`carpool_bloom`] (A-HDR), [`carpool_frame`]
//! (framing/aggregation/NAV), [`carpool_traffic`] (public-WLAN traffic)
//! and [`carpool_mac`] (DCF simulator with the five compared protocols).
//!
//! # Examples
//!
//! One aggregated frame, two receivers, over a noisy fading channel:
//!
//! ```
//! use carpool::link::CarpoolLink;
//! use carpool_frame::addr::MacAddress;
//! use carpool_frame::carpool::{CarpoolFrame, Subframe};
//! use carpool_phy::mcs::Mcs;
//!
//! # fn main() -> Result<(), carpool_frame::FrameError> {
//! let mut link = CarpoolLink::builder().snr_db(32.0).seed(7).build();
//! let frame = CarpoolFrame::new(vec![
//!     Subframe::new(MacAddress::station(1), Mcs::QPSK_1_2, vec![1; 200]),
//!     Subframe::new(MacAddress::station(2), Mcs::QAM16_3_4, vec![2; 400]),
//! ])?;
//! let rx = link.deliver(&frame, MacAddress::station(1))?;
//! assert_eq!(rx.payload_at(0).unwrap(), &[1; 200][..]);
//! # Ok(())
//! # }
//! ```

pub mod energy;
pub mod link;
pub mod montecarlo;
pub mod scenario;

pub use energy::DevicePowerModel;
pub use link::{CarpoolLink, CarpoolLinkBuilder};
pub use scenario::{busy_cell, deadline_cell, fig03_flight_trace, voip_cell, FlightTraceSummary};

// Convenience re-exports of the substrate crates.
pub use carpool_bloom as bloom;
pub use carpool_channel as channel;
pub use carpool_frame as frame;
pub use carpool_mac as mac;
pub use carpool_phy as phy;
pub use carpool_traffic as traffic;
