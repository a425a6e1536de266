#![warn(missing_docs)]
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap
)]
//! # carpool-mac — event-driven IEEE 802.11 DCF simulator
//!
//! Reimplements the paper's trace-driven MAC evaluation (Section 7.2):
//! a single collision domain with two APs and 10–30 STAs contending via
//! DCF with the Table 2 parameters, running one of five downlink
//! protocols ([`protocol::Protocol`]): IEEE 802.11, A-MPDU,
//! MU-Aggregation, WiFox and Carpool. Frame decoding outcomes come from
//! a pluggable [`error_model::FrameErrorModel`], calibrated against the
//! `carpool-phy` Monte-Carlo experiments (the stand-in for the paper's
//! USRP traces).
//!
//! [`sim::Simulator`] runs one domain; [`engine::run_dense`] runs many
//! co-channel domains in parallel shards. Both step the same
//! [`engine`] loop, which samples a domain's traffic up front, ingests
//! it in time order, and keeps pending frames by value in per-node
//! FIFO queues.
//!
//! # Examples
//!
//! ```
//! use carpool_mac::error_model::BerBiasModel;
//! use carpool_mac::protocol::Protocol;
//! use carpool_mac::sim::{SimConfig, Simulator};
//!
//! let config = SimConfig {
//!     protocol: Protocol::Carpool,
//!     num_stas: 12,
//!     duration_s: 2.0,
//!     ..SimConfig::default()
//! };
//! let report = Simulator::new(config, Box::new(BerBiasModel::calibrated())).run();
//! assert!(report.downlink.delivered_frames > 0);
//! ```

/// Sharded, allocation-free MAC event engine and dense-scenario driver.
pub mod engine;
pub mod error_model;
/// Flow/channel metrics and the per-run report types.
pub mod metrics;
/// The five downlink protocols under evaluation.
pub mod protocol;
/// SNR-driven MCS selection.
pub mod rate;
/// Single-cell simulator facade over the event engine.
pub mod sim;

// The unit tests count allocations per thread (see `engine`'s
// allocation-budget test).
#[cfg(test)]
#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;
#[cfg(test)]
#[global_allocator]
static COUNTING_ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

pub use engine::{run_dense, DenseConfig, DenseReport};
pub use error_model::{
    BerBiasModel, EstimationScheme, FrameErrorModel, PerStaErrorModel, PerfectChannel,
};
pub use metrics::{AirtimeShare, ChannelStats, FlowMetrics, SimReport};
pub use protocol::Protocol;
pub use rate::mcs_for_snr;
pub use sim::{
    AggregationWait, DownlinkTraffic, HiddenTerminals, SchedulerPolicy, SimConfig, Simulator,
    UplinkTraffic,
};
