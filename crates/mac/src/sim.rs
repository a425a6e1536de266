//! Event-driven DCF simulator for a single collision domain.
//!
//! Follows the paper's methodology (Section 7.2.1): all nodes — two APs
//! and 10–30 STAs — are within carrier-sense range and contend with the
//! IEEE 802.11n parameters of Table 2 (slot 9 µs, SIFS 10 µs, DIFS
//! 28 µs, CW 15–1023, exponential backoff). Frame decoding is driven by
//! a [`FrameErrorModel`]-driven model calibrated
//! from `carpool-phy` runs, the software analogue of the paper's
//! USRP-trace-driven emulation.
//!
//! The engine uses the *virtual slot* technique, exact for a single
//! collision domain: whenever the medium goes idle, all backlogged
//! nodes count down together; the minimum-backoff node(s) transmit, and
//! simultaneous expiry is a collision.
//!
//! This module holds the configuration surface and the single-domain
//! driver; the event loop itself lives in [`crate::engine`] as a
//! steppable [`Domain`](crate::engine), which is also what the sharded
//! dense-scenario runner ([`crate::engine::run_dense`]) drives in
//! parallel.

use crate::engine::Domain;
use crate::error_model::FrameErrorModel;
use crate::metrics::SimReport;
use crate::protocol::Protocol;
use carpool_frame::aggregation::AggregationLimits;
use carpool_frame::mac_frame::{FCS_BYTES, MAC_HEADER_BYTES};
use carpool_obs::Obs;
use carpool_phy::mcs::Mcs;

/// Per-MPDU wire overhead: MAC header + FCS + A-MPDU delimiter.
pub(crate) const WIRE_OVERHEAD_BYTES: usize = MAC_HEADER_BYTES + FCS_BYTES + 2;

/// Data MCS: the paper's 65 Mbit/s 802.11n rate maps to the closest
/// 802.11a/g rate, 54 Mbit/s QAM64-3/4, in this PHY. Stations without a
/// per-STA SNR ([`SimConfig::per_sta_snr_db`]) are served at it.
pub(crate) const DATA_MCS: Mcs = Mcs::QAM64_3_4;

/// Retry limit: a frame whose attempts exceed it is dropped.
pub(crate) const RETRY_LIMIT: u32 = 7;

/// Downlink traffic offered to each STA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DownlinkTraffic {
    /// Brady ON/OFF VoIP (96 kbit/s peak, 120 B frames).
    Voip,
    /// Constant bit rate: one frame of `bytes` every `interval_s`.
    Cbr {
        /// Inter-frame interval in seconds.
        interval_s: f64,
        /// Frame size in bytes.
        bytes: usize,
    },
    /// No downlink traffic.
    None,
}

/// Uplink background traffic configuration (SIGCOMM'08 style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkTraffic {
    /// Fraction of STAs running a TCP-like source (rest are UDP-like).
    pub tcp_fraction: f64,
    /// Rate multiplier applied to every source (1.0 = trace level).
    pub rate_scale: f64,
}

impl Default for UplinkTraffic {
    fn default() -> Self {
        UplinkTraffic {
            tcp_fraction: 0.5,
            rate_scale: 1.0,
        }
    }
}

/// Downlink scheduling discipline at the AP (paper Section 8,
/// Fairness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    /// First in, first out — the paper's default for delay-insensitive
    /// traffic.
    #[default]
    Fifo,
    /// Time fairness: the AP keeps a time-occupancy table and serves the
    /// stations with the smallest cumulative airtime first.
    TimeFair,
}

/// Hidden-terminal topology: each unordered STA pair is mutually
/// hidden with probability `fraction` (drawn deterministically from the
/// simulation seed). Hidden stations cannot carrier-sense each other's
/// uplink transmissions and may fire into them — the situation the
/// multicast RTS/CTS of paper Fig. 7 mitigates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HiddenTerminals {
    /// Probability that a given STA pair is mutually hidden.
    pub fraction: f64,
}

/// Aggregation trigger (paper Section 7.2.2): the AP holds off until
/// the buffered bytes reach `max_bytes` or the oldest frame has waited
/// `max_latency_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationWait {
    /// Maximum waiting time of the oldest frame.
    pub max_latency_s: f64,
    /// Byte threshold that releases the aggregate early.
    pub max_bytes: usize,
}

/// Full simulation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Downlink MAC protocol under test.
    pub protocol: Protocol,
    /// Number of stations.
    pub num_stas: usize,
    /// Number of access points (the paper uses 2).
    pub num_aps: usize,
    /// Simulated seconds.
    pub duration_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Downlink workload per STA.
    pub downlink: DownlinkTraffic,
    /// Optional uplink background workload.
    pub uplink: Option<UplinkTraffic>,
    /// Aggregation limits (size, receivers, frames per receiver).
    pub limits: AggregationLimits,
    /// Optional aggregation trigger.
    pub aggregation_wait: Option<AggregationWait>,
    /// Optional delivery deadline for deadline-bounded goodput.
    pub deadline: Option<f64>,
    /// Drop downlink frames older than this at the AP (delay-sensitive
    /// traffic discards expired frames instead of queueing them forever,
    /// as in the paper's Fig. 17 experiments).
    pub drop_expired_s: Option<f64>,
    /// Whether VoIP calls are two-way (each STA also sends an uplink
    /// VoIP stream). Two-way calls create the uplink contention that
    /// starves the AP — the downlink/uplink asymmetry of Section 2.
    pub bidirectional_voip: bool,
    /// Per-STA link SNR in dB (index = STA id). When set, every
    /// station is served at the fastest MCS whose SNR threshold its link
    /// clears — "different subframes can adopt
    /// different MCSs" (paper Section 4.1). `None` serves everyone at
    /// QAM64-3/4.
    pub per_sta_snr_db: Option<Vec<f64>>,
    /// Downlink scheduling discipline.
    pub scheduler: SchedulerPolicy,
    /// Fraction of STAs that support Carpool (Section 4.3, AP
    /// association): the AP aggregates across Carpool-capable clients
    /// and falls back to single-frame transmissions for legacy ones.
    /// Station ids `< fraction * num_stas` are capable.
    pub carpool_fraction: f64,
    /// Precede every data exchange with RTS/CTS signalling — Carpool
    /// uses one multicast RTS carrying the A-HDR followed by sequential
    /// CTSs (paper Fig. 7).
    pub use_rts_cts: bool,
    /// Optional hidden-terminal topology among STAs.
    pub hidden_terminals: Option<HiddenTerminals>,
    /// Fixed extra cost per contention round, seconds. Calibrates the
    /// engine's (optimistic) concurrent-countdown DCF to the per-access
    /// contention cost of the paper's MATLAB simulator, where deferral
    /// and backoff slots do not overlap with other nodes' countdowns.
    pub extra_round_overhead_s: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            protocol: Protocol::Carpool,
            num_stas: 20,
            num_aps: 2,
            duration_s: 10.0,
            seed: 1,
            downlink: DownlinkTraffic::Voip,
            uplink: None,
            // Per-receiver MPDU budget bounded by the block-ACK window
            // actually serviceable per TXOP with short VoIP frames.
            limits: AggregationLimits {
                max_frames_per_receiver: 4,
                ..AggregationLimits::default()
            },
            aggregation_wait: None,
            deadline: None,
            drop_expired_s: None,
            bidirectional_voip: true,
            per_sta_snr_db: None,
            scheduler: SchedulerPolicy::Fifo,
            carpool_fraction: 1.0,
            use_rts_cts: false,
            hidden_terminals: None,
            extra_round_overhead_s: 80e-6,
        }
    }
}

/// The simulator.
pub struct Simulator {
    config: SimConfig,
    error_model: Box<dyn FrameErrorModel>,
    obs: Obs,
}

impl Simulator {
    /// Creates a simulator with the given config and error model.
    pub fn new(config: SimConfig, error_model: Box<dyn FrameErrorModel>) -> Simulator {
        Simulator {
            config,
            error_model,
            obs: Obs::noop(),
        }
    }

    /// Attaches an observability handle. During [`Simulator::run`] the
    /// simulator records simulation-clock-stamped flight records
    /// (arrivals as the MAC ingests them, aggregation decisions, airtime
    /// windows, TXOPs, collisions, deliveries, drops, retransmissions)
    /// and mirrors the per-direction [`crate::metrics::FlowMetrics`]
    /// into the recorder's `mac.downlink.*` / `mac.uplink.*` counters
    /// and delay histograms. Record timestamps never decrease.
    pub fn with_obs(mut self, obs: Obs) -> Simulator {
        self.obs = obs;
        self
    }

    /// Deterministically decides whether two STA node ids are mutually
    /// hidden under the configured topology.
    #[cfg(test)]
    fn is_hidden(&self, a: usize, b: usize) -> bool {
        let Some(h) = self.config.hidden_terminals else {
            return false;
        };
        crate::engine::hidden_pair(self.config.seed, h.fraction, a, b)
    }

    /// Runs the simulation to completion.
    ///
    /// This drives a single [`crate::engine`] domain from 0 to
    /// `duration_s` in one stride; the event loop lives there.
    pub fn run(&self) -> SimReport {
        assert!(self.config.num_aps >= 1, "need at least one AP");
        let _sim_span = self.obs.span(carpool_obs::names::MAC_SIM_LOOP);
        let mut domain = Domain::new(
            self.config.clone(),
            self.error_model.as_ref(),
            self.obs.clone(),
            0,
            0.0,
        );
        let duration = self.config.duration_s;
        while domain.step(duration) {}
        domain.finish()
    }
}

/// Runs one independent simulation replication per seed across the
/// `carpool-par` worker pool and returns the reports in seed order.
///
/// Each replication builds its own [`Simulator`] from `config` (with
/// [`SimConfig::seed`] replaced by that replication's seed) and a fresh
/// error model from `make_model`, so no mutable state is shared between
/// workers. Because every replication derives its randomness solely from
/// its seed, the returned reports are identical whatever the thread
/// count — `CARPOOL_THREADS=1` and `CARPOOL_THREADS=8` produce the same
/// bytes. A panic inside any replication surfaces as
/// [`carpool_par::ParError::WorkerPanic`] instead of tearing down the
/// caller.
///
/// Replications run without observability ([`Obs::noop`]); attach a
/// recorder per [`Simulator`] instead when tracing a single run.
pub fn run_replications<F>(
    config: &SimConfig,
    seeds: &[u64],
    make_model: F,
) -> Result<Vec<SimReport>, carpool_par::ParError>
where
    F: Fn() -> Box<dyn FrameErrorModel> + Sync,
{
    carpool_par::par_map_indexed(seeds, |_idx, &seed| {
        let cfg = SimConfig {
            seed,
            ..config.clone()
        };
        Simulator::new(cfg, make_model()).run()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::{BerBiasModel, PerfectChannel};

    fn base_config(protocol: Protocol, stas: usize) -> SimConfig {
        SimConfig {
            protocol,
            num_stas: stas,
            duration_s: 5.0,
            ..SimConfig::default()
        }
    }

    fn run(cfg: SimConfig) -> SimReport {
        Simulator::new(cfg, Box::new(BerBiasModel::calibrated())).run()
    }

    #[test]
    fn replications_match_serial_runs_in_seed_order() {
        let cfg = SimConfig {
            duration_s: 1.0,
            ..base_config(Protocol::Carpool, 6)
        };
        let seeds = [3u64, 7, 11];
        let parallel = run_replications(&cfg, &seeds, || {
            Box::new(BerBiasModel::calibrated()) as Box<dyn FrameErrorModel>
        })
        .expect("pool completes");
        let serial: Vec<SimReport> = seeds
            .iter()
            .map(|&seed| {
                let one = SimConfig {
                    seed,
                    ..cfg.clone()
                };
                Simulator::new(one, Box::new(BerBiasModel::calibrated())).run()
            })
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn light_load_delivers_everything() {
        let report = run(SimConfig {
            num_stas: 4,
            ..base_config(Protocol::Dot11, 4)
        });
        assert!(report.downlink.delivered_frames > 0);
        // Paper: "when the number of STAs is less than 10, delays of all
        // approaches are almost zero".
        assert!(
            report.downlink_delay_s() < 0.01,
            "{}",
            report.downlink_delay_s()
        );
    }

    #[test]
    fn carpool_beats_dot11_under_congestion() {
        let carpool = run(base_config(Protocol::Carpool, 30));
        let dot11 = run(base_config(Protocol::Dot11, 30));
        assert!(
            carpool.downlink_goodput_mbps() > dot11.downlink_goodput_mbps(),
            "carpool {} vs 802.11 {}",
            carpool.downlink_goodput_mbps(),
            dot11.downlink_goodput_mbps()
        );
    }

    #[test]
    fn carpool_beats_mu_aggregation_via_rte() {
        let mut carpool_cfg = base_config(Protocol::Carpool, 30);
        carpool_cfg.uplink = Some(UplinkTraffic::default());
        let mut mu_cfg = base_config(Protocol::MuAggregation, 30);
        mu_cfg.uplink = Some(UplinkTraffic::default());
        let carpool = run(carpool_cfg);
        let mu = run(mu_cfg);
        assert!(
            carpool.downlink.delivered_bytes >= mu.downlink.delivered_bytes,
            "carpool {} vs MU {}",
            carpool.downlink.delivered_bytes,
            mu.downlink.delivered_bytes
        );
    }

    #[test]
    fn aggregation_reduces_channel_acquisitions() {
        let carpool = run(base_config(Protocol::Carpool, 30));
        let dot11 = run(base_config(Protocol::Dot11, 30));
        assert!(carpool.channel.mean_aggregation() > dot11.channel.mean_aggregation());
        assert!((dot11.channel.mean_aggregation() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_channel_never_retransmits_without_collisions() {
        let cfg = SimConfig {
            num_stas: 1,
            num_aps: 1,
            ..base_config(Protocol::Dot11, 1)
        };
        let report = Simulator::new(cfg, Box::new(PerfectChannel)).run();
        // Channel-error retransmissions are impossible; collisions can
        // still happen between the AP and the STA's uplink VoIP.
        assert_eq!(report.downlink.retransmissions, 0);
        assert_eq!(report.uplink.retransmissions, 0);
    }

    #[test]
    fn collisions_occur_with_many_contenders() {
        let mut cfg = base_config(Protocol::Dot11, 30);
        cfg.uplink = Some(UplinkTraffic::default());
        let report = run(cfg);
        assert!(report.channel.collisions > 0);
    }

    #[test]
    fn deadline_bounds_goodput() {
        let mut cfg = base_config(Protocol::Dot11, 30);
        cfg.deadline = Some(0.01);
        let report = run(cfg);
        assert!(report.downlink.in_deadline_bytes <= report.downlink.delivered_bytes);
    }

    #[test]
    fn airtime_shares_sum_to_duration() {
        let report = run(base_config(Protocol::Carpool, 10));
        for (k, share) in report.sta_airtime.iter().enumerate() {
            assert!(
                (share.total() - report.duration_s).abs() < 1e-6,
                "sta {k}: {}",
                share.total()
            );
        }
    }

    #[test]
    fn carpool_receivers_idle_more_than_legacy() {
        let carpool = run(base_config(Protocol::Carpool, 20));
        let dot11 = run(base_config(Protocol::Dot11, 20));
        let carpool_idle: f64 = carpool.sta_airtime.iter().map(|s| s.idle_s).sum();
        let dot11_idle: f64 = dot11.sta_airtime.iter().map(|s| s.idle_s).sum();
        assert!(carpool_idle > dot11_idle);
    }

    #[test]
    fn reproducible_with_same_seed() {
        let a = run(base_config(Protocol::Carpool, 15));
        let b = run(base_config(Protocol::Carpool, 15));
        assert_eq!(a.downlink.delivered_bytes, b.downlink.delivered_bytes);
        assert_eq!(a.channel.collisions, b.channel.collisions);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(base_config(Protocol::Carpool, 15));
        let mut cfg = base_config(Protocol::Carpool, 15);
        cfg.seed = 2;
        let b = run(cfg);
        assert_ne!(a.downlink.delivered_bytes, b.downlink.delivered_bytes);
    }

    #[test]
    fn aggregation_wait_increases_batch_size() {
        let mut waiting = base_config(Protocol::Carpool, 20);
        waiting.aggregation_wait = Some(AggregationWait {
            max_latency_s: 0.05,
            max_bytes: 8000,
        });
        let eager = run(base_config(Protocol::Carpool, 20));
        let waited = run(waiting);
        assert!(
            waited.channel.mean_aggregation() >= eager.channel.mean_aggregation(),
            "waited {} vs eager {}",
            waited.channel.mean_aggregation(),
            eager.channel.mean_aggregation()
        );
    }

    #[test]
    fn hidden_terminals_cause_uplink_losses() {
        let mut cfg = base_config(Protocol::Dot11, 20);
        cfg.uplink = Some(UplinkTraffic::default());
        cfg.hidden_terminals = Some(HiddenTerminals { fraction: 0.5 });
        let with_hidden = run(cfg.clone());
        cfg.hidden_terminals = None;
        let without = run(cfg);
        assert!(with_hidden.channel.hidden_collisions > 0);
        assert!(
            with_hidden.uplink.delivered_bytes < without.uplink.delivered_bytes,
            "hidden {} vs clear {}",
            with_hidden.uplink.delivered_bytes,
            without.uplink.delivered_bytes
        );
    }

    #[test]
    fn rts_cts_mitigates_hidden_terminals() {
        let mut cfg = base_config(Protocol::Carpool, 20);
        cfg.uplink = Some(UplinkTraffic::default());
        cfg.hidden_terminals = Some(HiddenTerminals { fraction: 0.5 });
        let exposed = run(cfg.clone());
        cfg.use_rts_cts = true;
        let protected = run(cfg);
        assert!(
            protected.channel.hidden_collisions < exposed.channel.hidden_collisions,
            "protected {} vs exposed {}",
            protected.channel.hidden_collisions,
            exposed.channel.hidden_collisions
        );
    }

    #[test]
    fn rts_cts_costs_airtime_without_hidden_terminals() {
        let plain = run(base_config(Protocol::Carpool, 26));
        let mut cfg = base_config(Protocol::Carpool, 26);
        cfg.use_rts_cts = true;
        let with_rts = run(cfg);
        // Signalling overhead can only slow a clean, saturated cell.
        assert!(
            with_rts.downlink.delivered_bytes <= plain.downlink.delivered_bytes,
            "rts {} vs plain {}",
            with_rts.downlink.delivered_bytes,
            plain.downlink.delivered_bytes
        );
    }

    #[test]
    fn hidden_matrix_is_symmetric_and_seeded() {
        let cfg = SimConfig {
            hidden_terminals: Some(HiddenTerminals { fraction: 0.3 }),
            ..base_config(Protocol::Dot11, 10)
        };
        let sim = Simulator::new(cfg, Box::new(PerfectChannel));
        let mut hidden_pairs = 0;
        for a in 2..12 {
            for b in 2..12 {
                assert_eq!(sim.is_hidden(a, b), sim.is_hidden(b, a));
                if a < b && sim.is_hidden(a, b) {
                    hidden_pairs += 1;
                }
            }
        }
        // ~30% of 45 pairs, loosely.
        assert!(
            (4..=25).contains(&hidden_pairs),
            "{hidden_pairs} hidden pairs"
        );
        for a in 2..12 {
            assert!(!sim.is_hidden(a, a));
        }
    }

    #[test]
    fn rate_adaptation_serves_far_stations_slower() {
        // Half the stations are near (54 Mbit/s), half far (6 Mbit/s):
        // total goodput sits between the two uniform-rate extremes.
        let mut mixed = base_config(Protocol::Carpool, 20);
        mixed.per_sta_snr_db = Some(
            (0..20)
                .map(|k| if k % 2 == 0 { 30.0 } else { 6.0 })
                .collect(),
        );
        let mut all_fast = base_config(Protocol::Carpool, 20);
        all_fast.per_sta_snr_db = Some(vec![30.0; 20]);
        let mut all_slow = base_config(Protocol::Carpool, 20);
        all_slow.per_sta_snr_db = Some(vec![6.0; 20]);
        let fast = run(all_fast).downlink.delivered_bytes;
        let slow = run(all_slow).downlink.delivered_bytes;
        let mid = run(mixed).downlink.delivered_bytes;
        assert!(fast >= mid, "fast {fast} mid {mid}");
        assert!(mid >= slow, "mid {mid} slow {slow}");
        assert!(fast > slow, "rates must matter: fast {fast} slow {slow}");
    }

    #[test]
    fn per_sta_metrics_sum_to_aggregate() {
        let report = run(base_config(Protocol::Carpool, 12));
        let total: u64 = report
            .per_sta_downlink
            .iter()
            .map(|m| m.delivered_bytes)
            .sum();
        assert_eq!(total, report.downlink.delivered_bytes);
        let frames: u64 = report
            .per_sta_downlink
            .iter()
            .map(|m| m.delivered_frames)
            .sum();
        assert_eq!(frames, report.downlink.delivered_frames);
    }

    #[test]
    fn fairness_index_is_high_for_symmetric_load() {
        let report = run(base_config(Protocol::Carpool, 12));
        let f = report.downlink_fairness();
        assert!(f > 0.9, "fairness {f}");
    }

    #[test]
    fn time_fairness_narrows_service_spread() {
        // With one slow station, FIFO lets whoever queues first hog the
        // air; time fairness should not *increase* the spread of
        // per-station delivery and must still deliver traffic.
        let mut fifo_cfg = base_config(Protocol::Carpool, 16);
        fifo_cfg.uplink = Some(UplinkTraffic::default());
        let mut fair_cfg = fifo_cfg.clone();
        fair_cfg.scheduler = SchedulerPolicy::TimeFair;
        let fifo = run(fifo_cfg);
        let fair = run(fair_cfg);
        assert!(fair.downlink.delivered_frames > 0);
        // Both disciplines carry comparable totals.
        let ratio =
            fair.downlink.delivered_bytes as f64 / fifo.downlink.delivered_bytes.max(1) as f64;
        assert!((0.7..=1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mixed_population_still_serves_everyone() {
        let mut cfg = base_config(Protocol::Carpool, 20);
        cfg.carpool_fraction = 0.5;
        let report = run(cfg);
        // Legacy stations (ids >= 10) still receive traffic.
        let legacy_rx: f64 = report.sta_airtime[10..].iter().map(|s| s.rx_s).sum();
        assert!(legacy_rx > 0.0, "legacy stations starved");
        assert!(report.downlink.delivered_frames > 0);
    }

    #[test]
    fn goodput_grows_with_carpool_adoption() {
        let mut results = Vec::new();
        for fraction in [0.0, 0.5, 1.0] {
            let mut cfg = base_config(Protocol::Carpool, 30);
            cfg.carpool_fraction = fraction;
            results.push(run(cfg).downlink.delivered_bytes);
        }
        assert!(
            results[2] > results[0],
            "full adoption {} vs none {}",
            results[2],
            results[0]
        );
        assert!(results[1] >= results[0], "partial adoption should not hurt");
    }

    #[test]
    fn zero_adoption_equals_dot11_behaviour() {
        // With no capable stations, Carpool degenerates to single-frame
        // service — same goodput magnitude as 802.11.
        let mut cfg = base_config(Protocol::Carpool, 30);
        cfg.carpool_fraction = 0.0;
        let carpool0 = run(cfg);
        let dot11 = run(base_config(Protocol::Dot11, 30));
        let ratio =
            carpool0.downlink.delivered_bytes as f64 / dot11.downlink.delivered_bytes.max(1) as f64;
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn no_traffic_produces_empty_report() {
        let cfg = SimConfig {
            downlink: DownlinkTraffic::None,
            uplink: None,
            ..base_config(Protocol::Dot11, 5)
        };
        let report = run(cfg);
        assert_eq!(report.downlink.delivered_frames, 0);
        assert_eq!(report.channel.transmissions, 0);
    }
}
