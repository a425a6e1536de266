//! Sharded, allocation-free MAC event engine.
//!
//! `Domain` is one collision domain running the virtual-slot DCF
//! loop, steppable to an arbitrary time bound:
//!
//! * a domain's traffic is fully known before it starts:
//!   `generate_arrivals` samples it into one `Vec` sorted by time, and
//!   a cursor ingests it in that order;
//! * pending frames sit by value in their node's `VecDeque`; failed
//!   frames return to the head with their attempt count;
//! * every per-round temporary (eligible set, winners, TXOP plan,
//!   outcomes, requeued frames) is a scratch buffer reused across
//!   rounds, so the loop allocates only when a buffer reaches a new
//!   high-water mark;
//! * a TXOP plan reads the winner's queue in place and stops where the
//!   aggregation limits fill. 802.11 reads only the head; A-MPDU and
//!   Carpool stop early once the head destination's group (A-MPDU) or
//!   every receiver slot (Carpool) fills or the byte cap is hit, but
//!   read to the end of the queue while fewer destinations are queued
//!   than those limits need. Only time-fair ranking sorts the whole
//!   queue.
//!
//! On top of single-domain stepping, [`run_dense`] runs many
//! co-channel AP domains as one scenario: domains are partitioned into
//! shards, each shard steps its domains through fixed *epochs*, and at
//! every epoch barrier the shards exchange OBSS busy-time messages with
//! their ring neighbours through the deterministic
//! [`carpool_par::run_sharded`] primitive. All cross-shard state is
//! keyed by domain index and merged in domain order, so the report is
//! byte-identical at any thread count *and* any shard count.

use crate::error_model::{EstimationScheme, FrameErrorModel};
use crate::metrics::{AirtimeShare, ChannelStats, FlowCollector, FlowMetrics, SimReport};
use crate::sim::{
    DownlinkTraffic, SchedulerPolicy, SimConfig, DATA_MCS, RETRY_LIMIT, WIRE_OVERHEAD_BYTES,
};
use carpool_frame::aggregation::{select, Group};
use carpool_frame::airtime::{
    ahdr_airtime, garbled_airtime, rts_airtime, DataHeader, CW_MAX, CW_MIN, DIFS, SLOT_TIME,
};
use carpool_frame::nav::{Protection, Txop};
use carpool_obs::{Obs, TraceKind};
use carpool_phy::mcs::{Mcs, SYMBOL_DURATION};
use carpool_traffic::background::{BackgroundSource, Transport};
use carpool_traffic::voip::VoipSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::Deref;

/// Trace-payload widening for station indices, byte counts, and symbol
/// counts.
fn trace_u64(v: usize) -> u64 {
    v as u64
}

/// Time span of `symbols` OFDM symbols, for flight-recorder stamps.
fn symbol_span(symbols: usize) -> f64 {
    symbols as f64 * SYMBOL_DURATION
}

/// A traffic arrival: frame of `bytes` from `node` to `dest` at `time`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrivalEvent {
    pub(crate) time: f64,
    pub(crate) node: usize,
    pub(crate) dest: usize,
    pub(crate) bytes: usize,
}

/// A frame waiting in a node queue.
#[derive(Debug, Clone, Copy, Default)]
struct PendingFrame {
    /// Flight-recorder correlation id, assigned in arrival order at
    /// ingest — deterministic for a given seed, unique per frame (and
    /// across domains via the per-domain id base).
    id: u64,
    bytes: usize,
    enqueue: f64,
    attempts: u32,
    dest: usize,
}

#[derive(Debug)]
struct Node {
    queue: VecDeque<PendingFrame>,
    backoff: u32,
    cw: u32,
    is_ap: bool,
}

impl Node {
    fn new(is_ap: bool) -> Node {
        Node {
            queue: VecDeque::new(),
            backoff: 0,
            cw: CW_MIN,
            is_ap,
        }
    }

    fn draw_backoff(&mut self, rng: &mut StdRng) {
        self.backoff = rng.gen_range(0..=self.cw);
    }

    fn on_success(&mut self, rng: &mut StdRng) {
        self.cw = CW_MIN;
        if !self.queue.is_empty() {
            self.draw_backoff(rng);
        }
    }

    fn on_collision(&mut self, rng: &mut StdRng) {
        self.cw = (self.cw * 2 + 1).min(CW_MAX);
        self.draw_backoff(rng);
    }
}

/// Deterministically decides whether two STA node ids are mutually
/// hidden: splitmix-style hash of (pair, seed) -> uniform in [0, 1).
pub(crate) fn hidden_pair(seed: u64, fraction: f64, a: usize, b: usize) -> bool {
    if a == b {
        return false;
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let mut x = (lo as u64) << 32 | hi as u64;
    x ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x as f64 / u64::MAX as f64) < fraction
}

/// Samples one domain's traffic: every STA's downlink (and two-way
/// VoIP uplink) and background uplink sources, drawn in station order,
/// then stable-sorted by arrival time. The engine ingests the result
/// front to back, so it must be non-decreasing in `time`.
pub(crate) fn generate_arrivals(cfg: &SimConfig, rng: &mut StdRng) -> Vec<ArrivalEvent> {
    let mut arrivals = Vec::new();
    for sta in 0..cfg.num_stas {
        let node_id = cfg.num_aps + sta;
        let ap_id = sta % cfg.num_aps;
        match cfg.downlink {
            DownlinkTraffic::Voip => {
                // ON/OFF means calibrated so the per-STA offered load
                // matches the operating points of the paper's Fig. 15
                // (~0.9 x 96 kbit/s per STA): talkspurts dominate.
                let voip = VoipSource::with_means(5.0, 0.05);
                for a in voip.generate(cfg.duration_s, rng) {
                    arrivals.push(ArrivalEvent {
                        time: a.time,
                        node: ap_id,
                        dest: node_id,
                        bytes: a.bytes,
                    });
                }
                if cfg.bidirectional_voip {
                    for a in voip.generate(cfg.duration_s, rng) {
                        arrivals.push(ArrivalEvent {
                            time: a.time,
                            node: node_id,
                            dest: ap_id,
                            bytes: a.bytes,
                        });
                    }
                }
            }
            DownlinkTraffic::Cbr { interval_s, bytes } => {
                // Random phase to avoid synchronised arrivals.
                let mut t = rng.gen::<f64>() * interval_s;
                while t < cfg.duration_s {
                    arrivals.push(ArrivalEvent {
                        time: t,
                        node: ap_id,
                        dest: node_id,
                        bytes,
                    });
                    t += interval_s;
                }
            }
            DownlinkTraffic::None => {}
        }
        if let Some(up) = cfg.uplink {
            let transport = if (sta as f64 + 0.5) / cfg.num_stas as f64 <= up.tcp_fraction {
                Transport::Tcp
            } else {
                Transport::Udp
            };
            let source = BackgroundSource::new(transport).with_rate_scale(up.rate_scale);
            for a in source.generate(cfg.duration_s, rng) {
                arrivals.push(ArrivalEvent {
                    time: a.time,
                    node: node_id,
                    dest: ap_id,
                    bytes: a.bytes,
                });
            }
        }
    }
    arrivals.sort_by(|a, b| a.time.total_cmp(&b.time));
    arrivals
}

/// Whether station node id `sta_id` negotiated Carpool at association.
fn is_carpool_capable(cfg: &SimConfig, sta_id: usize) -> bool {
    let idx = sta_id.saturating_sub(cfg.num_aps);
    (idx as f64) < cfg.carpool_fraction * cfg.num_stas as f64
}

/// MCS used when transmitting to (or from) station node `sta_id`.
fn mcs_for(cfg: &SimConfig, sta_id: usize) -> Mcs {
    match &cfg.per_sta_snr_db {
        Some(snrs) => {
            let idx = sta_id.saturating_sub(cfg.num_aps);
            snrs.get(idx)
                .map(|&snr| crate::rate::mcs_for_snr(snr))
                .unwrap_or(DATA_MCS)
        }
        None => DATA_MCS,
    }
}

/// Whether a backlogged AP may contend now (aggregation-wait trigger).
fn ap_eligible(cfg: &SimConfig, node: &Node, now: f64) -> bool {
    let Some(head) = node.queue.front() else {
        return false;
    };
    match cfg.aggregation_wait {
        None => true,
        Some(w) => {
            // The queued bytes reach the cap: scanned only until they do.
            let mut bytes = 0;
            now - head.enqueue >= w.max_latency_s
                || node.queue.iter().any(|f| {
                    bytes += f.bytes;
                    bytes >= w.max_bytes
                })
        }
    }
}

/// How every TXOP of this configuration claims the medium: with RTS/CTS
/// (multicast for a multi-receiver protocol, Fig. 7) or basic access.
fn protection(cfg: &SimConfig) -> Protection {
    if cfg.use_rts_cts {
        Protection::RtsCts {
            multicast: cfg.protocol.multi_receiver(),
        }
    } else {
        Protection::Basic
    }
}

/// Reusable TXOP-planning buffers, refilled in place every round.
#[derive(Debug, Default)]
struct PlanBuf {
    /// Time-fair scheduling only: `(destination airtime, queue
    /// position)` of every candidate, in presentation order.
    order: Vec<(f64, usize)>,
    /// Per-receiver groups in subframe order, indexing `indices`.
    groups: Vec<Group<usize>>,
    /// Selected queue positions, group by group.
    indices: Vec<usize>,
    /// The planned TXOP's airtime.
    txop: Txop,
}

impl PlanBuf {
    fn clear(&mut self) {
        self.order.clear();
        self.groups.clear();
        self.indices.clear();
        self.txop = Txop::default();
    }
}

/// Plans the winner's TXOP into `plan`, reusing its buffers. The
/// selector reads the queue in place, so a FIFO plan touches only the
/// frames up to where the aggregation limits fill.
fn plan_into(cfg: &SimConfig, node: &Node, node_id: usize, occupancy: &[f64], plan: &mut PlanBuf) {
    plan.clear();
    // The contention loop never selects an empty queue, so an empty
    // plan is a graceful fallback rather than a reachable path.
    let Some(head) = node.queue.front() else {
        return;
    };
    // A STA sends its head frame alone to its AP. Mixed deployments
    // (Section 4.3): a multi-receiver AP serves a legacy head-of-line
    // client with a plain single-frame transmission, and never
    // aggregates legacy clients into a Carpool frame.
    let multi_user = cfg.protocol.multi_receiver();
    let header = if !node.is_ap || (multi_user && !is_carpool_capable(cfg, head.dest)) {
        plan.indices.push(0);
        plan.groups.push(Group {
            dest: head.dest,
            start: 0,
            len: 1,
        });
        DataHeader::Plain
    } else {
        select_into(cfg, node, occupancy, plan);
        cfg.protocol.data_header()
    };

    // Each MPDU is its own run of OFDM symbols at its link's MCS: the
    // destination's for the AP, the STA's own for an uplink frame, which
    // goes alone, without an A-MPDU delimiter.
    let mut payload_symbols = 0usize;
    for g in &plan.groups {
        let mcs = mcs_for(cfg, if node.is_ap { g.dest } else { node_id });
        for &k in &plan.indices[g.start..g.start + g.len] {
            let bytes = node.queue[k].bytes + WIRE_OVERHEAD_BYTES;
            let wire = if node.is_ap { bytes } else { bytes - 2 };
            payload_symbols += mcs.symbols_for_bits(wire * 8);
        }
    }
    let receivers = plan.groups.len().max(1);
    plan.txop = Txop::new(header, receivers, payload_symbols, protection(cfg));
}

/// Selects the AP's aggregate into `plan` under the protocol's policy,
/// in FIFO or time-fair order.
fn select_into(cfg: &SimConfig, node: &Node, occupancy: &[f64], plan: &mut PlanBuf) {
    // Only Carpool-capable destinations may ride this aggregate; legacy
    // frames wait for their own TXOPs.
    let skip_legacy = cfg.protocol.multi_receiver() && cfg.carpool_fraction < 1.0;
    let entry = |k: usize| {
        let f = &node.queue[k];
        (!skip_legacy || is_carpool_capable(cfg, f.dest)).then_some((k, f.dest, f.bytes))
    };
    let policy = cfg.protocol.aggregation_policy();
    let (groups, indices) = (&mut plan.groups, &mut plan.indices);
    if cfg.scheduler == SchedulerPolicy::TimeFair {
        // Under time fairness the AP presents its queue ordered by the
        // destinations' cumulative airtime, so underserved stations
        // aggregate (and transmit) first.
        let airtime = |dest: usize| {
            let sta = dest.saturating_sub(cfg.num_aps);
            occupancy.get(sta).copied().unwrap_or(0.0)
        };
        let order = &mut plan.order;
        order.extend(
            (0..node.queue.len()).filter_map(|k| entry(k).map(|(_, d, _)| (airtime(d), k))),
        );
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let ranked = order.iter().filter_map(|&(_, k)| entry(k));
        select(policy, &cfg.limits, ranked, groups, indices);
    } else {
        let fifo = (0..node.queue.len()).filter_map(entry);
        select(policy, &cfg.limits, fifo, groups, indices);
    }
}

/// Per-round scratch buffers, reused for the life of the domain.
#[derive(Debug, Default)]
struct RoundScratch {
    eligible: Vec<usize>,
    priority: Vec<usize>,
    winners: Vec<usize>,
    outcomes: Vec<(usize, bool)>,
    requeue: Vec<PendingFrame>,
    plan: PlanBuf,
}

/// One collision domain steppable to a time bound.
///
/// `step(limit)` performs one engine event — an arrival-driven idle
/// hop, a collision round, an aborted RTS exchange, or a data TXOP —
/// and returns `false` once the clock has reached `limit`. Stepping to
/// intermediate limits and then continuing is *trajectory-invariant*:
/// the sequence of RNG draws and flight records depends only on the
/// configuration, never on where the limits fell (arrival ingest is
/// idempotent and the idle hop clamps to the active limit).
pub(crate) struct Domain<M> {
    cfg: SimConfig,
    /// The error model: borrowed from a [`Simulator`], or owned by a
    /// dense-scenario domain.
    model: M,
    obs: Obs,
    rng: StdRng,
    nodes: Vec<Node>,
    /// The domain's traffic, sorted by time.
    arrivals: Vec<ArrivalEvent>,
    /// Index of the first arrival not yet ingested.
    next_arrival: usize,
    downlink: FlowCollector,
    uplink: FlowCollector,
    channel: ChannelStats,
    sta_airtime: Vec<AirtimeShare>,
    /// Time-occupancy table for the fairness scheduler (Section 8).
    occupancy: Vec<f64>,
    per_sta_downlink: Vec<FlowMetrics>,
    now: f64,
    next_frame_id: u64,
    /// Added to every frame id, so per-domain ids stay unique when
    /// dense-scenario traces merge into one recorder.
    id_base: u64,
    scheme: EstimationScheme,
    scratch: RoundScratch,
    /// Engine events processed: arrival ingests plus contention rounds
    /// plus idle hops (the unit of the `mac_dense` events/s benchmark).
    events: u64,
    /// OBSS coupling strength; 0 disables the extra per-subframe draw,
    /// so a decoupled domain draws exactly what a single-domain run
    /// draws.
    obss_coupling: f64,
    /// Fraction of the current epoch the neighbouring domains spent
    /// transmitting (input, set at each epoch boundary).
    obss_busy_frac: f64,
    /// Seconds this domain kept the channel busy in the current epoch
    /// (output, drained at each epoch boundary).
    epoch_busy_s: f64,
}

impl<M: Deref<Target = dyn FrameErrorModel>> Domain<M> {
    /// Builds a domain: seeds the RNG, samples the arrival table, and
    /// sets up one empty queue per node.
    pub(crate) fn new(
        cfg: SimConfig,
        model: M,
        obs: Obs,
        id_base: u64,
        obss_coupling: f64,
    ) -> Domain<M> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let arrivals = generate_arrivals(&cfg, &mut rng);
        let nodes: Vec<Node> = (0..cfg.num_aps + cfg.num_stas)
            .map(|k| Node::new(k < cfg.num_aps))
            .collect();
        let downlink = FlowCollector::downlink(obs.clone());
        let uplink = FlowCollector::uplink(obs.clone());
        let sta_airtime = vec![AirtimeShare::default(); cfg.num_stas];
        let occupancy = vec![0.0f64; cfg.num_stas];
        let per_sta_downlink = vec![FlowMetrics::default(); cfg.num_stas];
        let scheme = cfg.protocol.estimation();
        Domain {
            cfg,
            model,
            obs,
            rng,
            nodes,
            arrivals,
            next_arrival: 0,
            downlink,
            uplink,
            channel: ChannelStats::default(),
            sta_airtime,
            occupancy,
            per_sta_downlink,
            now: 0.0,
            next_frame_id: 0,
            id_base,
            scheme,
            scratch: RoundScratch::default(),
            events: 0,
            obss_coupling,
            obss_busy_frac: 0.0,
            epoch_busy_s: 0.0,
        }
    }

    /// Performs one engine event; returns `false` once `now >= limit`
    /// (after ingesting any arrivals due at `now`).
    pub(crate) fn step(&mut self, limit: f64) -> bool {
        // Ingest arrivals up to `now`.
        while let Some(&a) = self.arrivals.get(self.next_arrival) {
            if a.time > self.now {
                break;
            }
            self.next_arrival += 1;
            self.events += 1;
            let was_empty = self.nodes[a.node].queue.is_empty();
            self.next_frame_id += 1;
            let id = self.id_base + self.next_frame_id;
            self.nodes[a.node].queue.push_back(PendingFrame {
                id,
                bytes: a.bytes,
                enqueue: a.time,
                attempts: 0,
                dest: a.dest,
            });
            // Recorded at the ingestion clock (the moment the MAC sees
            // the frame), which keeps the stream monotone; the arrival's
            // own timestamp survives as queueing delay in the eventual
            // delivery/drop record.
            self.obs.trace_frame(
                TraceKind::MacEnqueue,
                id,
                self.now,
                trace_u64(a.dest),
                trace_u64(a.bytes),
                0,
            );
            if was_empty {
                self.nodes[a.node].draw_backoff(&mut self.rng);
            }
        }
        if self.now >= limit {
            return false;
        }

        // Expired delay-sensitive downlink frames are discarded.
        if let Some(expiry) = self.cfg.drop_expired_s {
            for k in 0..self.cfg.num_aps {
                while let Some(&f) = self.nodes[k].queue.front() {
                    if self.now - f.enqueue <= expiry {
                        break;
                    }
                    self.nodes[k].queue.pop_front();
                    self.downlink.record_drop(self.now - f.enqueue);
                    self.trace_drop(&f);
                }
            }
        }

        // Who is contending?
        self.scratch.eligible.clear();
        for k in 0..self.nodes.len() {
            let n = &self.nodes[k];
            let contending = if n.queue.is_empty() {
                false
            } else if n.is_ap {
                ap_eligible(&self.cfg, n, self.now)
            } else {
                true
            };
            if contending {
                self.scratch.eligible.push(k);
            }
        }

        // WiFox: a backlogged AP preempts STA contention with PIFS-like
        // priority in about half of the rounds (adaptive downlink
        // prioritisation).
        if self.cfg.protocol.has_downlink_priority() {
            {
                let RoundScratch {
                    eligible, priority, ..
                } = &mut self.scratch;
                priority.clear();
                for &k in eligible.iter() {
                    if self.nodes[k].is_ap && self.nodes[k].queue.len() >= 10 {
                        priority.push(k);
                    }
                }
            }
            if !self.scratch.priority.is_empty() && self.rng.gen_bool(0.35) {
                std::mem::swap(&mut self.scratch.eligible, &mut self.scratch.priority);
            }
        }

        if self.scratch.eligible.is_empty() {
            // Advance to the next event: arrival, AP release time, or
            // the step limit (epoch boundary), whichever comes first.
            let mut next = limit.min(self.cfg.duration_s);
            if let Some(a) = self.arrivals.get(self.next_arrival) {
                next = next.min(a.time);
            }
            if let Some(w) = self.cfg.aggregation_wait {
                for k in 0..self.cfg.num_aps {
                    if let Some(head) = self.nodes[k].queue.front() {
                        next = next.min(head.enqueue + w.max_latency_s);
                    }
                }
            }
            if next <= self.now {
                next = self.now + SLOT_TIME;
            }
            self.now = next;
            self.events += 1;
            return true;
        }

        // Joint countdown.
        let d = self
            .scratch
            .eligible
            .iter()
            .map(|&k| self.nodes[k].backoff)
            .min()
            .unwrap_or(0);
        self.now += DIFS + d as f64 * SLOT_TIME + self.cfg.extra_round_overhead_s;
        {
            let RoundScratch {
                eligible, winners, ..
            } = &mut self.scratch;
            winners.clear();
            for &k in eligible.iter() {
                self.nodes[k].backoff -= d;
                if self.nodes[k].backoff == 0 {
                    winners.push(k);
                }
            }
        }

        if self.scratch.winners.len() > 1 {
            self.collision_round();
            self.events += 1;
            return true;
        }

        // Single winner transmits.
        let winner = self.scratch.winners[0];
        self.transmission_round(winner);
        self.events += 1;
        true
    }

    /// Two or more simultaneous winners: channel busy for the longest
    /// attempt, retry accounting, exponential backoff.
    fn collision_round(&mut self) {
        self.channel.collisions += 1;
        // Collision: channel busy for the longest attempt. With RTS/CTS
        // the clash is detected after the short RTS.
        let busy = match protection(&self.cfg) {
            Protection::RtsCts { multicast } => rts_airtime(multicast),
            Protection::Basic => {
                let mut longest = 0.0f64;
                for i in 0..self.scratch.winners.len() {
                    let k = self.scratch.winners[i];
                    plan_into(
                        &self.cfg,
                        &self.nodes[k],
                        k,
                        &self.occupancy,
                        &mut self.scratch.plan,
                    );
                    longest = longest.max(self.scratch.plan.txop.data);
                }
                longest
            }
        };
        self.now += garbled_airtime(busy);
        self.epoch_busy_s += busy;
        // Recorded when the garbled burst clears, ahead of any retry-limit
        // drop it causes.
        self.obs.trace(
            TraceKind::MacCollision,
            self.now,
            trace_u64(self.scratch.winners.len()),
            0,
            0,
        );
        for i in 0..self.scratch.winners.len() {
            self.fail_head(self.scratch.winners[i]);
        }
        self.charge_airtime(busy, false);
    }

    /// Single winner: plan the TXOP, resolve hidden-terminal exposure,
    /// evaluate per-subframe outcomes, account airtime, deliver/requeue.
    fn transmission_round(&mut self, winner: usize) {
        plan_into(
            &self.cfg,
            &self.nodes[winner],
            winner,
            &self.occupancy,
            &mut self.scratch.plan,
        );
        let txop = self.scratch.plan.txop;

        // Hidden-terminal interference: an uplink transmission is
        // vulnerable to hidden peers that cannot sense it. With
        // RTS/CTS, the AP's CTS silences them after the short RTS — a
        // hidden hit then costs only the aborted signalling; without
        // it, the whole data PPDU is exposed and lost.
        let mut hidden_loss = false;
        if let Some(h) = self.cfg.hidden_terminals {
            if !self.nodes[winner].is_ap {
                let vulnerable = if self.cfg.use_rts_cts {
                    rts_airtime(false)
                } else {
                    txop.data
                };
                for j in self.cfg.num_aps..self.nodes.len() {
                    if j == winner
                        || self.nodes[j].queue.is_empty()
                        || !hidden_pair(self.cfg.seed, h.fraction, winner, j)
                    {
                        continue;
                    }
                    // The hidden peer keeps counting down into the
                    // exposed window and fires if it expires inside it.
                    let expiry = self.nodes[j].backoff as f64 * SLOT_TIME + DIFS;
                    if expiry < vulnerable {
                        hidden_loss = true;
                        self.fail_head(j);
                    }
                }
                if hidden_loss {
                    self.channel.hidden_collisions += 1;
                    self.obs.counter("mac.hidden_collisions", 1);
                }
            }
        }

        if hidden_loss && self.cfg.use_rts_cts {
            // The missing CTS aborts the exchange after the RTS: data
            // frames stay queued and are retried cheaply, up to the
            // retry limit.
            let busy = garbled_airtime(rts_airtime(true));
            self.now += busy;
            self.epoch_busy_s += busy;
            self.fail_head(winner);
            self.charge_airtime(busy, false);
            return;
        }

        let busy = txop.airtime;
        self.now += busy;
        self.epoch_busy_s += busy;
        self.channel.transmissions += 1;
        self.channel.aggregated_frames += self.scratch.plan.indices.len() as u64;
        self.channel.aggregated_receivers += self.scratch.plan.groups.len() as u64;
        self.obs.record("mac.txop_airtime", busy);

        // Evaluate per-frame success at its symbol position, and charge
        // each destination's time-occupancy account.
        let winner_is_ap = self.nodes[winner].is_ap;
        let mut start_sym = txop.header_symbols;
        self.scratch.outcomes.clear();
        for gi in 0..self.scratch.plan.groups.len() {
            let g = self.scratch.plan.groups[gi];
            // The station whose link decides this subframe's fate: the
            // destination for downlink, the sender for uplink.
            let link = if winner_is_ap { g.dest } else { winner };
            let mcs = mcs_for(&self.cfg, link);
            for fi in g.start..g.start + g.len {
                let k = self.scratch.plan.indices[fi];
                let frame = self.nodes[winner].queue[k];
                let wire_bits = (frame.bytes + WIRE_OVERHEAD_BYTES) * 8;
                let n_sym = mcs.symbols_for_bits(wire_bits);
                let p = self
                    .model
                    .subframe_success_prob(self.scheme, mcs, start_sym, n_sym);
                let mut ok = !hidden_loss && self.rng.gen::<f64>() < p;
                if self.obss_coupling > 0.0 {
                    // The draw happens whenever coupling is configured —
                    // even at zero busy fraction — so the RNG stream
                    // depends only on the (static) configuration, never
                    // on neighbour activity.
                    let p_obss = (self.obss_busy_frac * self.obss_coupling).min(1.0);
                    let obss_hit = self.rng.gen::<f64>() < p_obss;
                    ok = ok && !obss_hit;
                }
                self.scratch.outcomes.push((k, ok));
                if self.obs.enabled() {
                    // Membership in this TXOP's aggregate and the frame's
                    // symbol window on air (the data PPDU started at
                    // `now - busy`). Stamped where the frame's symbols
                    // start, so a TXOP's records stay monotone.
                    let t_tx = self.now - busy;
                    for (kind, t, b) in [
                        (TraceKind::AggDecision, start_sym, start_sym),
                        (TraceKind::AirtimeStart, start_sym, n_sym),
                        (TraceKind::AirtimeEnd, start_sym + n_sym, n_sym),
                    ] {
                        self.obs.trace_frame(
                            kind,
                            frame.id,
                            t_tx + symbol_span(t),
                            trace_u64(g.dest),
                            trace_u64(b),
                            0,
                        );
                    }
                }
                start_sym += n_sym;
                if winner_is_ap {
                    if let Some(slot) = self
                        .occupancy
                        .get_mut(g.dest.saturating_sub(self.cfg.num_aps))
                    {
                        *slot += n_sym as f64 * SYMBOL_DURATION;
                    }
                }
            }
        }

        self.obs.trace(
            TraceKind::MacTx,
            self.now,
            trace_u64(self.scratch.plan.groups.len()),
            busy.to_bits(),
            0,
        );

        self.charge_airtime(busy, true);

        // Deliver or requeue, removing selected entries in descending
        // index order to keep indices valid.
        self.scratch
            .outcomes
            .sort_by_key(|&(k, _)| std::cmp::Reverse(k));
        self.scratch.requeue.clear();
        for oi in 0..self.scratch.outcomes.len() {
            let (k, ok) = self.scratch.outcomes[oi];
            let Some(frame) = self.nodes[winner].queue.remove(k) else {
                continue;
            };
            if ok {
                let (delay, deadline) = (self.now - frame.enqueue, self.cfg.deadline);
                self.flow(winner_is_ap)
                    .record_delivery(frame.bytes, delay, deadline);
                self.obs.trace_frame(
                    TraceKind::MacAck,
                    frame.id,
                    self.now,
                    trace_u64(frame.dest),
                    trace_u64(frame.bytes),
                    delay.to_bits(),
                );
                if winner_is_ap {
                    let sta = frame.dest.saturating_sub(self.cfg.num_aps);
                    if let Some(per_sta) = self.per_sta_downlink.get_mut(sta) {
                        per_sta.record_delivery(frame.bytes, delay, deadline);
                    }
                }
            } else {
                self.flow(winner_is_ap).record_retransmission();
                self.obs.trace_frame(
                    TraceKind::MacRetx,
                    frame.id,
                    self.now,
                    trace_u64(frame.dest),
                    u64::from(frame.attempts + 1),
                    0,
                );
                if let Some(frame) = self.retry(winner_is_ap, frame) {
                    self.scratch.requeue.push(frame);
                }
            }
        }
        // Failed frames return to the head, oldest first.
        self.scratch
            .requeue
            .sort_by(|a, b| b.enqueue.total_cmp(&a.enqueue));
        for &frame in &self.scratch.requeue {
            self.nodes[winner].queue.push_front(frame);
        }
        self.nodes[winner].on_success(&mut self.rng);
        self.obs.gauge(
            "mac.winner_queue_depth",
            self.nodes[winner].queue.len() as f64,
        );
    }

    /// The flow a frame sent by an AP (`from_ap`) or by a STA belongs to.
    fn flow(&mut self, from_ap: bool) -> &mut FlowCollector {
        if from_ap {
            &mut self.downlink
        } else {
            &mut self.uplink
        }
    }

    /// The one retry rule: counts a failed attempt of `frame`, sent by an
    /// AP when `from_ap`, and hands the frame back for another try, or
    /// drops it once its attempts exceed [`RETRY_LIMIT`] (counted in its
    /// flow's metrics and recorded as `MacDrop`).
    fn retry(&mut self, from_ap: bool, mut frame: PendingFrame) -> Option<PendingFrame> {
        frame.attempts += 1;
        if frame.attempts <= RETRY_LIMIT {
            return Some(frame);
        }
        let queued_for = self.now - frame.enqueue;
        self.flow(from_ap).record_drop(queued_for);
        self.trace_drop(&frame);
        None
    }

    /// Node `k`'s exchange failed before any data got through (a
    /// collision, a hidden terminal's hit, an aborted RTS): its head
    /// frame takes a retry, and the node backs off over a doubled window.
    fn fail_head(&mut self, k: usize) {
        if let Some(frame) = self.nodes[k].queue.pop_front() {
            if let Some(frame) = self.retry(self.nodes[k].is_ap, frame) {
                self.nodes[k].queue.push_front(frame);
            }
        }
        self.nodes[k].on_collision(&mut self.rng);
    }

    /// The one STA airtime ledger: charges a round's `busy` seconds to
    /// every STA. In a garbled round (a collision, an aborted RTS) the
    /// winners sent it and the rest overheard it. In a `delivered` TXOP
    /// the sender sent the data PPDU and heard the ACKs, and the
    /// receivers received it, or with a multi-receiver protocol only the
    /// A-HDR and their own subframes, bystanders only the PLCP and the
    /// A-HDR, sleeping through the rest; anyone else overheard it.
    fn charge_airtime(&mut self, busy: f64, delivered: bool) {
        let RoundScratch { winners, plan, .. } = &self.scratch;
        let first_sta = self.cfg.num_aps;
        if !delivered {
            for (sta, air) in self.sta_airtime.iter_mut().enumerate() {
                if winners.contains(&(first_sta + sta)) {
                    air.tx_s += busy;
                } else {
                    air.overhear_s += busy;
                }
            }
            return;
        }
        let sender = winners[0];
        let downlink = self.nodes[sender].is_ap;
        let multi_user = self.cfg.protocol.multi_receiver();
        for (sta, air) in self.sta_airtime.iter_mut().enumerate() {
            let id = first_sta + sta;
            if id == sender {
                air.tx_s += plan.txop.data;
                air.rx_s += plan.txop.acks;
                continue;
            }
            let addressed = downlink && plan.groups.iter().any(|g| g.dest == id);
            if addressed {
                if multi_user {
                    // A-HDR plus (approximately) its own share.
                    let mcs = mcs_for(&self.cfg, id);
                    let own: f64 = plan
                        .groups
                        .iter()
                        .filter(|g| g.dest == id)
                        .map(|g| {
                            plan.indices[g.start..g.start + g.len]
                                .iter()
                                .map(|&k| {
                                    let bytes = self.nodes[sender].queue[k].bytes;
                                    mcs.airtime_for_bits((bytes + WIRE_OVERHEAD_BYTES) * 8)
                                })
                                .sum::<f64>()
                        })
                        .sum();
                    air.rx_s += ahdr_airtime() + own;
                    air.idle_s += (busy - ahdr_airtime() - own).max(0.0);
                } else {
                    air.rx_s += busy;
                }
            } else if multi_user && downlink {
                // Checks the A-HDR, then sleeps.
                air.overhear_s += plan.txop.bystander_awake;
                air.idle_s += plan.txop.bystander_asleep;
            } else {
                air.overhear_s += busy;
            }
        }
    }

    /// Records a frame the MAC gave up on (already off its queue).
    fn trace_drop(&self, f: &PendingFrame) {
        self.obs.trace_frame(
            TraceKind::MacDrop,
            f.id,
            self.now,
            trace_u64(f.dest),
            (self.now - f.enqueue).to_bits(),
            0,
        );
    }

    /// Finalizes the run: idle fill-up, observability flush, report.
    pub(crate) fn finish(self) -> SimReport {
        let mut sta_airtime = self.sta_airtime;
        for share in &mut sta_airtime {
            let accounted = share.tx_s + share.rx_s + share.overhear_s + share.idle_s;
            share.idle_s += (self.cfg.duration_s - accounted).max(0.0);
        }

        if self.obs.enabled() {
            // Airtime-share distributions across STAs, for fairness views.
            for share in &sta_airtime {
                self.obs.record("mac.sta_airtime_tx_s", share.tx_s);
                self.obs.record("mac.sta_airtime_rx_s", share.rx_s);
                self.obs
                    .record("mac.sta_airtime_overhear_s", share.overhear_s);
            }
            self.obs.gauge("mac.sim_duration_s", self.cfg.duration_s);
            self.obs.flush();
        }

        SimReport {
            duration_s: self.cfg.duration_s,
            downlink: self.downlink.into_metrics(),
            uplink: self.uplink.into_metrics(),
            channel: self.channel,
            sta_airtime,
            per_sta_downlink: self.per_sta_downlink,
        }
    }
}

/// OBSS busy-time message exchanged between neighbouring domains at
/// epoch barriers.
#[derive(Debug, Clone, Copy)]
struct ObssMsg {
    to_domain: usize,
    busy_s: f64,
}

/// Configuration of a dense multi-AP scenario: `domains` co-channel
/// cells, each an independent collision domain built from the `cell`
/// template (per-domain seeds are `cell.seed + domain index`).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseConfig {
    /// Template for one cell (its `num_aps`/`num_stas` are per cell).
    pub cell: SimConfig,
    /// Number of co-channel AP contention domains.
    pub domains: usize,
    /// Epoch length for the sharded barrier, seconds. Domains exchange
    /// OBSS busy time at every epoch boundary.
    pub epoch_s: f64,
    /// Strength of inter-domain interference: a subframe is lost with
    /// extra probability `min(1, neighbour_busy_fraction * coupling)`.
    /// Zero decouples the domains entirely.
    pub obss_coupling: f64,
    /// Shard count for the parallel engine; 0 means one shard per
    /// domain. The report is identical for every value.
    pub shards: usize,
}

impl Default for DenseConfig {
    fn default() -> Self {
        DenseConfig {
            cell: SimConfig {
                num_aps: 1,
                num_stas: 64,
                duration_s: 1.0,
                ..SimConfig::default()
            },
            domains: 16,
            epoch_s: 5e-3,
            obss_coupling: 0.25,
            shards: 0,
        }
    }
}

/// Aggregated result of a dense scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseReport {
    /// Per-domain reports, in domain order.
    pub per_domain: Vec<SimReport>,
    /// Downlink metrics merged across domains.
    pub downlink: FlowMetrics,
    /// Uplink metrics merged across domains.
    pub uplink: FlowMetrics,
    /// Channel counters merged across domains.
    pub channel: ChannelStats,
    /// Total engine events processed (arrivals + rounds + idle hops).
    pub events: u64,
    /// Simulated seconds.
    pub duration_s: f64,
}

impl DenseReport {
    /// Downlink goodput summed over all domains, Mbit/s.
    pub fn downlink_goodput_mbps(&self) -> f64 {
        self.downlink.goodput_bps(self.duration_s) / 1e6
    }
}

/// Balanced contiguous partition: domains `[lo, hi)` of shard `s`.
fn shard_bounds(domains: usize, shards: usize, s: usize) -> (usize, usize) {
    let base = domains / shards;
    let extra = domains % shards;
    let lo = s * base + s.min(extra);
    let hi = lo + base + usize::from(s < extra);
    (lo, hi)
}

/// The shard owning `domain` under [`shard_bounds`].
fn shard_of(domains: usize, shards: usize, domain: usize) -> usize {
    let base = domains / shards;
    let extra = domains % shards;
    let split = extra * (base + 1);
    if domain < split {
        domain / (base + 1)
    } else {
        // base == 0 only when shards > domains; every domain then falls
        // in the `split` range above, but saturate defensively.
        match (domain - split).checked_div(base) {
            Some(q) => extra + q,
            None => shards.saturating_sub(1),
        }
    }
}

/// One shard's state while stepping: its first domain index and the
/// domains it owns.
struct Shard {
    lo: usize,
    domains: Vec<Domain<Box<dyn FrameErrorModel>>>,
}

/// Runs a dense multi-AP scenario on the sharded engine.
///
/// `make_model(d)` builds the error model for domain `d`. Domains are
/// partitioned into shards ([`DenseConfig::shards`]); each shard steps
/// its domains epoch by epoch, exchanging OBSS busy-time messages with
/// ring neighbours at every barrier through
/// [`carpool_par::run_sharded`]. All cross-shard aggregation is keyed
/// by domain index, so the returned report is byte-identical for every
/// thread count and every shard count.
///
/// If `obs` keeps records, each domain records into a private
/// [`Obs::shard`] buffer; the buffers are absorbed into `obs` in domain
/// order after the run — same discipline as `CarpoolLink::deliver_all`'s
/// per-station merge. Domains keep no metrics. A worker panic surfaces
/// as [`carpool_par::ParError::WorkerPanic`].
pub fn run_dense<F>(
    cfg: &DenseConfig,
    make_model: F,
    obs: &Obs,
) -> Result<DenseReport, carpool_par::ParError>
where
    F: Fn(usize) -> Box<dyn FrameErrorModel> + Sync,
{
    assert!(cfg.domains >= 1, "need at least one domain");
    let num_shards = if cfg.shards == 0 {
        cfg.domains
    } else {
        cfg.shards.clamp(1, cfg.domains)
    };
    let duration = cfg.cell.duration_s;
    let epoch_s = if cfg.epoch_s > 0.0 {
        cfg.epoch_s
    } else {
        duration
    };
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "epoch count is a small positive integer"
    )]
    let epochs = ((duration / epoch_s).ceil() as usize).max(1);
    let tracing = obs.tracing();

    let shard_results = carpool_par::run_sharded(
        num_shards,
        epochs,
        |s| {
            let (lo, hi) = shard_bounds(cfg.domains, num_shards, s);
            let domains = (lo..hi)
                .map(|d| {
                    let cell = SimConfig {
                        seed: cfg.cell.seed.wrapping_add(d as u64),
                        ..cfg.cell.clone()
                    };
                    let dobs = if tracing {
                        Obs::noop().shard()
                    } else {
                        Obs::noop()
                    };
                    Domain::new(
                        cell,
                        make_model(d),
                        dobs,
                        (d as u64) << 40,
                        cfg.obss_coupling,
                    )
                })
                .collect();
            Shard { lo, domains }
        },
        |shard: &mut Shard, epoch, inbox: &[ObssMsg], outbox: &mut Vec<ObssMsg>| {
            let epoch_end = (((epoch + 1) as f64) * epoch_s).min(duration);
            for (i, domain) in shard.domains.iter_mut().enumerate() {
                let d = shard.lo + i;
                // Neighbour busy time for this epoch: messages arrive
                // ordered by source domain, so the (two-term) sum is
                // the same for every shard/thread layout.
                let busy_in: f64 = inbox
                    .iter()
                    .filter(|m| m.to_domain == d)
                    .map(|m| m.busy_s)
                    .sum();
                domain.obss_busy_frac = busy_in / epoch_s;
                while domain.step(epoch_end) {}
                let busy_out = std::mem::take(&mut domain.epoch_busy_s);
                if d > 0 {
                    outbox.push(ObssMsg {
                        to_domain: d - 1,
                        busy_s: busy_out,
                    });
                }
                if d + 1 < cfg.domains {
                    outbox.push(ObssMsg {
                        to_domain: d + 1,
                        busy_s: busy_out,
                    });
                }
            }
        },
        |m: &ObssMsg| shard_of(cfg.domains, num_shards, m.to_domain),
        |shard: Shard| {
            shard
                .domains
                .into_iter()
                .map(|domain| {
                    let events = domain.events;
                    let records = domain.obs.take_records();
                    (domain.finish(), events, records)
                })
                .collect::<Vec<_>>()
        },
    )?;

    let mut per_domain = Vec::with_capacity(cfg.domains);
    let mut downlink = FlowMetrics::default();
    let mut uplink = FlowMetrics::default();
    let mut channel = ChannelStats::default();
    let mut events = 0u64;
    for shard in shard_results {
        for (report, domain_events, records) in shard {
            downlink.merge(&report.downlink);
            uplink.merge(&report.uplink);
            channel.merge(&report.channel);
            events += domain_events;
            // Domain order: a deterministic transcript.
            obs.absorb(&records);
            per_domain.push(report);
        }
    }
    Ok(DenseReport {
        per_domain,
        downlink,
        uplink,
        channel,
        events,
        duration_s: duration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::BerBiasModel;
    use crate::protocol::Protocol;
    use carpool_frame::aggregation::{AggregationLimits, AggregationPolicy};

    fn dense_cfg(domains: usize, stas: usize, shards: usize) -> DenseConfig {
        DenseConfig {
            cell: SimConfig {
                num_aps: 1,
                num_stas: stas,
                duration_s: 0.2,
                ..SimConfig::default()
            },
            domains,
            epoch_s: 2e-3,
            obss_coupling: 0.25,
            shards,
        }
    }

    fn run(cfg: &DenseConfig) -> DenseReport {
        run_dense(cfg, |_| Box::new(BerBiasModel::calibrated()), &Obs::noop())
            .expect("dense run completes")
    }

    /// The event loop allocates only when a node queue or a scratch
    /// buffer reaches a new high-water mark. Past a warm-up second, each
    /// doubling stretch of simulated time then allocates a few dozen
    /// times at most while its event count doubles: allocations do not
    /// grow with the simulated duration, and an allocation per event (or
    /// per frame) would add thousands. A domain steps on the calling
    /// thread, so the per-thread count sees all of it; the process-wide
    /// pool setting, shared with the dense-engine tests here, is left
    /// alone.
    #[test]
    fn event_loop_allocations_do_not_grow_with_duration() {
        use crate::counting_alloc::allocations_during;
        use crate::sim::UplinkTraffic;
        const MAX_PER_WINDOW: usize = 32;
        for protocol in [Protocol::Carpool, Protocol::Ampdu, Protocol::Dot11] {
            let cfg = SimConfig {
                protocol,
                num_stas: 20,
                duration_s: 8.0,
                seed: 3,
                uplink: Some(UplinkTraffic::default()),
                ..SimConfig::default()
            };
            let model = BerBiasModel::default();
            let mut domain = Domain::new(cfg, &model as &dyn FrameErrorModel, Obs::noop(), 0, 0.0);
            while domain.step(1.0) {}
            let mut window_events = 0;
            for end in [2.0, 4.0, 8.0] {
                let before = domain.events;
                let (allocs, ()) = allocations_during(|| while domain.step(end) {});
                let events = domain.events - before;
                assert!(
                    events > window_events,
                    "{protocol:?}: events must grow with the window"
                );
                window_events = events * 3 / 2;
                assert!(
                    allocs <= MAX_PER_WINDOW,
                    "{protocol:?} up to {end} s: {allocs} allocations for {events} events"
                );
            }
        }
    }

    /// The ingest cursor reads arrivals front to back, so the arrival
    /// table must be sorted by time for every traffic mix: two-way VoIP,
    /// CBR, and the background uplink on top of either.
    #[test]
    fn generated_arrivals_are_non_decreasing_in_time() {
        use crate::sim::UplinkTraffic;
        let cbr = DownlinkTraffic::Cbr {
            interval_s: 0.013,
            bytes: 400,
        };
        for (downlink, uplink) in [
            (DownlinkTraffic::Voip, None),
            (cbr, None),
            (DownlinkTraffic::Voip, Some(UplinkTraffic::default())),
            (cbr, Some(UplinkTraffic::default())),
            (DownlinkTraffic::None, Some(UplinkTraffic::default())),
        ] {
            for seed in 1..=4 {
                let cfg = SimConfig {
                    num_stas: 12,
                    duration_s: 3.0,
                    seed,
                    downlink,
                    uplink,
                    ..SimConfig::default()
                };
                let arrivals = generate_arrivals(&cfg, &mut StdRng::seed_from_u64(seed));
                assert!(
                    arrivals.len() > 100,
                    "{downlink:?}/{uplink:?}: too little traffic"
                );
                assert!(
                    arrivals.windows(2).all(|w| w[0].time <= w[1].time),
                    "{downlink:?}/{uplink:?} seed {seed}: arrivals out of order"
                );
            }
        }
    }

    /// A slice-based reference selector over a copy of the AP queue:
    /// `(dest, bytes)` in presentation order in, per-receiver groups of
    /// view indices out.
    fn oracle_select(
        policy: AggregationPolicy,
        view: &[(usize, usize)],
        limits: &AggregationLimits,
    ) -> Vec<(usize, Vec<usize>)> {
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        let Some(&(head, _)) = view.first() else {
            return groups;
        };
        let mut bytes = 0;
        match policy {
            AggregationPolicy::None => groups.push((head, vec![0])),
            AggregationPolicy::Ampdu => {
                let mut indices = Vec::new();
                for (v, &(_, b)) in view.iter().enumerate().filter(|(_, f)| f.0 == head) {
                    if !indices.is_empty()
                        && (bytes + b > limits.max_bytes
                            || indices.len() >= limits.max_frames_per_receiver)
                    {
                        break;
                    }
                    bytes += b;
                    indices.push(v);
                }
                groups.push((head, indices));
            }
            AggregationPolicy::MultiUser => {
                let max_receivers = limits.max_receivers.min(carpool_bloom::MAX_RECEIVERS);
                for (v, &(dest, b)) in view.iter().enumerate() {
                    if v > 0 && bytes + b > limits.max_bytes {
                        break;
                    }
                    match groups.iter().position(|(d, _)| *d == dest) {
                        Some(g) if groups[g].1.len() >= limits.max_frames_per_receiver => continue,
                        Some(g) => groups[g].1.push(v),
                        None if groups.len() >= max_receivers => continue,
                        None => groups.push((dest, vec![v])),
                    }
                    bytes += b;
                }
            }
        }
        groups
    }

    /// The AP's TXOP selection made with the reference selector: legacy
    /// head, legacy filter and time-fair ranking applied to a copied
    /// view, view indices mapped back to queue positions.
    fn oracle_plan(
        cfg: &SimConfig,
        queue: &[(usize, usize)],
        occupancy: &[f64],
    ) -> Vec<(usize, Vec<usize>)> {
        let multi_user = cfg.protocol.multi_receiver();
        if multi_user && !is_carpool_capable(cfg, queue[0].0) {
            return vec![(queue[0].0, vec![0])];
        }
        let skip_legacy = multi_user && cfg.carpool_fraction < 1.0;
        let mut order: Vec<usize> = (0..queue.len())
            .filter(|&k| !skip_legacy || is_carpool_capable(cfg, queue[k].0))
            .collect();
        if cfg.scheduler == SchedulerPolicy::TimeFair {
            let occ = |k: usize| occupancy[queue[k].0 - cfg.num_aps];
            order.sort_by(|&a, &b| occ(a).total_cmp(&occ(b)).then(a.cmp(&b)));
        }
        let view: Vec<(usize, usize)> = order.iter().map(|&k| queue[k]).collect();
        oracle_select(cfg.protocol.aggregation_policy(), &view, &cfg.limits)
            .into_iter()
            .map(|(dest, vs)| (dest, vs.into_iter().map(|v| order[v]).collect()))
            .collect()
    }

    /// An AP queue of `(dest, bytes)` frames, planned under `cfg`.
    fn plan_ap(cfg: &SimConfig, frames: &[(usize, usize)]) -> PlanBuf {
        let mut node = Node::new(true);
        for &(dest, bytes) in frames {
            node.queue.push_back(PendingFrame {
                dest,
                bytes,
                ..PendingFrame::default()
            });
        }
        let mut plan = PlanBuf::default();
        plan_into(cfg, &node, 0, &vec![0.0; cfg.num_stas], &mut plan);
        plan
    }

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!((a - b).abs() < 1e-12, "{what}: {a} vs {b}");
    }

    /// The engine times every TXOP with the paper's NAV arithmetic. For
    /// each protocol, with and without RTS/CTS, an AP's aggregate lasts
    /// its data PPDU plus Eq. 1's reservation (`nav_data`). Its ACKs
    /// follow Eq. 2: ACK `i` starts a SIFS after receiver `i`'s deferral
    /// (`nav_receiver`) and advertises (`nav_ack`) exactly the rest of
    /// the exchange. Under RTS/CTS the exchange lasts the RTS plus the
    /// RTS's NAV (`nav_rts`, Fig. 7); the CTSs go back to back, each NAV
    /// (`nav_cts`) one SIFS + CTS below the one before, the last a SIFS
    /// ahead of Eq. 1. Without RTS/CTS, the TXOP is Eq. 1 bit for bit.
    #[test]
    fn txop_duration_follows_eq1_eq2_and_fig7() {
        use carpool_frame::airtime::{ack_airtime, sig_airtime, CONTROL_MCS, PLCP_OVERHEAD, SIFS};
        use carpool_frame::nav::{nav_ack, nav_cts, nav_data, nav_receiver, nav_rts};
        let frames = [(1, 300), (2, 1200), (1, 300), (3, 90), (4, 700)];
        for protocol in Protocol::ALL {
            for use_rts_cts in [false, true] {
                let cfg = SimConfig {
                    protocol,
                    num_aps: 1,
                    num_stas: 6,
                    use_rts_cts,
                    ..SimConfig::default()
                };
                let plan = plan_ap(&cfg, &frames);
                let txop = plan.txop;
                let n = plan.groups.len();
                let what = format!("{protocol}, RTS/CTS {use_rts_cts}");
                assert_eq!(n, if protocol.multi_receiver() { 4 } else { 1 }, "{what}");

                let header = match protocol {
                    Protocol::Carpool => ahdr_airtime() + n as f64 * sig_airtime(),
                    Protocol::MuAggregation => {
                        CONTROL_MCS.airtime_for_bits(n * 48) + n as f64 * sig_airtime()
                    }
                    _ => 0.0,
                };
                let payload: f64 = plan
                    .indices
                    .iter()
                    .map(|&k| DATA_MCS.airtime_for_bits((frames[k].1 + WIRE_OVERHEAD_BYTES) * 8))
                    .sum();
                assert_close(txop.data, PLCP_OVERHEAD + header + payload, &what);

                let exchange = nav_data(n, txop.data);
                for i in 1..=n {
                    let ack_end = txop.data + SIFS + nav_receiver(i) + ack_airtime();
                    assert_close(ack_end + nav_ack(i, n), exchange, &what);
                }
                if !use_rts_cts {
                    assert_eq!(txop.airtime, exchange, "{what}");
                    continue;
                }
                let rts = rts_airtime(protocol.multi_receiver());
                assert_close(txop.airtime, rts + nav_rts(n, txop.data), &what);
                let step = nav_rts(n, txop.data) - nav_cts(1, n, txop.data);
                for j in 1..n {
                    let next = nav_cts(j, n, txop.data) - nav_cts(j + 1, n, txop.data);
                    assert_close(next, step, &what);
                }
                assert_close(nav_cts(n, n, txop.data), SIFS + exchange, &what);
            }
        }
    }

    /// The MAC prices every MPDU as its own run of OFDM symbols with its
    /// own convolutional tail: an aggregate of `k` MPDUs to one receiver
    /// costs the sum of `k` separate roundings, not the symbols of one
    /// `k`-MPDU section. A real A-MPDU is one PSDU with one tail, so this
    /// is the suspect that ROADMAP item 7 checks against the closed form
    /// of SNIPPETS.md #3 (divergence #3); this test pins today's
    /// rounding, not the right one.
    #[test]
    fn aggregates_round_each_mpdu_separately() {
        use carpool_frame::airtime::PLCP_OVERHEAD;
        let cfg = SimConfig {
            protocol: Protocol::Ampdu,
            num_aps: 1,
            num_stas: 2,
            ..SimConfig::default()
        };
        let k = 4;
        let bytes = 100;
        let plan = plan_ap(&cfg, &vec![(1, bytes); k]);
        assert_eq!(plan.indices.len(), k);
        let mpdu_bits = (bytes + WIRE_OVERHEAD_BYTES) * 8;
        let separate = k * DATA_MCS.symbols_for_bits(mpdu_bits);
        let one_section = DATA_MCS.symbols_for_bits(k * mpdu_bits);
        assert!(separate > one_section, "{separate} vs {one_section}");
        let expect = PLCP_OVERHEAD + separate as f64 * SYMBOL_DURATION;
        assert_eq!(plan.txop.data, expect);
    }

    /// An aborted RTS is a failed attempt like any other: a STA whose
    /// RTS a hidden peer garbles every time loses its frame once the
    /// attempts exceed [`RETRY_LIMIT`], and the drop counts in the
    /// uplink.
    #[test]
    fn aborted_rts_exchanges_hit_the_retry_limit() {
        use crate::sim::HiddenTerminals;
        let cfg = SimConfig {
            num_aps: 1,
            num_stas: 2,
            downlink: DownlinkTraffic::None,
            uplink: None,
            use_rts_cts: true,
            hidden_terminals: Some(HiddenTerminals { fraction: 1.0 }),
            ..SimConfig::default()
        };
        let (sender, peer) = (1, 2);
        assert!(hidden_pair(cfg.seed, 1.0, sender, peer));
        let model = BerBiasModel::default();
        let mut domain = Domain::new(cfg, &model as &dyn FrameErrorModel, Obs::noop(), 0, 0.0);
        for node in [sender, peer] {
            domain.nodes[node].queue.push_back(PendingFrame {
                dest: 0,
                bytes: 200,
                ..PendingFrame::default()
            });
        }
        domain.scratch.winners.push(sender);
        for round in 1..=RETRY_LIMIT + 1 {
            // The peer's backoff runs out inside the RTS, every round,
            // and its own frame never reaches the limit.
            domain.nodes[peer].backoff = 0;
            domain.nodes[peer].queue[0].attempts = 0;
            domain.transmission_round(sender);
            let left = usize::from(round <= RETRY_LIMIT);
            assert_eq!(domain.nodes[sender].queue.len(), left, "round {round}");
        }
        let report = domain.finish();
        assert_eq!(report.channel.hidden_collisions, u64::from(RETRY_LIMIT + 1));
        assert_eq!(report.channel.transmissions, 0);
        assert_eq!(report.uplink.dropped_frames, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // `plan_into`, reading the queue in place, selects what the
        // oracle selected from its copy, for 802.11, A-MPDU and Carpool
        // under FIFO and time-fair ranking, with and without legacy
        // clients.
        #[test]
        fn in_place_selection_matches_the_oracle(
            entries in proptest::collection::vec((0usize..12, 40usize..1500), 1..80),
            airtime in proptest::collection::vec(0u8..4, 12),
            protocol in proptest::sample::select(vec![Protocol::Dot11, Protocol::Ampdu, Protocol::Carpool]),
            time_fair in proptest::prelude::any::<bool>(),
            carpool_fraction in proptest::sample::select(vec![1.0, 0.5]),
            max_bytes in proptest::sample::select(vec![900, 4000, 65_535]),
            max_frames_per_receiver in 1usize..6,
            max_receivers in 0usize..10,
        ) {
            let cfg = SimConfig {
                protocol,
                num_aps: 2,
                num_stas: 12,
                carpool_fraction,
                scheduler: if time_fair { SchedulerPolicy::TimeFair } else { SchedulerPolicy::Fifo },
                limits: AggregationLimits { max_bytes, max_receivers, max_frames_per_receiver },
                ..SimConfig::default()
            };
            let queue: Vec<(usize, usize)> = entries.iter().map(|&(s, b)| (s + 2, b)).collect();
            // Few distinct airtimes, so time-fair ties fall back to FIFO.
            let occupancy: Vec<f64> = airtime.iter().map(|&a| f64::from(a) * 1e-3).collect();
            let mut node = Node::new(true);
            for &(dest, bytes) in &queue {
                node.queue.push_back(PendingFrame { dest, bytes, ..PendingFrame::default() });
            }
            let mut plan = PlanBuf::default();
            plan_into(&cfg, &node, 0, &occupancy, &mut plan);
            let planned: Vec<(usize, Vec<usize>)> = plan
                .groups
                .iter()
                .map(|g| (g.dest, plan.indices[g.start..g.start + g.len].to_vec()))
                .collect();
            proptest::prop_assert_eq!(planned, oracle_plan(&cfg, &queue, &occupancy));
        }
    }

    #[test]
    fn shard_bounds_partition_all_domains() {
        for domains in [1, 5, 16, 17] {
            for shards in 1..=domains {
                let mut covered = 0;
                for s in 0..shards {
                    let (lo, hi) = shard_bounds(domains, shards, s);
                    assert_eq!(lo, covered, "gap at shard {s}");
                    covered = hi;
                    for d in lo..hi {
                        assert_eq!(shard_of(domains, shards, d), s);
                    }
                }
                assert_eq!(covered, domains);
            }
        }
    }

    #[test]
    fn dense_report_is_shard_count_invariant() {
        let one = run(&dense_cfg(4, 6, 1));
        let two = run(&dense_cfg(4, 6, 2));
        let four = run(&dense_cfg(4, 6, 4));
        assert_eq!(one, two);
        assert_eq!(one, four);
    }

    #[test]
    fn dense_domains_deliver_traffic() {
        let report = run(&dense_cfg(3, 8, 0));
        assert_eq!(report.per_domain.len(), 3);
        assert!(report.downlink.delivered_frames > 0);
        assert!(report.events > 0);
        for d in &report.per_domain {
            assert!(d.downlink.delivered_frames > 0);
        }
    }

    #[test]
    fn obss_coupling_costs_throughput() {
        let mut decoupled_cfg = dense_cfg(4, 10, 0);
        decoupled_cfg.obss_coupling = 0.0;
        let mut coupled_cfg = dense_cfg(4, 10, 0);
        coupled_cfg.obss_coupling = 8.0;
        let decoupled = run(&decoupled_cfg);
        let coupled = run(&coupled_cfg);
        assert!(
            coupled.downlink.delivered_bytes < decoupled.downlink.delivered_bytes,
            "coupled {} vs decoupled {}",
            coupled.downlink.delivered_bytes,
            decoupled.downlink.delivered_bytes
        );
    }

    #[test]
    fn decoupled_domain_matches_standalone_simulator() {
        // With zero coupling, each dense domain must reproduce the
        // single-domain simulator byte for byte: it draws the same RNG
        // stream.
        let mut cfg = dense_cfg(3, 6, 0);
        cfg.obss_coupling = 0.0;
        let dense = run(&cfg);
        for d in 0..cfg.domains {
            let cell = SimConfig {
                seed: cfg.cell.seed.wrapping_add(d as u64),
                ..cfg.cell.clone()
            };
            let standalone =
                crate::sim::Simulator::new(cell, Box::new(BerBiasModel::calibrated())).run();
            assert_eq!(dense.per_domain[d], standalone, "domain {d}");
        }
    }
}
