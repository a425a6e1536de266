//! `mac_cells`: `run_dense` on the Fig. 16 cell for all five protocols.
//!
//! The busy cell (30 STAs, two-way VoIP plus SIGCOMM'08 uplink) runs in
//! several co-channel domains with OBSS coupling on the sharded engine.
//! No PHY work happens here: the calibrated error model stands in for it.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use carpool::busy_cell;
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::SimConfig;
use carpool_mac::{run_dense, BerBiasModel, DenseConfig, DenseReport};
use carpool_obs::Obs;
use carpool_traffic::{BackgroundSource, Transport, VoipSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{median, repeated_setup, Calls, Digest, Tally};
use crate::{put_layer, EndToEnd, Layers, PROTOCOL_KEYS, SETUP_REPEATS};

/// Shards of the dense engine.
pub const SHARDS: usize = 2;
const STAS: usize = 30;
const DOMAINS: usize = 4;
/// Simulated seconds per cell.
const DURATION_S: f64 = 2.0;
const EPOCH_S: f64 = 5e-3;
const OBSS_COUPLING: f64 = 0.25;
/// Simulated seconds of the warm-up cells.
const WARMUP_S: f64 = 1.0;
/// Repeats of each bare layer probe in the traced slice.
const PROBE_REPEATS: usize = 5;

fn config(protocol: Protocol, seed: u64, shards: usize, duration_s: f64) -> DenseConfig {
    DenseConfig {
        cell: SimConfig {
            duration_s,
            ..busy_cell(protocol, STAS, seed)
        },
        domains: DOMAINS,
        epoch_s: EPOCH_S,
        obss_coupling: OBSS_COUPLING,
        shards,
    }
}

fn dense(cfg: &DenseConfig) -> Result<DenseReport, carpool_par::ParError> {
    run_dense(cfg, |_| Box::new(BerBiasModel::calibrated()), &Obs::noop())
}

/// Cell seed of pass `pass`; domains add their index, so passes are
/// spaced well apart.
fn pass_seed(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add(pass as u64 * 7919)
}

/// One pass: every protocol once, each call timed. Returns the reports
/// in `Protocol::ALL` order (only when every call succeeded) and the
/// per-call host seconds.
fn pass(seed: u64, tally: &mut Tally) -> (Option<Vec<DenseReport>>, Vec<f64>) {
    let mut reports = Vec::with_capacity(Protocol::ALL.len());
    let mut secs = Vec::with_capacity(Protocol::ALL.len());
    for p in Protocol::ALL {
        let t = Instant::now();
        let r = dense(&config(p, seed, SHARDS, DURATION_S));
        secs.push(t.elapsed().as_secs_f64());
        match r {
            Ok(r) => {
                tally.check(true, String::new);
                reports.push(r);
            }
            Err(e) => tally.check(false, || format!("run_dense {p:?}: {e}")),
        }
    }
    let complete = reports.len() == Protocol::ALL.len();
    if complete {
        // Fig. 16 ordering: Carpool carries at least A-MPDU's goodput.
        let goodput = |p: Protocol| reports[index(p)].downlink_goodput_mbps();
        tally.check(
            goodput(Protocol::Carpool) >= goodput(Protocol::Ampdu),
            || format!("seed {seed}: Carpool goodput below A-MPDU"),
        );
    }
    (complete.then_some(reports), secs)
}

fn index(p: Protocol) -> usize {
    Protocol::ALL
        .iter()
        .position(|&q| q == p)
        .expect("protocol listed in ALL")
}

/// The untraced run: passes over the five protocols until `seconds` have
/// passed.
pub fn run(seed: u64, seconds: Duration) -> EndToEnd {
    let ((), setup_s) = repeated_setup(SETUP_REPEATS, || {
        for p in Protocol::ALL {
            black_box(dense(&config(p, seed ^ 0x3a3a, SHARDS, WARMUP_S))).ok();
        }
    });

    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let mut first = None;
    let mut calls = Calls::default();
    let sim_s = (Protocol::ALL.len() * DOMAINS) as f64 * DURATION_S;
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < seconds {
        let (reports, secs) = pass(pass_seed(seed, n), &mut tally);
        let done = reports.as_deref().unwrap_or_default();
        let frames: u64 = done
            .iter()
            .map(|r| r.downlink.delivered_frames + r.uplink.delivered_frames)
            .sum();
        let bytes: u64 = done
            .iter()
            .map(|r| r.downlink.delivered_bytes + r.uplink.delivered_bytes)
            .sum();
        calls.secs.extend(secs);
        calls.frames += frames as f64;
        calls.bits += bytes as f64 * 8.0;
        calls.sim_s += sim_s;
        if n == 0 {
            for r in done {
                let _ = write!(digest, "{r:?}");
            }
            first = reports;
        }
        n += 1;
    }

    let mut delivery_ratio = f64::NAN;
    if let Some(first) = &first {
        // The report must not depend on the shard count.
        for (p, sharded) in Protocol::ALL.into_iter().zip(first) {
            let single = dense(&config(p, pass_seed(seed, 0), 1, DURATION_S));
            tally.check(single.as_ref().is_ok_and(|r| r == sharded), || {
                format!("run_dense {p:?} differs between 1 and {SHARDS} shards")
            });
        }
        let delivered: u64 = first.iter().map(|r| r.downlink.delivered_frames).sum();
        let dropped: u64 = first.iter().map(|r| r.downlink.dropped_frames).sum();
        delivery_ratio = delivered as f64 / (delivered + dropped).max(1) as f64;
    }
    EndToEnd {
        setup_s,
        calls,
        delivery_ratio,
        tally,
        digest: digest.value(),
        units: "mac_cells: a frame is one simulated MAC frame delivered, an operation one run_dense call",
    }
}

/// Samples the traffic sources the engine draws for one cell template,
/// in the engine's order, for every domain. Returns the arrival count.
fn generate_traffic(cell: &SimConfig) -> usize {
    let mut arrivals = 0;
    let up = cell.uplink.unwrap_or_default();
    for d in 0..DOMAINS {
        let mut rng = StdRng::seed_from_u64(cell.seed.wrapping_add(d as u64));
        let voip = VoipSource::with_means(5.0, 0.05);
        for sta in 0..cell.num_stas {
            arrivals += voip.generate(cell.duration_s, &mut rng).len();
            if cell.bidirectional_voip {
                arrivals += voip.generate(cell.duration_s, &mut rng).len();
            }
            let transport = if (sta as f64 + 0.5) / cell.num_stas as f64 <= up.tcp_fraction {
                Transport::Tcp
            } else {
                Transport::Udp
            };
            let source = BackgroundSource::new(transport).with_rate_scale(up.rate_scale);
            arrivals += source.generate(cell.duration_s, &mut rng).len();
        }
    }
    arrivals
}

/// Median host seconds of `f` over [`PROBE_REPEATS`] calls.
fn probe(mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// The traced slice: alternates a plain pass (one timer around the five
/// calls) with a traced pass (one span per protocol), then probes the
/// traffic sources and the bare sharded harness on their own.
pub fn traced(seed: u64, seconds: Duration, primary: bool, layers: &mut Layers) -> Tally {
    let mut tally = Tally::default();
    let mut secs_by_protocol = [0.0; 5];
    let mut events_by_protocol = [0u64; 5];
    let mut first = None;
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed() < seconds {
        let s = pass_seed(seed, n);
        let t = Instant::now();
        for p in Protocol::ALL {
            black_box(dense(&config(p, s, SHARDS, DURATION_S))).ok();
        }
        plain_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (reports, secs) = pass(s, &mut tally);
        traced_s += t.elapsed().as_secs_f64();
        if let Some(reports) = reports {
            for (i, (r, s)) in reports.iter().zip(secs).enumerate() {
                secs_by_protocol[i] += s;
                events_by_protocol[i] += r.events;
            }
            first.get_or_insert(reports);
        }
        n += 1;
    }

    let cell = config(Protocol::Carpool, pass_seed(seed, 0), SHARDS, DURATION_S).cell;
    let mut arrivals = 0;
    let generate_s = probe(|| arrivals = black_box(generate_traffic(&cell)));
    tally.check(arrivals > 0, || {
        "traffic sources generated no arrivals".into()
    });
    let epochs = (DURATION_S / EPOCH_S).ceil() as usize;
    let sharded_s = probe(|| {
        black_box(carpool_par::run_sharded(
            SHARDS,
            epochs,
            |_| (),
            |_: &mut (), _, _: &[()], _: &mut Vec<()>| {},
            |_: &()| 0,
            |_| (),
        ))
        .ok();
    });

    let total_secs: f64 = secs_by_protocol.iter().sum();
    let total_events: u64 = events_by_protocol.iter().sum();
    if let Some(first) = &first {
        layers.insert(
            "mac.events".into(),
            first.iter().map(|r| r.events).sum::<u64>() as f64,
        );
        for (i, (key, r)) in PROTOCOL_KEYS.iter().zip(first).enumerate() {
            let ns = secs_by_protocol[i] / events_by_protocol[i].max(1) as f64 * 1e9;
            layers.insert(format!("mac.{key}.ns_per_event"), ns);
            layers.insert(
                format!("mac.{key}.collision_ratio"),
                r.channel.collision_ratio(),
            );
            layers.insert(
                format!("mac.{key}.mean_aggregation"),
                r.channel.mean_aggregation(),
            );
            let dropped = r.downlink.dropped_frames + r.uplink.dropped_frames;
            layers.insert(format!("mac.{key}.dropped_frames"), dropped as f64);
        }
    }
    layers.insert("mac.events_per_s".into(), total_events as f64 / total_secs);
    layers.insert("traffic.generate_ms".into(), generate_s * 1e3);
    layers.insert("par.run_sharded_us".into(), sharded_s * 1e6);
    put_layer(
        layers,
        "trace.overhead_frac",
        traced_s / plain_s - 1.0,
        primary,
    );
    println!(
        "mac_cells traced slice: {n} passes of {} protocols per path",
        Protocol::ALL.len()
    );
    tally
}
