//! `link_mixed`: `CarpoolLink::deliver_all` over mixed Carpool aggregates.
//!
//! Every aggregate is modulated fresh, sent through office fading and
//! parsed by each addressed station plus two outsiders, so TX, channel,
//! the A-HDR check, the frame walk and RX all carry load.

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use carpool::bloom::DEFAULT_HASHES;
use carpool::link::{CarpoolLink, CarpoolLinkBuilder};
use carpool_channel::link::LinkChannel;
use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{
    receive_carpool_obs_with_scratch, CarpoolFrame, CarpoolReception, Subframe,
};
use carpool_frame::FrameError;
use carpool_obs::{FlightRecorder, MemoryRecorder, Obs};
use carpool_phy::mcs::Mcs;
use carpool_phy::ofdm::SYMBOL_LEN;
use carpool_phy::preamble::PREAMBLE_LEN;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{Estimation, PhyScratch};
use carpool_phy::tx::{transmit, SideChannelConfig};
use carpool_traffic::FrameSizeDistribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, repeated_setup, Calls, Digest, Tally};
use crate::{put_layer, EndToEnd, Layers, SETUP_REPEATS};

/// Office link of the long-frame experiments: 4 ms coherence, Rician
/// K = 15, 100 Hz residual CFO, ~30 dB.
const SNR_DB: f64 = 30.0;
const COHERENCE_S: f64 = 4e-3;
const RICIAN_K: f64 = 15.0;
const CFO_HZ: f64 = 100.0;
/// Station-side estimation and A-HDR hash count (the link defaults).
const ESTIMATION: Estimation = Estimation::Rte(CalibrationRule::Average);
const HASHES: usize = DEFAULT_HASHES;

/// Subframe MCS mix.
const MCS_MIX: [Mcs; 3] = [Mcs::QPSK_1_2, Mcs::QAM16_1_2, Mcs::QAM64_3_4];
/// Aggregates per stratified block: every subframe count 1..=8 eight times.
const BLOCK: usize = 64;
/// Blocks in the input pool; one pass over the pool is 1024 aggregates.
const BLOCKS: usize = 16;
/// Stations of the cell that subframes are addressed to.
const CELL_STATIONS: u16 = 30;
/// Warm-up deliveries per setup.
const WARMUP: usize = 16;
/// Baseband sample rate of the 20 MHz PHY.
const SAMPLE_RATE_HZ: f64 = 20e6;

/// One input: an aggregate and the stations that parse it (the
/// addressed ones in subframe order, then two outsiders).
struct Aggregate {
    frame: CarpoolFrame,
    stations: Vec<MacAddress>,
    /// Baseband samples of the modulated aggregate.
    samples: usize,
}

impl Aggregate {
    fn addressed(&self) -> usize {
        self.frame.subframes().len()
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The input pool for `seed`. Each block holds every subframe count
/// equally often, the MCS mix in equal thirds and subframe sizes drawn
/// from stratified quantiles of the SIGCOMM size CDF, so every block
/// carries near-equal work whatever the seed.
fn generate(seed: u64) -> Vec<Aggregate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes = FrameSizeDistribution::sigcomm();
    let mut pool = Vec::with_capacity(BLOCK * BLOCKS);
    for _ in 0..BLOCKS {
        let mut counts: Vec<usize> = (0..BLOCK).map(|i| i % 8 + 1).collect();
        shuffle(&mut counts, &mut rng);
        let total: usize = counts.iter().sum();
        let mut strata: Vec<usize> = (0..total).collect();
        shuffle(&mut strata, &mut rng);
        let mut mcs: Vec<Mcs> = (0..total).map(|j| MCS_MIX[j % MCS_MIX.len()]).collect();
        shuffle(&mut mcs, &mut rng);
        let mut next = 0;
        for n in counts {
            let mut roster: Vec<u16> = (1..=CELL_STATIONS).collect();
            shuffle(&mut roster, &mut rng);
            let mut subframes = Vec::with_capacity(n);
            for &sta in &roster[..n] {
                let q = (strata[next] as f64 + rng.gen::<f64>()) / total as f64;
                let len = sizes.quantile(q).round().max(1.0) as usize;
                let payload = (0..len).map(|_| rng.gen::<u8>()).collect();
                subframes.push(Subframe::new(MacAddress::station(sta), mcs[next], payload));
                next += 1;
            }
            let frame = CarpoolFrame::new(subframes).expect("1..=8 non-empty subframes");
            let mut stations: Vec<MacAddress> =
                frame.subframes().iter().map(|s| s.receiver).collect();
            let outsider = rng.gen_range(1000u16..60_000);
            stations.extend([
                MacAddress::station(outsider),
                MacAddress::station(outsider + 1),
            ]);
            let symbols: usize = frame.to_specs().iter().map(|s| s.symbol_count()).sum();
            let samples = PREAMBLE_LEN + symbols * SYMBOL_LEN;
            pool.push(Aggregate {
                frame,
                stations,
                samples,
            });
        }
    }
    pool
}

fn builder(seed: u64) -> CarpoolLinkBuilder {
    let mut b = CarpoolLink::builder();
    b.snr_db(SNR_DB)
        .coherence_time(COHERENCE_S)
        .rician_k(RICIAN_K)
        .cfo_hz(CFO_HZ)
        .seed(seed)
        .estimation(ESTIMATION)
        .hashes(HASHES)
        .side_channel(Some(SideChannelConfig::default()));
    b
}

/// The channel a `builder(seed)` link owns, for the decomposed delivery.
fn channel(seed: u64) -> LinkChannel {
    LinkChannel::builder()
        .snr_db(SNR_DB)
        .coherence_time(COHERENCE_S)
        .rician_k(RICIAN_K)
        .cfo_hz(CFO_HZ)
        .seed(seed)
        .build()
}

/// Simulated outcome counts of a set of deliveries.
#[derive(Debug, Default, Clone, Copy)]
struct Score {
    deliveries: u64,
    addressed: u64,
    intact: u64,
    intact_bits: u64,
    outsiders: u64,
    outsider_matches: u64,
    symbols_decoded: u64,
    symbols_skipped: u64,
}

/// Scores one delivery and checks it: every addressed station's A-HDR
/// match includes its subframe (no false negatives), and a station gets
/// a payload only where the A-HDR matched it, so an outsider sees one
/// only through a counted Bloom false positive.
fn score(agg: &Aggregate, rx: &[CarpoolReception], s: &mut Score) -> Result<(), String> {
    let mut problem = None;
    s.deliveries += 1;
    for (k, (r, sta)) in rx.iter().zip(&agg.stations).enumerate() {
        s.symbols_decoded += r.symbols_decoded as u64;
        s.symbols_skipped += r.symbols_skipped as u64;
        if let Some(sf) = r
            .subframes
            .iter()
            .find(|sf| sf.payload.is_some() && !r.matched_indices.contains(&sf.index))
        {
            problem = Some(format!(
                "{sta:?} got subframe {} without an A-HDR match",
                sf.index
            ));
        }
        if k < agg.addressed() {
            s.addressed += 1;
            if !r.matched_indices.contains(&k) {
                problem = Some(format!("A-HDR false negative for {sta:?} at subframe {k}"));
            }
            let payload = &agg.frame.subframes()[k].payload;
            if r.payload_at(k) == Some(&payload[..]) {
                s.intact += 1;
                s.intact_bits += 8 * payload.len() as u64;
            }
        } else {
            s.outsiders += 1;
            s.outsider_matches += u64::from(!r.matched_indices.is_empty());
        }
    }
    problem.map_or(Ok(()), Err)
}

/// Mixes every simulated outcome of one delivery into `digest`.
fn digest_delivery(digest: &mut Digest, rx: &[CarpoolReception]) {
    for r in rx {
        let _ = write!(
            digest,
            "{:?}{}/{}",
            r.matched_indices, r.symbols_decoded, r.symbols_skipped
        );
        for sf in &r.subframes {
            let _ = write!(digest, "{}:{:?}", sf.index, sf.sig);
            if let Some(p) = &sf.payload {
                digest.bytes(p);
            }
        }
    }
}

/// A clean-SNR reference aggregate — eight subframes across the MCS mix
/// and the size range over a noiseless link — must decode byte-exact at
/// every addressed station.
fn reference_check(seed: u64) -> Tally {
    let mut tally = Tally::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let subframes: Vec<Subframe> = [40, 90, 150, 300, 600, 1000, 1400, 1500]
        .into_iter()
        .enumerate()
        .map(|(k, len)| {
            let payload = (0..len).map(|_| rng.gen::<u8>()).collect();
            Subframe::new(
                MacAddress::station(k as u16 + 1),
                MCS_MIX[k % MCS_MIX.len()],
                payload,
            )
        })
        .collect();
    let frame = CarpoolFrame::new(subframes).expect("eight non-empty subframes");
    let stations: Vec<MacAddress> = frame.subframes().iter().map(|s| s.receiver).collect();
    let mut link = CarpoolLink::builder()
        .seed(seed)
        .estimation(ESTIMATION)
        .hashes(HASHES)
        .build();
    match link.deliver_all(&frame, &stations) {
        Ok(rx) => {
            for (k, sf) in frame.subframes().iter().enumerate() {
                tally.check(rx[k].payload_at(k) == Some(&sf.payload[..]), || {
                    format!("clean reference subframe {k} did not decode byte-exact")
                });
            }
        }
        Err(e) => tally.check(false, || format!("clean reference deliver_all: {e}")),
    }
    tally
}

/// The untraced run: `deliver_all` calls cycling through the pool until
/// `seconds` have passed and the whole pool has been delivered once.
pub fn run(seed: u64, seconds: Duration) -> EndToEnd {
    let ((pool, mut link), setup_s) = repeated_setup(SETUP_REPEATS, || {
        // Warm up first with the largest aggregate the pool can draw, so
        // that the allocator's layout and the memory high-water mark do
        // not depend on the seed.
        let mut warm = builder(seed ^ 0x3a3a).build();
        let largest = CarpoolFrame::new(
            (1..=8)
                .map(|sta| Subframe::new(MacAddress::station(sta), Mcs::QPSK_1_2, vec![0xa5; 1500]))
                .collect(),
        )
        .expect("eight non-empty subframes");
        let stations: Vec<MacAddress> = largest.subframes().iter().map(|s| s.receiver).collect();
        black_box(warm.deliver_all(&largest, &stations)).ok();
        let pool = generate(seed);
        for agg in &pool[..WARMUP] {
            black_box(warm.deliver_all(&agg.frame, &agg.stations)).ok();
        }
        (pool, builder(seed).build())
    });

    let mut tally = Tally::default();
    let mut first_pass = Score::default();
    let mut later = Score::default();
    let mut digest = Digest::default();
    let mut calls = Calls::default();
    let start = Instant::now();
    let mut n = 0;
    while n < pool.len() || start.elapsed() < seconds {
        let agg = &pool[n % pool.len()];
        let t = Instant::now();
        let result = link.deliver_all(&agg.frame, &agg.stations);
        calls.secs.push(t.elapsed().as_secs_f64());
        match result {
            Ok(rx) => {
                let checked = if n < pool.len() {
                    digest_delivery(&mut digest, &rx);
                    score(agg, &rx, &mut first_pass)
                } else {
                    score(agg, &rx, &mut later)
                };
                tally.check(checked.is_ok(), || checked.err().unwrap_or_default());
            }
            Err(e) => tally.check(false, || format!("deliver_all: {e}")),
        }
        calls.sim_s += agg.samples as f64 / SAMPLE_RATE_HZ;
        n += 1;
    }
    calls.frames = n as f64;
    calls.bits = (first_pass.intact_bits + later.intact_bits) as f64;
    tally.add(reference_check(seed));

    EndToEnd {
        setup_s,
        calls,
        delivery_ratio: first_pass.intact as f64 / first_pass.addressed.max(1) as f64,
        tally,
        digest: digest.value(),
        units: "link_mixed: a frame is one aggregate, an operation one deliver_all call",
    }
}

/// Span times of the decomposed deliveries.
#[derive(Debug, Default)]
struct Spans {
    header: Vec<f64>,
    to_specs: Vec<f64>,
    tx: Vec<f64>,
    tx_samples: usize,
    channel: Vec<f64>,
    receive_addressed: Vec<f64>,
    receive_outsider: Vec<f64>,
    map_scratch: Vec<f64>,
    /// Sum of the four stage times (to_specs, TX, channel, receive).
    stages: f64,
}

/// `deliver_all` taken apart into its stages, each timed around the
/// same public call the link makes: `to_specs`, PHY `transmit`, the link
/// channel, and one `receive_carpool_obs_with_scratch` per station on
/// the `carpool-par` pool.
fn decomposed(
    agg: &Aggregate,
    channel: &mut LinkChannel,
    spans: &mut Spans,
) -> Result<Vec<CarpoolReception>, FrameError> {
    let t0 = Instant::now();
    let specs = agg.frame.to_specs();
    let t1 = Instant::now();
    let tx = transmit(&specs).map_err(FrameError::Phy)?;
    let t2 = Instant::now();
    let rx_samples = channel.transmit(&tx.samples);
    let t3 = Instant::now();
    let per_station = carpool_par::par_map_indexed_scratch(
        &agg.stations,
        PhyScratch::default,
        |scratch, _, &sta| {
            let t = Instant::now();
            let rx = receive_carpool_obs_with_scratch(
                &rx_samples,
                sta,
                ESTIMATION,
                HASHES,
                Some(SideChannelConfig::default()),
                &Obs::noop(),
                scratch,
            );
            (rx, t.elapsed().as_secs_f64())
        },
    )
    .map_err(|panic| FrameError::Malformed {
        reason: format!("parallel receive failed: {panic}"),
    })?;
    let t4 = Instant::now();

    spans.to_specs.push((t1 - t0).as_secs_f64());
    spans.tx.push((t2 - t1).as_secs_f64());
    spans.tx_samples += tx.samples.len();
    spans.channel.push((t3 - t2).as_secs_f64());
    spans.stages += (t4 - t0).as_secs_f64();
    let mut receptions = Vec::with_capacity(per_station.len());
    for (k, (rx, secs)) in per_station.into_iter().enumerate() {
        if k < agg.addressed() {
            spans.receive_addressed.push(secs);
        } else {
            spans.receive_outsider.push(secs);
        }
        receptions.push(rx?);
    }
    Ok(receptions)
}

fn same(
    a: &Result<Vec<CarpoolReception>, FrameError>,
    b: &Result<Vec<CarpoolReception>, FrameError>,
) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y,
        (Err(x), Err(y)) => x.to_string() == y.to_string(),
        _ => false,
    }
}

/// Delivers the first block through a link with no observer and through
/// one with a metrics recorder and a flight ring attached, alternating
/// per aggregate. Returns the observed/noop time ratio minus one and the
/// ring's dropped-record count.
fn observed_slice(seed: u64, block: &[Aggregate], tally: &mut Tally) -> (f64, f64) {
    let flight = Arc::new(FlightRecorder::new(carpool_obs::DEFAULT_TRACE_CAPACITY));
    let obs = Obs::with_recorder(Arc::new(MemoryRecorder::new())).with_flight(Arc::clone(&flight));
    let mut plain = builder(seed ^ 0x0b5).build();
    let mut observed = builder(seed ^ 0x0b5).build().with_obs(obs);
    let (mut plain_s, mut observed_s) = (0.0, 0.0);
    for agg in block {
        let t = Instant::now();
        let a = plain.deliver_all(&agg.frame, &agg.stations);
        plain_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let b = observed.deliver_all(&agg.frame, &agg.stations);
        observed_s += t.elapsed().as_secs_f64();
        tally.check(same(&a, &b), || {
            "an observer changed deliver_all's result".into()
        });
    }
    (observed_s / plain_s - 1.0, flight.dropped() as f64)
}

/// The traced slice: each aggregate goes once through plain
/// `deliver_all` and once through [`decomposed`] on a channel with the
/// same seed. Both paths see the same aggregates in the same order, so
/// their receptions must be equal, and the plain calls are the base for
/// `trace.coverage` and `trace.overhead_frac`.
pub fn traced(seed: u64, seconds: Duration, primary: bool, layers: &mut Layers) -> Tally {
    let pool = generate(seed);
    let mut tally = Tally::default();
    let mut link = builder(seed).build();
    let mut channel = channel(seed);
    let mut spans = Spans::default();
    let mut score_all = Score::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let start = Instant::now();
    let mut n = 0;
    while n < BLOCK || start.elapsed() < seconds {
        let agg = &pool[n % pool.len()];
        let t = Instant::now();
        let plain = link.deliver_all(&agg.frame, &agg.stations);
        plain_s += t.elapsed().as_secs_f64();
        let samples_before = spans.tx_samples;
        let t = Instant::now();
        let rx = decomposed(agg, &mut channel, &mut spans);
        traced_s += t.elapsed().as_secs_f64();
        tally.check(same(&rx, &plain), || {
            "decomposed delivery differs from deliver_all".into()
        });
        tally.check(spans.tx_samples - samples_before == agg.samples, || {
            format!(
                "modulated {} samples, expected {}",
                spans.tx_samples - samples_before,
                agg.samples
            )
        });
        if let Ok(rx) = &rx {
            let checked = score(agg, rx, &mut score_all);
            tally.check(checked.is_ok(), || checked.err().unwrap_or_default());
        }

        let t = Instant::now();
        black_box(agg.frame.header());
        spans.header.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(carpool_par::par_map_indexed_scratch(
            &agg.stations,
            PhyScratch::default,
            |_, i, _| i,
        ))
        .ok();
        spans.map_scratch.push(t.elapsed().as_secs_f64());
        n += 1;
    }
    let (observed_overhead, flight_dropped) = observed_slice(seed, &pool[..BLOCK], &mut tally);

    let us = |v: &[f64]| median(v) * 1e6;
    let channel_secs: f64 = spans.channel.iter().sum();
    let tx_secs: f64 = spans.tx.iter().sum();
    let deliveries = score_all.deliveries.max(1) as f64;
    let symbols = (score_all.symbols_decoded + score_all.symbols_skipped).max(1) as f64;
    for (name, value) in [
        ("frame.to_specs_us", us(&spans.to_specs)),
        ("phy.tx_us", us(&spans.tx)),
        (
            "phy.tx_ns_per_sample",
            tx_secs / spans.tx_samples.max(1) as f64 * 1e9,
        ),
        ("bloom.header_us", us(&spans.header)),
        ("frame.receive_addressed_us", us(&spans.receive_addressed)),
        ("frame.receive_outsider_us", us(&spans.receive_outsider)),
        (
            "frame.symbols_decoded",
            score_all.symbols_decoded as f64 / deliveries,
        ),
        (
            "frame.symbols_skipped",
            score_all.symbols_skipped as f64 / deliveries,
        ),
        (
            "frame.skip_ratio",
            score_all.symbols_skipped as f64 / symbols,
        ),
        (
            "bloom.false_positive_ratio",
            score_all.outsider_matches as f64 / score_all.outsiders.max(1) as f64,
        ),
        ("par.map_scratch_us", us(&spans.map_scratch)),
        ("obs.observed_overhead_frac", observed_overhead),
        ("obs.flight_dropped", flight_dropped),
        ("trace.coverage", spans.stages / plain_s),
    ] {
        layers.insert(name.to_string(), value);
    }
    put_layer(layers, "channel.transmit_us", us(&spans.channel), primary);
    put_layer(
        layers,
        "channel.ns_per_sample",
        channel_secs / spans.tx_samples.max(1) as f64 * 1e9,
        primary,
    );
    put_layer(
        layers,
        "trace.overhead_frac",
        traced_s / plain_s - 1.0,
        primary,
    );
    println!(
        "link_mixed traced slice: {n} aggregates per path, {} outsiders ({} A-HDR false positives)",
        score_all.outsiders, score_all.outsider_matches
    );
    tally
}
