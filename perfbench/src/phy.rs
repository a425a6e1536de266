//! `phy_sweep`: the `run_phy` Monte-Carlo over a Fig. 14-shaped grid.
//!
//! {BPSK, QPSK, QAM16, QAM64}-1/2 × {Standard, RTE} × the two Fig. 14
//! power levels, 4 KiB frames under office fading. The TX cache serves
//! the transmitter, so the channel and long-frame RX carry the load.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use carpool_bench::{pattern_bits, run_phy, Fading, PhyBerResult, PhyRunConfig, OFFICE_FADING};
use carpool_channel::link::{power_magnitude_to_snr_db, LinkChannel};
use carpool_obs::Obs;
use carpool_phy::bits::hamming_distance;
use carpool_phy::convolutional::CodeRate;
use carpool_phy::mcs::Mcs;
use carpool_phy::modulation::Modulation;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{receive, Estimation, SectionLayout};
use carpool_phy::tx::{SectionSpec, SideChannelConfig};
use carpool_phy::txcache::{self, transmit_cached};

use crate::stats::{median, repeated_setup, Calls, Digest, Tally};
use crate::{put_layer, EndToEnd, Layers, SETUP_REPEATS};

/// Payload of every Monte-Carlo frame (Fig. 14 uses 4 KiB).
const PAYLOAD_BITS: usize = 4 * 1024 * 8;
/// Fig. 14's USRP power magnitudes, about 20 dB and 26 dB SNR.
const POWERS: [f64; 2] = [0.05, 0.2];
const ESTIMATIONS: [Estimation; 2] = [
    Estimation::Standard,
    Estimation::Rte(CalibrationRule::Average),
];
/// Frames per `run_phy` call for each modulation of `Modulation::ALL`:
/// inversely proportional to the frame's symbol count, so every call
/// covers about the same airtime (one BPSK frame, ~5.5 ms on air).
const FRAMES_PER_OP: [usize; 4] = [1, 2, 4, 6];
/// Largest entry of [`FRAMES_PER_OP`]: the channel-seed stride per cell.
const MAX_FRAMES_PER_OP: usize = 6;
/// Passes whose outputs feed the checks, the digest and `delivery_ratio`
/// (16 to 96 frames per grid cell).
const VERIFY_PASSES: usize = 16;
/// Baseband sample rate of the 20 MHz PHY.
const SAMPLE_RATE_HZ: f64 = 20e6;

/// One grid cell: indices into `Modulation::ALL`, [`POWERS`] and
/// [`ESTIMATIONS`].
#[derive(Debug, Clone, Copy)]
struct Cell {
    modulation: usize,
    power: usize,
    estimation: usize,
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for modulation in 0..Modulation::ALL.len() {
        for power in 0..POWERS.len() {
            for estimation in 0..ESTIMATIONS.len() {
                cells.push(Cell {
                    modulation,
                    power,
                    estimation,
                });
            }
        }
    }
    cells
}

fn mcs(modulation: usize) -> Mcs {
    Mcs::new(Modulation::ALL[modulation], CodeRate::Half)
}

/// The transmit spec `run_phy` builds for `mcs`, so lookups share its
/// TX cache entries.
fn spec(mcs: Mcs) -> SectionSpec {
    SectionSpec {
        bits: pattern_bits(PAYLOAD_BITS, 77),
        mcs,
        scramble: true,
        side_channel: Some(SideChannelConfig::default()),
        qbpsk: false,
    }
}

/// The `run_phy` configuration of `cell` on pass `pass`. Standard and
/// RTE cells of one modulation and power share channel seeds, so their
/// BERs are a paired comparison.
fn config(cell: Cell, seed: u64, pass: usize) -> PhyRunConfig {
    let slot = (pass * Modulation::ALL.len() + cell.modulation) * POWERS.len() + cell.power;
    PhyRunConfig {
        mcs: mcs(cell.modulation),
        payload_bits: PAYLOAD_BITS,
        side_channel: Some(SideChannelConfig::default()),
        estimation: ESTIMATIONS[cell.estimation],
        snr_db: power_magnitude_to_snr_db(POWERS[cell.power]),
        fading: OFFICE_FADING,
        cfo_hz: 100.0,
        frames: FRAMES_PER_OP[cell.modulation],
        seed: (seed << 32).wrapping_add((slot * MAX_FRAMES_PER_OP) as u64),
    }
}

fn bit_identical(a: &PhyBerResult, b: &PhyBerResult) -> bool {
    a.data_ber.to_bits() == b.data_ber.to_bits()
        && a.side_ber.to_bits() == b.side_ber.to_bits()
        && a.ber_by_symbol.len() == b.ber_by_symbol.len()
        && a.ber_by_symbol
            .iter()
            .zip(&b.ber_by_symbol)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Fills the TX cache with one warm-up `run_phy` call per modulation and
/// returns each modulation's frame length in samples.
fn setup(seed: u64) -> Vec<usize> {
    txcache::reset();
    (0..Modulation::ALL.len())
        .map(|m| {
            let cell = Cell {
                modulation: m,
                power: 0,
                estimation: 0,
            };
            black_box(run_phy(&config(cell, seed ^ 0x3a3a, 0)));
            transmit_cached(&[spec(mcs(m))], &Obs::noop()).map_or(0, |tx| tx.samples.len())
        })
        .collect()
}

/// The untraced run: passes over the grid until `seconds` have passed
/// and the verification passes are done.
pub fn run(seed: u64, seconds: Duration) -> EndToEnd {
    let (samples, setup_s) = repeated_setup(SETUP_REPEATS, || setup(seed));
    let cells = grid();
    let pass_frames = cells
        .iter()
        .map(|c| FRAMES_PER_OP[c.modulation])
        .sum::<usize>() as f64;
    let pass_air_s: f64 = cells
        .iter()
        .map(|c| (FRAMES_PER_OP[c.modulation] * samples[c.modulation]) as f64 / SAMPLE_RATE_HZ)
        .sum();

    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let mut ber_sum = vec![0.0; cells.len()];
    let mut reference = None;
    let mut calls = Calls::default();
    let start = Instant::now();
    let mut pass = 0;
    while pass < VERIFY_PASSES || start.elapsed() < seconds {
        for (i, &cell) in cells.iter().enumerate() {
            let cfg = config(cell, seed, pass);
            let t = Instant::now();
            let r = run_phy(&cfg);
            calls.secs.push(t.elapsed().as_secs_f64());
            tally.check(!r.ber_by_symbol.is_empty(), || {
                format!("run_phy returned no tally for {cfg:?}")
            });
            if pass < VERIFY_PASSES {
                let _ = write!(digest, "{r:?}");
                ber_sum[i] += r.data_ber;
            }
            if pass == 0 && reference.is_none() && cell.modulation == 3 && cell.estimation == 1 {
                reference = Some((cfg, r));
            }
        }
        calls.frames += pass_frames;
        calls.bits += pass_frames * PAYLOAD_BITS as f64;
        calls.sim_s += pass_air_s;
        pass += 1;
    }

    // Fig. 14 ordering: RTE's BER is no worse than Standard's for the
    // dense constellations, pooled over both powers.
    for m in [2, 3] {
        let pooled = |e: usize| -> f64 {
            cells
                .iter()
                .zip(&ber_sum)
                .filter(|(c, _)| c.modulation == m && c.estimation == e)
                .map(|(_, b)| b)
                .sum()
        };
        let (standard, rte) = (pooled(0), pooled(1));
        tally.check(rte <= standard, || {
            format!(
                "{} RTE BER {rte:e} above Standard {standard:e}",
                Modulation::ALL[m]
            )
        });
    }
    // The same grid point at one and two workers and at the pinned count.
    if let Some((cfg, pinned)) = reference {
        let threads = carpool_par::thread_count();
        for workers in [1, 2] {
            carpool_par::set_thread_override(Some(workers));
            let other = run_phy(&cfg);
            tally.check(bit_identical(&other, &pinned), || {
                format!("run_phy differs between {workers} and {threads} threads")
            });
        }
        carpool_par::set_thread_override(Some(threads));
    }

    let mean_ber = ber_sum.iter().sum::<f64>() / (ber_sum.len() * VERIFY_PASSES) as f64;
    EndToEnd {
        setup_s,
        calls,
        delivery_ratio: 1.0 - mean_ber,
        tally,
        digest: digest.value(),
        units: "phy_sweep: a frame is one Monte-Carlo frame, an operation one run_phy call of 1 to 6 frames",
    }
}

/// Span times of the decomposed Monte-Carlo frames.
#[derive(Debug, Default)]
struct Spans {
    channel: Vec<f64>,
    samples: usize,
    rx_standard: Vec<f64>,
    rx_rte: Vec<f64>,
}

/// Integer tallies of one frame, as `run_phy` keeps them.
#[derive(Debug, Default)]
struct FrameTally {
    bit_errors: usize,
    bits_total: usize,
    side_errors: usize,
    side_total: usize,
    sym_errors: Vec<usize>,
    channel_s: f64,
    rx_s: f64,
}

/// `run_phy` taken apart: the same cached TX, per-frame channel and
/// `receive` calls on the `carpool-par` pool, each timed, and the same
/// tallies, so the result must be bit-identical to `run_phy`'s.
fn decomposed(config: &PhyRunConfig, spans: &mut Spans) -> PhyBerResult {
    let spec = spec(config.mcs);
    let Ok(tx) = transmit_cached(std::slice::from_ref(&spec), &Obs::noop()) else {
        return PhyBerResult::default();
    };
    let layouts = [SectionLayout::of(&spec)];
    let n_sym = tx.sections[0].num_symbols;
    let per_frame = |f: usize, _: &()| -> FrameTally {
        let mut tally = FrameTally {
            sym_errors: vec![0; n_sym],
            ..FrameTally::default()
        };
        let mut builder = LinkChannel::builder();
        builder
            .snr_db(config.snr_db)
            .cfo_hz(config.cfo_hz)
            .seed(config.seed + f as u64);
        if let Fading::TimeVarying {
            coherence_s,
            rician_k,
        } = config.fading
        {
            builder.coherence_time(coherence_s).rician_k(rician_k);
        }
        let mut link = builder.build();
        let t = Instant::now();
        let rx_samples = link.transmit(&tx.samples);
        tally.channel_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let rx = receive(&rx_samples, &layouts, config.estimation);
        tally.rx_s = t.elapsed().as_secs_f64();
        let Ok(rx) = rx else {
            return tally;
        };
        for (k, (t, r)) in tx.sections[0]
            .symbol_bits
            .iter()
            .zip(&rx.sections[0].raw_symbol_bits)
            .enumerate()
        {
            let d = hamming_distance(t, r);
            tally.sym_errors[k] += d;
            tally.bit_errors += d;
            tally.bits_total += t.len();
        }
        if let Some(sc) = config.side_channel {
            let bits_per = sc.modulation.bits_per_symbol();
            for (t, r) in tx.sections[0]
                .side_values
                .iter()
                .zip(&rx.sections[0].side_values)
            {
                tally.side_errors += ((t ^ r) & 1) as usize;
                if bits_per == 2 {
                    tally.side_errors += (((t ^ r) >> 1) & 1) as usize;
                }
                tally.side_total += bits_per;
            }
        }
        tally
    };
    let frames =
        carpool_par::par_map_indexed(&vec![(); config.frames], per_frame).unwrap_or_default();

    let mut total = FrameTally {
        sym_errors: vec![0; n_sym],
        ..FrameTally::default()
    };
    for f in &frames {
        spans.channel.push(f.channel_s);
        spans.samples += tx.samples.len();
        match config.estimation {
            Estimation::Standard => spans.rx_standard.push(f.rx_s),
            Estimation::Rte(_) => spans.rx_rte.push(f.rx_s),
        }
        total.bit_errors += f.bit_errors;
        total.bits_total += f.bits_total;
        total.side_errors += f.side_errors;
        total.side_total += f.side_total;
        for (a, b) in total.sym_errors.iter_mut().zip(&f.sym_errors) {
            *a += b;
        }
    }
    let sym_bits = config.mcs.coded_bits_per_symbol();
    PhyBerResult {
        data_ber: total.bit_errors as f64 / total.bits_total.max(1) as f64,
        side_ber: total.side_errors as f64 / total.side_total.max(1) as f64,
        ber_by_symbol: total
            .sym_errors
            .into_iter()
            .map(|e| e as f64 / (config.frames * sym_bits) as f64)
            .collect(),
    }
}

/// The traced slice: alternates a pass of plain `run_phy` calls with the
/// same pass through [`decomposed`]; their results must be bit-identical.
pub fn traced(seed: u64, seconds: Duration, primary: bool, layers: &mut Layers) -> Tally {
    txcache::reset();
    let cells = grid();
    let mut tally = Tally::default();
    let mut spans = Spans::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < seconds {
        for &cell in &cells {
            let cfg = config(cell, seed, pass);
            let t = Instant::now();
            let plain = run_phy(&cfg);
            plain_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let traced = decomposed(&cfg, &mut spans);
            traced_s += t.elapsed().as_secs_f64();
            tally.check(bit_identical(&plain, &traced), || {
                format!("decomposed run_phy differs for {cfg:?}")
            });
        }
        pass += 1;
    }
    let channel_secs: f64 = spans.channel.iter().sum();
    layers.insert(
        "phy.rx_standard_us".into(),
        median(&spans.rx_standard) * 1e6,
    );
    layers.insert("phy.rx_rte_us".into(), median(&spans.rx_rte) * 1e6);
    layers.insert("phy.txcache_hit_ratio".into(), txcache::stats().hit_rate());
    put_layer(
        layers,
        "channel.transmit_us",
        median(&spans.channel) * 1e6,
        primary,
    );
    put_layer(
        layers,
        "channel.ns_per_sample",
        channel_secs / spans.samples.max(1) as f64 * 1e9,
        primary,
    );
    put_layer(
        layers,
        "trace.overhead_frac",
        traced_s / plain_s - 1.0,
        primary,
    );
    println!(
        "phy_sweep traced slice: {pass} passes of {} grid cells per path",
        cells.len()
    );
    tally
}
