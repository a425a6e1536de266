//! Micro-benchmarks of the PHY primitives, with machine-readable output
//! and a paired regression gate.
//!
//! Not a paper figure — these quantify the software cost of the blocks
//! Carpool adds (A-HDR generation/check, phase offset encode/decode)
//! against the standard pipeline stages, echoing the Section 8
//! "processing latency" discussion.
//!
//! Unlike the figure benches this one runs on the `carpool-obs` span
//! machinery ([`SpanStats`]) instead of criterion. A plain run times
//! every row and writes each row's median and min to
//! `BENCH_phy_micro.json`. Besides the PHY rows it times the full RX
//! chain with the default (no-op) handle and with a live recorder
//! attached, bounding the observability overhead on the hot path, and
//! one `mac_dense_16ap` row on the sharded MAC event engine.
//! `rx_1500B_qam64_prefec` times the QAM64 receive with FEC off, right
//! after `rx_1500B_qam64` on the same waveform: the difference between
//! the two rows is the FEC stage (lattice fill, Viterbi, descrambling).
//!
//! `phy_micro --against <parent phy_micro binary>` is the regression
//! gate. It runs the parent binary and this one [`PAIRS`] times each,
//! alternating which goes first, each in its own scratch directory, and
//! reads every run's `BENCH_phy_micro.json`. For each row both report,
//! the verdict is the median of the per-pair change/parent ratios of
//! the row medians, with a 95% bootstrap interval
//! ([`carpool_bench::paired_ratio`]). A [`FATAL_ROWS`] row fails the
//! gate only when its whole interval lies above [`REGRESSION_BOUND`],
//! and a fatal row the change no longer reports fails it too. The obs
//! gate is the same statistic over the change's own runs: the
//! tracing-disabled decode against the plain one, fatal above
//! [`DISABLED_BOUND`], and enabled tracing against untraced decoding,
//! advisory above [`TRACING_BOUND`]. The verdicts land in
//! `BENCH_perf.json` and `BENCH_obs.json`, and the process exits 1 when
//! a fatal gate fires. No absolute number is banked: on a shared host
//! the same code reads up to 2x apart between runs, so only the parent,
//! timed on the same host in the same minutes, is a fair reference.
#![allow(
    clippy::disallowed_methods,
    clippy::expect_used,
    clippy::print_stderr,
    clippy::print_stdout,
    reason = "timing harness: prints its report, reads the wall clock and aborts on a failed setup"
)]

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use carpool_bench::{paired_ratio, pattern_bits};
use carpool_bloom::AggregationHeader;
use carpool_channel::link::LinkChannel;
use carpool_obs::json::{self, JsonValue, ObjectWriter};
use carpool_obs::{FlightRecorder, MemoryRecorder, Obs, SpanStats};
use carpool_phy::convolutional::{decode, decode_levels_with, encode, CodeRate, ViterbiScratch};
use carpool_phy::equalizer::ChannelEstimate;
use carpool_phy::fft::{fft_in_place, ifft_in_place};
use carpool_phy::interleaver::Interleaver;
use carpool_phy::math::Complex64;
use carpool_phy::mcs::Mcs;
use carpool_phy::modulation::Modulation;
use carpool_phy::ofdm::FreqSymbol;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{receive, receive_with, Estimation, Fec, FrameDecoder, SectionLayout};
use carpool_phy::sidechannel::{PhaseOffsetDecoder, PhaseOffsetEncoder, PhaseOffsetMod};
use carpool_phy::tx::{transmit, SectionSpec};

const SAMPLES: usize = 20;
const WARMUP: usize = 3;

/// Runs of each binary in a paired comparison. Ten pairs caught a
/// seeded 30% Viterbi slowdown in only two of three tries; twenty
/// caught it every time.
const PAIRS: usize = 20;

/// A [`FATAL_ROWS`] row fails the gate when the whole interval of its
/// change/parent ratio lies above this (15% slower).
const REGRESSION_BOUND: f64 = 1.15;

/// The tracing-disabled decode may cost at most 1% over the plain
/// decode — one predicted branch per hook, nothing more. Fatal.
const DISABLED_BOUND: f64 = 1.01;

/// Documented budget for *enabled* flight-recorder tracing on the RTE +
/// side-channel decode (the hook-densest path: one record per symbol
/// recalibration plus one per CRC group). Exceeding it is a warning, not
/// a failure — opting into tracing is allowed to cost something.
const TRACING_BOUND: f64 = 1.25;

/// The rows this repo's perf work is anchored on: the TX, channel and RX
/// full chains, the Viterbi kernels and the sharded MAC event engine.
/// Every other row is advisory — wall-clock noise on shared machines
/// must not fail the gate for rows nobody optimizes deliberately.
const FATAL_ROWS: [&str; 12] = [
    "tx_1500B_qpsk12",
    "tx_1500B_qam16",
    "tx_1500B_qam64",
    "channel_1500B_awgn",
    "channel_1500B_cfo",
    "channel_1500B_office",
    "rx_1500B_qpsk12",
    "rx_1500B_qam16",
    "rx_1500B_qam64",
    "viterbi_decode_1kbit",
    "viterbi_int_1kbit",
    "mac_dense_16ap",
];

/// Where a plain run writes its rows (cargo runs benches with the
/// package root as the working directory, so this is
/// `crates/bench/BENCH_phy_micro.json`).
const ROWS_PATH: &str = "BENCH_phy_micro.json";

/// Where a paired run writes the row verdicts.
const PERF_PATH: &str = "BENCH_perf.json";

/// Where a paired run writes the obs-overhead verdicts.
const OBS_PATH: &str = "BENCH_obs.json";

/// Times `f` WARMUP+SAMPLES times and keeps the timed samples.
fn measure(name: &'static str, mut f: impl FnMut()) -> SpanStats {
    let mut stats = SpanStats::new(name);
    for i in 0..WARMUP + SAMPLES {
        if i < WARMUP {
            f();
        } else {
            stats.time(&mut f);
        }
    }
    stats
}

fn json_entry(stats: &SpanStats) -> String {
    let mut w = ObjectWriter::new();
    w.str("name", stats.name)
        .u64("samples", stats.count() as u64)
        .f64("mean_us", stats.mean_secs() * 1e6)
        .f64("median_us", stats.median_secs() * 1e6)
        .f64("min_us", stats.min_secs() * 1e6)
        .f64("max_us", stats.max_secs() * 1e6);
    w.finish()
}

/// The Viterbi add-compare-select kernel `carpool-phy` runs on this
/// host, detected the way the library picks it, so banked `viterbi_*`
/// rows say which kernel made them.
fn viterbi_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// Cores the host reports (0 when it cannot tell).
fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(0, |n| n.get() as u64)
}

fn bench_fft(results: &mut Vec<SpanStats>) {
    let input: [Complex64; 64] = std::array::from_fn(|k| Complex64::cis(k as f64 * 0.11));
    results.push(measure("fft64_forward", || {
        let mut buf = input;
        fft_in_place(black_box(&mut buf));
    }));
    results.push(measure("fft64_inverse", || {
        let mut buf = input;
        ifft_in_place(black_box(&mut buf));
    }));
}

fn bench_coding(results: &mut Vec<SpanStats>) {
    let bits = pattern_bits(1000, 3);
    let coded = encode(&bits, CodeRate::Half);
    results.push(measure("convolutional_encode_1kbit", || {
        black_box(encode(black_box(&bits), CodeRate::Half));
    }));
    results.push(measure("viterbi_decode_1kbit", || {
        black_box(decode(black_box(&coded), bits.len(), CodeRate::Half));
    }));
    // The production integer kernel as the fused RX path drives it:
    // pre-quantized levels in, trellis scratch reused across frames.
    let levels: Vec<i32> = coded.iter().map(|&b| i32::from(b) * 1024 - 512).collect();
    let mut scratch = ViterbiScratch::default();
    results.push(measure("viterbi_int_1kbit", || {
        black_box(decode_levels_with(
            black_box(&levels),
            bits.len(),
            CodeRate::Half,
            &mut scratch,
        ));
    }));
}

fn bench_equalizer(results: &mut Vec<SpanStats>) {
    let points = Modulation::Qam64.map_all(&pattern_bits(48 * 6, 11));
    let sym = FreqSymbol::with_standard_pilots(points, 0);
    let bins: Vec<Complex64> = (0..64)
        .map(|k| Complex64::cis(k as f64 * 0.07).scale(0.9))
        .collect();
    let est = ChannelEstimate::from_bins(bins);
    let mut out = est.equalize(&sym);
    results.push(measure("equalize_symbol", || {
        est.equalize_into(black_box(&sym), black_box(&mut out));
    }));
}

fn bench_interleaver_and_mapping(results: &mut Vec<SpanStats>) {
    let il = Interleaver::new(Modulation::Qam64, 48);
    let bits = pattern_bits(il.block_size(), 5);
    results.push(measure("interleave_qam64_block", || {
        black_box(il.interleave(black_box(&bits)));
    }));
    let points = Modulation::Qam64.map_all(&bits);
    results.push(measure("qam64_map_symbol", || {
        black_box(Modulation::Qam64.map_all(black_box(&bits)));
    }));
    results.push(measure("qam64_demap_symbol", || {
        black_box(Modulation::Qam64.demap_all(black_box(&points)));
    }));
}

fn bench_bloom(results: &mut Vec<SpanStats>) {
    let receivers: Vec<[u8; 6]> = (0..8u8).map(|k| [2, 0, 0, 0, 0, k]).collect();
    results.push(measure("ahdr_build_8_receivers", || {
        black_box(AggregationHeader::for_receivers(black_box(&receivers), 4)).ok();
    }));
    let hdr = AggregationHeader::for_receivers(&receivers, 4).expect("8 receivers fit");
    results.push(measure("ahdr_check_membership", || {
        black_box(hdr.matched_indices(black_box(&receivers[3]), 8));
    }));
}

fn bench_side_channel(results: &mut Vec<SpanStats>) {
    results.push(measure("phase_offset_encode_decode_100sym", || {
        let mut enc = PhaseOffsetEncoder::new(PhaseOffsetMod::TwoBit);
        let mut dec = PhaseOffsetDecoder::new(PhaseOffsetMod::TwoBit);
        dec.set_reference(0.0);
        let mut acc = 0u32;
        for k in 0..100u8 {
            let inj = enc.next_offset(k % 4);
            acc += dec.decode(inj).unwrap_or(0) as u32;
        }
        black_box(acc);
    }));
}

fn bench_full_chain(results: &mut Vec<SpanStats>) {
    // Per-MCS encode/decode of a 1500 B frame — the headline numbers.
    for (name_tx, name_rx, mcs) in [
        ("tx_1500B_qpsk12", "rx_1500B_qpsk12", Mcs::QPSK_1_2),
        ("tx_1500B_qam16", "rx_1500B_qam16", Mcs::QAM16_1_2),
        ("tx_1500B_qam64", "rx_1500B_qam64", Mcs::QAM64_3_4),
    ] {
        let spec = SectionSpec::payload(pattern_bits(1500 * 8, 9), mcs);
        results.push(measure(name_tx, || {
            black_box(transmit(black_box(std::slice::from_ref(&spec)))).ok();
        }));
        let frame = transmit(std::slice::from_ref(&spec)).expect("valid spec");
        let layouts = [SectionLayout::of(&spec)];
        // These full-chain rows are the noisiest in the table (longest
        // per-sample time, most cache/page state), so they get a
        // dedicated warmup pass on top of measure()'s before the timed
        // samples start.
        for _ in 0..WARMUP {
            black_box(receive(&frame.samples, &layouts, Estimation::Standard)).ok();
        }
        results.push(measure(name_rx, || {
            black_box(receive(
                black_box(&frame.samples),
                &layouts,
                Estimation::Standard,
            ))
            .ok();
        }));
        if mcs == Mcs::QAM64_3_4 {
            results.push(measure("rx_1500B_qam64_prefec", || {
                black_box(receive_with(
                    black_box(&frame.samples),
                    &layouts,
                    Estimation::Standard,
                    Fec::Off,
                ))
                .ok();
            }));
        }
    }
}

/// Channel rows: one 1500 B QAM64-3/4 waveform through AWGN alone, the
/// residual CFO alone, and the office link the long-frame experiments
/// use (4 ms coherence Rician K = 15 fading, 100 Hz CFO, 30 dB). Each
/// link is built once and keeps evolving across samples, as a link does
/// across the frames of a run.
fn bench_channel(results: &mut Vec<SpanStats>) {
    let spec = SectionSpec::payload(pattern_bits(1500 * 8, 9), Mcs::QAM64_3_4);
    let frame = transmit(std::slice::from_ref(&spec)).expect("valid spec");
    for (name, mut link) in [
        (
            "channel_1500B_awgn",
            LinkChannel::builder().snr_db(30.0).seed(5).build(),
        ),
        (
            "channel_1500B_cfo",
            LinkChannel::builder().cfo_hz(100.0).seed(5).build(),
        ),
        (
            "channel_1500B_office",
            LinkChannel::builder()
                .snr_db(30.0)
                .coherence_time(4e-3)
                .rician_k(15.0)
                .cfo_hz(100.0)
                .seed(5)
                .build(),
        ),
    ] {
        results.push(measure(name, || {
            black_box(link.transmit(black_box(&frame.samples)));
        }));
    }
}

/// Decodes the same frame with the default no-op handle and with a live
/// recorder, so the observability overhead shows up as two adjacent rows.
fn bench_obs_overhead(results: &mut Vec<SpanStats>) {
    let spec = SectionSpec::payload(pattern_bits(1500 * 8, 9), Mcs::QAM64_3_4);
    let frame = transmit(std::slice::from_ref(&spec)).expect("valid spec");
    let layouts = [SectionLayout::of(&spec)];
    // Dedicated warmup pass, mirroring bench_full_chain's, before any
    // of the gated rows are timed.
    for _ in 0..WARMUP {
        let mut dec =
            FrameDecoder::new(&frame.samples, Estimation::Standard).expect("lengths match");
        black_box(dec.decode_section(&layouts[0])).ok();
    }
    // Adjacent comparator for the disabled-overhead gate: the same
    // decode through the public `receive()` API, measured back-to-back
    // with the noop row so CPU frequency/thermal drift between bench
    // sections cancels out of the ratio (the sc_* pair below gets this
    // for free by construction). The headline `rx_1500B_qam64` row in
    // bench_full_chain keeps its own timing for the paired gate.
    results.push(measure("rx_1500B_qam64_obs_plain", || {
        black_box(receive(
            black_box(&frame.samples),
            &layouts,
            Estimation::Standard,
        ))
        .ok();
    }));
    results.push(measure("rx_1500B_qam64_obs_noop", || {
        let mut dec =
            FrameDecoder::new(&frame.samples, Estimation::Standard).expect("lengths match");
        black_box(dec.decode_section(&layouts[0])).ok();
    }));
    let obs = Obs::with_recorder(Arc::new(MemoryRecorder::new()));
    results.push(measure("rx_1500B_qam64_obs_recording", || {
        let mut dec = FrameDecoder::new(&frame.samples, Estimation::Standard)
            .expect("lengths match")
            .with_obs(obs.clone());
        black_box(dec.decode_section(&layouts[0])).ok();
    }));

    // Flight-recorder rows: the RTE + side-channel decode is where the
    // per-symbol trace hooks live, so the enabled-tracing cost is the
    // delta between these two rows (same waveform, same estimation).
    let sc_spec = SectionSpec::payload(pattern_bits(1500 * 8, 9), Mcs::QAM64_3_4);
    let sc_frame = transmit(std::slice::from_ref(&sc_spec)).expect("valid spec");
    let sc_layouts = [SectionLayout::of(&sc_spec)];
    let rte = Estimation::Rte(CalibrationRule::Average);
    for _ in 0..WARMUP {
        let mut dec = FrameDecoder::new(&sc_frame.samples, rte).expect("lengths match");
        black_box(dec.decode_section(&sc_layouts[0])).ok();
    }
    results.push(measure("rx_1500B_qam64_sc_plain", || {
        let mut dec = FrameDecoder::new(&sc_frame.samples, rte).expect("lengths match");
        black_box(dec.decode_section(&sc_layouts[0])).ok();
    }));
    let flight = Arc::new(FlightRecorder::new(carpool_obs::DEFAULT_TRACE_CAPACITY));
    let tracing_obs = Obs::noop().with_flight(flight.clone());
    results.push(measure("rx_1500B_qam64_sc_tracing", || {
        let mut dec = FrameDecoder::new(&sc_frame.samples, rte)
            .expect("lengths match")
            .with_obs(tracing_obs.clone());
        black_box(dec.decode_section(&sc_layouts[0])).ok();
    }));
    println!(
        "flight recorder captured {} records over {} traced decodes ({} dropped)",
        flight.len(),
        WARMUP + SAMPLES,
        flight.dropped()
    );
}

/// Times the `mac_dense_16ap` scenario: 16 AP contention domains of 64
/// STAs each on the sharded MAC event engine, for half a simulated
/// second. The engine's whole point is allocation-free event
/// dispatch, so a slower row means the MAC hot path regressed.
fn bench_mac_dense(results: &mut Vec<SpanStats>) {
    let config = carpool_mac::DenseConfig {
        cell: carpool_mac::sim::SimConfig {
            num_stas: 64,
            num_aps: 1,
            duration_s: 0.5,
            seed: 7,
            ..carpool_mac::sim::SimConfig::default()
        },
        domains: 16,
        ..carpool_mac::DenseConfig::default()
    };
    let obs = Obs::noop();
    results.push(measure("mac_dense_16ap", || {
        black_box(carpool_mac::run_dense(
            &config,
            |_| Box::new(carpool_mac::BerBiasModel::calibrated()),
            &obs,
        ))
        .expect("dense run does not panic");
    }));
}

/// Times every row, prints the table and writes [`ROWS_PATH`].
fn run_rows() {
    println!("viterbi kernel: {}", viterbi_kernel());
    let mut results: Vec<SpanStats> = Vec::new();
    bench_fft(&mut results);
    bench_coding(&mut results);
    bench_equalizer(&mut results);
    bench_interleaver_and_mapping(&mut results);
    bench_bloom(&mut results);
    bench_side_channel(&mut results);
    bench_full_chain(&mut results);
    bench_channel(&mut results);
    bench_obs_overhead(&mut results);
    bench_mac_dense(&mut results);

    println!(
        "{:<36} {:>8} {:>12} {:>12} {:>12}",
        "benchmark", "samples", "median us", "min us", "max us"
    );
    for s in &results {
        println!(
            "{:<36} {:>8} {:>12.2} {:>12.2} {:>12.2}",
            s.name,
            s.count(),
            s.median_secs() * 1e6,
            s.min_secs() * 1e6,
            s.max_secs() * 1e6
        );
    }

    let body: Vec<String> = results.iter().map(json_entry).collect();
    write_json(
        ROWS_PATH,
        &format!(
            "{{\"bench\":\"phy_micro\",\"nproc\":{},\"viterbi_kernel\":\"{}\",\
             \"samples_per_entry\":{SAMPLES},\"results\":[{}]}}\n",
            nproc(),
            viterbi_kernel(),
            body.join(",")
        ),
    );
}

/// One row of one run, as `BENCH_phy_micro.json` holds it.
struct Row {
    name: String,
    median_us: f64,
    min_us: f64,
}

/// One run's rows, in table order.
type Rows = Vec<Row>;

/// Runs `exe` with `dir` as its working directory and reads the rows it
/// wrote there.
fn run_child(exe: &Path, dir: &Path) -> Result<Rows, String> {
    let path = dir.join(ROWS_PATH);
    // A stale file must not stand in for a run that wrote nothing.
    let _ = std::fs::remove_file(&path);
    let status = Command::new(exe)
        .current_dir(dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !status.success() {
        return Err(format!("{} failed: {status}", exe.display()));
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{} wrote no {}: {e}", exe.display(), path.display()))?;
    let doc = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(JsonValue::Array(results)) = doc.get("results") else {
        return Err(format!("{}: no results array", path.display()));
    };
    let rows: Rows = results
        .iter()
        .filter_map(|row| {
            Some(Row {
                name: row.get("name")?.as_str()?.to_string(),
                median_us: row.get("median_us")?.as_f64()?,
                min_us: row.get("min_us")?.as_f64()?,
            })
        })
        .collect();
    if rows.is_empty() {
        return Err(format!("{}: no rows", path.display()));
    }
    Ok(rows)
}

/// The paired runs: `[parent, change]`, [`PAIRS`] runs each.
fn run_pairs(parent: &Path) -> Result<[Vec<Rows>; 2], String> {
    let change = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let exes = [parent, change.as_path()];
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("phy_micro_pairs");
    let dirs = [scratch.join("parent"), scratch.join("change")];
    for dir in &dirs {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let t0 = Instant::now();
    let mut runs: [Vec<Rows>; 2] = Default::default();
    for pair in 0..PAIRS {
        // Alternate which binary goes first, so a drift within a pair
        // does not always favour the same side.
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            runs[side].push(run_child(exes[side], &dirs[side])?);
        }
    }
    println!(
        "{PAIRS} paired runs of each binary in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    Ok(runs)
}

/// One statistic of `row` from every run, NaN where a run lacks the row.
fn column(runs: &[Rows], row: &str, pick: fn(&Row) -> f64) -> Vec<f64> {
    runs.iter()
        .map(|run| run.iter().find(|r| r.name == row).map_or(f64::NAN, pick))
        .collect()
}

/// Compares this binary against `parent` and writes the verdicts.
/// Returns whether every fatal gate passed.
fn paired(parent: &Path) -> Result<bool, String> {
    let [parent_runs, change_runs] = run_pairs(parent)?;

    // The change's rows in table order, then any fatal row it dropped.
    let mut names: Vec<&str> = change_runs[0].iter().map(|r| r.name.as_str()).collect();
    for row in FATAL_ROWS {
        if !names.contains(&row) {
            names.push(row);
        }
    }
    println!(
        "\n{PAIRS} pairs on {} core(s); change/parent ratio of the row medians, \
         median [95% interval]",
        nproc()
    );
    let mut fatal = 0usize;
    let mut rows_json = Vec::new();
    for name in names {
        if !parent_runs.iter().flatten().any(|r| r.name == name) {
            println!("{name:<36} new row, nothing to compare");
            continue;
        }
        let is_fatal = FATAL_ROWS.contains(&name);
        let v = paired_ratio(
            &column(&change_runs, name, |r| r.median_us),
            &column(&parent_runs, name, |r| r.median_us),
            REGRESSION_BOUND,
        );
        let marker = match (v.above_bound, is_fatal) {
            (true, true) => "  <-- REGRESSION (fatal)",
            (true, false) => "  <-- slower (advisory)",
            (false, _) => "",
        };
        println!(
            "{name:<36} {:>7.3} [{:.3}, {:.3}]{marker}",
            v.median, v.lo, v.hi
        );
        fatal += usize::from(v.above_bound && is_fatal);
        let mut w = ObjectWriter::new();
        w.str("name", name)
            .f64("ratio", v.median)
            .f64("lo", v.lo)
            .f64("hi", v.hi)
            .bool("fatal_row", is_fatal)
            .bool("regressed", v.above_bound);
        rows_json.push(w.finish());
    }
    let rows_ok = fatal == 0;
    if rows_ok {
        println!("perf gate ok: no fatal row slower than the parent by >15%");
    } else {
        println!("PERF REGRESSION: {fatal} fatal row(s) slower than the parent by >15%");
    }
    write_json(
        PERF_PATH,
        &format!(
            "{{\"bench\":\"phy_micro_paired\",\"nproc\":{},\"pairs\":{PAIRS},\
             \"viterbi_kernel\":\"{}\",\"bound\":{REGRESSION_BOUND},\
             \"fatal_regressions\":{fatal},\"gate_ok\":{rows_ok},\"rows\":[{}]}}\n",
            nproc(),
            viterbi_kernel(),
            rows_json.join(",")
        ),
    );

    // The obs gate: mins over the change's own runs, where each pair of
    // rows was timed back to back.
    let mins = |row| column(&change_runs, row, |r| r.min_us);
    let disabled = paired_ratio(
        &mins("rx_1500B_qam64_obs_noop"),
        &mins("rx_1500B_qam64_obs_plain"),
        DISABLED_BOUND,
    );
    let tracing = paired_ratio(
        &mins("rx_1500B_qam64_sc_tracing"),
        &mins("rx_1500B_qam64_sc_plain"),
        TRACING_BOUND,
    );
    println!("\nobs overhead gate (change runs, min/min, median [95% interval]):");
    println!(
        "  disabled path vs plain: {:.4} [{:.4}, {:.4}], bound {DISABLED_BOUND}{}",
        disabled.median,
        disabled.lo,
        disabled.hi,
        if disabled.above_bound {
            "  <-- REGRESSION (fatal)"
        } else {
            ", ok"
        }
    );
    println!(
        "  enabled tracing vs untraced: {:.4} [{:.4}, {:.4}], budget {TRACING_BOUND}{}",
        tracing.median,
        tracing.lo,
        tracing.hi,
        if tracing.above_bound {
            "  <-- over budget (warning only)"
        } else {
            ", ok"
        }
    );
    let mut w = ObjectWriter::new();
    w.str("bench", "obs_overhead")
        .u64("nproc", nproc())
        .u64("pairs", PAIRS as u64)
        .f64("disabled_ratio", disabled.median)
        .f64("disabled_lo", disabled.lo)
        .f64("disabled_hi", disabled.hi)
        .f64("disabled_bound", DISABLED_BOUND)
        .bool("disabled_regressed", disabled.above_bound)
        .f64("tracing_ratio", tracing.median)
        .f64("tracing_lo", tracing.lo)
        .f64("tracing_hi", tracing.hi)
        .f64("tracing_bound", TRACING_BOUND)
        .bool("tracing_within_budget", !tracing.above_bound);
    write_json(OBS_PATH, &format!("{}\n", w.finish()));
    Ok(rows_ok && !disabled.above_bound)
}

fn write_json(path: &str, json: &str) {
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

/// Whether `path` names an executable file.
fn is_executable(path: &Path) -> bool {
    let Ok(meta) = std::fs::metadata(path) else {
        return false;
    };
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        meta.is_file() && meta.permissions().mode() & 0o111 != 0
    }
    #[cfg(not(unix))]
    {
        meta.is_file()
    }
}

/// The parent binary `--against` names, if any. Cargo passes `--bench`;
/// any other argument is an error.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<PathBuf>, String> {
    let mut against = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => {}
            "--against" if against.is_none() => {
                let path = PathBuf::from(args.next().ok_or("--against needs a path")?);
                if !is_executable(&path) {
                    return Err(format!(
                        "--against {}: not an executable file",
                        path.display()
                    ));
                }
                against = Some(path);
            }
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    Ok(against)
}

fn main() {
    let against = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!(
            "phy_micro: {e}\nusage: phy_micro [--bench] [--against <parent phy_micro binary>]"
        );
        std::process::exit(2);
    });
    let Some(parent) = against else {
        run_rows();
        return;
    };
    match paired(&parent) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("phy_micro: {e}");
            std::process::exit(2);
        }
    }
}
