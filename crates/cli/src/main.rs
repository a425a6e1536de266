//! `carpool` — command-line driver for the Carpool reproduction.
//!
//! ```console
//! carpool phy-ber  --mcs qam64-3/4 --snr 28 --coherence-ms 4 --frames 20 [--rte] [--soft]
//! carpool mac-sim  --protocol carpool --stas 30 --duration 8 [--background] [--hidden 0.3] [--rts-cts]
//! carpool sweep    --from 10 --to 30 --step 4 --duration 6 [--background]
//! carpool frame    --receivers 4 --bytes 400 --snr 30
//! carpool bloom    --receivers 8 --hashes 4
//! ```
#![allow(
    clippy::disallowed_methods,
    clippy::print_stderr,
    clippy::print_stdout,
    reason = "tool binary: terminal output and wall-clock timing are its job"
)]

mod args;
mod obs_session;
mod report;

use args::Args;
use carpool::link::CarpoolLink;
use carpool_bloom::analysis::{
    false_positive_ratio, measure_false_positive_ratio_obs, optimal_hash_count,
};
use carpool_channel::link::LinkChannel;
use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{CarpoolFrame, Subframe};
use carpool_mac::error_model::BerBiasModel;
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::{HiddenTerminals, SimConfig, Simulator, UplinkTraffic};
use carpool_phy::bits::hamming_distance;
use carpool_phy::convolutional::CodeRate;
use carpool_phy::mcs::Mcs;
use carpool_phy::modulation::Modulation;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{receive_with, Estimation, Fec, SectionLayout};
use carpool_phy::tx::SectionSpec;
use carpool_phy::txcache::transmit_cached;
use carpool_traffic::background::{BackgroundSource, Transport};
use carpool_traffic::trace::Trace;
use carpool_traffic::voip::VoipSource;
use rand::rngs::StdRng;
use rand::SeedableRng;

const HELP: &str = "\
carpool — multi-receiver PHY frame aggregation for public WLANs

USAGE:
    carpool <COMMAND> [--key value ...]

COMMANDS:
    phy-ber    Monte-Carlo BER of the OFDM PHY over the office channel
               --mcs <bpsk|qpsk|qam16|qam64>[-1/2|-2/3|-3/4]  (default qam64-3/4)
               --snr <dB=28> --coherence-ms <4> --rician-k <15> --cfo <100>
               --frames <20> --kbytes <4> --seed <1000> [--rte] [--soft]
    mac-sim    One MAC simulation in the paper's library scenario
               --protocol <carpool|mu|ampdu|dot11|wifox>  (default carpool)
               --stas <20> --aps <2> --duration <8> --seed <1>
               [--background] [--hidden <fraction>] [--rts-cts] [--time-fair]
    mac-dense  One large multi-AP scenario on the sharded event engine:
               N AP contention domains coupled through OBSS interference,
               stepped in parallel with deterministic boundary handoff
               (results are identical for every --shards/--threads value)
               --aps <16> --stas <64 per AP> --duration <2> --seed <1>
               --protocol <carpool|mu|ampdu|dot11|wifox>
               --shards <0 = one shard per domain> --coupling <0.25>
    sweep      Fig. 15/16-style sweep across all five protocols
               --from <10> --to <30> --step <4> --duration <6> [--background]
    frame      Build and deliver one Carpool frame end to end
               --receivers <3> --bytes <400> --snr <32> --seed <7>
    bloom      A-HDR false-positive analysis
               --receivers <8> --hashes <4> --trials <20000>
    gen-trace  Emit a synthetic public-WLAN packet trace (stdout)
               --stas <10> --duration <30> --seed <1> [--background]
    trace      Fig. 3-shaped single-frame run for the flight recorder:
               one long QAM64-3/4 aggregate over the office channel,
               traced end to end (use with --trace-out)
               --stas <4> --snr <30> --seed <42>
    report     Render a flight-record JSONL file (--obs, or the .jsonl
               beside --trace-out) as per-layer tables and frame
               timelines
               carpool report <path.jsonl>
    help       Show this message

OBSERVABILITY (accepted by every command):
    --obs <path.jsonl>   Stream every flight record (one per PHY/frame/
                         MAC/traffic decision) to a JSONL file; inspect
                         with `carpool report <path.jsonl>`.
    --obs-summary        Print the metrics registry (counters, gauges,
                         histogram quantiles, wall-clock spans) to stderr
                         when done.
    --trace-out <path>   Keep the newest records in the flight-recorder
                         ring and export them as Chrome trace_event JSON
                         (open in chrome://tracing or
                         https://ui.perfetto.dev) plus <path>.jsonl when
                         the command finishes.

PARALLELISM (accepted by every command):
    --threads <N>        Worker threads for parallel trial execution.
                         Default: the CARPOOL_THREADS environment
                         variable, else all cores. Results are identical
                         for every thread count.

PERFORMANCE (accepted by every command):
    --no-tx-cache        Disable the process-wide TX waveform
                         memoization cache (also: CARPOOL_NO_TX_CACHE=1).
                         Results are byte-identical either way; the cache
                         only skips re-encoding identical frames across
                         sweep points.
";

/// Options every command accepts (observability, parallelism, TX cache).
const GLOBAL_OPTIONS: &[&str] = &["obs", "obs-summary", "trace-out", "threads", "no-tx-cache"];

/// The options `command` reads (`--help` alone without a command), or
/// `None` for an unknown command.
fn command_options(command: Option<&str>) -> Option<&'static [&'static str]> {
    Some(match command {
        None => &["help"],
        Some("phy-ber") => &[
            "mcs",
            "snr",
            "coherence-ms",
            "rician-k",
            "cfo",
            "frames",
            "kbytes",
            "seed",
            "rte",
            "soft",
        ],
        Some("mac-sim") => &[
            "protocol",
            "stas",
            "aps",
            "duration",
            "seed",
            "background",
            "hidden",
            "rts-cts",
            "time-fair",
        ],
        Some("mac-dense") => &[
            "protocol", "aps", "stas", "duration", "seed", "coupling", "shards",
        ],
        Some("sweep") => &["from", "to", "step", "duration", "background"],
        Some("frame") => &["receivers", "bytes", "snr", "seed"],
        Some("trace") => &["stas", "snr", "seed"],
        Some("bloom") => &["receivers", "hashes", "trials"],
        Some("gen-trace") => &["stas", "duration", "seed", "background"],
        Some("report") => &["path"],
        Some("help") => &[],
        Some(_) => return None,
    })
}

fn parse_mcs(spec: &str) -> Result<Mcs, String> {
    let lower = spec.to_lowercase();
    let (m, r) = lower.split_once('-').unwrap_or((lower.as_str(), ""));
    let modulation = match m {
        "bpsk" => Modulation::Bpsk,
        "qpsk" => Modulation::Qpsk,
        "qam16" => Modulation::Qam16,
        "qam64" => Modulation::Qam64,
        other => return Err(format!("unknown modulation '{other}'")),
    };
    let rate = match r {
        "" => match modulation {
            Modulation::Qam64 => CodeRate::ThreeQuarters,
            _ => CodeRate::Half,
        },
        "1/2" => CodeRate::Half,
        "2/3" => CodeRate::TwoThirds,
        "3/4" => CodeRate::ThreeQuarters,
        other => return Err(format!("unknown code rate '{other}'")),
    };
    Ok(Mcs::new(modulation, rate))
}

fn parse_protocol(spec: &str) -> Result<Protocol, String> {
    match spec.to_lowercase().as_str() {
        "carpool" => Ok(Protocol::Carpool),
        "mu" | "mu-aggregation" => Ok(Protocol::MuAggregation),
        "ampdu" | "a-mpdu" => Ok(Protocol::Ampdu),
        "dot11" | "802.11" | "80211" => Ok(Protocol::Dot11),
        "wifox" => Ok(Protocol::Wifox),
        other => Err(format!("unknown protocol '{other}'")),
    }
}

fn cmd_phy_ber(args: &Args, obs: &carpool_obs::Obs) -> Result<(), String> {
    let mcs = parse_mcs(args.get("mcs").unwrap_or("qam64-3/4"))?;
    let snr: f64 = args.get_or("snr", 28.0).map_err(|e| e.to_string())?;
    let coherence_ms: f64 = args
        .get_or("coherence-ms", 4.0)
        .map_err(|e| e.to_string())?;
    let rician_k: f64 = args.get_or("rician-k", 15.0).map_err(|e| e.to_string())?;
    let cfo: f64 = args.get_or("cfo", 100.0).map_err(|e| e.to_string())?;
    let frames: usize = args.get_or("frames", 20).map_err(|e| e.to_string())?;
    let kbytes: usize = args.get_or("kbytes", 4).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 1000).map_err(|e| e.to_string())?;
    let estimation = if args.flag("rte") {
        Estimation::Rte(CalibrationRule::Average)
    } else {
        Estimation::Standard
    };

    let payload: Vec<u8> = (0..kbytes * 1024 * 8)
        .map(|k| ((k * 31 + 7) % 5 < 2) as u8)
        .collect();
    let spec = SectionSpec::payload(payload.clone(), mcs);
    let tx = transmit_cached(std::slice::from_ref(&spec), obs).map_err(|e| e.to_string())?;
    let layouts = [SectionLayout::of(&spec)];

    let mut raw_errors = 0usize;
    let mut raw_total = 0usize;
    let mut payload_errors = 0usize;
    let mut frame_errors = 0usize;
    let fec = if args.flag("soft") {
        Fec::Soft
    } else {
        Fec::Hard
    };
    for f in 0..frames {
        let mut link = LinkChannel::builder()
            .snr_db(snr)
            .coherence_time(coherence_ms * 1e-3)
            .rician_k(rician_k)
            .cfo_hz(cfo)
            .seed(seed + f as u64)
            .build()
            .with_obs(obs.clone());
        let rx_samples = link.transmit(&tx.samples);
        let rx = receive_with(&rx_samples, &layouts, estimation, fec).map_err(|e| e.to_string())?;
        for (t, r) in tx.sections[0]
            .symbol_bits
            .iter()
            .zip(&rx.sections[0].raw_symbol_bits)
        {
            raw_errors += hamming_distance(t, r);
            raw_total += t.len();
        }
        let errs = hamming_distance(&payload, &rx.sections[0].bits);
        payload_errors += errs;
        frame_errors += (errs > 0) as usize;
        if obs.enabled() {
            obs.counter("phy.ber_frames", 1);
            obs.counter("phy.payload_bit_errors", errs as u64);
            obs.counter("phy.frame_errors", (errs > 0) as u64);
        }
    }
    println!("mcs {mcs}, {frames} frames x {kbytes} KiB, SNR {snr} dB, coherence {coherence_ms} ms, K {rician_k}, CFO {cfo} Hz");
    println!(
        "  estimation: {}{}",
        if args.flag("rte") { "RTE" } else { "standard" },
        if args.flag("soft") {
            " + soft Viterbi"
        } else {
            ""
        }
    );
    println!(
        "  raw (pre-FEC) BER : {:.3e}",
        raw_errors as f64 / raw_total as f64
    );
    println!(
        "  payload BER       : {:.3e}",
        payload_errors as f64 / (frames * payload.len()) as f64
    );
    println!(
        "  frame error rate  : {:.3}",
        frame_errors as f64 / frames as f64
    );
    Ok(())
}

fn cmd_mac_sim(args: &Args, obs: &carpool_obs::Obs) -> Result<(), String> {
    let protocol = parse_protocol(args.get("protocol").unwrap_or("carpool"))?;
    let mut config = SimConfig {
        protocol,
        num_stas: args.get_or("stas", 20).map_err(|e| e.to_string())?,
        num_aps: args.get_or("aps", 2).map_err(|e| e.to_string())?,
        duration_s: args.get_or("duration", 8.0).map_err(|e| e.to_string())?,
        seed: args.get_or("seed", 1).map_err(|e| e.to_string())?,
        use_rts_cts: args.flag("rts-cts"),
        ..SimConfig::default()
    };
    if args.flag("background") {
        config.uplink = Some(UplinkTraffic::default());
    }
    if let Some(f) = args.get("hidden") {
        let fraction: f64 = f.parse().map_err(|_| format!("invalid --hidden '{f}'"))?;
        config.hidden_terminals = Some(HiddenTerminals { fraction });
    }
    if args.flag("time-fair") {
        config.scheduler = carpool_mac::sim::SchedulerPolicy::TimeFair;
    }

    let report = Simulator::new(config, Box::new(BerBiasModel::calibrated()))
        .with_obs(obs.clone())
        .run();
    println!(
        "{protocol} — {} STAs, {:.0} s simulated",
        report.sta_airtime.len(),
        report.duration_s
    );
    println!(
        "  downlink: {:.2} Mbit/s, mean delay {:.3} s, {} delivered / {} dropped",
        report.downlink_goodput_mbps(),
        report.downlink_delay_s(),
        report.downlink.delivered_frames,
        report.downlink.dropped_frames
    );
    println!(
        "  uplink  : {:.2} Mbit/s, mean delay {:.3} s",
        report.uplink.goodput_bps(report.duration_s) / 1e6,
        report.uplink.mean_delay()
    );
    println!(
        "  channel : {} transmissions, {} collisions ({:.1}%), {} hidden losses, {:.2} frames/TXOP",
        report.channel.transmissions,
        report.channel.collisions,
        report.channel.collision_ratio() * 100.0,
        report.channel.hidden_collisions,
        report.channel.mean_aggregation()
    );
    Ok(())
}

fn cmd_mac_dense(args: &Args, obs: &carpool_obs::Obs) -> Result<(), String> {
    let protocol = parse_protocol(args.get("protocol").unwrap_or("carpool"))?;
    let domains: usize = args.get_or("aps", 16).map_err(|e| e.to_string())?;
    let cell = SimConfig {
        protocol,
        num_stas: args.get_or("stas", 64).map_err(|e| e.to_string())?,
        num_aps: 1,
        duration_s: args.get_or("duration", 2.0).map_err(|e| e.to_string())?,
        seed: args.get_or("seed", 1).map_err(|e| e.to_string())?,
        ..SimConfig::default()
    };
    let config = carpool_mac::DenseConfig {
        cell,
        domains,
        obss_coupling: args.get_or("coupling", 0.25).map_err(|e| e.to_string())?,
        shards: args.get_or("shards", 0).map_err(|e| e.to_string())?,
        ..carpool_mac::DenseConfig::default()
    };
    let start = std::time::Instant::now();
    let report = carpool_mac::run_dense(&config, |_| Box::new(BerBiasModel::calibrated()), obs)
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{protocol} — {} AP domains x {} STAs, {:.0} s simulated",
        domains, config.cell.num_stas, report.duration_s
    );
    println!(
        "  downlink: {:.2} Mbit/s aggregate, {} delivered / {} dropped",
        report.downlink_goodput_mbps(),
        report.downlink.delivered_frames,
        report.downlink.dropped_frames
    );
    println!(
        "  channel : {} transmissions, {} collisions ({:.1}%)",
        report.channel.transmissions,
        report.channel.collisions,
        report.channel.collision_ratio() * 100.0
    );
    println!(
        "  engine  : {} MAC events in {:.3} s wall ({:.2} Mevents/s)",
        report.events,
        wall,
        report.events as f64 / wall / 1e6
    );
    Ok(())
}

fn cmd_sweep(args: &Args, obs: &carpool_obs::Obs) -> Result<(), String> {
    let from: usize = args.get_or("from", 10).map_err(|e| e.to_string())?;
    let to: usize = args.get_or("to", 30).map_err(|e| e.to_string())?;
    let step: usize = args.get_or("step", 4).map_err(|e| e.to_string())?;
    let duration: f64 = args.get_or("duration", 6.0).map_err(|e| e.to_string())?;
    if step == 0 || from > to {
        return Err("need --from <= --to and --step > 0".to_string());
    }
    let protocols = Protocol::ALL;
    print!("{:>6}", "STAs");
    for p in protocols {
        print!(" {:>15}", p.name());
    }
    println!("     (goodput Mbit/s / delay s)");
    for n in (from..=to).step_by(step) {
        print!("{n:>6}");
        for p in protocols {
            let mut cfg = SimConfig {
                protocol: p,
                num_stas: n,
                duration_s: duration,
                seed: 1,
                ..SimConfig::default()
            };
            if args.flag("background") {
                cfg.uplink = Some(UplinkTraffic::default());
            }
            let r = Simulator::new(cfg, Box::new(BerBiasModel::calibrated()))
                .with_obs(obs.clone())
                .run();
            print!(
                " {:>7.2}/{:<7.3}",
                r.downlink_goodput_mbps(),
                r.downlink_delay_s()
            );
        }
        println!();
    }
    Ok(())
}

fn cmd_frame(args: &Args, obs: &carpool_obs::Obs) -> Result<(), String> {
    let receivers: usize = args.get_or("receivers", 3).map_err(|e| e.to_string())?;
    let bytes: usize = args.get_or("bytes", 400).map_err(|e| e.to_string())?;
    let snr: f64 = args.get_or("snr", 32.0).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 7).map_err(|e| e.to_string())?;
    if !(1..=8).contains(&receivers) {
        return Err("--receivers must be 1..=8".to_string());
    }
    let subframes: Vec<Subframe> = (0..receivers as u16)
        .map(|k| Subframe::new(MacAddress::station(k), Mcs::QAM16_1_2, vec![k as u8; bytes]))
        .collect();
    let frame = CarpoolFrame::new(subframes).map_err(|e| e.to_string())?;
    println!(
        "frame: {receivers} subframes x {bytes} B, A-HDR {}",
        frame.header()
    );
    let mut link = CarpoolLink::builder()
        .snr_db(snr)
        .seed(seed)
        .build()
        .with_obs(obs.clone());
    for k in 0..receivers as u16 {
        let sta = MacAddress::station(k);
        let rx = link.deliver(&frame, sta).map_err(|e| e.to_string())?;
        let ok = rx
            .payload_at(k as usize)
            .map(|p| p == &frame.subframes()[k as usize].payload[..])
            == Some(true);
        println!(
            "  {sta}: matched {:?}, payload {}, decoded/skipped {}/{} symbols",
            rx.matched_indices,
            if ok { "intact" } else { "MISSING/CORRUPT" },
            rx.symbols_decoded,
            rx.symbols_skipped
        );
    }
    Ok(())
}

fn cmd_trace(args: &Args, obs: &carpool_obs::Obs) -> Result<(), String> {
    let stas: usize = args.get_or("stas", 4).map_err(|e| e.to_string())?;
    let snr: f64 = args.get_or("snr", 30.0).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
    if !(1..=8).contains(&stas) {
        return Err("--stas must be 1..=8".to_string());
    }
    if !obs.tracing() {
        eprintln!(
            "# note: no --trace-out or --obs given; no records kept (add --trace-out trace.json)"
        );
    }
    let summary = carpool::fig03_flight_trace(stas, snr, seed, obs).map_err(|e| e.to_string())?;
    println!(
        "fig03 flight trace: {}/{} stations delivered, {} payload symbols on air ({} us)",
        summary.delivered,
        summary.stations,
        summary.payload_symbols,
        summary.payload_symbols as f64 * carpool_phy::mcs::SYMBOL_DURATION * 1e6
    );
    Ok(())
}

fn cmd_bloom(args: &Args, obs: &carpool_obs::Obs) -> Result<(), String> {
    let receivers: usize = args.get_or("receivers", 8).map_err(|e| e.to_string())?;
    let hashes: usize = args.get_or("hashes", 4).map_err(|e| e.to_string())?;
    let trials: usize = args.get_or("trials", 20_000).map_err(|e| e.to_string())?;
    if receivers == 0 || receivers > 8 {
        return Err("--receivers must be 1..=8".to_string());
    }
    let mut rng = StdRng::seed_from_u64(11);
    println!("A-HDR with {receivers} receivers, h = {hashes}:");
    println!(
        "  optimal h          : {:.2}",
        optimal_hash_count(receivers)
    );
    println!(
        "  analytic r_FP      : {:.3}%",
        false_positive_ratio(hashes, receivers) * 100.0
    );
    println!(
        "  measured r_FP      : {:.3}%  ({trials} trials)",
        measure_false_positive_ratio_obs(hashes, receivers, trials, &mut rng, obs) * 100.0
    );
    println!(
        "  vs explicit headers: {:.1}% of the bits",
        48.0 / (48.0 * receivers as f64) * 100.0
    );
    Ok(())
}

fn cmd_gen_trace(args: &Args, obs: &carpool_obs::Obs) -> Result<(), String> {
    let stas: u16 = args.get_or("stas", 10).map_err(|e| e.to_string())?;
    let duration: f64 = args.get_or("duration", 30.0).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 1).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut downlink = Vec::new();
    let mut uplink = Vec::new();
    for sta in 0..stas {
        let mut down = VoipSource::new().generate(duration, &mut rng);
        let mut up = VoipSource::new().generate(duration, &mut rng);
        if args.flag("background") {
            // Downlink-dominant data on top of the calls, reproducing
            // the ~4:1 volume asymmetry of Fig. 1(c).
            let transport = if sta % 2 == 0 {
                Transport::Tcp
            } else {
                Transport::Udp
            };
            down.extend(
                BackgroundSource::new(transport)
                    .with_rate_scale(4.0)
                    .generate(duration, &mut rng),
            );
            up.extend(BackgroundSource::new(transport).generate(duration, &mut rng));
        }
        downlink.push((sta, down));
        uplink.push((sta, up));
    }
    let trace = Trace::from_arrivals(&downlink, &uplink);
    trace.emit_obs(obs);
    let stats = trace.volume_stats();
    print!("{}", trace.to_text());
    eprintln!(
        "# {} records over {duration} s, downlink share {:.1}%",
        trace.len(),
        stats.downlink_ratio() * 100.0
    );
    Ok(())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{HELP}");
            std::process::exit(2);
        }
    };
    // A subcommand rejects every option it does not read; the unknown
    // command itself is reported below.
    if let Some(opts) = command_options(args.command()) {
        if let Err(e) = args.check_options(&[GLOBAL_OPTIONS, opts]) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let session = match obs_session::ObsSession::from_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let obs = session.obs();
    if let Some(spec) = args.get("threads") {
        match spec.parse::<usize>() {
            Ok(n) if n >= 1 => carpool_par::set_thread_override(Some(n)),
            _ => {
                eprintln!("error: --threads expects a positive integer, got '{spec}'");
                std::process::exit(2);
            }
        }
    }
    if args.flag("no-tx-cache") {
        carpool_phy::txcache::set_enabled(false);
    }
    let result = match args.command() {
        Some("phy-ber") => cmd_phy_ber(&args, &obs),
        Some("mac-sim") => cmd_mac_sim(&args, &obs),
        Some("mac-dense") => cmd_mac_dense(&args, &obs),
        Some("sweep") => cmd_sweep(&args, &obs),
        Some("frame") => cmd_frame(&args, &obs),
        Some("trace") => cmd_trace(&args, &obs),
        Some("bloom") => cmd_bloom(&args, &obs),
        Some("gen-trace") => cmd_gen_trace(&args, &obs),
        Some("report") => report::cmd_report(&args),
        Some("help") | None => {
            println!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    session.finish();
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
