//! End-to-end and per-layer benchmark of the Carpool stack.
//!
//! ```text
//! carpool-perfbench --workload <link_mixed|phy_sweep|mac_cells> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every workload is one closed-loop caller: it issues its next call
//! into the library only after the previous one returned, with the
//! `carpool-par` pool pinned to one worker. Inputs are
//! generated from `--seed`; the library only sees the generated inputs.
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! spans at all. With `--trace 1` it times the benchmark's own calls into
//! each crate's public functions and prints the per-layer metrics. The
//! last line of stdout is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod link;
mod mac;
mod phy;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use stats::{Calls, Tally};

/// The seed that no tuning run used: claims must also hold on it.
pub const HELD_OUT_SEED: u64 = 90_917;

/// Setups run per measured run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;

/// Worker count the `carpool-par` pool is pinned to (capped by `nproc`).
/// One: on a shared 2-vCPU host the second vCPU's speed swings by a
/// quarter within seconds, which no in-run median removes. The parallel
/// paths stay covered by the thread- and shard-invariance checks.
const POOL_THREADS: usize = 1;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("frames_per_s", "1/s"),
    ("goodput_mbit_per_s", "Mbit/s"),
    ("frame_p50_us", "us"),
    ("frame_p99_us", "us"),
    ("delivery_ratio", "ratio"),
    ("sim_s_per_host_s", "s/s"),
];

/// Names of the five MAC protocols in per-layer metric names.
pub const PROTOCOL_KEYS: [&str; 5] = ["carpool", "mu_aggregation", "ampdu", "dot11", "wifox"];

/// Per-layer metrics that do not depend on the protocol list, printed by
/// every `--trace 1` run alongside [`mac_layer_metrics`].
const PER_LAYER: [(&str, &str); 24] = [
    ("frame.to_specs_us", "us"),
    ("phy.tx_us", "us"),
    ("phy.tx_ns_per_sample", "ns"),
    ("bloom.header_us", "us"),
    ("channel.transmit_us", "us"),
    ("channel.ns_per_sample", "ns"),
    ("frame.receive_addressed_us", "us"),
    ("frame.receive_outsider_us", "us"),
    ("frame.symbols_decoded", "count"),
    ("frame.symbols_skipped", "count"),
    ("frame.skip_ratio", "ratio"),
    ("bloom.false_positive_ratio", "ratio"),
    ("phy.rx_standard_us", "us"),
    ("phy.rx_rte_us", "us"),
    ("phy.txcache_hit_ratio", "ratio"),
    ("mac.events", "count"),
    ("mac.events_per_s", "1/s"),
    ("traffic.generate_ms", "ms"),
    ("par.run_sharded_us", "us"),
    ("par.map_scratch_us", "us"),
    ("obs.observed_overhead_frac", "ratio"),
    ("obs.flight_dropped", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The per-protocol MAC metrics: `mac.<p>.<stat>` for every protocol.
fn mac_layer_metrics() -> Vec<(String, &'static str)> {
    let stats = [
        ("ns_per_event", "ns"),
        ("collision_ratio", "ratio"),
        ("mean_aggregation", "count"),
        ("dropped_frames", "count"),
    ];
    PROTOCOL_KEYS
        .iter()
        .flat_map(|p| {
            stats
                .iter()
                .map(move |(s, unit)| (format!("mac.{p}.{s}"), *unit))
        })
        .collect()
}

/// Every per-layer metric name with its unit, in output order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &str)> = PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    all.extend(mac_layer_metrics());
    all
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `CarpoolLink::deliver_all` over mixed Carpool aggregates.
    LinkMixed,
    /// `run_phy` over a Fig. 14-shaped grid.
    PhySweep,
    /// `run_dense` on the Fig. 16 cell for all five protocols.
    MacCells,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "link_mixed" => Some(Workload::LinkMixed),
            "phy_sweep" => Some(Workload::PhySweep),
            "mac_cells" => Some(Workload::MacCells),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LinkMixed => "link_mixed",
            Workload::PhySweep => "phy_sweep",
            Workload::MacCells => "mac_cells",
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload's untraced run measured.
#[derive(Debug)]
pub struct EndToEnd {
    /// Median wall time of one setup (input generation plus warm-up).
    pub setup_s: f64,
    /// Every timed call.
    pub calls: Calls,
    /// Simulated delivery ratio over the first pass; repeats exactly.
    pub delivery_ratio: f64,
    /// Operation and check counts.
    pub tally: Tally,
    /// Digest of the simulated outputs of the first pass.
    pub digest: u64,
    /// What one "frame" and one operation are on this workload.
    pub units: &'static str,
}

/// Per-layer values gathered by a traced run.
pub type Layers = BTreeMap<String, f64>;

/// Records a per-layer value that more than one traced slice measures:
/// the requested workload's slice wins, otherwise the first slice that
/// measured it.
pub fn put_layer(layers: &mut Layers, name: &str, value: f64, primary: bool) {
    if primary || !layers.contains_key(name) {
        layers.insert(name.to_string(), value);
    }
}

/// Seconds each workload's traced slice gets: the requested workload
/// takes half of the run, the other two a quarter each, so every traced
/// run reports every layer.
fn slice(total: Duration, primary: bool) -> Duration {
    if primary {
        total / 2
    } else {
        total / 4
    }
}

fn run_end_to_end(args: &Args) -> (EndToEnd, Vec<(String, f64, &'static str)>) {
    let e2e = match args.workload {
        Workload::LinkMixed => link::run(args.seed, args.seconds),
        Workload::PhySweep => phy::run(args.seed, args.seconds),
        Workload::MacCells => mac::run(args.seed, args.seconds),
    };
    let t = e2e.calls.timing();
    println!(
        "{}; timed metrics over the whole run: {} calls, frame_p99_us reports \
         p{:.1}, the highest percentile with >= {} samples beyond it",
        e2e.units,
        t.samples,
        t.tail_permille as f64 / 10.0,
        stats::TAIL_MIN_BEYOND
    );
    println!("digest of simulated outputs: {:016x}", e2e.digest);
    let rss = stats::peak_rss_mib().unwrap_or(f64::NAN);
    let values = [
        e2e.setup_s,
        rss,
        t.frames_per_s,
        t.goodput_mbit_per_s,
        t.p50_s * 1e6,
        t.tail_s * 1e6,
        e2e.delivery_ratio,
        t.sim_s_per_host_s,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    (e2e, metrics)
}

fn run_traced(args: &Args) -> (Tally, Vec<(String, f64, &'static str)>) {
    let mut layers = Layers::new();
    let mut tally = Tally::default();
    let primary = args.workload;
    tally.add(link::traced(
        args.seed,
        slice(args.seconds, primary == Workload::LinkMixed),
        primary == Workload::LinkMixed,
        &mut layers,
    ));
    tally.add(phy::traced(
        args.seed,
        slice(args.seconds, primary == Workload::PhySweep),
        primary == Workload::PhySweep,
        &mut layers,
    ));
    tally.add(mac::traced(
        args.seed,
        slice(args.seconds, primary == Workload::MacCells),
        primary == Workload::MacCells,
        &mut layers,
    ));
    let metrics = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = layers.get(&name).copied().unwrap_or(f64::NAN);
            (name, value, unit)
        })
        .collect();
    (tally, metrics)
}

/// Renders the final result line.
fn result_json(tally: Tally, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: carpool-perfbench --workload <link_mixed|phy_sweep|mac_cells> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = POOL_THREADS.min(nproc);
    carpool_par::set_thread_override(Some(threads));
    println!(
        "workload {} seed {} seconds {} trace {}: pool threads {threads}, mac shards {}, \
         nproc {nproc}, held-out seed {HELD_OUT_SEED}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        mac::SHARDS,
    );

    let (tally, metrics) = if args.trace {
        run_traced(&args)
    } else {
        let (e2e, metrics) = run_end_to_end(&args);
        (e2e.tally, metrics)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    println!(
        "operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("error: metric {name} was not measured");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree, name for
    /// name and unit for unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let block = &text[start..];
            let block = &block[..block.find(']').expect("section closes")];
            block
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field present");
                        entry[at..]
                            .split('"')
                            .nth(3)
                            .expect("string value")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn args_are_strict() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = parse("--workload phy_sweep --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!(ok.workload, Workload::PhySweep);
        assert!(ok.trace);
        assert!(parse("--workload phy_sweep --seed 3 --seconds 2 --bogus 1").is_err());
        assert!(parse("--workload nope --seed 3 --seconds 2").is_err());
        assert!(parse("--workload mac_cells --seed 3 --seconds 0").is_err());
        assert!(parse("--workload mac_cells --seconds 2").is_err());
    }
}
