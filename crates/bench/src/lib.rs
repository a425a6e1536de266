//! Shared measurement harness for the figure/table benches.
//!
//! Every table and figure of the paper's evaluation has a bench target
//! (`harness = false`) that prints the same rows/series the paper
//! reports. This library holds the common machinery: deterministic bit
//! patterns, the raw-BER view of the PHY Monte-Carlo loop (BER per
//! symbol position, side channel vs data channel) and MAC sweep helpers.
#![allow(
    clippy::print_stdout,
    reason = "tool crate: prints the figure tables shared by the bench targets"
)]

use carpool::montecarlo::{run_frames, ChannelPoint};
use carpool_mac::error_model::BerBiasModel;
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::{SimConfig, Simulator};
use carpool_mac::SimReport;
use carpool_phy::mcs::Mcs;
use carpool_phy::rx::{Estimation, Fec};
use carpool_phy::tx::{SectionSpec, SideChannelConfig};

pub use carpool::montecarlo::Fading;

/// Deterministic pseudo-random bits (xorshift), so every bench run
/// measures the same payloads.
pub fn pattern_bits(n: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x & 1) as u8
        })
        .collect()
}

/// Outcome of a PHY Monte-Carlo run.
#[derive(Debug, Clone, Default)]
pub struct PhyBerResult {
    /// Raw (pre-FEC) data bit error rate.
    pub data_ber: f64,
    /// Side-channel bit error rate (0 when the side channel is off).
    pub side_ber: f64,
    /// Raw BER per OFDM symbol position.
    pub ber_by_symbol: Vec<f64>,
}

/// The office-link fading used by the long-frame experiments.
pub const OFFICE_FADING: Fading = Fading::TimeVarying {
    coherence_s: 4e-3,
    rician_k: 15.0,
};

/// Configuration of a PHY Monte-Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct PhyRunConfig {
    /// Modulation and coding scheme of the payload.
    pub mcs: Mcs,
    /// Payload bits per frame.
    pub payload_bits: usize,
    /// Side channel on the payload section?
    pub side_channel: Option<SideChannelConfig>,
    /// Receiver estimation mode.
    pub estimation: Estimation,
    /// Receive SNR in dB.
    pub snr_db: f64,
    /// Fading model.
    pub fading: Fading,
    /// Residual CFO in Hz.
    pub cfo_hz: f64,
    /// Frames to average over.
    pub frames: usize,
    /// Base seed; frame `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for PhyRunConfig {
    fn default() -> Self {
        PhyRunConfig {
            mcs: Mcs::QAM64_3_4,
            payload_bits: 8 * 1024 * 8, // 8 KB
            side_channel: Some(SideChannelConfig::default()),
            estimation: Estimation::Standard,
            snr_db: 28.0,
            fading: OFFICE_FADING,
            cfo_hz: 100.0,
            frames: 20,
            seed: 1000,
        }
    }
}

/// Runs the PHY chain through the channel `config.frames` times on
/// [`carpool::montecarlo::run_frames`] and turns its tally into raw-BER
/// statistics.
///
/// The receiver stops before FEC ([`Fec::Off`]): the figures tally
/// pre-FEC BER (raw symbol bits and side-channel values), so the
/// Viterbi decode and descrambling would only produce bits nobody reads.
/// Frame `i` uses the channel seed `config.seed + i`, so the result does
/// not depend on the thread count (`CARPOOL_THREADS`).
pub fn run_phy(config: &PhyRunConfig) -> PhyBerResult {
    let spec = SectionSpec {
        bits: pattern_bits(config.payload_bits, 77),
        mcs: config.mcs,
        scramble: true,
        side_channel: config.side_channel,
        qbpsk: false,
    };
    let channel = ChannelPoint {
        snr_db: config.snr_db,
        fading: config.fading,
        cfo_hz: config.cfo_hz,
    };
    // pattern_bits yields only 0/1 and the MCS comes from the library
    // table, so the run cannot fail; degrade to an empty result instead
    // of panicking if that invariant ever breaks.
    let Ok(total) = run_frames(
        &spec,
        channel,
        config.estimation,
        Fec::Off,
        config.frames,
        config.seed,
        &carpool_obs::Obs::noop(),
    ) else {
        return PhyBerResult::default();
    };
    let bit_errors: usize = total.bit_errors_by_symbol.iter().sum();
    let sym_bits = config.mcs.coded_bits_per_symbol();
    PhyBerResult {
        data_ber: bit_errors as f64 / total.bits.max(1) as f64,
        side_ber: total.side_errors as f64 / total.side_bits.max(1) as f64,
        ber_by_symbol: total
            .bit_errors_by_symbol
            .into_iter()
            .map(|e| e as f64 / (config.frames * sym_bits) as f64)
            .collect(),
    }
}

/// Runs the MAC simulator with the calibrated error model.
pub fn run_mac(config: SimConfig) -> SimReport {
    Simulator::new(config, Box::new(BerBiasModel::calibrated())).run()
}

/// The five protocols every MAC sweep compares, in paper order.
pub const SWEEP_PROTOCOLS: [Protocol; 5] = [
    Protocol::Carpool,
    Protocol::MuAggregation,
    Protocol::Ampdu,
    Protocol::Dot11,
    Protocol::Wifox,
];

/// A right-aligned results table: one header row plus value rows, every
/// column padded to its widest cell. The figure/table benches all print
/// this same shape (a key column and a few numeric columns), so the
/// formatting lives here instead of being copy-pasted per bench.
#[derive(Debug, Clone, Default)]
pub struct ResultsTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultsTable {
    /// A table with the given header cells.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> ResultsTable {
        ResultsTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// A `key` column followed by one column per sweep protocol.
    pub fn for_protocols(key: &str) -> ResultsTable {
        let mut headers = vec![key.to_string()];
        headers.extend(SWEEP_PROTOCOLS.iter().map(|p| p.name().to_string()));
        ResultsTable::new(headers)
    }

    /// Appends one row; short rows are padded with empty cells.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table, each column right-aligned to its widest cell.
    pub fn render(&self) -> String {
        let columns = self
            .rows
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(self.headers.len());
        let mut widths = vec![0usize; columns];
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            for (i, width) in widths.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                for _ in cell.chars().count()..*width {
                    out.push(' ');
                }
                out.push_str(cell);
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Bootstrap resamples behind a [`PairedRatio`] interval.
const BOOTSTRAP_RESAMPLES: usize = 2000;

/// Seed of the bootstrap's xorshift stream, fixed so that the same
/// samples always give the same interval.
const BOOTSTRAP_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// A paired comparison of two timings of the same row, run by run: the
/// median of the ratios `change[i] / parent[i]` and its 95% percentile
/// bootstrap interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedRatio {
    /// Median of the per-run ratios.
    pub median: f64,
    /// 2.5th percentile of the bootstrapped medians.
    pub lo: f64,
    /// 97.5th percentile of the bootstrapped medians.
    pub hi: f64,
    /// Whether the whole interval lies above the bound: the change is
    /// slower than `bound` times the parent beyond the run-to-run noise.
    pub above_bound: bool,
}

/// Compares `change` against `parent`, where `change[i]` and
/// `parent[i]` were timed in the same pair of runs.
///
/// Fails closed: samples that are missing (an empty `change`), unequal
/// in number, or not all finite and positive (a NaN stands for a row a
/// run did not report) give NaN statistics and `above_bound`.
pub fn paired_ratio(change: &[f64], parent: &[f64], bound: f64) -> PairedRatio {
    let valid = |x: &f64| x.is_finite() && *x > 0.0;
    if change.is_empty() || change.len() != parent.len() || !change.iter().chain(parent).all(valid)
    {
        return PairedRatio {
            median: f64::NAN,
            lo: f64::NAN,
            hi: f64::NAN,
            above_bound: true,
        };
    }
    let mut ratios: Vec<f64> = change.iter().zip(parent).map(|(c, p)| c / p).collect();
    let mut x = BOOTSTRAP_SEED;
    let mut resample = vec![0.0; ratios.len()];
    let mut medians: Vec<f64> = (0..BOOTSTRAP_RESAMPLES)
        .map(|_| {
            for slot in &mut resample {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *slot = ratios[(x % ratios.len() as u64) as usize];
            }
            median(&mut resample)
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    let lo = medians[BOOTSTRAP_RESAMPLES / 40];
    let hi = medians[BOOTSTRAP_RESAMPLES - 1 - BOOTSTRAP_RESAMPLES / 40];
    PairedRatio {
        median: median(&mut ratios),
        lo,
        hi,
        above_bound: lo > bound,
    }
}

/// Median of a non-empty slice, sorting it in place.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Prints a bench banner so `cargo bench` output is navigable.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("=== {id} — {caption} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_bits_deterministic_and_binary() {
        let a = pattern_bits(1000, 7);
        let b = pattern_bits(1000, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x <= 1));
        assert_ne!(a, pattern_bits(1000, 8));
    }

    #[test]
    fn phy_run_on_clean_channel_has_zero_ber() {
        let config = PhyRunConfig {
            payload_bits: 4000,
            frames: 2,
            snr_db: 60.0,
            fading: Fading::None,
            cfo_hz: 0.0,
            ..PhyRunConfig::default()
        };
        let r = run_phy(&config);
        assert_eq!(r.data_ber, 0.0);
        assert_eq!(r.side_ber, 0.0);
        assert!(r.ber_by_symbol.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn phy_run_at_low_snr_has_errors() {
        let config = PhyRunConfig {
            payload_bits: 4000,
            frames: 2,
            snr_db: 10.0,
            ..PhyRunConfig::default()
        };
        let r = run_phy(&config);
        assert!(r.data_ber > 0.0);
    }

    #[test]
    fn mac_runner_smoke() {
        let mut cfg = carpool::voip_cell(Protocol::Carpool, 10, 1);
        cfg.duration_s = 1.0;
        let r = run_mac(cfg);
        assert!(r.downlink.delivered_frames > 0);
    }

    /// Twenty deterministic timings around `base` with a few percent of
    /// spread, like one row of twenty `phy_micro` runs.
    fn timings(base: f64, seed: u64) -> Vec<f64> {
        pattern_bits(20 * 8, seed)
            .chunks(8)
            .map(|byte| {
                let level = byte.iter().fold(0u32, |acc, &b| acc * 2 + u32::from(b));
                base * (0.95 + 0.1 * f64::from(level) / 255.0)
            })
            .collect()
    }

    #[test]
    fn paired_ratio_of_identical_samples_contains_one() {
        let parent = timings(400.0, 3);
        let same = paired_ratio(&parent, &parent, 1.15);
        assert_eq!((same.median, same.lo, same.hi), (1.0, 1.0, 1.0));
        assert!(!same.above_bound);
        // Two independent draws from one distribution: an A/A run.
        let a_a = paired_ratio(&timings(400.0, 5), &parent, 1.15);
        assert!(a_a.lo <= 1.0 && 1.0 <= a_a.hi, "{a_a:?}");
        assert!(!a_a.above_bound);
        // The same inputs give the same interval.
        assert_eq!(a_a, paired_ratio(&timings(400.0, 5), &parent, 1.15));
    }

    #[test]
    fn paired_ratio_flags_a_thirty_percent_slowdown() {
        let parent = timings(15.0, 7);
        let slower: Vec<f64> = timings(15.0, 9).iter().map(|t| t * 1.3).collect();
        let verdict = paired_ratio(&slower, &parent, 1.15);
        assert!(verdict.lo > 1.15, "{verdict:?}");
        assert!(verdict.above_bound);
        assert!(verdict.lo <= verdict.median && verdict.median <= verdict.hi);
    }

    #[test]
    fn paired_ratio_fails_closed_on_missing_or_nan_samples() {
        let parent = timings(400.0, 3);
        let mut nan = parent.clone();
        nan[4] = f64::NAN;
        for change in [&[][..], &vec![f64::NAN; parent.len()], &nan, &parent[1..]] {
            let verdict = paired_ratio(change, &parent, 1.15);
            assert!(verdict.above_bound, "{change:?}");
            assert!(verdict.median.is_nan());
        }
        assert!(paired_ratio(&parent, &nan, 1.15).above_bound);
    }

    #[test]
    fn results_table_right_aligns_columns() {
        let mut t = ResultsTable::new(["STAs", "Carpool"]);
        t.row(["10", "1.23"]).row(["30", "12.30"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[0], "STAs Carpool");
        assert_eq!(lines[1], "  10    1.23");
        assert_eq!(lines[2], "  30   12.30");
    }

    #[test]
    fn results_table_pads_short_rows() {
        let mut t = ResultsTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert_eq!(t.render().lines().count(), 2);
    }

    #[test]
    fn protocol_table_has_all_five_columns() {
        let t = ResultsTable::for_protocols("STAs");
        let header = t.render();
        for p in SWEEP_PROTOCOLS {
            assert!(header.contains(p.name()), "missing {}", p.name());
        }
    }
}
