//! Robust summaries, operation tallies and output digests shared by the
//! workloads.

use std::fmt;
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Tail percentiles in per-mille, highest first. The reported tail is
/// the highest of these with at least [`TAIL_MIN_BEYOND`] samples above
/// it, so a p99 needs at least 1000 samples.
const TAIL_LADDER_PERMILLE: [usize; 5] = [990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of per-mille percentile `permille` among `n`
/// samples, in integer arithmetic so that e.g. p99 of 1000 is rank 990.
fn nearest_rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest percentile (in per-mille) of the ladder that has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it; the median when even
/// that has fewer.
pub fn tail_permille(n: usize) -> usize {
    TAIL_LADDER_PERMILLE
        .into_iter()
        .find(|&p| n >= 1 && n - nearest_rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(500)
}

/// Nearest-rank percentile of `values` at `permille`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], permille: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), permille) - 1]
}

/// Every timed call of a run and what the calls delivered.
#[derive(Debug, Default)]
pub struct Calls {
    /// Host seconds of each call.
    pub secs: Vec<f64>,
    /// Frames the calls delivered.
    pub frames: f64,
    /// Goodput bits the calls delivered.
    pub bits: f64,
    /// Simulated seconds the calls covered.
    pub sim_s: f64,
}

impl Calls {
    /// Summarizes the whole run: throughputs are totals over the summed
    /// call times, percentiles are over every call. On a shared host the
    /// speed drifts in waves of seconds to minutes; the whole-run totals
    /// moved least from run to run of every statistic tried (the faster
    /// half of the blocks, the median block, each input's fastest call),
    /// because they average over every wave instead of picking one.
    ///
    /// # Panics
    ///
    /// Panics when no call was timed.
    pub fn timing(&self) -> Timing {
        let total: f64 = self.secs.iter().sum();
        let tail = tail_permille(self.secs.len());
        Timing {
            frames_per_s: self.frames / total,
            goodput_mbit_per_s: self.bits / total / 1e6,
            sim_s_per_host_s: self.sim_s / total,
            p50_s: percentile(&self.secs, 500),
            tail_s: percentile(&self.secs, tail),
            tail_permille: tail,
            samples: self.secs.len(),
        }
    }
}

/// Timed metrics of a run.
#[derive(Debug)]
pub struct Timing {
    /// Frames per host second.
    pub frames_per_s: f64,
    /// Goodput, Mbit per host second.
    pub goodput_mbit_per_s: f64,
    /// Simulated seconds per host second.
    pub sim_s_per_host_s: f64,
    /// Median host seconds per call.
    pub p50_s: f64,
    /// Tail host seconds per call, at [`Timing::tail_permille`].
    pub tail_s: f64,
    /// Percentile of the tail, per mille (see [`tail_permille`]).
    pub tail_permille: usize,
    /// Call times the percentiles are taken over.
    pub samples: usize,
}

/// Attempted and failed operation counts. An operation is a call into the
/// library or one correctness check; an `Err` or a failed check fails it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed their check.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, reporting `what` on stderr when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Adds another tally's counts.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Runs `setup` `times` times, keeping the last result, and returns it
/// with the median wall time of one setup in seconds.
pub fn repeated_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        // Free the previous setup first so that peak memory holds one.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    let value = last.expect("setup ran at least once");
    (value, median(&secs))
}

/// FNV-1a 64-bit digest of simulated outputs. Feed it bytes or anything
/// `Debug` via `write!`: `Debug` prints every `f64` in its shortest
/// round-trip form, so equal digests mean bit-equal outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(999), 950);
        assert_eq!(tail_permille(200), 950);
        assert_eq!(tail_permille(199), 900);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(40), 750);
        assert_eq!(tail_permille(20), 500);
        assert_eq!(tail_permille(5), 500);
        for n in [20, 40, 100, 200, 1000, 5000] {
            let p = tail_permille(n);
            assert!(n - nearest_rank(n, p) >= TAIL_MIN_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&values, 990), 990.0);
        assert_eq!(percentile(&values, 500), 500.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn timing_totals_the_whole_run() {
        let calls = Calls {
            secs: vec![0.25, 0.5, 0.25, 1.0],
            frames: 8.0,
            bits: 4e6,
            sim_s: 0.5,
        };
        let t = calls.timing();
        assert_eq!((t.frames_per_s, t.goodput_mbit_per_s), (4.0, 2.0));
        assert_eq!(t.sim_s_per_host_s, 0.25);
        assert_eq!((t.p50_s, t.tail_s, t.tail_permille), (0.25, 0.25, 500));
        assert_eq!(t.samples, 4);
    }

    #[test]
    fn digest_separates_bit_different_floats() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        write!(a, "{:?}", 0.1 + 0.2).unwrap();
        write!(b, "{:?}", 0.3).unwrap();
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.check(true, String::new);
        t.check(false, || "expected".to_string());
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
