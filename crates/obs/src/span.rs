//! Lightweight wall-clock profiling spans.
//!
//! A [`SpanTimer`] measures one region for the RAII [`crate::SpanGuard`]
//! returned by [`crate::Obs::span`], which reports the duration to the
//! histogram metric `span.<name>` (in seconds) when it drops. Spans are
//! metrics only: wall-clock time never enters a flight record, so
//! record streams stay a pure function of the simulated run. When
//! observability is disabled the guard is inert: no clock read.

use std::time::Instant;

/// Start time of one open span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanTimer(Instant);

impl SpanTimer {
    #[expect(
        clippy::disallowed_methods,
        reason = "profiling-only; span durations feed stderr summaries, never figure or trace payloads"
    )]
    pub(crate) fn start() -> SpanTimer {
        SpanTimer(Instant::now())
    }

    /// Seconds elapsed since `start`.
    pub(crate) fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Aggregated wall-clock samples for one named region — used by bench
/// tooling that wants per-region stats without a full recorder.
#[derive(Debug, Clone)]
pub struct SpanStats {
    pub name: &'static str,
    samples: Vec<f64>,
}

impl SpanStats {
    pub fn new(name: &'static str) -> SpanStats {
        SpanStats {
            name,
            samples: Vec::new(),
        }
    }

    pub fn record(&mut self, secs: f64) {
        self.samples.push(secs);
    }

    /// Time one call of `f` and record it; returns `f`'s output.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        #[expect(
            clippy::disallowed_methods,
            reason = "profiling-only; recorded durations feed stderr summaries, never figure or trace payloads"
        )]
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_secs_f64());
        out
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }

    pub fn total_secs(&self) -> f64 {
        self.samples.iter().sum()
    }

    pub fn mean_secs(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.total_secs() / self.samples.len() as f64
        }
    }

    pub fn min_secs(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max_secs(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// Median of recorded samples (0.0 when empty).
    pub fn median_secs(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted[sorted.len() / 2]
    }

    /// Mean after dropping `⌊n·trim⌋` samples from each tail of the
    /// sorted sequence (0.0 when empty) — a scheduler-noise-robust
    /// location estimate for bench rows on shared machines. `trim` is
    /// the per-tail fraction; it is clamped so at least one sample
    /// always survives.
    pub fn trimmed_mean_secs(&self, trim: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let cut =
            ((sorted.len() as f64 * trim.clamp(0.0, 0.5)) as usize).min((sorted.len() - 1) / 2);
        let kept = &sorted[cut..sorted.len() - cut];
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_nonnegative_time() {
        assert!(SpanTimer::start().elapsed_secs() >= 0.0);
    }

    #[test]
    fn span_stats_aggregates() {
        let mut stats = SpanStats::new("encode");
        stats.record(0.002);
        stats.record(0.004);
        stats.record(0.003);
        assert_eq!(stats.count(), 3);
        assert!((stats.total_secs() - 0.009).abs() < 1e-12);
        assert!((stats.mean_secs() - 0.003).abs() < 1e-12);
        assert_eq!(stats.min_secs(), 0.002);
        assert_eq!(stats.max_secs(), 0.004);
        assert_eq!(stats.median_secs(), 0.003);
    }

    #[test]
    fn trimmed_mean_discards_tails() {
        let mut stats = SpanStats::new("rx");
        // One wild outlier among nine tight samples: the 10%-per-tail
        // trim drops the min and the max, leaving the tight cluster.
        for s in [3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 0.1, 100.0] {
            stats.record(s);
        }
        assert_eq!(stats.trimmed_mean_secs(0.1), 3.0);
        // Untrimmed degenerates to the plain mean.
        assert!((stats.trimmed_mean_secs(0.0) - stats.mean_secs()).abs() < 1e-12);
        // Extreme trim keeps at least one (central) sample.
        assert_eq!(stats.trimmed_mean_secs(0.5), 3.0);
        assert_eq!(SpanStats::new("empty").trimmed_mean_secs(0.2), 0.0);
    }

    #[test]
    fn time_returns_closure_output() {
        let mut stats = SpanStats::new("x");
        let out = stats.time(|| 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(stats.count(), 1);
    }
}
