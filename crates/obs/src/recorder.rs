//! Metrics registry: counters, gauges, and histograms behind a trait.
//!
//! Instrumented code talks to a [`Recorder`]; production paths install the
//! no-op implementation (every call is a dynamic dispatch to an empty body,
//! no allocation, no locking), while tools install [`MemoryRecorder`] and
//! read the aggregates back out.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::histogram::LogHistogram;

/// Destination for scalar metrics.
///
/// Metric names are `&'static str` by design: instrumentation sites name
/// their metrics statically, which keeps the hot path free of formatting
/// and allocation.
pub trait Recorder {
    /// Add `delta` to the named monotonic counter.
    fn counter(&self, name: &'static str, delta: u64);

    /// Set the named gauge to `value` (last-write-wins).
    fn gauge(&self, name: &'static str, value: f64);

    /// Record `value` into the named histogram.
    fn record(&self, name: &'static str, value: f64);

    /// Whether this recorder keeps anything. Instrumentation may use this
    /// to skip computing expensive values for a no-op recorder.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Folds a [`MetricsSnapshot`] captured elsewhere (e.g. a parallel
    /// worker's shard recorder) into this recorder: counters add, gauges
    /// last-write-win, histograms merge bucket-wise. The default
    /// implementation replays counters and gauges through the scalar
    /// methods but cannot represent whole histograms, so histogram-capable
    /// recorders (like [`MemoryRecorder`]) override it for exact merging.
    fn absorb(&self, snapshot: &MetricsSnapshot) {
        for (name, delta) in &snapshot.counters {
            self.counter(name, *delta);
        }
        for (name, value) in &snapshot.gauges {
            self.gauge(name, *value);
        }
    }
}

/// Discards everything. All methods are empty bodies, so an
/// `Arc<NoopRecorder>` call costs one virtual call and nothing else.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter(&self, _name: &'static str, _delta: u64) {}
    fn gauge(&self, _name: &'static str, _value: f64) {}
    fn record(&self, _name: &'static str, _value: f64) {}
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Point-in-time view of everything a [`MemoryRecorder`] has collected.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<&'static str, u64>,
    pub gauges: BTreeMap<&'static str, f64>,
    pub histograms: BTreeMap<&'static str, LogHistogram>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }
}

#[derive(Debug, Default)]
struct MemoryState {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
}

/// Aggregates metrics in memory behind a mutex. Intended for tests, the
/// CLI, and benches — not for per-sample hot loops (batch there first).
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    state: Mutex<MemoryState>,
}

impl MemoryRecorder {
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MetricsSnapshot {
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            histograms: state.histograms.clone(),
        }
    }
}

impl Recorder for MemoryRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *state.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.gauges.insert(name, value);
    }

    fn record(&self, name: &'static str, value: f64) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.histograms.entry(name).or_default().record(value);
    }

    fn absorb(&self, snapshot: &MetricsSnapshot) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (name, delta) in &snapshot.counters {
            *state.counters.entry(name).or_insert(0) += delta;
        }
        for (name, value) in &snapshot.gauges {
            state.gauges.insert(name, *value);
        }
        for (name, hist) in &snapshot.histograms {
            state.histograms.entry(name).or_default().merge(hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_reports_disabled() {
        let r = NoopRecorder;
        r.counter("x", 1);
        r.gauge("y", 2.0);
        r.record("z", 3.0);
        assert!(!r.is_enabled());
    }

    #[test]
    fn absorb_merges_shards_exactly() {
        // Sequential recording vs. two shards merged: identical snapshots.
        let whole = MemoryRecorder::new();
        let shard_a = MemoryRecorder::new();
        let shard_b = MemoryRecorder::new();
        for i in 0..50u64 {
            let target = if i % 2 == 0 { &shard_a } else { &shard_b };
            for r in [&whole, target] {
                r.counter("frames", 1);
                r.record("delay", (i as f64 + 1.0) * 1e-4);
            }
        }
        whole.gauge("depth", 9.0);
        shard_b.gauge("depth", 9.0);

        let merged = MemoryRecorder::new();
        merged.absorb(&shard_a.snapshot());
        merged.absorb(&shard_b.snapshot());
        let (want, got) = (whole.snapshot(), merged.snapshot());
        assert_eq!(want.counters, got.counters);
        assert_eq!(want.gauges, got.gauges);
        let (wh, gh) = (
            want.histogram("delay").unwrap(),
            got.histogram("delay").unwrap(),
        );
        assert_eq!(wh.count(), gh.count());
        assert!((wh.sum() - gh.sum()).abs() < 1e-12);
        assert_eq!(wh.quantile(0.5), gh.quantile(0.5));
        assert_eq!(wh.nonzero_buckets(), gh.nonzero_buckets());
    }

    #[test]
    fn memory_recorder_accumulates() {
        let r = MemoryRecorder::new();
        r.counter("tx", 2);
        r.counter("tx", 3);
        r.gauge("depth", 7.0);
        r.gauge("depth", 4.0);
        r.record("delay", 0.010);
        r.record("delay", 0.030);
        let snap = r.snapshot();
        assert_eq!(snap.counter("tx"), 5);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("depth"), Some(4.0));
        let h = snap.histogram("delay").unwrap();
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 0.020).abs() < 1e-12);
    }
}
