//! Metrics registry: counters, gauges, and histograms behind a trait.
//!
//! Instrumented code talks to a [`Recorder`]; production paths install the
//! no-op implementation (every call is a dynamic dispatch to an empty body,
//! no allocation, no locking), while tools install [`MemoryRecorder`] and
//! read the aggregates back out. Parallel workers share one recorder:
//! counter adds commute, so the totals do not depend on scheduling.

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
}

/// Discards everything. All methods are empty bodies, so an
/// `Arc<NoopRecorder>` call costs one virtual call and nothing else.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NoopRecorder;

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
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last value written to each gauge.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<&'static str, LogHistogram>,
}

impl MetricsSnapshot {
    /// The named counter's total (0 if it was never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's last value, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if it holds any sample.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }
}

/// Aggregates metrics in memory behind a mutex. Intended for tests, the
/// CLI, and benches — not for per-sample hot loops (batch there first).
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    state: Mutex<MetricsSnapshot>,
}

impl MemoryRecorder {
    /// An empty registry.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsSnapshot> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Recorder for MemoryRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.lock().gauges.insert(name, value);
    }

    fn record(&self, name: &'static str, value: f64) {
        self.lock()
            .histograms
            .entry(name)
            .or_default()
            .record(value);
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
