//! carpool-obs: observability layer for the Carpool PHY/MAC stack.
//!
//! Zero-dependency metrics, structured event tracing, and profiling spans:
//!
//! - [`Recorder`] — counters, gauges, and log-bucketed histograms, with a
//!   free no-op default ([`NoopRecorder`]) and an in-memory aggregator
//!   ([`MemoryRecorder`]).
//! - [`Event`] / [`EventSink`] — structured per-decision events from RTE
//!   recalibration down to MAC drops, streamed as JSON lines
//!   ([`JsonlSink`]) or retained in memory ([`RingBufferSink`]).
//! - [`Obs::span`] — RAII wall-clock spans that report into both the
//!   metrics registry (`span.<name>` histogram, seconds) and the event
//!   stream ([`Event::SpanEnd`], microseconds).
//!
//! The [`Obs`] handle bundles a recorder and a sink behind `Arc`s so it
//! clones cheaply into every layer. `Obs::noop()` is the default
//! everywhere; instrumented code guards non-trivial work with
//! [`Obs::enabled`], which keeps the disabled-path cost to one branch.

#[expect(
    missing_docs,
    reason = "member docs not written yet; only crate-root items were ever audited"
)]
mod event;
/// Flight recorder: packed binary trace records of whole frame
/// lifecycles, with Chrome-trace and JSONL exporters.
pub mod flight;
#[expect(
    missing_docs,
    reason = "member docs not written yet; only crate-root items were ever audited"
)]
mod histogram;
/// Minimal JSON writer/parser shared by the sinks and bench snapshots.
#[expect(
    missing_docs,
    reason = "member docs not written yet; only crate-root items were ever audited"
)]
pub mod json;
/// Canonical metric and span names shared by the instrumented crates.
pub mod names;
#[expect(
    missing_docs,
    reason = "member docs not written yet; only crate-root items were ever audited"
)]
mod recorder;
#[expect(
    missing_docs,
    reason = "member docs not written yet; only crate-root items were ever audited"
)]
mod sink;
#[expect(
    missing_docs,
    reason = "member docs not written yet; only crate-root items were ever audited"
)]
mod span;

pub use event::{Event, Layer, ParsedEvent, Stamped};
pub use flight::{FlightRecorder, TraceKind, TraceRecord, DEFAULT_TRACE_CAPACITY};
pub use histogram::{LogHistogram, Quantiles};
pub use recorder::{MemoryRecorder, MetricsSnapshot, NoopRecorder, Recorder};
pub use sink::{EventSink, JsonlSink, NoopSink, RingBufferSink};
pub use span::{SpanStats, SpanTimer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared observability handle: one recorder, one event sink, an
/// optional flight recorder, and a sequence counter. Clones share all
/// of them; the frame-context and time-base fields are per-clone so a
/// layer can stamp its records for one frame without touching siblings.
#[derive(Clone)]
pub struct Obs {
    recorder: Arc<dyn Recorder + Send + Sync>,
    sink: Arc<dyn EventSink + Send + Sync>,
    flight: Option<Arc<FlightRecorder>>,
    seq: Arc<AtomicU64>,
    enabled: bool,
    /// Frame id stamped on [`Obs::trace`] records from this clone.
    frame_ctx: u64,
    /// Sim-time offset added to [`Obs::trace`] stamps from this clone,
    /// so layers clocked in frame-relative time (e.g. PHY symbol
    /// positions) land on the MAC's absolute timeline.
    t0: f64,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled)
            .field("tracing", &self.flight.is_some())
            // ordering: counter read for debug display only; no
            // synchronization intended.
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::noop()
    }
}

impl Obs {
    /// A handle that observes nothing. [`Obs::enabled`] returns false, so
    /// instrumented hot paths skip event construction entirely.
    pub fn noop() -> Obs {
        Obs {
            recorder: Arc::new(NoopRecorder),
            sink: Arc::new(NoopSink),
            flight: None,
            seq: Arc::new(AtomicU64::new(0)),
            enabled: false,
            frame_ctx: 0,
            t0: 0.0,
        }
    }

    /// Build a handle from explicit recorder and sink implementations.
    pub fn new(
        recorder: Arc<dyn Recorder + Send + Sync>,
        sink: Arc<dyn EventSink + Send + Sync>,
    ) -> Obs {
        let enabled = recorder.is_enabled() || sink.is_enabled();
        Obs {
            recorder,
            sink,
            flight: None,
            seq: Arc::new(AtomicU64::new(0)),
            enabled,
            frame_ctx: 0,
            t0: 0.0,
        }
    }

    /// Metrics-only handle (events are dropped).
    pub fn with_recorder(recorder: Arc<dyn Recorder + Send + Sync>) -> Obs {
        Obs::new(recorder, Arc::new(NoopSink))
    }

    /// Events-only handle (metrics are dropped).
    pub fn with_sink(sink: Arc<dyn EventSink + Send + Sync>) -> Obs {
        Obs::new(Arc::new(NoopRecorder), sink)
    }

    /// Attaches a [`FlightRecorder`] (consuming builder). The handle
    /// becomes enabled so instrumented sites inside `enabled()` guards
    /// also reach their `trace` calls.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Obs {
        self.flight = Some(flight);
        self.enabled = true;
        self
    }

    /// Whether any backend is live. Gate non-trivial instrumentation on
    /// this — when false, every other method is a no-op.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether a flight recorder is attached. The disabled path is this
    /// single branch; [`Obs::trace`] re-checks it internally, so callers
    /// only need this to skip argument computation.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.flight.is_some()
    }

    /// The attached flight recorder, for export and shard merging.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// A clone whose [`Obs::trace`] records are stamped with `frame`.
    /// Cheap (three `Arc` bumps); hand it to layers that cannot thread a
    /// frame id through their own APIs.
    pub fn for_frame(&self, frame: u64) -> Obs {
        let mut clone = self.clone();
        clone.frame_ctx = frame;
        clone
    }

    /// The frame id stamped on this clone's trace records.
    pub fn frame_ctx(&self) -> u64 {
        self.frame_ctx
    }

    /// A clone whose [`Obs::trace`] stamps are offset by `t0` seconds,
    /// anchoring frame-relative clocks (PHY symbol time) to the
    /// absolute sim timeline.
    pub fn with_time_base(&self, t0: f64) -> Obs {
        let mut clone = self.clone();
        clone.t0 = t0;
        clone
    }

    /// The sim-time offset applied to this clone's trace stamps.
    pub fn time_base(&self) -> f64 {
        self.t0
    }

    /// Records a flight-recorder trace for this clone's frame context at
    /// sim time `t0 + t`. One branch when no recorder is attached.
    #[inline]
    pub fn trace(&self, kind: TraceKind, t: f64, a: u64, b: u64) {
        if let Some(flight) = &self.flight {
            flight.record(TraceRecord::new(kind, self.frame_ctx, self.t0 + t, a, b));
        }
    }

    /// [`Obs::trace`] with an explicit frame id — for emitters like the
    /// MAC simulator that track many frames through one handle.
    #[inline]
    pub fn trace_frame(&self, kind: TraceKind, frame: u64, t: f64, a: u64, b: u64) {
        if let Some(flight) = &self.flight {
            flight.record(TraceRecord::new(kind, frame, self.t0 + t, a, b));
        }
    }

    /// Add `delta` to a monotonic counter.
    #[inline]
    pub fn counter(&self, name: &'static str, delta: u64) {
        if self.enabled {
            self.recorder.counter(name, delta);
        }
    }

    /// Set a gauge.
    #[inline]
    pub fn gauge(&self, name: &'static str, value: f64) {
        if self.enabled {
            self.recorder.gauge(name, value);
        }
    }

    /// Record a histogram sample.
    #[inline]
    pub fn record(&self, name: &'static str, value: f64) {
        if self.enabled {
            self.recorder.record(name, value);
        }
    }

    /// Folds a [`MetricsSnapshot`] captured by another recorder (e.g. a
    /// parallel worker's shard) into this handle's recorder. Counters
    /// add, gauges last-write-win, histograms merge bucket-wise — see
    /// [`Recorder::absorb`].
    pub fn merge_metrics(&self, snapshot: &MetricsSnapshot) {
        if self.enabled {
            self.recorder.absorb(snapshot);
        }
    }

    /// Emit a structured event stamped with clock value `t` and the next
    /// sequence number.
    #[inline]
    pub fn emit(&self, t: f64, event: Event) {
        if !self.enabled {
            return;
        }
        // ordering: sequence counter; only monotonic uniqueness is
        // needed, ordering relative to other memory is irrelevant.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.sink.emit(&Stamped { t, seq, event });
    }

    /// Open a wall-clock profiling span. On drop the guard records the
    /// duration into the `span.<name>` histogram and emits
    /// [`Event::SpanEnd`]. Inert (no clock read) when disabled.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            obs: self,
            timer: if self.enabled {
                Some(SpanTimer::start(name))
            } else {
                None
            },
            name,
        }
    }

    /// Flush the underlying sink (e.g. buffered JSONL output).
    pub fn flush(&self) {
        self.sink.flush();
    }
}

/// RAII guard returned by [`Obs::span`]; reports on drop.
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    timer: Option<SpanTimer>,
    name: &'static str,
}

impl SpanGuard<'_> {
    /// The span's metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(timer) = self.timer {
            let secs = timer.elapsed_secs();
            self.obs.recorder.record(span_metric_name(self.name), secs);
            self.obs.emit(
                0.0,
                Event::SpanEnd {
                    name: self.name,
                    micros: (secs * 1e6) as u64,
                },
            );
        }
    }
}

/// Metric name for a span's duration histogram. Span names are a small
/// fixed vocabulary, so the mapping is a static table rather than a
/// runtime `format!` (which would allocate on the hot path).
fn span_metric_name(span: &'static str) -> &'static str {
    match span {
        "phy.encode" => "span.phy.encode",
        "phy.decode" => "span.phy.decode",
        "phy.equalize" => "span.phy.equalize",
        "phy.viterbi" => "span.phy.viterbi",
        "phy.fft" => "span.phy.fft",
        "mac.sim_loop" => "span.mac.sim_loop",
        "mac.txop" => "span.mac.txop",
        "frame.receive" => "span.frame.receive",
        "channel.transmit" => "span.channel.transmit",
        "bloom.fp_measure" => "span.bloom.fp_measure",
        _ => "span.other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_disabled_and_silent() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.counter("c", 1);
        obs.gauge("g", 1.0);
        obs.record("h", 1.0);
        obs.emit(0.0, Event::MacCollision { contenders: 2 });
        {
            let _span = obs.span("phy.decode");
        }
        obs.flush();
    }

    #[test]
    fn emit_assigns_increasing_seq() {
        let sink = Arc::new(RingBufferSink::new(16));
        let obs = Obs::with_sink(sink.clone());
        assert!(obs.enabled());
        for i in 0..5 {
            obs.emit(i as f64, Event::EqualizerReset { symbol: i });
        }
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clones_share_seq_counter() {
        let sink = Arc::new(RingBufferSink::new(16));
        let obs = Obs::with_sink(sink.clone());
        let clone = obs.clone();
        obs.emit(0.0, Event::EqualizerReset { symbol: 0 });
        clone.emit(0.0, Event::EqualizerReset { symbol: 1 });
        obs.emit(0.0, Event::EqualizerReset { symbol: 2 });
        let seqs: Vec<u64> = sink.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn span_reports_to_recorder_and_sink() {
        let recorder = Arc::new(MemoryRecorder::new());
        let sink = Arc::new(RingBufferSink::new(4));
        let obs = Obs::new(recorder.clone(), sink.clone());
        {
            let _span = obs.span("phy.decode");
            std::hint::black_box(0u64);
        }
        let snap = recorder.snapshot();
        let h = snap.histogram("span.phy.decode").expect("span histogram");
        assert_eq!(h.count(), 1);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].event,
            Event::SpanEnd {
                name: "phy.decode",
                ..
            }
        ));
    }

    #[test]
    fn trace_is_inert_without_flight_recorder() {
        let obs = Obs::noop();
        assert!(!obs.tracing());
        obs.trace(TraceKind::MacEnqueue, 0.0, 1, 2);
        obs.trace_frame(TraceKind::MacAck, 9, 0.0, 1, 2);
        assert!(obs.flight().is_none());
    }

    #[test]
    fn flight_handle_stamps_frame_ctx_and_time_base() {
        let flight = Arc::new(FlightRecorder::new(8));
        let obs = Obs::noop().with_flight(flight.clone());
        assert!(obs.enabled() && obs.tracing());
        let framed = obs.for_frame(42).with_time_base(1.0);
        framed.trace(TraceKind::RteRecal, 0.25, 3, 1);
        framed.trace_frame(TraceKind::MacAck, 77, 0.5, 0, 0);
        let recs = flight.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].frame(), 42);
        assert_eq!(recs[0].t(), 1.25);
        assert_eq!(recs[0].kind(), Some(TraceKind::RteRecal));
        assert_eq!(recs[1].frame(), 77);
        assert_eq!(recs[1].t(), 1.5);
        // The base handle is untouched by the per-clone context.
        assert_eq!(obs.frame_ctx(), 0);
        assert_eq!(obs.time_base(), 0.0);
    }

    #[test]
    fn unknown_span_name_lands_in_other() {
        let recorder = Arc::new(MemoryRecorder::new());
        let obs = Obs::with_recorder(recorder.clone());
        {
            let _span = obs.span("something.custom");
        }
        assert_eq!(
            recorder.snapshot().histogram("span.other").unwrap().count(),
            1
        );
    }
}
