//! carpool-obs: observability layer for the Carpool PHY/MAC stack.
//!
//! Zero-dependency, and built around one record:
//!
//! - [`TraceRecord`] — the flight record. Each decision site (an RTE
//!   recalibration, a side-channel CRC verdict, an A-HDR membership
//!   test, a MAC delivery, ...) reports itself once, as one record of
//!   one [`TraceKind`], through [`Obs::trace`]. The record feeds every
//!   output: the metrics counters it implies
//!   (`TraceRecord::counters`), the `--obs` JSONL stream, and the
//!   `--trace-out` [`FlightRecorder`] ring with its Chrome-trace and
//!   JSONL renderings ([`flight`]). `carpool report` reads that JSONL.
//! - [`Recorder`] — counters, gauges, and log-bucketed histograms, with a
//!   free no-op default and an in-memory aggregator
//!   ([`MemoryRecorder`]).
//! - [`Obs::span`] — RAII wall-clock spans that report into the metrics
//!   registry only (`span.<name>` histogram, seconds; names in
//!   [`names`]), so records stay a pure function of the simulated run.
//!
//! The [`Obs`] handle bundles a recorder and the record outputs behind
//! `Arc`s so it clones cheaply into every layer. `Obs::noop()` is the
//! default everywhere; instrumented code guards non-trivial work with
//! [`Obs::enabled`], which keeps the disabled-path cost to one branch.
//! Parallel workers record through [`Obs::shard`] and the caller
//! [`Obs::absorb`]s their records in a fixed order, so every output is
//! byte-identical at any thread count.

pub mod flight;
#[expect(
    missing_docs,
    reason = "member docs not written yet; only crate-root items were ever audited"
)]
mod histogram;
/// Minimal JSON writer/parser shared by the record stream and bench
/// snapshots.
#[expect(
    missing_docs,
    reason = "member docs not written yet; only crate-root items were ever audited"
)]
pub mod json;
pub mod names;
mod recorder;
#[expect(
    missing_docs,
    reason = "member docs not written yet; only crate-root items were ever audited"
)]
mod span;

pub use flight::{FlightRecorder, TraceKind, TraceRecord, DEFAULT_TRACE_CAPACITY};
pub use histogram::{LogHistogram, Quantiles};
pub use recorder::{MemoryRecorder, MetricsSnapshot, Recorder};
pub use span::SpanStats;

use recorder::NoopRecorder;
use span::SpanTimer;
use std::io::{BufWriter, Write};
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

/// Shared observability handle: one metrics recorder and the outputs
/// records go to. Clones share both; the frame-context and time-base
/// fields are per-clone so a layer can stamp its records for one frame
/// without touching siblings.
#[derive(Clone)]
pub struct Obs {
    recorder: Arc<dyn Recorder + Send + Sync>,
    records: Records,
    enabled: bool,
    /// Frame id stamped on [`Obs::trace`] records from this clone.
    frame_ctx: u64,
    /// Sim-time offset added to [`Obs::trace`] stamps from this clone,
    /// so layers clocked in frame-relative time (e.g. PHY symbol
    /// positions) land on the MAC's absolute timeline.
    t0: f64,
}

/// The `--obs` JSONL writer.
type Stream = Mutex<BufWriter<Box<dyn Write + Send>>>;

/// Where a handle's records go.
#[derive(Clone)]
enum Records {
    /// Nowhere: the no-op and metrics-only handles.
    Off,
    /// The run's outputs: the `--trace-out` ring and the `--obs` stream.
    Out {
        ring: Option<Arc<FlightRecorder>>,
        stream: Option<Arc<Stream>>,
    },
    /// A parallel worker's private buffer (see [`Obs::shard`]).
    Shard(Arc<Mutex<Vec<TraceRecord>>>),
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled)
            .field("tracing", &self.tracing())
            .field("frame_ctx", &self.frame_ctx)
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
    /// instrumented hot paths skip record construction entirely.
    /// Allocation-free: every no-op handle shares one recorder.
    pub fn noop() -> Obs {
        static NOOP: LazyLock<Arc<NoopRecorder>> = LazyLock::new(|| Arc::new(NoopRecorder));
        Obs::with_recorder(NOOP.clone())
    }

    /// A metrics-only handle; attach record outputs with
    /// [`Obs::with_flight`] and [`Obs::with_stream`].
    pub fn with_recorder(recorder: Arc<dyn Recorder + Send + Sync>) -> Obs {
        Obs {
            enabled: recorder.is_enabled(),
            recorder,
            records: Records::Off,
            frame_ctx: 0,
            t0: 0.0,
        }
    }

    /// Also keeps every record in `flight`'s ring (consuming builder).
    pub fn with_flight(self, flight: Arc<FlightRecorder>) -> Obs {
        let stream = match self.records {
            Records::Out { stream, .. } => stream,
            _ => None,
        };
        Obs {
            records: Records::Out {
                ring: Some(flight),
                stream,
            },
            enabled: true,
            ..self
        }
    }

    /// Also writes every record to `writer` as one JSONL line (consuming
    /// builder); [`Obs::flush`] flushes it. Write errors are ignored: a
    /// truncated stream is the accepted failure mode for a full disk.
    pub fn with_stream(self, writer: impl Write + Send + 'static) -> Obs {
        let ring = match self.records {
            Records::Out { ring, .. } => ring,
            _ => None,
        };
        let writer: Box<dyn Write + Send> = Box::new(writer);
        Obs {
            records: Records::Out {
                ring,
                stream: Some(Arc::new(Mutex::new(BufWriter::new(writer)))),
            },
            enabled: true,
            ..self
        }
    }

    /// A handle for one parallel worker: metrics go straight to this
    /// handle's recorder (counter adds commute), records to a private
    /// buffer that the caller drains with [`Obs::take_records`] and
    /// hands to [`Obs::absorb`] in a fixed order (station or domain),
    /// so the outputs are identical at any thread count.
    pub fn shard(&self) -> Obs {
        Obs {
            records: Records::Shard(Arc::new(Mutex::new(Vec::new()))),
            enabled: true,
            ..self.clone()
        }
    }

    /// Drains a [`Obs::shard`] handle's buffered records, oldest first
    /// (empty for any other handle).
    pub fn take_records(&self) -> Vec<TraceRecord> {
        match &self.records {
            Records::Shard(buf) => {
                std::mem::take(&mut *buf.lock().unwrap_or_else(PoisonError::into_inner))
            }
            _ => Vec::new(),
        }
    }

    /// Sends a worker's records to this handle's outputs, in order. The
    /// worker already counted them, so no counter moves here.
    pub fn absorb(&self, records: &[TraceRecord]) {
        for &rec in records {
            self.keep(rec);
        }
    }

    /// Whether any backend is live. Gate non-trivial instrumentation on
    /// this — when false, every other method is a no-op.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether records are kept anywhere (a ring, a stream, or a shard
    /// buffer), as opposed to only feeding metrics counters.
    #[inline]
    pub fn tracing(&self) -> bool {
        !matches!(self.records, Records::Off)
    }

    /// A clone whose [`Obs::trace`] records are stamped with `frame`.
    /// Cheap (two `Arc` bumps); hand it to layers that cannot thread a
    /// frame id through their own APIs.
    pub fn for_frame(&self, frame: u64) -> Obs {
        Obs {
            frame_ctx: frame,
            ..self.clone()
        }
    }

    /// A clone whose [`Obs::trace`] stamps are offset by `t0` seconds,
    /// anchoring frame-relative clocks (PHY symbol time) to the
    /// absolute sim timeline.
    pub fn with_time_base(&self, t0: f64) -> Obs {
        Obs { t0, ..self.clone() }
    }

    /// Records one decision for this clone's frame context at sim time
    /// `t0 + t`: the counters its kind implies and the record itself.
    /// One branch when the handle is disabled.
    #[inline]
    pub fn trace(&self, kind: TraceKind, t: f64, a: u64, b: u64, c: u64) {
        self.trace_frame(kind, self.frame_ctx, t, a, b, c);
    }

    /// [`Obs::trace`] with an explicit frame id — for emitters like the
    /// MAC simulator that track many frames through one handle.
    #[inline]
    pub fn trace_frame(&self, kind: TraceKind, frame: u64, t: f64, a: u64, b: u64, c: u64) {
        if !self.enabled {
            return;
        }
        let rec = TraceRecord::new(kind, frame, self.t0 + t, a, b, c);
        for (name, delta) in rec.counters().into_iter().flatten() {
            self.recorder.counter(name, delta);
        }
        self.keep(rec);
    }

    fn keep(&self, rec: TraceRecord) {
        match &self.records {
            Records::Off => {}
            Records::Out { ring, stream } => {
                if let Some(ring) = ring {
                    ring.record(rec);
                }
                if let Some(stream) = stream {
                    let mut line = rec.to_json_line();
                    line.push('\n');
                    let mut w = stream.lock().unwrap_or_else(PoisonError::into_inner);
                    let _ = w.write_all(line.as_bytes());
                }
            }
            Records::Shard(buf) => buf.lock().unwrap_or_else(PoisonError::into_inner).push(rec),
        }
    }

    /// Add `delta` to a monotonic counter that no record kind implies.
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

    /// Open a wall-clock profiling span named from [`names`]. On drop
    /// the guard records the duration into the `span.<name>` histogram.
    /// Inert (no clock read) when disabled.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            obs: self,
            timer: self.enabled.then(SpanTimer::start),
            name,
        }
    }

    /// Flush the `--obs` stream, if any.
    pub fn flush(&self) {
        if let Records::Out {
            stream: Some(stream),
            ..
        } = &self.records
        {
            let _ = stream
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .flush();
        }
    }
}

/// RAII guard returned by [`Obs::span`]; reports on drop.
// lint:allow(dead-api): private_interfaces keeps it pub: pub `Obs::span` returns it
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    timer: Option<SpanTimer>,
    name: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(timer) = self.timer {
            self.obs
                .recorder
                .record(span_metric_name(self.name), timer.elapsed_secs());
        }
    }
}

/// Metric name for a span's duration histogram, from the static
/// [`names`] table (a runtime `format!` would allocate on the hot path).
fn span_metric_name(span: &'static str) -> &'static str {
    names::SPANS
        .iter()
        .find(|(name, _)| *name == span)
        .map_or("span.other", |(_, metric)| metric)
}

#[cfg(test)]
#[path = "../tests/support/shared_buf.rs"]
mod shared_buf;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_buf::SharedBuf;

    #[test]
    fn noop_handle_is_disabled_and_silent() {
        let obs = Obs::noop();
        assert!(!obs.enabled() && !obs.tracing());
        obs.counter("c", 1);
        obs.gauge("g", 1.0);
        obs.record("h", 1.0);
        obs.trace(TraceKind::MacCollision, 0.0, 2, 0, 0);
        {
            let _span = obs.span(names::PHY_DECODE);
        }
        obs.flush();
        assert!(obs.take_records().is_empty());
    }

    #[test]
    fn trace_feeds_counters_ring_and_stream_once() {
        let recorder = Arc::new(MemoryRecorder::new());
        let ring = Arc::new(FlightRecorder::new(8));
        let text = SharedBuf::default();
        let obs = Obs::with_recorder(recorder.clone())
            .with_stream(text.clone())
            .with_flight(ring.clone());
        obs.trace(TraceKind::SideCrc, 0.5, 3, 1, 0);
        obs.trace(TraceKind::SideCrc, 0.75, 6, 0, 0);
        obs.flush();

        let snap = recorder.snapshot();
        assert_eq!(snap.counter("phy.side_crc_ok"), 1);
        assert_eq!(snap.counter("phy.side_crc_fail"), 1);
        let records = ring.records();
        assert_eq!(records.len(), 2);
        let lines: Vec<String> = records.iter().map(|r| r.to_json_line() + "\n").collect();
        assert_eq!(text.text(), lines.concat());
    }

    #[test]
    fn handle_stamps_frame_ctx_and_time_base() {
        let flight = Arc::new(FlightRecorder::new(8));
        let obs = Obs::noop().with_flight(flight.clone());
        assert!(obs.enabled() && obs.tracing());
        let framed = obs.for_frame(42).with_time_base(1.0);
        framed.trace(TraceKind::RteRecal, 0.25, 3, 1, 0);
        framed.trace_frame(TraceKind::MacAck, 77, 0.5, 0, 0, 0);
        let recs = flight.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].frame(), 42);
        assert_eq!(recs[0].t(), 1.25);
        assert_eq!(recs[0].kind(), Some(TraceKind::RteRecal));
        assert_eq!(recs[1].frame(), 77);
        assert_eq!(recs[1].t(), 1.5);
        // The base handle is untouched by the per-clone context.
        assert_eq!((obs.frame_ctx, obs.t0), (0, 0.0));
    }

    #[test]
    fn shard_counts_at_once_and_absorb_only_forwards_records() {
        let recorder = Arc::new(MemoryRecorder::new());
        let ring = Arc::new(FlightRecorder::new(8));
        let parent = Obs::with_recorder(recorder.clone())
            .with_flight(ring.clone())
            .for_frame(5)
            .with_time_base(2.0);
        let worker = parent.shard();
        worker.trace(TraceKind::EqReset, 0.5, 9, 0, 0);
        // Counted by the worker, not yet in the parent's ring.
        assert_eq!(recorder.snapshot().counter("phy.eq_reset"), 1);
        assert!(ring.is_empty());

        let records = worker.take_records();
        assert!(worker.take_records().is_empty(), "take drains");
        parent.absorb(&records);
        assert_eq!(recorder.snapshot().counter("phy.eq_reset"), 1);
        let kept = ring.records();
        assert_eq!(kept, records);
        assert_eq!((kept[0].frame(), kept[0].t()), (5, 2.5));
    }

    #[test]
    fn span_reports_to_recorder_only() {
        let recorder = Arc::new(MemoryRecorder::new());
        let ring = Arc::new(FlightRecorder::new(4));
        let obs = Obs::with_recorder(recorder.clone()).with_flight(ring.clone());
        {
            let _span = obs.span(names::PHY_DECODE);
            std::hint::black_box(0u64);
        }
        let snap = recorder.snapshot();
        let h = snap.histogram("span.phy.decode").expect("span histogram");
        assert_eq!(h.count(), 1);
        assert!(ring.is_empty(), "wall-clock spans never become records");
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
