//! Frame flight recorder: a fixed-capacity, allocation-free ring of
//! packed binary trace records covering the full life of a frame across
//! layers — MAC enqueue, aggregation decision (A-HDR membership and
//! Bloom probe positions), airtime start/end, per-symbol RTE
//! recalibration and side-channel CRC verdicts, per-STA decode outcome,
//! and ACK/drop — correlated by frame id.
//!
//! Records are stamped in **simulation time** (seconds, or OFDM symbol
//! positions converted to seconds), never wall clock, so a trace is
//! byte-identical at any thread count. Each record is four packed `u64`
//! words (32 bytes, `Copy`, no heap); the ring is preallocated at
//! construction so recording never allocates. When the ring wraps, the
//! oldest record is overwritten and a monotonic dropped counter ticks —
//! overflow is visible, never silent.
//!
//! Two export forms: Chrome `trace_event` JSON (loadable in
//! chrome://tracing or Perfetto, one track per frame id) and a JSONL
//! stream digestible by `carpool report`.

use crate::json::{write_f64, ObjectWriter};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default ring capacity used by the CLI's `--trace-out` wiring.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// What happened to the frame at this point of its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// MAC queued the frame for a destination (`a` = dest, `b` = bytes).
    MacEnqueue = 1,
    /// The aggregator put the frame aboard a Carpool PPDU
    /// (`a` = subframe slot, `b` = A-HDR Bloom probe-position mask).
    AggDecision = 2,
    /// The PPDU carrying the frame hit the air (`a` = receivers aboard,
    /// `b` = airtime seconds as `f64` bits).
    AirtimeStart = 3,
    /// The PPDU left the air (`a` = receivers aboard, `b` = airtime bits).
    AirtimeEnd = 4,
    /// RTE considered a data-pilot update for one OFDM symbol
    /// (`a` = symbol index, `b` = 1 if applied, 0 if gated off).
    RteRecal = 5,
    /// Side-channel CRC verdict over one symbol group
    /// (`a` = first symbol of the group, `b` = 1 ok / 0 fail).
    SideCrc = 6,
    /// A station's A-HDR membership verdict (`a` = station id,
    /// `b` = bitmap of matched subframe indices; 0 = early drop).
    AhdrDecision = 7,
    /// Per-STA decode outcome (`a` = station id,
    /// `b` = `bytes << 1 | decoded`; `b` = 0 for a clean early drop).
    StaOutcome = 8,
    /// MAC delivery acknowledged (`a` = dest, `b` = bytes).
    MacAck = 9,
    /// MAC gave up on the frame (`a` = dest, `b` = queue delay as
    /// `f64` bits).
    MacDrop = 10,
    /// MAC scheduled a retransmission (`a` = dest).
    MacRetx = 11,
}

impl TraceKind {
    /// JSONL discriminant. Prefixed `trace_` so flight records never
    /// collide with the live [`crate::Event`] kinds in a mixed report.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::MacEnqueue => "trace_enqueue",
            TraceKind::AggDecision => "trace_agg",
            TraceKind::AirtimeStart => "trace_airtime_start",
            TraceKind::AirtimeEnd => "trace_airtime_end",
            TraceKind::RteRecal => "trace_rte",
            TraceKind::SideCrc => "trace_side_crc",
            TraceKind::AhdrDecision => "trace_ahdr",
            TraceKind::StaOutcome => "trace_outcome",
            TraceKind::MacAck => "trace_ack",
            TraceKind::MacDrop => "trace_drop",
            TraceKind::MacRetx => "trace_retx",
        }
    }

    /// Stack layer the record originates from.
    pub fn layer(self) -> &'static str {
        match self {
            TraceKind::MacEnqueue
            | TraceKind::AggDecision
            | TraceKind::AirtimeStart
            | TraceKind::AirtimeEnd
            | TraceKind::MacAck
            | TraceKind::MacDrop
            | TraceKind::MacRetx => "mac",
            TraceKind::RteRecal | TraceKind::SideCrc => "phy",
            TraceKind::AhdrDecision | TraceKind::StaOutcome => "frame",
        }
    }

    fn from_u8(v: u8) -> Option<TraceKind> {
        Some(match v {
            1 => TraceKind::MacEnqueue,
            2 => TraceKind::AggDecision,
            3 => TraceKind::AirtimeStart,
            4 => TraceKind::AirtimeEnd,
            5 => TraceKind::RteRecal,
            6 => TraceKind::SideCrc,
            7 => TraceKind::AhdrDecision,
            8 => TraceKind::StaOutcome,
            9 => TraceKind::MacAck,
            10 => TraceKind::MacDrop,
            11 => TraceKind::MacRetx,
            _ => return None,
        })
    }
}

/// One flight-recorder record: four packed `u64` words, no heap.
///
/// Word 0 carries the kind in its top byte and the frame id in the low
/// 56 bits; word 1 is the sim-time stamp as `f64` bits; words 2 and 3
/// are kind-specific payloads (see [`TraceKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    meta: u64,
    t_bits: u64,
    a: u64,
    b: u64,
}

/// Frame ids occupy the low 56 bits of the meta word.
const FRAME_MASK: u64 = (1 << 56) - 1;

impl TraceRecord {
    /// Packs a record. Frame ids wider than 56 bits are truncated.
    pub fn new(kind: TraceKind, frame: u64, t: f64, a: u64, b: u64) -> TraceRecord {
        TraceRecord {
            meta: ((kind as u64) << 56) | (frame & FRAME_MASK),
            t_bits: t.to_bits(),
            a,
            b,
        }
    }

    /// The record kind (`None` only for corrupt word images).
    pub fn kind(&self) -> Option<TraceKind> {
        TraceKind::from_u8((self.meta >> 56) as u8)
    }

    /// The frame id this record belongs to.
    pub fn frame(&self) -> u64 {
        self.meta & FRAME_MASK
    }

    /// Sim-time stamp in seconds.
    pub fn t(&self) -> f64 {
        f64::from_bits(self.t_bits)
    }

    /// First payload word.
    pub fn a(&self) -> u64 {
        self.a
    }

    /// Second payload word.
    pub fn b(&self) -> u64 {
        self.b
    }

    /// The raw packed representation.
    pub fn words(&self) -> [u64; 4] {
        [self.meta, self.t_bits, self.a, self.b]
    }

    /// Rebuilds a record from its packed words.
    pub fn from_words(words: [u64; 4]) -> TraceRecord {
        TraceRecord {
            meta: words[0],
            t_bits: words[1],
            a: words[2],
            b: words[3],
        }
    }

    /// One JSONL line (no trailing newline). Includes a `seq` field so
    /// the line parses as a [`crate::ParsedEvent`].
    pub fn to_json_line(&self, seq: u64) -> String {
        let kind = self.kind();
        let mut w = ObjectWriter::new();
        w.f64("t", self.t())
            .u64("seq", seq)
            .str("kind", kind.map_or("trace_unknown", TraceKind::as_str))
            .str("layer", kind.map_or("app", TraceKind::layer))
            .u64("frame", self.frame())
            .u64("a", self.a)
            .u64("b", self.b);
        w.finish()
    }
}

struct RingState {
    ring: Vec<TraceRecord>,
    /// Oldest record once the ring is full; next overwrite position.
    head: usize,
}

/// Fixed-capacity flight-recorder ring. Recording after the ring fills
/// overwrites the oldest record and increments a monotonic dropped
/// counter — capacity pressure is observable, never silent.
pub struct FlightRecorder {
    state: Mutex<RingState>,
    dropped: AtomicU64,
    capacity: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl FlightRecorder {
    /// Preallocates a ring of `capacity` records (clamped to at least 1).
    /// No further allocation happens on the record path.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            state: Mutex::new(RingState {
                ring: Vec::with_capacity(capacity),
                head: 0,
            }),
            dropped: AtomicU64::new(0),
            capacity,
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one trace record, overwriting the oldest when full.
    pub fn record(&self, rec: TraceRecord) {
        let mut s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if s.ring.len() < self.capacity {
            s.ring.push(rec);
        } else {
            let head = s.head;
            s.ring[head] = rec;
            s.head = (head + 1) % self.capacity;
            // ordering: monotonic overwrite counter; readers only need an
            // eventually-consistent total, not synchronization with the
            // ring contents (those sit behind the mutex).
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records retained, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        let s = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = Vec::with_capacity(s.ring.len());
        out.extend_from_slice(&s.ring[s.head..]);
        out.extend_from_slice(&s.ring[..s.head]);
        out
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .ring
            .len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records lost to ring overwrites since construction.
    pub fn dropped(&self) -> u64 {
        // ordering: counter read for reporting; monotonic, no ordering
        // constraint against other memory.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Folds a worker shard's records into this recorder in order, and
    /// accounts the shard's own overwrites into the dropped counter.
    /// Calling this in a deterministic shard order (e.g. station order)
    /// keeps the merged stream byte-identical at any thread count.
    pub fn absorb(&self, records: &[TraceRecord], shard_dropped: u64) {
        for &rec in records {
            self.record(rec);
        }
        if shard_dropped > 0 {
            // ordering: counter merge; same monotonic-total contract as
            // the overwrite increment above.
            self.dropped.fetch_add(shard_dropped, Ordering::Relaxed);
        }
    }
}

/// Serializes records as JSONL: one record per line plus a trailing
/// `trace_summary` line carrying the record and dropped totals, which
/// `carpool report` surfaces as ring-overflow accounting.
pub fn to_jsonl(records: &[TraceRecord], dropped: u64) -> String {
    let mut out = String::new();
    for (seq, rec) in records.iter().enumerate() {
        out.push_str(&rec.to_json_line(seq as u64));
        out.push('\n');
    }
    let t_max = records.last().map_or(0.0, TraceRecord::t);
    let mut w = ObjectWriter::new();
    w.f64("t", t_max)
        .u64("seq", records.len() as u64)
        .str("kind", "trace_summary")
        .str("layer", "app")
        .u64("records", records.len() as u64)
        .u64("dropped", dropped);
    out.push_str(&w.finish());
    out.push('\n');
    out
}

/// Layers given their own Chrome "process" row, in pid order 1..=3.
const CHROME_LAYERS: [&str; 3] = ["mac", "frame", "phy"];

fn layer_pid(layer: &str) -> u64 {
    match layer {
        "mac" => 1,
        "frame" => 2,
        _ => 3,
    }
}

/// Serializes records as Chrome `trace_event` JSON, loadable in
/// chrome://tracing and Perfetto. Each layer becomes a process row,
/// each frame id a track (`tid`) within it; airtime start/end pairs
/// become duration (`B`/`E`) events and everything else an instant
/// (`i`) event. Timestamps are sim-time microseconds — the export is a
/// pure function of the records, so it is byte-identical whenever the
/// trace stream is.
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&ev);
    };
    for (pid, layer) in CHROME_LAYERS.iter().enumerate() {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{layer}\"}}}}",
                pid + 1
            ),
        );
    }
    for rec in records {
        let Some(kind) = rec.kind() else { continue };
        let pid = layer_pid(kind.layer());
        let ts_us = rec.t() * 1e6;
        let mut ts = String::new();
        write_f64(&mut ts, ts_us);
        let (name, ph) = match kind {
            TraceKind::AirtimeStart => ("airtime", "B"),
            TraceKind::AirtimeEnd => ("airtime", "E"),
            other => (other.as_str(), "i"),
        };
        let mut ev = format!(
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\
             \"tid\":{}",
            rec.frame()
        );
        if ph == "i" {
            ev.push_str(",\"s\":\"t\"");
        }
        let _ = write!(ev, ",\"args\":{{\"a\":{},\"b\":{}}}}}", rec.a(), rec.b());
        push(&mut out, &mut first, ev);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParsedEvent;

    fn rec(kind: TraceKind, frame: u64, t: f64) -> TraceRecord {
        TraceRecord::new(kind, frame, t, 7, 9)
    }

    #[test]
    fn record_packs_and_unpacks() {
        let r = TraceRecord::new(TraceKind::RteRecal, 0x00AB_CDEF, 1.25, 42, 43);
        assert_eq!(r.kind(), Some(TraceKind::RteRecal));
        assert_eq!(r.frame(), 0x00AB_CDEF);
        assert_eq!(r.t(), 1.25);
        assert_eq!(r.a(), 42);
        assert_eq!(r.b(), 43);
        assert_eq!(TraceRecord::from_words(r.words()), r);
        assert_eq!(std::mem::size_of::<TraceRecord>(), 32);
    }

    #[test]
    fn frame_id_truncates_to_56_bits() {
        let r = TraceRecord::new(TraceKind::MacAck, u64::MAX, 0.0, 0, 0);
        assert_eq!(r.frame(), FRAME_MASK);
        assert_eq!(r.kind(), Some(TraceKind::MacAck));
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let fr = FlightRecorder::new(4);
        for k in 0..10u64 {
            fr.record(rec(TraceKind::MacEnqueue, k, k as f64));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 6);
        let frames: Vec<u64> = fr.records().iter().map(TraceRecord::frame).collect();
        assert_eq!(frames, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let fr = FlightRecorder::new(0);
        fr.record(rec(TraceKind::MacAck, 1, 0.0));
        fr.record(rec(TraceKind::MacAck, 2, 0.0));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.records()[0].frame(), 2);
        assert_eq!(fr.dropped(), 1);
    }

    #[test]
    fn absorb_preserves_order_and_drop_totals() {
        let main = FlightRecorder::new(16);
        let shard = FlightRecorder::new(2);
        for k in 0..5u64 {
            shard.record(rec(TraceKind::StaOutcome, k, k as f64));
        }
        main.record(rec(TraceKind::MacEnqueue, 100, 0.0));
        main.absorb(&shard.records(), shard.dropped());
        let frames: Vec<u64> = main.records().iter().map(TraceRecord::frame).collect();
        assert_eq!(frames, vec![100, 3, 4]);
        assert_eq!(main.dropped(), 3);
    }

    #[test]
    fn jsonl_lines_parse_as_events_with_summary_trailer() {
        let records = vec![
            rec(TraceKind::MacEnqueue, 1, 0.5),
            rec(TraceKind::AhdrDecision, 1, 0.6),
        ];
        let text = to_jsonl(&records, 3);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let first = ParsedEvent::from_json_line(lines[0]).unwrap();
        assert_eq!(first.kind, "trace_enqueue");
        assert_eq!(first.u64_field("frame"), Some(1));
        assert_eq!(first.u64_field("a"), Some(7));
        let summary = ParsedEvent::from_json_line(lines[2]).unwrap();
        assert_eq!(summary.kind, "trace_summary");
        assert_eq!(summary.u64_field("dropped"), Some(3));
        assert_eq!(summary.u64_field("records"), Some(2));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_b_e_pairs() {
        let airtime = 0.002f64.to_bits();
        let records = vec![
            rec(TraceKind::MacEnqueue, 4, 0.0),
            TraceRecord::new(TraceKind::AirtimeStart, 4, 0.001, 2, airtime),
            TraceRecord::new(TraceKind::RteRecal, 4, 0.0015, 10, 1),
            TraceRecord::new(TraceKind::AirtimeEnd, 4, 0.003, 2, airtime),
        ];
        let text = to_chrome_trace(&records);
        let value = crate::json::parse(&text).expect("valid JSON");
        let events = match value.get("traceEvents").unwrap() {
            crate::json::JsonValue::Array(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        // 3 metadata rows + 4 records.
        assert_eq!(events.len(), 7);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert!(phases.contains(&"B") && phases.contains(&"E"));
        // Frame id becomes the track id.
        assert_eq!(events[3].get("tid").unwrap().as_u64(), Some(4));
        // Sim-time microseconds.
        assert_eq!(events[4].get("ts").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let records: Vec<TraceRecord> = (0..50)
            .map(|k| TraceRecord::new(TraceKind::SideCrc, k % 3, k as f64 * 1e-4, k, k & 1))
            .collect();
        assert_eq!(to_chrome_trace(&records), to_chrome_trace(&records));
        assert_eq!(to_jsonl(&records, 0), to_jsonl(&records, 0));
    }
}
