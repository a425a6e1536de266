//! The flight record: one typed record per decision, and the forms it
//! is read in.
//!
//! Every instrumented decision in the stack — an RTE recalibration, a
//! side-channel CRC verdict, an A-HDR membership test, a MAC delivery —
//! is reported once, as a [`TraceRecord`] of one [`TraceKind`], through
//! [`crate::Obs::trace`]. Everything else reads that record:
//!
//! - metrics counters follow from the kind ([`TraceRecord::counters`]),
//!   so no site counts a decision beside recording it;
//! - `--obs` streams each record as one JSONL line
//!   ([`TraceRecord::to_json_line`]);
//! - `--trace-out` keeps records in a [`FlightRecorder`] ring and renders
//!   it as Chrome trace JSON ([`to_chrome_trace`]) plus the same JSONL
//!   ([`to_jsonl`]);
//! - `carpool report` parses the JSONL back ([`TraceRecord::from_json`]).
//!
//! Records are stamped in **simulation time** (seconds, or OFDM symbol
//! positions converted to seconds), never wall clock, so every form is
//! byte-identical at any thread count. A record is five packed `u64`
//! words (40 bytes, `Copy`, no heap); the ring is preallocated at
//! construction so recording never allocates. When the ring wraps, the
//! oldest record is overwritten and a monotonic dropped counter ticks —
//! overflow is visible, never silent.

use crate::json::{write_f64, JsonValue, ObjectWriter};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default ring capacity used by the CLI's `--trace-out` wiring.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// [`TraceKind::AhdrDecision`] word `c`: the station was not aboard.
pub const AHDR_OUTSIDER: u64 = 1;
/// [`TraceKind::AhdrDecision`] word `c`: the station was aboard.
pub const AHDR_ABOARD: u64 = 2;

/// Shift of the matched-subframe bitmap inside an A-HDR record's `b`
/// word; the bits below it hold the Bloom positions the station probed.
pub const AHDR_BITMAP_SHIFT: u32 = 48;

/// The decision a record reports. One kind per decision; the payload
/// words `a`, `b` and `c` are kind-specific (unused words are 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceKind {
    /// MAC queued the frame (`a` = dest, `b` = bytes).
    MacEnqueue = 1,
    /// The aggregator put the frame aboard a PPDU (`a` = dest or
    /// station, `b` = first payload symbol or Bloom probe mask).
    AggDecision = 2,
    /// The frame's symbols hit the air (`a` = dest or receivers aboard,
    /// `b` = payload symbols).
    AirtimeStart = 3,
    /// The frame's symbols left the air (same payload as the start).
    AirtimeEnd = 4,
    /// RTE considered a data-pilot update for one OFDM symbol
    /// (`a` = symbol index, `b` = 1 if applied, 0 if gated off).
    RteRecal = 5,
    /// Side-channel CRC verdict over one symbol group
    /// (`a` = first symbol of the group, `b` = 1 ok / 0 fail).
    SideCrc = 6,
    /// An A-HDR membership test (`a` = station id; `b` = matched
    /// subframe bitmap above [`AHDR_BITMAP_SHIFT`], probed Bloom
    /// positions below it; `c` = ground truth: 0 unknown,
    /// [`AHDR_OUTSIDER`] or [`AHDR_ABOARD`]).
    AhdrDecision = 7,
    /// Per-STA decode outcome (`a` = station id,
    /// `b` = `bytes << 1 | decoded`; `b` = 0 for an early A-HDR drop).
    StaOutcome = 8,
    /// MAC delivered the frame (`a` = dest, `b` = bytes,
    /// `c` = enqueue-to-ACK delay as `f64` bits).
    MacAck = 9,
    /// MAC gave up on the frame (`a` = dest, `b` = queueing delay as
    /// `f64` bits).
    MacDrop = 10,
    /// MAC scheduled a retransmission (`a` = dest, `b` = attempt).
    MacRetx = 11,
    /// The receiver re-anchored its equalizer phase tracking after a
    /// skipped section (`a` = next symbol index).
    EqReset = 12,
    /// A transmission opportunity ended (`a` = receivers aboard,
    /// `b` = channel occupancy in seconds as `f64` bits).
    MacTx = 13,
    /// Two or more contenders drew the same backoff slot
    /// (`a` = contenders).
    MacCollision = 14,
    /// A replayed traffic trace offered a frame (`a` = station,
    /// `b` = bytes, `c` = 1 for uplink, 0 for downlink).
    TrafficArrival = 15,
}

/// Every kind, in discriminant order.
const KINDS: [TraceKind; 15] = [
    TraceKind::MacEnqueue,
    TraceKind::AggDecision,
    TraceKind::AirtimeStart,
    TraceKind::AirtimeEnd,
    TraceKind::RteRecal,
    TraceKind::SideCrc,
    TraceKind::AhdrDecision,
    TraceKind::StaOutcome,
    TraceKind::MacAck,
    TraceKind::MacDrop,
    TraceKind::MacRetx,
    TraceKind::EqReset,
    TraceKind::MacTx,
    TraceKind::MacCollision,
    TraceKind::TrafficArrival,
];

impl TraceKind {
    /// JSONL discriminant.
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
            TraceKind::EqReset => "trace_eq_reset",
            TraceKind::MacTx => "trace_tx",
            TraceKind::MacCollision => "trace_collision",
            TraceKind::TrafficArrival => "trace_arrival",
        }
    }

    /// The kind whose [`TraceKind::as_str`] is `name`.
    fn from_name(name: &str) -> Option<TraceKind> {
        KINDS.into_iter().find(|k| k.as_str() == name)
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
            | TraceKind::MacRetx
            | TraceKind::MacTx
            | TraceKind::MacCollision => "mac",
            TraceKind::RteRecal | TraceKind::SideCrc | TraceKind::EqReset => "phy",
            TraceKind::AhdrDecision | TraceKind::StaOutcome => "frame",
            TraceKind::TrafficArrival => "traffic",
        }
    }

    fn from_u8(v: u8) -> Option<TraceKind> {
        KINDS.get(usize::from(v).checked_sub(1)?).copied()
    }
}

/// One flight record: five packed `u64` words, no heap.
///
/// Word 0 carries the kind in its top byte and the frame id in the low
/// 56 bits (0 when the record is not tied to a MAC frame); word 1 is
/// the sim-time stamp as `f64` bits; words 2 to 4 are the kind-specific
/// payloads `a`, `b` and `c` (see [`TraceKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    meta: u64,
    t_bits: u64,
    a: u64,
    b: u64,
    c: u64,
}

/// Frame ids occupy the low 56 bits of the meta word.
const FRAME_MASK: u64 = (1 << 56) - 1;

impl TraceRecord {
    /// Packs a record. Frame ids wider than 56 bits are truncated.
    pub fn new(kind: TraceKind, frame: u64, t: f64, a: u64, b: u64, c: u64) -> TraceRecord {
        TraceRecord {
            meta: ((kind as u64) << 56) | (frame & FRAME_MASK),
            t_bits: t.to_bits(),
            a,
            b,
            c,
        }
    }

    /// The record kind (`None` only for corrupt word images).
    pub fn kind(&self) -> Option<TraceKind> {
        TraceKind::from_u8((self.meta >> 56) as u8)
    }

    /// The frame id this record belongs to (0: none).
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

    /// Third payload word.
    pub fn c(&self) -> u64 {
        self.c
    }

    /// The metrics counters this record advances, as `(name, delta)`.
    ///
    /// This is the one table from decisions to counters: a counter that
    /// counts one kind (split at most by a payload bit) lives here and
    /// nowhere else, so a site records its decision once and the count
    /// follows. Counters that are not one record per event (symbols
    /// decoded, sections decoded) stay plain [`crate::Obs::counter`]
    /// calls.
    pub fn counters(&self) -> [Option<(&'static str, u64)>; 2] {
        let one = |name: &'static str| [Some((name, 1)), None];
        let (b, c) = (self.b, self.c);
        let Some(kind) = self.kind() else {
            return [None, None];
        };
        match kind {
            TraceKind::RteRecal if b == 1 => one("phy.rte_applied"),
            TraceKind::RteRecal => one("phy.rte_rejected"),
            TraceKind::SideCrc if b == 1 => one("phy.side_crc_ok"),
            TraceKind::SideCrc => one("phy.side_crc_fail"),
            TraceKind::EqReset => one("phy.eq_reset"),
            TraceKind::AhdrDecision => one(match (c, b >> AHDR_BITMAP_SHIFT != 0) {
                (AHDR_ABOARD, true) => "carpool.ahdr_true_positive",
                (AHDR_OUTSIDER, true) => "carpool.ahdr_false_positive",
                (AHDR_OUTSIDER, false) => "carpool.ahdr_true_negative",
                // Bloom filters admit no false negatives; seeing one
                // means the header itself was corrupted in flight.
                (AHDR_ABOARD, false) => "carpool.ahdr_false_negative",
                (_, true) => "frame.ahdr_match",
                (_, false) => "frame.ahdr_miss",
            }),
            TraceKind::StaOutcome if b & 1 == 1 => one("frame.subframe_decoded"),
            TraceKind::MacEnqueue => one("traffic.arrivals"),
            TraceKind::AggDecision => one("mac.aggregated_frames"),
            TraceKind::MacTx => one("mac.transmissions"),
            TraceKind::MacCollision => one("mac.collisions"),
            TraceKind::TrafficArrival if c == 1 => [
                Some(("traffic.uplink.frames", 1)),
                Some(("traffic.uplink.bytes", b)),
            ],
            TraceKind::TrafficArrival => [
                Some(("traffic.downlink.frames", 1)),
                Some(("traffic.downlink.bytes", b)),
            ],
            TraceKind::StaOutcome
            | TraceKind::AirtimeStart
            | TraceKind::AirtimeEnd
            | TraceKind::MacAck
            | TraceKind::MacDrop
            | TraceKind::MacRetx => [None, None],
        }
    }

    /// One JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let kind = self.kind();
        let mut w = ObjectWriter::new();
        w.f64("t", self.t())
            .str("kind", kind.map_or("trace_unknown", TraceKind::as_str))
            .str("layer", kind.map_or("app", TraceKind::layer))
            .u64("frame", self.frame())
            .u64("a", self.a)
            .u64("b", self.b)
            .u64("c", self.c);
        w.finish()
    }

    /// Reads back one parsed [`TraceRecord::to_json_line`] object.
    /// `None` when the kind is unknown (an older stream format, or the
    /// `trace_summary` trailer) or a required field is missing; a
    /// missing `c` (written before the third word existed) reads as 0.
    pub fn from_json(value: &JsonValue) -> Option<TraceRecord> {
        let kind = TraceKind::from_name(value.get("kind")?.as_str()?)?;
        let word = |key: &str| value.get(key).and_then(JsonValue::as_u64);
        Some(TraceRecord::new(
            kind,
            word("frame")?,
            value.get("t")?.as_f64()?,
            word("a")?,
            word("b")?,
            word("c").unwrap_or(0),
        ))
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
}

/// Serializes records as JSONL: one record per line plus a trailing
/// `trace_summary` line carrying the record and dropped totals, which
/// `carpool report` surfaces as ring-overflow accounting.
pub fn to_jsonl(records: &[TraceRecord], dropped: u64) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_json_line());
        out.push('\n');
    }
    let t_max = records.last().map_or(0.0, TraceRecord::t);
    let mut w = ObjectWriter::new();
    w.f64("t", t_max)
        .str("kind", "trace_summary")
        .str("layer", "app")
        .u64("records", records.len() as u64)
        .u64("dropped", dropped);
    out.push_str(&w.finish());
    out.push('\n');
    out
}

/// Layers given their own Chrome "process" row, in pid order from 1.
const CHROME_LAYERS: [&str; 4] = ["mac", "frame", "phy", "traffic"];

fn layer_pid(layer: &str) -> usize {
    CHROME_LAYERS.iter().position(|l| *l == layer).unwrap_or(0) + 1
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
        let _ = write!(
            ev,
            ",\"args\":{{\"a\":{},\"b\":{},\"c\":{}}}}}",
            rec.a(),
            rec.b(),
            rec.c()
        );
        push(&mut out, &mut first, ev);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn rec(kind: TraceKind, frame: u64, t: f64) -> TraceRecord {
        TraceRecord::new(kind, frame, t, 7, 9, 0)
    }

    #[test]
    fn record_packs_and_unpacks() {
        let r = TraceRecord::new(TraceKind::RteRecal, 0x00AB_CDEF, 1.25, 42, 43, 44);
        assert_eq!(r.kind(), Some(TraceKind::RteRecal));
        assert_eq!(r.frame(), 0x00AB_CDEF);
        assert_eq!(r.t(), 1.25);
        assert_eq!((r.a(), r.b(), r.c()), (42, 43, 44));
        assert_eq!(std::mem::size_of::<TraceRecord>(), 40);
    }

    #[test]
    fn frame_id_truncates_to_56_bits() {
        let r = TraceRecord::new(TraceKind::MacAck, u64::MAX, 0.0, 0, 0, 0);
        assert_eq!(r.frame(), FRAME_MASK);
        assert_eq!(r.kind(), Some(TraceKind::MacAck));
    }

    #[test]
    fn every_kind_round_trips_through_its_name_and_byte() {
        for (i, kind) in KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, i + 1);
            assert_eq!(TraceKind::from_u8(kind as u8), Some(kind));
            assert_eq!(TraceKind::from_name(kind.as_str()), Some(kind));
        }
        assert_eq!(TraceKind::from_u8(0), None);
        assert_eq!(TraceKind::from_name("mac_delivery"), None);
    }

    #[test]
    fn json_line_round_trips_every_word_exactly() {
        // Payload words above 2^53 (f64 bits, A-HDR bitmaps) must
        // survive the text form bit for bit.
        for kind in KINDS {
            let r = TraceRecord::new(kind, 3, 0.25, u64::MAX, 0.0123f64.to_bits(), 1 << 55);
            let value = parse(&r.to_json_line()).expect("valid JSON");
            assert_eq!(TraceRecord::from_json(&value), Some(r));
        }
    }

    #[test]
    fn json_without_c_reads_as_zero_and_unknown_kinds_as_none() {
        let old = r#"{"t":0.5,"seq":0,"kind":"trace_ack","layer":"mac","frame":1,"a":2,"b":3}"#;
        let r = TraceRecord::from_json(&parse(old).unwrap()).unwrap();
        assert_eq!((r.kind(), r.c()), (Some(TraceKind::MacAck), 0));
        let event = r#"{"t":0.1,"seq":0,"kind":"mac_delivery","layer":"mac","dest":1}"#;
        assert_eq!(TraceRecord::from_json(&parse(event).unwrap()), None);
    }

    #[test]
    fn counters_follow_kind_and_payload_bits() {
        let counters = |kind, b, c| TraceRecord::new(kind, 0, 0.0, 0, b, c).counters();
        assert_eq!(
            counters(TraceKind::RteRecal, 1, 0),
            [Some(("phy.rte_applied", 1)), None]
        );
        assert_eq!(
            counters(TraceKind::SideCrc, 0, 0),
            [Some(("phy.side_crc_fail", 1)), None]
        );
        let matched = 1 << AHDR_BITMAP_SHIFT;
        assert_eq!(
            counters(TraceKind::AhdrDecision, matched, 0)[0],
            Some(("frame.ahdr_match", 1))
        );
        assert_eq!(
            counters(TraceKind::AhdrDecision, matched, AHDR_OUTSIDER)[0],
            Some(("carpool.ahdr_false_positive", 1))
        );
        assert_eq!(
            counters(TraceKind::TrafficArrival, 120, 1),
            [
                Some(("traffic.uplink.frames", 1)),
                Some(("traffic.uplink.bytes", 120))
            ]
        );
        assert_eq!(counters(TraceKind::StaOutcome, 0, 0), [None, None]);
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
    fn jsonl_has_one_line_per_record_and_a_summary_trailer() {
        let records = vec![
            rec(TraceKind::MacEnqueue, 1, 0.5),
            rec(TraceKind::AhdrDecision, 1, 0.6),
        ];
        let text = to_jsonl(&records, 3);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let first = parse(lines[0]).unwrap();
        assert_eq!(TraceRecord::from_json(&first), Some(records[0]));
        let summary = parse(lines[2]).unwrap();
        assert_eq!(
            summary.get("kind").and_then(JsonValue::as_str),
            Some("trace_summary")
        );
        assert_eq!(summary.get("dropped").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(summary.get("records").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_b_e_pairs() {
        let airtime = 0.002f64.to_bits();
        let records = vec![
            rec(TraceKind::MacEnqueue, 4, 0.0),
            TraceRecord::new(TraceKind::AirtimeStart, 4, 0.001, 2, airtime, 0),
            TraceRecord::new(TraceKind::RteRecal, 4, 0.0015, 10, 1, 0),
            TraceRecord::new(TraceKind::AirtimeEnd, 4, 0.003, 2, airtime, 0),
        ];
        let text = to_chrome_trace(&records);
        let value = parse(&text).expect("valid JSON");
        let events = match value.get("traceEvents").unwrap() {
            JsonValue::Array(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        // 4 layer metadata rows + 4 records.
        assert_eq!(events.len(), 8);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert!(phases.contains(&"B") && phases.contains(&"E"));
        // Frame id becomes the track id.
        assert_eq!(events[4].get("tid").unwrap().as_u64(), Some(4));
        // Sim-time microseconds.
        assert_eq!(events[5].get("ts").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let records: Vec<TraceRecord> = (0..50)
            .map(|k| TraceRecord::new(TraceKind::SideCrc, k % 3, k as f64 * 1e-4, k, k & 1, 0))
            .collect();
        assert_eq!(to_chrome_trace(&records), to_chrome_trace(&records));
        assert_eq!(to_jsonl(&records, 0), to_jsonl(&records, 0));
    }
}
