//! `carpool report` — render a flight-record JSONL stream as per-layer
//! summary tables.
//!
//! Both `--obs` streams and the `.jsonl` beside a `--trace-out` export
//! are one [`TraceRecord`] per line, so the report has one reader and
//! one dispatch table over [`TraceKind`]: a `mac-sim` run yields the MAC
//! table, a `frame` run the PHY and frame tables, and every record tied
//! to a frame id also lands on that frame's timeline. Unknown kinds
//! (including the retired per-layer event format) are counted but never
//! fatal — forward compatibility matters more than strictness here.

use carpool_obs::flight::{AHDR_BITMAP_SHIFT, AHDR_OUTSIDER};
use carpool_obs::{json, LogHistogram, TraceKind, TraceRecord};
use std::collections::BTreeMap;

/// Per-frame lifecycle assembled from the records carrying its id.
#[derive(Debug, Default, Clone)]
pub(crate) struct FrameTimeline {
    /// MAC enqueue time (sim seconds).
    pub(crate) enqueue: Option<f64>,
    /// Aggregation decision time.
    pub(crate) agg: Option<f64>,
    /// First airtime-start stamp.
    pub(crate) air_start: Option<f64>,
    /// Last airtime-end stamp.
    pub(crate) air_end: Option<f64>,
    /// Per-symbol RTE recalibrations applied / rejected.
    pub(crate) rte_applied: u64,
    pub(crate) rte_rejected: u64,
    /// Side-channel group CRC verdicts.
    pub(crate) side_ok: u64,
    pub(crate) side_fail: u64,
    /// A-HDR membership decisions observed (one per listening STA).
    pub(crate) ahdr_checks: u64,
    /// Per-STA outcomes: delivered / early-dropped.
    pub(crate) sta_delivered: u64,
    pub(crate) sta_dropped: u64,
    /// MAC-level closure.
    pub(crate) acked: u64,
    pub(crate) dropped: u64,
    pub(crate) retx: u64,
    /// Last applied-RTE timestamp, for cadence tracking.
    last_rte: Option<f64>,
    /// Most recent airtime-start (retransmissions restart the clock).
    last_air_start: Option<f64>,
}

impl FrameTimeline {
    /// Airtime of this frame, when both endpoints were recorded.
    pub(crate) fn airtime(&self) -> Option<f64> {
        match (self.air_start, self.air_end) {
            (Some(s), Some(e)) if e >= s => Some(e - s),
            _ => None,
        }
    }
}

/// Aggregates accumulated from one record stream.
#[derive(Debug, Default)]
pub(crate) struct ReportAggregates {
    // Stream-wide.
    pub(crate) records: u64,
    pub(crate) malformed: u64,
    pub(crate) unknown_kinds: u64,
    pub(crate) t_max: f64,
    // PHY.
    pub(crate) rte_applied: u64,
    pub(crate) rte_rejected: u64,
    pub(crate) side_crc_ok: u64,
    pub(crate) side_crc_fail: u64,
    pub(crate) equalizer_resets: u64,
    // Frame / A-HDR.
    pub(crate) ahdr_matched: u64,
    pub(crate) ahdr_missed: u64,
    pub(crate) ahdr_false_positives: u64,
    pub(crate) ahdr_true_negatives: u64,
    pub(crate) subframe_accepted: u64,
    pub(crate) subframe_bytes: u64,
    pub(crate) early_drops: u64,
    // MAC.
    pub(crate) delivered_frames: u64,
    pub(crate) delivered_bytes: u64,
    pub(crate) dropped_frames: u64,
    pub(crate) retransmissions: u64,
    pub(crate) transmissions: u64,
    pub(crate) collisions: u64,
    pub(crate) aggregated_stas: u64,
    pub(crate) airtime_s: f64,
    pub(crate) delay: LogHistogram,
    pub(crate) drop_delay: LogHistogram,
    // Traffic: MAC enqueues and replayed trace arrivals.
    pub(crate) arrivals: u64,
    pub(crate) arrival_bytes: u64,
    // Frame timelines.
    /// Ring-overflow accounting from a `--trace-out` export's
    /// `trace_summary` trailer (absent from `--obs` streams).
    pub(crate) ring_dropped: Option<u64>,
    pub(crate) frames: BTreeMap<u64, FrameTimeline>,
    pub(crate) airtime: LogHistogram,
    /// Gap between consecutive applied RTE recalibrations within one
    /// frame — the recalibration cadence.
    pub(crate) rte_gap: LogHistogram,
}

impl ReportAggregates {
    /// Folds one record into the layer tables and, when it carries a
    /// frame id, that frame's timeline.
    pub(crate) fn ingest(&mut self, rec: &TraceRecord) {
        let Some(kind) = rec.kind() else {
            self.unknown_kinds += 1;
            return;
        };
        self.records += 1;
        let (t, a, b, c) = (rec.t(), rec.a(), rec.b(), rec.c());
        self.t_max = self.t_max.max(t);
        // Records not tied to a frame (id 0) update a throwaway timeline.
        let mut scratch = FrameTimeline::default();
        let tl = match rec.frame() {
            0 => &mut scratch,
            id => self.frames.entry(id).or_default(),
        };
        match kind {
            TraceKind::MacEnqueue => {
                self.arrivals += 1;
                self.arrival_bytes += b;
                tl.enqueue = tl.enqueue.or(Some(t));
            }
            TraceKind::TrafficArrival => {
                self.arrivals += 1;
                self.arrival_bytes += b;
            }
            TraceKind::AggDecision => tl.agg = tl.agg.or(Some(t)),
            TraceKind::AirtimeStart => {
                tl.air_start = tl.air_start.or(Some(t));
                tl.last_air_start = Some(t);
            }
            TraceKind::AirtimeEnd => {
                tl.air_end = Some(t);
                // Each end closes the most recent start, so a frame that
                // retransmits contributes one sample per time on air.
                if let Some(s) = tl.last_air_start.take() {
                    if t >= s {
                        self.airtime.record(t - s);
                    }
                }
            }
            TraceKind::RteRecal if b == 1 => {
                self.rte_applied += 1;
                tl.rte_applied += 1;
                if let Some(prev) = tl.last_rte {
                    self.rte_gap.record(t - prev);
                }
                tl.last_rte = Some(t);
            }
            TraceKind::RteRecal => {
                self.rte_rejected += 1;
                tl.rte_rejected += 1;
            }
            TraceKind::SideCrc if b == 1 => {
                self.side_crc_ok += 1;
                tl.side_ok += 1;
            }
            TraceKind::SideCrc => {
                self.side_crc_fail += 1;
                tl.side_fail += 1;
            }
            TraceKind::EqReset => self.equalizer_resets += 1,
            TraceKind::AhdrDecision => {
                let matched = b >> AHDR_BITMAP_SHIFT != 0;
                if matched {
                    self.ahdr_matched += 1;
                } else {
                    self.ahdr_missed += 1;
                }
                // Ground truth is only present when the recorder knew
                // the real receiver set (facade deliveries, bloom probes).
                match (matched, c) {
                    (true, AHDR_OUTSIDER) => self.ahdr_false_positives += 1,
                    (false, AHDR_OUTSIDER) => self.ahdr_true_negatives += 1,
                    _ => {}
                }
                tl.ahdr_checks += 1;
            }
            // b bit 0 = delivered flag, upper bits = payload bytes.
            TraceKind::StaOutcome if b & 1 == 1 => {
                self.subframe_accepted += 1;
                self.subframe_bytes += b >> 1;
                tl.sta_delivered += 1;
            }
            TraceKind::StaOutcome => {
                self.early_drops += 1;
                tl.sta_dropped += 1;
            }
            TraceKind::MacAck => {
                self.delivered_frames += 1;
                self.delivered_bytes += b;
                self.delay.record(f64::from_bits(c));
                tl.acked += 1;
            }
            TraceKind::MacDrop => {
                self.dropped_frames += 1;
                self.drop_delay.record(f64::from_bits(b));
                tl.dropped += 1;
            }
            TraceKind::MacRetx => {
                self.retransmissions += 1;
                tl.retx += 1;
            }
            TraceKind::MacTx => {
                self.transmissions += 1;
                self.aggregated_stas += a;
                self.airtime_s += f64::from_bits(b);
            }
            TraceKind::MacCollision => self.collisions += 1,
        }
    }

    /// Parses a whole JSONL document, tolerating blank lines.
    pub(crate) fn from_jsonl(text: &str) -> ReportAggregates {
        let mut agg = ReportAggregates::default();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let Ok(value) = json::parse(line) else {
                agg.malformed += 1;
                continue;
            };
            if let Some(rec) = TraceRecord::from_json(&value) {
                agg.ingest(&rec);
            } else if value.get("kind").and_then(json::JsonValue::as_str) == Some("trace_summary") {
                let dropped = value.get("dropped").and_then(json::JsonValue::as_u64);
                agg.ring_dropped = Some(agg.ring_dropped.unwrap_or(0) + dropped.unwrap_or(0));
            } else {
                agg.unknown_kinds += 1;
            }
        }
        agg
    }

    /// A-HDR false-positive ratio over probes with known ground truth.
    pub(crate) fn ahdr_fp_ratio(&self) -> Option<f64> {
        let with_truth = self.ahdr_false_positives + self.ahdr_true_negatives;
        (with_truth > 0).then(|| self.ahdr_false_positives as f64 / with_truth as f64)
    }

    /// Downlink+uplink goodput over the stream's time extent, Mbit/s.
    pub(crate) fn goodput_mbps(&self) -> Option<f64> {
        (self.t_max > 0.0 && self.delivered_bytes > 0)
            .then(|| self.delivered_bytes as f64 * 8.0 / self.t_max / 1e6)
    }

    /// Renders the per-layer report.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "records: {} ({} malformed, {} unknown kinds), time extent {:.3} s\n",
            self.records, self.malformed, self.unknown_kinds, self.t_max
        ));

        if self.rte_applied
            + self.rte_rejected
            + self.side_crc_ok
            + self.side_crc_fail
            + self.equalizer_resets
            > 0
        {
            out.push_str("\nPHY\n");
            let rte_total = self.rte_applied + self.rte_rejected;
            if rte_total > 0 {
                out.push_str(&format!(
                    "  RTE updates        : {} applied / {} rejected ({:.1}% applied)\n",
                    self.rte_applied,
                    self.rte_rejected,
                    self.rte_applied as f64 / rte_total as f64 * 100.0
                ));
            }
            let crc_total = self.side_crc_ok + self.side_crc_fail;
            if crc_total > 0 {
                out.push_str(&format!(
                    "  side-channel CRC   : {} ok / {} failed ({:.2}% failure)\n",
                    self.side_crc_ok,
                    self.side_crc_fail,
                    self.side_crc_fail as f64 / crc_total as f64 * 100.0
                ));
            }
            out.push_str(&format!(
                "  equalizer resets   : {}\n",
                self.equalizer_resets
            ));
        }

        if self.ahdr_matched + self.ahdr_missed + self.subframe_accepted + self.early_drops > 0 {
            out.push_str("\nFRAME / A-HDR\n");
            out.push_str(&format!(
                "  membership checks  : {} matched / {} missed\n",
                self.ahdr_matched, self.ahdr_missed
            ));
            if let Some(fp) = self.ahdr_fp_ratio() {
                out.push_str(&format!(
                    "  false positives    : {} of {} outsider probes ({:.3}%)\n",
                    self.ahdr_false_positives,
                    self.ahdr_false_positives + self.ahdr_true_negatives,
                    fp * 100.0
                ));
            }
            out.push_str(&format!(
                "  subframes          : {} accepted ({} B) / {} early A-HDR drops\n",
                self.subframe_accepted, self.subframe_bytes, self.early_drops
            ));
        }

        if self.delivered_frames + self.dropped_frames + self.transmissions > 0 {
            out.push_str("\nMAC\n");
            out.push_str(&format!(
                "  delivered          : {} frames, {} B",
                self.delivered_frames, self.delivered_bytes
            ));
            if let Some(g) = self.goodput_mbps() {
                out.push_str(&format!(" ({g:.2} Mbit/s over the stream)"));
            }
            out.push('\n');
            if self.delay.count() > 0 {
                let q = self.delay.quantiles();
                out.push_str(&format!(
                    "  delivery delay     : p50 {:.4} s, p95 {:.4} s, p99 {:.4} s, p999 {:.4} s, max {:.4} s\n",
                    q.p50,
                    q.p95,
                    q.p99,
                    q.p999,
                    self.delay.max()
                ));
            }
            out.push_str(&format!(
                "  dropped            : {} frames",
                self.dropped_frames
            ));
            if self.drop_delay.count() > 0 {
                out.push_str(&format!(" (max queued {:.4} s)", self.drop_delay.max()));
            }
            out.push('\n');
            out.push_str(&format!(
                "  retransmissions    : {}\n",
                self.retransmissions
            ));
            if self.transmissions > 0 {
                out.push_str(&format!(
                    "  channel            : {} TXOPs, {} collisions, {:.2} STAs/TXOP, {:.3} s airtime\n",
                    self.transmissions,
                    self.collisions,
                    self.aggregated_stas as f64 / self.transmissions as f64,
                    self.airtime_s
                ));
            }
        }

        if self.arrivals > 0 {
            out.push_str("\nTRAFFIC\n");
            out.push_str(&format!(
                "  arrivals           : {} frames, {} B\n",
                self.arrivals, self.arrival_bytes
            ));
        }

        if !self.frames.is_empty() || self.ring_dropped.is_some() {
            self.render_timelines(&mut out);
        }
        out
    }

    /// The per-frame section: totals, airtime and RTE-cadence quantiles,
    /// and the first few timelines.
    fn render_timelines(&self, out: &mut String) {
        out.push_str("\nFRAME TIMELINES\n");
        out.push_str(&format!("  frames             : {}", self.frames.len()));
        if let Some(dropped) = self.ring_dropped {
            out.push_str(&format!(" ({dropped} records lost to ring overflow)"));
        }
        out.push('\n');
        let quant_line = |name: &str, h: &LogHistogram| {
            let q = h.quantiles();
            format!(
                "  {name:<19}: p50 {:.1} us, p95 {:.1} us, p99 {:.1} us, p999 {:.1} us ({} samples)\n",
                q.p50 * 1e6,
                q.p95 * 1e6,
                q.p99 * 1e6,
                q.p999 * 1e6,
                h.count()
            )
        };
        if self.airtime.count() > 0 {
            out.push_str(&quant_line("airtime", &self.airtime));
        }
        if self.rte_gap.count() > 0 {
            out.push_str(&quant_line("RTE cadence", &self.rte_gap));
        }
        // Per-frame timelines, capped to keep huge streams readable.
        const MAX_TIMELINES: usize = 8;
        for (id, tl) in self.frames.iter().take(MAX_TIMELINES) {
            let stamp = |t: Option<f64>| t.map_or("-".to_string(), |t| format!("{:.1}us", t * 1e6));
            let air = tl
                .airtime()
                .map_or(String::new(), |a| format!(" ({:.1}us)", a * 1e6));
            out.push_str(&format!(
                "  frame {id:<6} enq {} | agg {} | air {}..{}{air} | rte {}+/{}- | crc {}+/{}- | ahdr {} | sta {}ok/{}drop | {}\n",
                stamp(tl.enqueue),
                stamp(tl.agg),
                stamp(tl.air_start),
                stamp(tl.air_end),
                tl.rte_applied,
                tl.rte_rejected,
                tl.side_ok,
                tl.side_fail,
                tl.ahdr_checks,
                tl.sta_delivered,
                tl.sta_dropped,
                if tl.dropped > 0 {
                    "DROPPED".to_string()
                } else if tl.acked > 0 {
                    format!("acked x{}", tl.acked)
                } else if tl.retx > 0 {
                    format!("retx x{}", tl.retx)
                } else {
                    "open".to_string()
                }
            ));
        }
        if self.frames.len() > MAX_TIMELINES {
            out.push_str(&format!(
                "  ... {} more frames (full detail in the .jsonl / chrome trace)\n",
                self.frames.len() - MAX_TIMELINES
            ));
        }
    }
}

/// The `carpool report <path.jsonl>` subcommand.
pub(crate) fn cmd_report(args: &crate::args::Args) -> Result<(), String> {
    if args.positionals().len() > 1 {
        return Err("usage: carpool report <path.jsonl> (one file at a time)".to_string());
    }
    let path = args
        .positional(0)
        .or_else(|| args.get("path"))
        .ok_or("usage: carpool report <path.jsonl>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let agg = ReportAggregates::from_jsonl(&text);
    if agg.records == 0 && agg.ring_dropped.is_none() {
        return Err(format!("'{path}' contains no parseable obs records"));
    }
    print!("{}", agg.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use carpool_obs::flight;

    fn text(records: &[TraceRecord]) -> String {
        records.iter().map(|r| r.to_json_line() + "\n").collect()
    }

    #[test]
    fn aggregates_match_a_small_synthetic_stream() {
        let matched = 1 << AHDR_BITMAP_SHIFT;
        let mut stream = text(&[
            TraceRecord::new(TraceKind::MacAck, 1, 0.1, 1, 1000, 0.01f64.to_bits()),
            TraceRecord::new(TraceKind::MacAck, 2, 0.2, 2, 500, 0.04f64.to_bits()),
            TraceRecord::new(TraceKind::MacDrop, 3, 0.3, 1, 0.2f64.to_bits(), 0),
            TraceRecord::new(TraceKind::MacTx, 0, 0.3, 4, 0.002f64.to_bits(), 0),
            TraceRecord::new(TraceKind::AhdrDecision, 0, 0.4, 9, matched, AHDR_OUTSIDER),
            TraceRecord::new(TraceKind::AhdrDecision, 0, 0.4, 9, 0, AHDR_OUTSIDER),
        ]);
        stream.push_str("not json\n");
        stream.push_str(r#"{"t":0.5,"seq":7,"kind":"mac_delivery","layer":"mac","dest":1}"#);

        let agg = ReportAggregates::from_jsonl(&stream);
        assert_eq!(agg.records, 6);
        assert_eq!(agg.malformed, 1);
        assert_eq!(agg.unknown_kinds, 1, "the retired event format is unknown");
        assert_eq!(agg.delivered_frames, 2);
        assert_eq!(agg.delivered_bytes, 1500);
        assert_eq!(agg.dropped_frames, 1);
        assert_eq!(agg.transmissions, 1);
        assert_eq!(agg.ahdr_false_positives, 1);
        assert_eq!(agg.ahdr_fp_ratio(), Some(0.5));
        assert!((agg.t_max - 0.4).abs() < 1e-12);
        assert_eq!(agg.delay.max(), 0.04);
        assert_eq!(agg.frames.len(), 3, "frame id 0 has no timeline");
        let report = agg.render();
        assert!(report.contains("MAC"));
        assert!(report.contains("FRAME / A-HDR"));
    }

    #[test]
    fn empty_stream_reports_zero_records() {
        let agg = ReportAggregates::from_jsonl("\n\n");
        assert_eq!(agg.records, 0);
    }

    #[test]
    fn flight_trace_stream_builds_frame_timelines() {
        let delay = 0.0015f64;
        let records = vec![
            TraceRecord::new(TraceKind::MacEnqueue, 1, 0.0, 7, 1500, 0),
            TraceRecord::new(TraceKind::AggDecision, 1, 100e-6, 7, 0, 0),
            TraceRecord::new(TraceKind::AirtimeStart, 1, 100e-6, 7, 500, 0),
            TraceRecord::new(TraceKind::RteRecal, 1, 140e-6, 10, 1, 0),
            TraceRecord::new(TraceKind::RteRecal, 1, 180e-6, 20, 1, 0),
            TraceRecord::new(TraceKind::RteRecal, 1, 220e-6, 30, 0, 0),
            TraceRecord::new(TraceKind::SideCrc, 1, 180e-6, 0, 1, 0),
            TraceRecord::new(TraceKind::AhdrDecision, 1, 110e-6, 7, 1 << 48, 0),
            TraceRecord::new(TraceKind::StaOutcome, 1, 300e-6, 7, (1500 << 1) | 1, 0),
            TraceRecord::new(TraceKind::AirtimeEnd, 1, 500e-6, 7, 500, 0),
            TraceRecord::new(TraceKind::MacAck, 1, 520e-6, 7, 1500, delay.to_bits()),
            TraceRecord::new(TraceKind::StaOutcome, 2, 10e-6, 9, 0, 0),
        ];
        let agg = ReportAggregates::from_jsonl(&flight::to_jsonl(&records, 3));
        assert_eq!(agg.malformed, 0);
        assert_eq!(agg.unknown_kinds, 0);
        assert_eq!(agg.records, 12);
        assert_eq!(agg.ring_dropped, Some(3));
        assert_eq!(agg.frames.len(), 2);

        let tl = &agg.frames[&1];
        assert_eq!(tl.enqueue, Some(0.0));
        assert!(tl.airtime().is_some_and(|a| (a - 400e-6).abs() < 1e-12));
        assert_eq!((tl.rte_applied, tl.rte_rejected), (2, 1));
        assert_eq!((tl.side_ok, tl.side_fail), (1, 0));
        assert_eq!(tl.sta_delivered, 1);
        assert_eq!(tl.acked, 1);
        assert_eq!(agg.frames[&2].sta_dropped, 1);

        // The RTE cadence histogram saw the 40 us inter-recal gap.
        assert_eq!(agg.rte_gap.count(), 1);
        assert_eq!(agg.delay.max(), delay);

        let report = agg.render();
        assert!(report.contains("FRAME TIMELINES"));
        assert!(report.contains("3 records lost to ring overflow"));
        assert!(report.contains("RTE cadence"));
        assert!(report.contains("frame 1"));
        assert!(report.contains("sta 0ok/1drop"));
    }
}
