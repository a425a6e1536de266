//! Trace serialisation: a plain-text packet-trace format.
//!
//! The paper's methodology is *trace-driven*: captured packet traces
//! feed the MAC simulator. This module defines a minimal line-oriented
//! format so synthetic traces can be exported, inspected, filtered with
//! standard tools and replayed:
//!
//! ```text
//! # carpool-trace v1
//! # time_s direction sta_id bytes
//! 0.001372 D 4 120
//! 0.004710 U 11 576
//! ```

use crate::stats::{Direction, VolumeStats};
use crate::voip::Arrival;

/// One trace line: a frame crossing the AP in either direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Arrival time in seconds.
    pub time: f64,
    /// Frame direction.
    pub direction: Direction,
    /// Station id the frame is for (downlink) or from (uplink).
    pub sta: u16,
    /// Frame size in bytes.
    pub bytes: usize,
}

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub `Trace::from_text` returns it
pub enum TraceError {
    /// A line did not have the expected four fields.
    Malformed {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
    },
    /// Records are not sorted by time.
    OutOfOrder {
        /// 1-based line number of the offender.
        line: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Malformed { line } => write!(f, "malformed trace line {line}"),
            TraceError::BadField { line, field } => {
                write!(f, "invalid {field} on trace line {line}")
            }
            TraceError::OutOfOrder { line } => {
                write!(f, "trace line {line} is earlier than its predecessor")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A time-ordered packet trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Builds a trace from records, sorting them by time.
    fn from_records(mut records: Vec<TraceRecord>) -> Trace {
        // total_cmp orders finite times identically to partial_cmp and is total.
        records.sort_by(|a, b| a.time.total_cmp(&b.time));
        Trace { records }
    }

    /// Merges per-station arrival streams into a trace.
    pub fn from_arrivals(
        downlink: &[(u16, Vec<Arrival>)],
        uplink: &[(u16, Vec<Arrival>)],
    ) -> Trace {
        let mut records = Vec::new();
        for (direction, streams) in [(Direction::Downlink, downlink), (Direction::Uplink, uplink)] {
            for (sta, arrivals) in streams {
                for a in arrivals {
                    records.push(TraceRecord {
                        time: a.time,
                        direction,
                        sta: *sta,
                        bytes: a.bytes,
                    });
                }
            }
        }
        Trace::from_records(records)
    }

    /// The records in time order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Replays the trace into an observability handle: one
    /// [`carpool_obs::TraceKind::TrafficArrival`] per record, stamped with the
    /// record's arrival time (so the stream stays monotone); its kind
    /// feeds the per-direction frame/byte counters.
    pub fn emit_obs(&self, obs: &carpool_obs::Obs) {
        if !obs.enabled() {
            return;
        }
        for r in &self.records {
            let uplink = matches!(r.direction, Direction::Uplink);
            obs.trace(
                carpool_obs::TraceKind::TrafficArrival,
                r.time,
                r.sta as u64,
                r.bytes as u64,
                u64::from(uplink),
            );
        }
    }

    /// Volume statistics of the trace (for Fig. 1(c)-style ratios).
    pub fn volume_stats(&self) -> VolumeStats {
        let mut v = VolumeStats::new();
        for r in &self.records {
            v.record(r.direction, r.bytes);
        }
        v
    }

    /// Serialises to the line format shown in the module docs.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(32 * self.records.len() + 64);
        out.push_str("# carpool-trace v1\n# time_s direction sta_id bytes\n");
        for r in &self.records {
            let d = match r.direction {
                Direction::Downlink => 'D',
                Direction::Uplink => 'U',
            };
            out.push_str(&format!("{:.6} {d} {} {}\n", r.time, r.sta, r.bytes));
        }
        out
    }

    /// Parses the line format; `#`-comments and blank lines are ignored.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the offending line.
    pub fn from_text(text: &str) -> Result<Trace, TraceError> {
        let mut records = Vec::new();
        let mut last_time = f64::NEG_INFINITY;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(TraceError::Malformed { line });
            }
            let time: f64 = fields[0].parse().map_err(|_| TraceError::BadField {
                line,
                field: "time",
            })?;
            let direction = match fields[1] {
                "D" | "d" => Direction::Downlink,
                "U" | "u" => Direction::Uplink,
                _ => {
                    return Err(TraceError::BadField {
                        line,
                        field: "direction",
                    })
                }
            };
            let sta: u16 = fields[2].parse().map_err(|_| TraceError::BadField {
                line,
                field: "sta_id",
            })?;
            let bytes: usize = fields[3].parse().map_err(|_| TraceError::BadField {
                line,
                field: "bytes",
            })?;
            if time < last_time {
                return Err(TraceError::OutOfOrder { line });
            }
            last_time = time;
            records.push(TraceRecord {
                time,
                direction,
                sta,
                bytes,
            });
        }
        Ok(Trace { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voip::VoipSource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_trace() -> Trace {
        Trace::from_records(vec![
            TraceRecord {
                time: 0.5,
                direction: Direction::Uplink,
                sta: 3,
                bytes: 500,
            },
            TraceRecord {
                time: 0.1,
                direction: Direction::Downlink,
                sta: 1,
                bytes: 120,
            },
        ])
    }

    #[test]
    fn records_are_time_sorted() {
        let t = sample_trace();
        assert_eq!(t.records()[0].time, 0.1);
        assert_eq!(t.records()[1].time, 0.5);
    }

    #[test]
    fn text_round_trip() {
        let t = sample_trace();
        let parsed = Trace::from_text(&t.to_text()).expect("round trip");
        assert_eq!(parsed, t);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\n0.1 D 1 120\n  # inline\n0.2 U 2 64\n";
        let t = Trace::from_text(text).expect("parses");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert_eq!(
            Trace::from_text("0.1 D 1\n"),
            Err(TraceError::Malformed { line: 1 })
        );
        assert_eq!(
            Trace::from_text("0.1 X 1 120\n"),
            Err(TraceError::BadField {
                line: 1,
                field: "direction"
            })
        );
        assert_eq!(
            Trace::from_text("0.2 D 1 120\n0.1 U 2 64\n"),
            Err(TraceError::OutOfOrder { line: 2 })
        );
        assert_eq!(
            Trace::from_text("soon D 1 120\n"),
            Err(TraceError::BadField {
                line: 1,
                field: "time"
            })
        );
    }

    #[test]
    fn arrivals_merge_with_directions() {
        let mut rng = StdRng::seed_from_u64(6);
        let down = VoipSource::new().generate(2.0, &mut rng);
        let up = VoipSource::new().generate(2.0, &mut rng);
        let trace = Trace::from_arrivals(&[(1, down.clone())], &[(1, up.clone())]);
        assert_eq!(trace.len(), down.len() + up.len());
        let mut expected = VolumeStats::new();
        for (direction, arrivals) in [(Direction::Downlink, &down), (Direction::Uplink, &up)] {
            for a in arrivals {
                expected.record(direction, a.bytes);
            }
        }
        assert_eq!(trace.volume_stats(), expected);
        for w in trace.records().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn emit_obs_mirrors_volume_stats() {
        use carpool_obs::{FlightRecorder, MemoryRecorder, Obs};
        use std::sync::Arc;

        let mut rng = StdRng::seed_from_u64(9);
        let down = VoipSource::new().generate(3.0, &mut rng);
        let up = VoipSource::new().generate(3.0, &mut rng);
        let trace = Trace::from_arrivals(&[(1, down)], &[(2, up)]);

        let recorder = Arc::new(MemoryRecorder::new());
        let ring = Arc::new(FlightRecorder::new(1 << 16));
        trace.emit_obs(&Obs::with_recorder(recorder.clone()).with_flight(ring.clone()));

        let frames = trace.len() as u64;
        let bytes: usize = trace.records().iter().map(|r| r.bytes).sum();
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counter("traffic.downlink.frames") + snap.counter("traffic.uplink.frames"),
            frames
        );
        assert_eq!(
            snap.counter("traffic.downlink.bytes") + snap.counter("traffic.uplink.bytes"),
            bytes as u64
        );
        let records = ring.records();
        assert_eq!(records.len() as u64, frames);
        for w in records.windows(2) {
            assert!(w[0].t() <= w[1].t(), "replayed stream must stay monotone");
        }
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(Trace::from_text(&t.to_text()).expect("parses"), t);
    }
}
