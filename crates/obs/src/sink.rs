//! Event sinks: where stamped events go.
//!
//! [`JsonlSink`] streams one JSON object per line to any `Write`;
//! [`RingBufferSink`] keeps the last N events in memory for tests and
//! in-process inspection; [`NoopSink`] drops everything.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::Stamped;

/// Destination for structured events.
pub trait EventSink {
    /// Consume one stamped event.
    fn emit(&self, stamped: &Stamped);

    /// Flush any buffered output (default: nothing to flush).
    fn flush(&self) {}

    /// Whether emitted events are retained anywhere. Instrumentation uses
    /// this to skip building events nobody will see.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// Drops every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn emit(&self, _stamped: &Stamped) {}
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Writes one JSON line per event to an arbitrary writer.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<BufWriter<W>>,
}

impl JsonlSink<File> {
    /// Create (truncate) `path` and stream events to it.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<JsonlSink<File>> {
        Ok(JsonlSink::new(File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(writer)),
        }
    }

    /// Flush and return the underlying writer (consumes the sink).
    pub fn into_inner(self) -> std::io::Result<W> {
        self.writer
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .into_inner()
            .map_err(|e| e.into_error())
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&self, stamped: &Stamped) {
        let line = stamped.to_json_line();
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Sink errors must not take down the instrumented pipeline; a
        // truncated trace is the accepted failure mode for a full disk.
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .flush();
    }
}

/// Keeps the most recent `capacity` events in memory. Overflow is
/// accounted, not silent: every overwritten event ticks a monotonic
/// dropped counter readable via [`RingBufferSink::dropped`].
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    events: Mutex<VecDeque<Stamped>>,
    dropped: AtomicU64,
}

impl RingBufferSink {
    pub fn new(capacity: usize) -> RingBufferSink {
        RingBufferSink {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Total events lost to ring overwrites since construction.
    pub fn dropped(&self) -> u64 {
        // ordering: counter read for reporting; the events themselves
        // are guarded by the mutex, so no extra ordering is needed.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of retained events, oldest first.
    pub fn events(&self) -> Vec<Stamped> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingBufferSink {
    fn emit(&self, stamped: &Stamped) {
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if events.len() == self.capacity {
            events.pop_front();
            // ordering: monotonic overwrite counter; eventual total
            // only, no synchronization with the event queue.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(stamped.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, ParsedEvent};

    fn stamped(seq: u64) -> Stamped {
        Stamped {
            t: seq as f64 * 0.5,
            seq,
            event: Event::MacCollision { contenders: 2 },
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let sink = JsonlSink::new(Vec::new());
        for seq in 0..3 {
            sink.emit(&stamped(seq));
        }
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let parsed = ParsedEvent::from_json_line(line).unwrap();
            assert_eq!(parsed.seq, i as u64);
            assert_eq!(parsed.kind, "mac_collision");
        }
    }

    #[test]
    fn ring_buffer_keeps_newest() {
        let sink = RingBufferSink::new(3);
        for seq in 0..10 {
            sink.emit(&stamped(seq));
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn ring_buffer_accounts_overwrites() {
        let sink = RingBufferSink::new(3);
        assert_eq!(sink.dropped(), 0);
        for seq in 0..10 {
            sink.emit(&stamped(seq));
        }
        // 10 emitted, 3 retained: 7 overwrites, monotonically counted.
        assert_eq!(sink.dropped(), 7);
        sink.emit(&stamped(10));
        assert_eq!(sink.dropped(), 8);
    }

    #[test]
    fn ring_buffer_zero_capacity_clamps_to_one() {
        let sink = RingBufferSink::new(0);
        sink.emit(&stamped(1));
        sink.emit(&stamped(2));
        assert_eq!(sink.events().last().unwrap().seq, 2);
        assert_eq!(sink.len(), 1);
    }
}
