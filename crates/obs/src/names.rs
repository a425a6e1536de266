//! Canonical span and counter names used across the stack.
//!
//! Every span some site opens is named here and listed in `SPANS`,
//! the table that gives each its own `span.<name>` histogram; counter
//! names that are not derived from a record kind (see
//! [`crate::TraceRecord::counters`]) are centralised here so call sites
//! and tests cannot drift apart.

/// Span: one full PHY section decode (`rx::decode_section`).
pub const PHY_DECODE: &str = "phy.decode";
/// Span: the Viterbi FEC kernel inside a section decode.
pub const PHY_VITERBI: &str = "phy.viterbi";
/// Span: one channel traversal (fading + CFO + AWGN).
pub const CHANNEL_TRANSMIT: &str = "channel.transmit";
/// Span: one station's walk of a Carpool frame (A-HDR, SIGs, payloads).
pub const FRAME_RECEIVE: &str = "frame.receive";
/// Span: one whole MAC simulator run.
pub const MAC_SIM_LOOP: &str = "mac.sim_loop";
/// Span: one Monte-Carlo A-HDR false-positive measurement.
pub const BLOOM_FP_MEASURE: &str = "bloom.fp_measure";

/// Every span name with its duration histogram. A span missing here
/// lands in `span.other`, so a new span site adds its row.
pub(crate) const SPANS: [(&str, &str); 6] = [
    (PHY_DECODE, "span.phy.decode"),
    (PHY_VITERBI, "span.phy.viterbi"),
    (CHANNEL_TRANSMIT, "span.channel.transmit"),
    (FRAME_RECEIVE, "span.frame.receive"),
    (MAC_SIM_LOOP, "span.mac.sim_loop"),
    (BLOOM_FP_MEASURE, "span.bloom.fp_measure"),
];

/// Counter: TX waveform served from the process-wide memoization cache.
pub const TX_CACHE_HIT: &str = "phy.txcache.hit";
/// Counter: TX waveform encoded because no cached entry matched.
pub const TX_CACHE_MISS: &str = "phy.txcache.miss";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryRecorder, Obs};
    use std::sync::Arc;

    #[test]
    fn kernel_spans_have_dedicated_histograms() {
        // Each span must land in its own `span.<name>` histogram, not
        // the `span.other` catch-all, or per-stage timings collapse.
        for (name, metric) in SPANS {
            assert_eq!(metric, format!("span.{name}"));
            let recorder = Arc::new(MemoryRecorder::new());
            let obs = Obs::with_recorder(recorder.clone());
            {
                let _span = obs.span(name);
            }
            let snap = recorder.snapshot();
            assert!(
                snap.histogram("span.other").is_none(),
                "span {name} fell into span.other"
            );
            assert_eq!(snap.histogram(metric).map(|h| h.count()), Some(1));
        }
    }
}
