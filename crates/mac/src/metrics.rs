//! Simulation metrics: goodput, delay, retransmissions, airtime shares.

use carpool_obs::Obs;

/// Per-direction delivery metrics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowMetrics {
    /// MAC payload bytes delivered.
    pub delivered_bytes: u64,
    /// Frames delivered.
    pub delivered_frames: u64,
    /// Frames dropped after exhausting the retry limit.
    pub dropped_frames: u64,
    /// Sum of queueing+service delays of delivered frames, seconds.
    pub total_delay: f64,
    /// Worst delay observed, seconds.
    pub max_delay: f64,
    /// Retransmission attempts (failed subframe deliveries).
    pub retransmissions: u64,
    /// Frames delivered within the deadline (when one is configured).
    pub in_deadline_frames: u64,
    /// Bytes delivered within the deadline.
    pub in_deadline_bytes: u64,
}

impl FlowMetrics {
    /// Records a delivery. A negative `delay` indicates a bookkeeping bug
    /// upstream (a frame cannot be delivered before it arrived); it is
    /// clamped to zero so the accumulators stay consistent, and flagged
    /// with a debug assertion.
    pub(crate) fn record_delivery(&mut self, bytes: usize, delay: f64, deadline: Option<f64>) {
        debug_assert!(
            delay >= 0.0,
            "negative delivery delay {delay}: delivery stamped before arrival"
        );
        let delay = delay.max(0.0);
        self.delivered_bytes += bytes as u64;
        self.delivered_frames += 1;
        self.total_delay += delay;
        if delay > self.max_delay {
            self.max_delay = delay;
        }
        if deadline.map(|d| delay <= d).unwrap_or(true) {
            self.in_deadline_frames += 1;
            self.in_deadline_bytes += bytes as u64;
        }
    }

    /// Records a dropped frame. The time the frame sat queued until it was
    /// abandoned counts toward `max_delay` — a frame that waited 2 s and
    /// was then discarded represents worse service than any delivered
    /// frame, and hiding it understated tail latency.
    pub(crate) fn record_drop(&mut self, queued_for: f64) {
        debug_assert!(
            queued_for >= 0.0,
            "negative queueing time {queued_for} on drop"
        );
        self.dropped_frames += 1;
        if queued_for > self.max_delay {
            self.max_delay = queued_for;
        }
    }

    /// Mean delivery delay in seconds (0 when nothing delivered).
    pub fn mean_delay(&self) -> f64 {
        if self.delivered_frames == 0 {
            0.0
        } else {
            self.total_delay / self.delivered_frames as f64
        }
    }

    /// Goodput in bit/s over `duration` seconds.
    pub fn goodput_bps(&self, duration: f64) -> f64 {
        if duration <= 0.0 {
            return 0.0;
        }
        self.delivered_bytes as f64 * 8.0 / duration
    }

    /// Deadline-bounded goodput in bit/s (equals [`FlowMetrics::goodput_bps`]
    /// when no deadline was configured).
    pub fn in_deadline_goodput_bps(&self, duration: f64) -> f64 {
        if duration <= 0.0 {
            return 0.0;
        }
        self.in_deadline_bytes as f64 * 8.0 / duration
    }

    /// Merges another accumulator into this one.
    pub(crate) fn merge(&mut self, other: &FlowMetrics) {
        self.delivered_bytes += other.delivered_bytes;
        self.delivered_frames += other.delivered_frames;
        self.dropped_frames += other.dropped_frames;
        self.total_delay += other.total_delay;
        self.max_delay = self.max_delay.max(other.max_delay);
        self.retransmissions += other.retransmissions;
        self.in_deadline_frames += other.in_deadline_frames;
        self.in_deadline_bytes += other.in_deadline_bytes;
    }
}

/// Static metric names for one flow direction, so the hot path never
/// formats strings.
#[derive(Debug, Clone, Copy)]
struct FlowNames {
    delivered_bytes: &'static str,
    delivered_frames: &'static str,
    dropped_frames: &'static str,
    retransmissions: &'static str,
    delay: &'static str,
}

const DOWNLINK_NAMES: FlowNames = FlowNames {
    delivered_bytes: "mac.downlink.delivered_bytes",
    delivered_frames: "mac.downlink.delivered_frames",
    dropped_frames: "mac.downlink.dropped_frames",
    retransmissions: "mac.downlink.retransmissions",
    delay: "mac.downlink.delay",
};

const UPLINK_NAMES: FlowNames = FlowNames {
    delivered_bytes: "mac.uplink.delivered_bytes",
    delivered_frames: "mac.uplink.delivered_frames",
    dropped_frames: "mac.uplink.dropped_frames",
    retransmissions: "mac.uplink.retransmissions",
    delay: "mac.uplink.delay",
};

/// [`FlowMetrics`] accumulation routed through a [`carpool_obs::Recorder`].
///
/// Every recorded fact lands in two places: the embedded [`FlowMetrics`]
/// (the view the rest of the simulator and its report structs consume,
/// unchanged) and the attached recorder — counters per direction plus a
/// `mac.<dir>.delay` histogram, which is where percentile delay comes
/// from (`FlowMetrics` alone only keeps mean and max).
#[derive(Debug, Clone)]
pub(crate) struct FlowCollector {
    metrics: FlowMetrics,
    obs: Obs,
    names: FlowNames,
}

impl FlowCollector {
    /// Collector for AP→STA traffic (`mac.downlink.*` metrics).
    pub(crate) fn downlink(obs: Obs) -> FlowCollector {
        FlowCollector {
            metrics: FlowMetrics::default(),
            obs,
            names: DOWNLINK_NAMES,
        }
    }

    /// Collector for STA→AP traffic (`mac.uplink.*` metrics).
    pub(crate) fn uplink(obs: Obs) -> FlowCollector {
        FlowCollector {
            metrics: FlowMetrics::default(),
            obs,
            names: UPLINK_NAMES,
        }
    }

    /// See [`FlowMetrics::record_delivery`].
    pub(crate) fn record_delivery(&mut self, bytes: usize, delay: f64, deadline: Option<f64>) {
        self.metrics.record_delivery(bytes, delay, deadline);
        if self.obs.enabled() {
            self.obs.counter(self.names.delivered_bytes, bytes as u64);
            self.obs.counter(self.names.delivered_frames, 1);
            self.obs.record(self.names.delay, delay.max(0.0));
        }
    }

    /// See [`FlowMetrics::record_drop`].
    pub(crate) fn record_drop(&mut self, queued_for: f64) {
        self.metrics.record_drop(queued_for);
        self.obs.counter(self.names.dropped_frames, 1);
    }

    /// Counts one retransmission attempt.
    pub(crate) fn record_retransmission(&mut self) {
        self.metrics.retransmissions += 1;
        self.obs.counter(self.names.retransmissions, 1);
    }

    /// Consumes the collector, yielding the accumulated metrics.
    pub(crate) fn into_metrics(self) -> FlowMetrics {
        self.metrics
    }
}

/// Per-node airtime occupancy, for the Section 8 energy analysis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AirtimeShare {
    /// Seconds spent transmitting.
    pub tx_s: f64,
    /// Seconds spent receiving frames addressed to this node.
    pub rx_s: f64,
    /// Seconds spent overhearing frames for others (legacy nodes decode
    /// them; Carpool nodes can drop after the A-HDR).
    pub overhear_s: f64,
    /// Seconds idle (including backoff and silence).
    pub idle_s: f64,
}

impl AirtimeShare {
    /// Total accounted time.
    pub fn total(&self) -> f64 {
        self.tx_s + self.rx_s + self.overhear_s + self.idle_s
    }
}

/// Channel-level counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub fields `SimReport::channel` and `DenseReport::channel` hold it
pub struct ChannelStats {
    /// Successful (collision-free) channel acquisitions.
    pub transmissions: u64,
    /// Collision events (two or more simultaneous winners).
    pub collisions: u64,
    /// Losses caused by hidden terminals firing into a transmission.
    pub hidden_collisions: u64,
    /// Aggregate frames carried in successful transmissions.
    pub aggregated_frames: u64,
    /// Aggregate receivers addressed in successful transmissions.
    pub aggregated_receivers: u64,
}

impl ChannelStats {
    /// Mean number of MAC frames per channel acquisition.
    pub fn mean_aggregation(&self) -> f64 {
        if self.transmissions == 0 {
            0.0
        } else {
            self.aggregated_frames as f64 / self.transmissions as f64
        }
    }

    /// Accumulates another domain's counters (dense-scenario merge).
    pub(crate) fn merge(&mut self, other: &ChannelStats) {
        self.transmissions += other.transmissions;
        self.collisions += other.collisions;
        self.hidden_collisions += other.hidden_collisions;
        self.aggregated_frames += other.aggregated_frames;
        self.aggregated_receivers += other.aggregated_receivers;
    }

    /// Collision probability per contention round.
    pub fn collision_ratio(&self) -> f64 {
        let rounds = self.transmissions + self.collisions;
        if rounds == 0 {
            0.0
        } else {
            self.collisions as f64 / rounds as f64
        }
    }
}

/// Jain's fairness index over nonnegative allocations:
/// `(sum x)^2 / (n * sum x^2)`, 1.0 = perfectly fair, 1/n = maximally
/// unfair. Returns 1.0 for empty or all-zero inputs.
pub(crate) fn jain_fairness(allocations: &[f64]) -> f64 {
    let n = allocations.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sum_sq)
}

/// Complete output of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated seconds.
    pub duration_s: f64,
    /// Downlink (AP to STA) delivery metrics.
    pub downlink: FlowMetrics,
    /// Uplink (STA to AP) delivery metrics.
    pub uplink: FlowMetrics,
    /// Channel counters.
    pub channel: ChannelStats,
    /// Per-STA airtime occupancy (index = STA id).
    pub sta_airtime: Vec<AirtimeShare>,
    /// Per-STA downlink delivery metrics (index = STA id).
    pub per_sta_downlink: Vec<FlowMetrics>,
}

impl SimReport {
    /// Downlink goodput in Mbit/s — the paper's headline metric.
    pub fn downlink_goodput_mbps(&self) -> f64 {
        self.downlink.goodput_bps(self.duration_s) / 1e6
    }

    /// Mean downlink delay in seconds.
    pub fn downlink_delay_s(&self) -> f64 {
        self.downlink.mean_delay()
    }

    /// Jain's fairness index over per-STA delivered downlink bytes
    /// (Section 8, Fairness).
    pub fn downlink_fairness(&self) -> f64 {
        let alloc: Vec<f64> = self
            .per_sta_downlink
            .iter()
            .map(|m| m.delivered_bytes as f64)
            .collect();
        jain_fairness(&alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_accounting() {
        let mut m = FlowMetrics::default();
        m.record_delivery(1000, 0.010, None);
        m.record_delivery(500, 0.030, None);
        assert_eq!(m.delivered_bytes, 1500);
        assert_eq!(m.delivered_frames, 2);
        assert!((m.mean_delay() - 0.020).abs() < 1e-12);
        assert_eq!(m.max_delay, 0.030);
        assert!((m.goodput_bps(1.0) - 12_000.0).abs() < 1e-9);
    }

    #[test]
    fn negative_delay_clamps_to_zero() {
        let mut m = FlowMetrics::default();
        // Release-mode behaviour: clamp rather than corrupt the sums.
        // (Under debug assertions this would panic instead.)
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(|| {
                let mut m = FlowMetrics::default();
                m.record_delivery(100, -0.5, None);
            });
            assert!(r.is_err(), "debug build must assert on negative delay");
        } else {
            m.record_delivery(100, -0.5, None);
            assert_eq!(m.delivered_frames, 1);
            assert_eq!(m.total_delay, 0.0);
            assert_eq!(m.max_delay, 0.0);
        }
    }

    #[test]
    fn drops_update_max_delay() {
        let mut m = FlowMetrics::default();
        m.record_delivery(1000, 0.010, None);
        m.record_drop(0.250);
        assert_eq!(m.dropped_frames, 1);
        assert_eq!(m.delivered_frames, 1);
        // The abandoned frame's queueing time dominates the tail.
        assert_eq!(m.max_delay, 0.250);
        // Mean delay still only covers delivered frames.
        assert!((m.mean_delay() - 0.010).abs() < 1e-12);
    }

    #[test]
    fn deadline_bounded_goodput() {
        let mut m = FlowMetrics::default();
        m.record_delivery(1000, 0.005, Some(0.010));
        m.record_delivery(1000, 0.050, Some(0.010));
        assert_eq!(m.in_deadline_bytes, 1000);
        assert_eq!(m.delivered_bytes, 2000);
        assert!(m.in_deadline_goodput_bps(1.0) < m.goodput_bps(1.0));
    }

    #[test]
    fn empty_metrics_are_neutral() {
        let m = FlowMetrics::default();
        assert_eq!(m.mean_delay(), 0.0);
        assert_eq!(m.goodput_bps(10.0), 0.0);
        assert_eq!(m.goodput_bps(0.0), 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = FlowMetrics::default();
        a.record_delivery(100, 0.1, None);
        let mut b = FlowMetrics::default();
        b.record_delivery(200, 0.3, None);
        b.dropped_frames = 2;
        a.merge(&b);
        assert_eq!(a.delivered_bytes, 300);
        assert_eq!(a.dropped_frames, 2);
        assert_eq!(a.max_delay, 0.3);
    }

    #[test]
    fn flow_collector_mirrors_metrics_into_recorder() {
        use carpool_obs::{MemoryRecorder, Obs};
        use std::sync::Arc;

        let recorder = Arc::new(MemoryRecorder::new());
        let mut c = FlowCollector::downlink(Obs::with_recorder(recorder.clone()));
        c.record_delivery(1500, 0.020, None);
        c.record_delivery(500, 0.040, None);
        c.record_drop(0.3);
        c.record_retransmission();

        // FlowMetrics view is intact.
        let m = &c.metrics;
        assert_eq!(m.delivered_bytes, 2000);
        assert_eq!(m.delivered_frames, 2);
        assert_eq!(m.dropped_frames, 1);
        assert_eq!(m.retransmissions, 1);
        assert_eq!(m.max_delay, 0.3);

        // Recorder view agrees.
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("mac.downlink.delivered_bytes"), 2000);
        assert_eq!(snap.counter("mac.downlink.delivered_frames"), 2);
        assert_eq!(snap.counter("mac.downlink.dropped_frames"), 1);
        assert_eq!(snap.counter("mac.downlink.retransmissions"), 1);
        let h = snap.histogram("mac.downlink.delay").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 0.040);
    }

    #[test]
    fn flow_collector_with_noop_obs_still_accumulates() {
        let mut c = FlowCollector::uplink(Obs::noop());
        c.record_delivery(100, 0.001, None);
        assert_eq!(c.metrics.delivered_frames, 1);
        assert_eq!(c.into_metrics().delivered_bytes, 100);
    }

    #[test]
    fn channel_stats_ratios() {
        let c = ChannelStats {
            transmissions: 80,
            collisions: 20,
            hidden_collisions: 0,
            aggregated_frames: 400,
            aggregated_receivers: 240,
        };
        assert!((c.mean_aggregation() - 5.0).abs() < 1e-12);
        assert!((c.collision_ratio() - 0.2).abs() < 1e-12);
        assert_eq!(ChannelStats::default().collision_ratio(), 0.0);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One user takes everything: 1/n.
        assert!((jain_fairness(&[9.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        let mid = jain_fairness(&[3.0, 1.0]);
        assert!(mid > 0.5 && mid < 1.0);
    }

    #[test]
    fn airtime_total() {
        let a = AirtimeShare {
            tx_s: 1.0,
            rx_s: 2.0,
            overhear_s: 3.0,
            idle_s: 4.0,
        };
        assert_eq!(a.total(), 10.0);
    }
}
