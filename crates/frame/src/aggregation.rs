//! Aggregation policies: which queued frames ride in the next TXOP.
//!
//! The policies compared in the paper's MAC evaluation (Section 7.2):
//!
//! * [`AggregationPolicy::None`] — plain IEEE 802.11: one frame per
//!   channel access.
//! * [`AggregationPolicy::Ampdu`] — IEEE 802.11n A-MPDU: aggregate
//!   queued frames *for one destination* (the head-of-line one).
//! * [`AggregationPolicy::MultiUser`] — MU-Aggregation / Carpool:
//!   aggregate across up to 8 destinations; Carpool additionally applies
//!   RTE at the PHY, which the MAC simulator models via its error
//!   traces, so both share this selection logic.
//!
//! "The aggregation process is ended when the size of the buffered
//! frames reaches the maximum frame size or the delay of the oldest
//! frame reaches the maximum latency limit" (Section 7.2.2); selection
//! is FIFO within and across destinations, matching the paper's
//! first-in-first-out service discipline (Section 8, Fairness).

use crate::addr::MacAddress;
use carpool_bloom::MAX_RECEIVERS;

/// A frame waiting in a downlink queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedFrame {
    /// Destination station.
    pub dest: MacAddress,
    /// MAC payload size in bytes.
    pub bytes: usize,
    /// Time the frame entered the queue, seconds.
    pub enqueue_time: f64,
}

/// Limits ending the aggregation process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationLimits {
    /// Maximum aggregate payload size in bytes (64 KB in 802.11n).
    pub max_bytes: usize,
    /// Maximum number of distinct receivers (8 for Carpool).
    pub max_receivers: usize,
    /// Maximum number of frames aggregated per receiver.
    pub max_frames_per_receiver: usize,
}

impl Default for AggregationLimits {
    fn default() -> Self {
        AggregationLimits {
            max_bytes: 65_535,
            max_receivers: MAX_RECEIVERS,
            max_frames_per_receiver: 64,
        }
    }
}

/// Aggregation policy of a transmitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregationPolicy {
    /// One frame per transmission (legacy IEEE 802.11).
    #[default]
    None,
    /// Single-destination MAC aggregation (IEEE 802.11n A-MPDU).
    Ampdu,
    /// Multi-destination aggregation (MU-Aggregation and Carpool).
    MultiUser,
}

/// The outcome of a selection: per-receiver groups of queue indices, in
/// subframe order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub `select`, `SelectionScratch::select` and `SelectionScratch::last` return it
pub struct Selection {
    /// For each receiver (subframe), the indices into the queue slice.
    pub groups: Vec<(MacAddress, Vec<usize>)>,
}

impl Selection {
    /// Total frames selected.
    pub fn frame_count(&self) -> usize {
        self.groups.iter().map(|(_, v)| v.len()).sum()
    }

    /// Number of receivers (subframes).
    pub fn receiver_count(&self) -> usize {
        self.groups.len()
    }

    /// All selected queue indices in ascending order.
    pub fn indices(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .groups
            .iter()
            .flat_map(|(_, g)| g.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    /// `true` if nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Reusable buffers for [`select_into`]: the [`Selection`] being built
/// plus a pool of spare per-receiver index vectors recycled from the
/// previous call, so steady-state selection does no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct SelectionScratch {
    selection: Selection,
    spare: Vec<Vec<usize>>,
}

impl SelectionScratch {
    /// Runs [`select_into`] against the scratch and returns the result.
    pub fn select(
        &mut self,
        policy: AggregationPolicy,
        queue: &[QueuedFrame],
        limits: &AggregationLimits,
    ) -> &Selection {
        select_into(policy, queue, limits, self);
        &self.selection
    }

    /// The selection produced by the last [`SelectionScratch::select`].
    pub fn last(&self) -> &Selection {
        &self.selection
    }

    /// Pops a recycled group vector (cleared) or makes a fresh one.
    fn take_group(&mut self) -> Vec<usize> {
        self.spare.pop().unwrap_or_default()
    }
}

/// Selects frames from `queue` (FIFO order) under `limits` according to
/// `policy`.
///
/// Returns an empty selection for an empty queue. The head-of-line frame
/// is always selected if present (even if it alone exceeds `max_bytes`,
/// it must eventually be served).
pub fn select(
    policy: AggregationPolicy,
    queue: &[QueuedFrame],
    limits: &AggregationLimits,
) -> Selection {
    let mut scratch = SelectionScratch::default();
    select_into(policy, queue, limits, &mut scratch);
    scratch.selection
}

/// Allocation-free form of [`select`]: builds the selection inside
/// `scratch`, recycling its group buffers from the previous TXOP.
/// Identical output to [`select`] (which delegates here).
pub(crate) fn select_into(
    policy: AggregationPolicy,
    queue: &[QueuedFrame],
    limits: &AggregationLimits,
    scratch: &mut SelectionScratch,
) {
    let SelectionScratch { selection, spare } = &mut *scratch;
    while let Some((_, mut group)) = selection.groups.pop() {
        group.clear();
        spare.push(group);
    }
    let Some(head) = queue.first() else {
        return;
    };
    match policy {
        AggregationPolicy::None => {
            let mut group = scratch.take_group();
            group.push(0);
            scratch.selection.groups.push((head.dest, group));
        }
        AggregationPolicy::Ampdu => {
            let mut indices = scratch.take_group();
            let mut bytes = 0usize;
            for (k, f) in queue.iter().enumerate() {
                if f.dest != head.dest {
                    continue;
                }
                if !indices.is_empty()
                    && (bytes + f.bytes > limits.max_bytes
                        || indices.len() >= limits.max_frames_per_receiver)
                {
                    break;
                }
                bytes += f.bytes;
                indices.push(k);
            }
            scratch.selection.groups.push((head.dest, indices));
        }
        AggregationPolicy::MultiUser => {
            let mut bytes = 0usize;
            let max_receivers = limits.max_receivers.min(MAX_RECEIVERS);
            for (k, f) in queue.iter().enumerate() {
                let groups = &mut scratch.selection.groups;
                let existing = groups.iter_mut().position(|(d, _)| *d == f.dest);
                let first = k == 0;
                if !first && bytes + f.bytes > limits.max_bytes {
                    break;
                }
                match existing {
                    Some(g) => {
                        if scratch.selection.groups[g].1.len() >= limits.max_frames_per_receiver {
                            continue;
                        }
                        scratch.selection.groups[g].1.push(k);
                    }
                    None => {
                        if scratch.selection.groups.len() >= max_receivers {
                            continue;
                        }
                        let mut group = scratch.take_group();
                        group.push(k);
                        scratch.selection.groups.push((f.dest, group));
                    }
                }
                bytes += f.bytes;
            }
        }
    }
}

/// Whether the oldest queued frame has exceeded its latency bound at
/// time `now` — the trigger that ends aggregation early (Section 7.2.2).
#[cfg(test)]
fn deadline_reached(queue: &[QueuedFrame], now: f64, max_latency: f64) -> bool {
    queue
        .first()
        .map(|f| now - f.enqueue_time >= max_latency)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(dest: u16, bytes: usize, t: f64) -> QueuedFrame {
        QueuedFrame {
            dest: MacAddress::station(dest),
            bytes,
            enqueue_time: t,
        }
    }

    #[test]
    fn empty_queue_selects_nothing() {
        for policy in [
            AggregationPolicy::None,
            AggregationPolicy::Ampdu,
            AggregationPolicy::MultiUser,
        ] {
            assert!(select(policy, &[], &AggregationLimits::default()).is_empty());
        }
    }

    #[test]
    fn legacy_takes_only_head() {
        let queue = [q(1, 100, 0.0), q(1, 100, 0.1), q(2, 100, 0.2)];
        let sel = select(
            AggregationPolicy::None,
            &queue,
            &AggregationLimits::default(),
        );
        assert_eq!(sel.frame_count(), 1);
        assert_eq!(sel.indices(), vec![0]);
    }

    #[test]
    fn ampdu_aggregates_only_head_destination() {
        let queue = [
            q(1, 100, 0.0),
            q(2, 100, 0.1),
            q(1, 100, 0.2),
            q(3, 100, 0.3),
            q(1, 100, 0.4),
        ];
        let sel = select(
            AggregationPolicy::Ampdu,
            &queue,
            &AggregationLimits::default(),
        );
        assert_eq!(sel.receiver_count(), 1);
        assert_eq!(sel.indices(), vec![0, 2, 4]);
    }

    #[test]
    fn multi_user_spans_destinations_in_fifo_order() {
        let queue = [
            q(1, 100, 0.0),
            q(2, 100, 0.1),
            q(1, 100, 0.2),
            q(3, 100, 0.3),
        ];
        let sel = select(
            AggregationPolicy::MultiUser,
            &queue,
            &AggregationLimits::default(),
        );
        assert_eq!(sel.receiver_count(), 3);
        assert_eq!(sel.frame_count(), 4);
        // Subframe order follows first appearance.
        assert_eq!(sel.groups[0].0, MacAddress::station(1));
        assert_eq!(sel.groups[1].0, MacAddress::station(2));
        assert_eq!(sel.groups[2].0, MacAddress::station(3));
    }

    #[test]
    fn byte_limit_ends_aggregation() {
        let queue = [q(1, 400, 0.0), q(2, 400, 0.1), q(3, 400, 0.2)];
        let limits = AggregationLimits {
            max_bytes: 900,
            ..Default::default()
        };
        let sel = select(AggregationPolicy::MultiUser, &queue, &limits);
        assert_eq!(sel.frame_count(), 2);
    }

    #[test]
    fn head_of_line_always_served_even_if_oversized() {
        let queue = [q(1, 100_000, 0.0)];
        let limits = AggregationLimits {
            max_bytes: 1500,
            ..Default::default()
        };
        for policy in [
            AggregationPolicy::None,
            AggregationPolicy::Ampdu,
            AggregationPolicy::MultiUser,
        ] {
            assert_eq!(select(policy, &queue, &limits).frame_count(), 1);
        }
    }

    #[test]
    fn receiver_limit_respected() {
        let queue: Vec<QueuedFrame> = (0..12).map(|k| q(k, 100, k as f64)).collect();
        let sel = select(
            AggregationPolicy::MultiUser,
            &queue,
            &AggregationLimits::default(),
        );
        assert_eq!(sel.receiver_count(), MAX_RECEIVERS);
        // The overflow destinations are left queued.
        assert_eq!(sel.frame_count(), MAX_RECEIVERS);
    }

    #[test]
    fn per_receiver_frame_cap() {
        let queue: Vec<QueuedFrame> = (0..10).map(|k| q(1, 50, k as f64)).collect();
        let limits = AggregationLimits {
            max_frames_per_receiver: 4,
            ..Default::default()
        };
        let sel = select(AggregationPolicy::Ampdu, &queue, &limits);
        assert_eq!(sel.frame_count(), 4);
    }

    #[test]
    fn select_into_matches_select_across_scratch_reuse() {
        let queues: [&[QueuedFrame]; 4] = [
            &[],
            &[q(1, 100, 0.0), q(1, 100, 0.1), q(2, 100, 0.2)],
            &[
                q(3, 400, 0.0),
                q(2, 400, 0.1),
                q(3, 400, 0.2),
                q(1, 50, 0.3),
            ],
            &[q(1, 100_000, 0.0)],
        ];
        let limits = AggregationLimits {
            max_bytes: 900,
            max_frames_per_receiver: 2,
            ..Default::default()
        };
        let mut scratch = SelectionScratch::default();
        for _ in 0..3 {
            for queue in queues {
                for policy in [
                    AggregationPolicy::None,
                    AggregationPolicy::Ampdu,
                    AggregationPolicy::MultiUser,
                ] {
                    let expect = select(policy, queue, &limits);
                    let got = scratch.select(policy, queue, &limits);
                    assert_eq!(*got, expect, "{policy:?}");
                    assert_eq!(*scratch.last(), expect);
                }
            }
        }
    }

    #[test]
    fn deadline_detection() {
        let queue = [q(1, 100, 1.0)];
        assert!(!deadline_reached(&queue, 1.005, 0.01));
        assert!(deadline_reached(&queue, 1.02, 0.01));
        assert!(!deadline_reached(&[], 99.0, 0.01));
    }
}
