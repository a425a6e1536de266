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
//!
//! [`select`] reads candidate frames lazily, as `(queue position, dest,
//! bytes)` in the order the scheduler presents them, and stops once the
//! limits are full. A queue holding fewer frames for the head
//! destination than the per-receiver cap (A-MPDU), or fewer destinations
//! than receiver slots (multi-user), is read to its end, since a later
//! frame could still join. The latency trigger lives in the MAC engine,
//! which decides when an AP contends.

use carpool_bloom::MAX_RECEIVERS;

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

/// One receiver's subframe in a selection: its destination and the
/// queue positions at `positions[start..start + len]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group<D> {
    /// Destination of every frame in the group.
    pub dest: D,
    /// Index of the group's first position in the positions buffer.
    pub start: usize,
    /// Number of frames in the group.
    pub len: usize,
}

/// Selects the frames of the next TXOP under `limits` according to
/// `policy`.
///
/// `candidates` yields `(queue position, dest, bytes)` in presentation
/// order (FIFO, or the scheduler's ranking) and is read only until the
/// limits are full: one entry for [`AggregationPolicy::None`], until the
/// head destination's group is full or the byte cap is hit for
/// [`AggregationPolicy::Ampdu`], until the byte cap is hit or every
/// receiver slot is full for [`AggregationPolicy::MultiUser`]. Frames
/// for a full group neither join nor count towards the byte cap, so
/// while those limits cannot fill, every candidate is read.
///
/// Replaces `groups` with the receivers in subframe order (first
/// appearance) and `positions` with the selected queue positions, group
/// by group, in presentation order within each group. The first
/// candidate is always selected, even if it alone exceeds `max_bytes`:
/// it must eventually be served. No candidates select nothing.
pub fn select<D: Copy + PartialEq>(
    policy: AggregationPolicy,
    limits: &AggregationLimits,
    candidates: impl IntoIterator<Item = (usize, D, usize)>,
    groups: &mut Vec<Group<D>>,
    positions: &mut Vec<usize>,
) {
    groups.clear();
    positions.clear();
    let mut candidates = candidates.into_iter();
    let max_receivers = limits.max_receivers.min(MAX_RECEIVERS);
    if policy == AggregationPolicy::MultiUser && max_receivers == 0 {
        return;
    }
    let Some((head_pos, head, mut total)) = candidates.next() else {
        return;
    };
    groups.push(Group {
        dest: head,
        start: 0,
        len: 1,
    });
    positions.push(head_pos);
    match policy {
        AggregationPolicy::None => {}
        AggregationPolicy::Ampdu => {
            while positions.len() < limits.max_frames_per_receiver {
                let Some((pos, dest, bytes)) = candidates.next() else {
                    break;
                };
                if dest != head {
                    continue;
                }
                if total + bytes > limits.max_bytes {
                    break;
                }
                total += bytes;
                positions.push(pos);
                groups[0].len += 1;
            }
        }
        AggregationPolicy::MultiUser => {
            let full = |g: &Group<D>| g.len >= limits.max_frames_per_receiver;
            while groups.len() < max_receivers || !groups.iter().all(full) {
                let Some((pos, dest, bytes)) = candidates.next() else {
                    break;
                };
                if total + bytes > limits.max_bytes {
                    break;
                }
                match groups.iter().position(|g| g.dest == dest) {
                    Some(k) if full(&groups[k]) => continue,
                    Some(k) => {
                        positions.insert(groups[k].start + groups[k].len, pos);
                        groups[k].len += 1;
                        for later in &mut groups[k + 1..] {
                            later.start += 1;
                        }
                    }
                    None if groups.len() < max_receivers => {
                        groups.push(Group {
                            dest,
                            start: positions.len(),
                            len: 1,
                        });
                        positions.push(pos);
                    }
                    None => continue,
                }
                total += bytes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the selector over `(dest, bytes)` in FIFO order; returns each
    /// group as `(dest, queue positions)`.
    fn pick(
        policy: AggregationPolicy,
        queue: &[(u16, usize)],
        limits: &AggregationLimits,
    ) -> Vec<(u16, Vec<usize>)> {
        let (mut groups, mut positions) = (Vec::new(), Vec::new());
        let fifo = queue.iter().enumerate().map(|(k, &(d, b))| (k, d, b));
        select(policy, limits, fifo, &mut groups, &mut positions);
        groups
            .iter()
            .map(|g| (g.dest, positions[g.start..g.start + g.len].to_vec()))
            .collect()
    }

    const POLICIES: [AggregationPolicy; 3] = [
        AggregationPolicy::None,
        AggregationPolicy::Ampdu,
        AggregationPolicy::MultiUser,
    ];

    #[test]
    fn empty_queue_selects_nothing() {
        for policy in POLICIES {
            assert!(pick(policy, &[], &AggregationLimits::default()).is_empty());
        }
    }

    #[test]
    fn legacy_takes_only_head() {
        let queue = [(1, 100), (1, 100), (2, 100)];
        let sel = pick(
            AggregationPolicy::None,
            &queue,
            &AggregationLimits::default(),
        );
        assert_eq!(sel, vec![(1, vec![0])]);
    }

    #[test]
    fn ampdu_aggregates_only_head_destination() {
        let queue = [(1, 100), (2, 100), (1, 100), (3, 100), (1, 100)];
        let sel = pick(
            AggregationPolicy::Ampdu,
            &queue,
            &AggregationLimits::default(),
        );
        assert_eq!(sel, vec![(1, vec![0, 2, 4])]);
    }

    #[test]
    fn multi_user_spans_destinations_in_fifo_order() {
        let queue = [(1, 100), (2, 100), (1, 100), (3, 100)];
        let sel = pick(
            AggregationPolicy::MultiUser,
            &queue,
            &AggregationLimits::default(),
        );
        // Subframe order follows first appearance; each group is FIFO.
        assert_eq!(sel, vec![(1, vec![0, 2]), (2, vec![1]), (3, vec![3])]);
    }

    #[test]
    fn byte_limit_ends_aggregation() {
        let queue = [(1, 400), (2, 400), (3, 400)];
        let limits = AggregationLimits {
            max_bytes: 900,
            ..Default::default()
        };
        let sel = pick(AggregationPolicy::MultiUser, &queue, &limits);
        assert_eq!(sel, vec![(1, vec![0]), (2, vec![1])]);
    }

    #[test]
    fn head_of_line_always_served_even_if_oversized() {
        let limits = AggregationLimits {
            max_bytes: 1500,
            ..Default::default()
        };
        for policy in POLICIES {
            assert_eq!(pick(policy, &[(1, 100_000)], &limits), vec![(1, vec![0])]);
        }
    }

    #[test]
    fn receiver_limit_respected() {
        let queue: Vec<(u16, usize)> = (0..12).map(|k| (k, 100)).collect();
        let sel = pick(
            AggregationPolicy::MultiUser,
            &queue,
            &AggregationLimits::default(),
        );
        // The overflow destinations are left queued.
        let expect: Vec<(u16, Vec<usize>)> =
            (0..MAX_RECEIVERS).map(|k| (k as u16, vec![k])).collect();
        assert_eq!(sel, expect);
    }

    #[test]
    fn per_receiver_frame_cap() {
        let limits = AggregationLimits {
            max_frames_per_receiver: 4,
            ..Default::default()
        };
        let sel = pick(AggregationPolicy::Ampdu, &[(1, 50); 10], &limits);
        assert_eq!(sel, vec![(1, vec![0, 1, 2, 3])]);
    }

    /// Counts the candidates `select` reads from `queue`.
    fn reads(
        policy: AggregationPolicy,
        limits: &AggregationLimits,
        queue: impl Iterator<Item = (usize, usize, usize)>,
    ) -> usize {
        let (mut groups, mut positions, mut reads) = (Vec::new(), Vec::new(), 0);
        select(
            policy,
            limits,
            queue.inspect(|_| reads += 1),
            &mut groups,
            &mut positions,
        );
        reads
    }

    /// An overloaded queue, 30 destinations in round robin, is read only
    /// up to where the limits fill: the same number of entries whatever
    /// lies beyond.
    #[test]
    fn reads_stop_where_the_limits_fill() {
        let round_robin = |len: usize| (0..len).map(|k| (k, k % 30, 1500));
        let four_per_receiver = AggregationLimits {
            max_frames_per_receiver: 4,
            ..Default::default()
        };
        for limits in [AggregationLimits::default(), four_per_receiver] {
            let legacy = reads(AggregationPolicy::None, &limits, round_robin(10_000));
            assert_eq!(legacy, 1);
            for policy in [AggregationPolicy::Ampdu, AggregationPolicy::MultiUser] {
                let short = reads(policy, &limits, round_robin(5_000));
                assert!(short < 5_000, "{policy:?} read {short}");
                assert_eq!(reads(policy, &limits, round_robin(10_000)), short);
            }
        }
    }

    /// While the limits cannot fill, a later frame could still join, so
    /// the whole queue is read: multi-user with fewer destinations than
    /// receiver slots, A-MPDU with fewer head-destination frames than
    /// the per-receiver cap.
    #[test]
    fn reads_reach_the_end_while_the_limits_cannot_fill() {
        let limits = AggregationLimits {
            max_frames_per_receiver: 4,
            ..Default::default()
        };
        for len in [5_000, 10_000] {
            // 5 destinations fill 4 frames each, 2,000 bytes in all.
            let five = (0..len).map(|k| (k, k % 5, 100));
            assert_eq!(reads(AggregationPolicy::MultiUser, &limits, five), len);
            // Destination 0 has 2 frames queued, the first and the last.
            let head_twice = (0..len).map(|k| (k, usize::from(k % (len - 1) != 0), 100));
            assert_eq!(reads(AggregationPolicy::Ampdu, &limits, head_twice), len);
        }
    }
}
