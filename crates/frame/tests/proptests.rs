//! Property-based tests for framing, aggregation and NAV arithmetic.

use carpool_frame::addr::MacAddress;
use carpool_frame::aggregation::{select, AggregationLimits, AggregationPolicy, Group};
use carpool_frame::airtime::{ack_airtime, SIFS};
use carpool_frame::mac_frame::{AmpduBundle, FrameKind, MacFrame};
use carpool_frame::nav::{nav_ack, nav_data, nav_receiver};
use carpool_frame::sig::Sig;
use carpool_phy::mcs::Mcs;
use proptest::prelude::*;

fn any_mcs() -> impl Strategy<Value = Mcs> {
    prop::sample::select(Mcs::ALL.to_vec())
}

fn any_policy() -> impl Strategy<Value = AggregationPolicy> {
    prop::sample::select(vec![
        AggregationPolicy::None,
        AggregationPolicy::Ampdu,
        AggregationPolicy::MultiUser,
    ])
}

/// `(dest, bytes)` per queued frame, head first.
fn queue_strategy() -> impl Strategy<Value = Vec<(MacAddress, usize)>> {
    prop::collection::vec((0u16..12, 40usize..1500), 1..40).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(dest, bytes)| (MacAddress::station(dest), bytes))
            .collect()
    })
}

/// Runs the selector over `queue` in FIFO order.
fn select_fifo(
    policy: AggregationPolicy,
    queue: &[(MacAddress, usize)],
    limits: &AggregationLimits,
) -> (Vec<Group<MacAddress>>, Vec<usize>) {
    let (mut groups, mut positions) = (Vec::new(), Vec::new());
    let fifo = queue.iter().enumerate().map(|(k, &(d, b))| (k, d, b));
    select(policy, limits, fifo, &mut groups, &mut positions);
    (groups, positions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sig_round_trip(mcs in any_mcs(), len in any::<u16>()) {
        let sig = Sig::new(mcs, len);
        prop_assert_eq!(Sig::from_bits(&sig.to_bits()).expect("valid"), sig);
    }

    #[test]
    fn mac_frame_round_trip(
        dest in any::<[u8; 6]>(),
        src in any::<[u8; 6]>(),
        seq in any::<u16>(),
        body in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let f = MacFrame {
            kind: FrameKind::Data,
            dest: dest.into(),
            src: src.into(),
            seq,
            body,
        };
        prop_assert_eq!(MacFrame::from_bytes(&f.to_bytes()).expect("valid"), f);
    }

    #[test]
    fn ampdu_round_trip(
        dest in any::<[u8; 6]>(),
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..10),
    ) {
        let frames: Vec<MacFrame> = bodies
            .into_iter()
            .enumerate()
            .map(|(k, body)| MacFrame::data(dest.into(), MacAddress::access_point(0), k as u16, body))
            .collect();
        let bundle = AmpduBundle::from_frames(frames.clone()).expect("one destination");
        let parsed = AmpduBundle::parse_lossy(&bundle.to_bytes());
        prop_assert_eq!(parsed.len(), frames.len());
        for (p, f) in parsed.into_iter().zip(frames) {
            prop_assert_eq!(p.expect("intact"), f);
        }
    }

    #[test]
    fn selection_invariants(queue in queue_strategy(), policy in any_policy()) {
        let limits = AggregationLimits::default();
        let (groups, positions) = select_fifo(policy, &queue, &limits);
        // Head-of-line always served.
        prop_assert!(positions.contains(&0));
        // Positions valid and unique.
        prop_assert!(positions.iter().all(|&k| k < queue.len()));
        let unique: std::collections::BTreeSet<usize> = positions.iter().copied().collect();
        prop_assert_eq!(unique.len(), positions.len());
        // The groups tile the positions; each is single-destination,
        // FIFO and within the caps.
        prop_assert!(groups.len() <= limits.max_receivers);
        prop_assert_eq!(groups.iter().map(|g| g.len).sum::<usize>(), positions.len());
        let mut start = 0;
        for g in &groups {
            prop_assert_eq!(g.start, start);
            prop_assert!(g.len >= 1 && g.len <= limits.max_frames_per_receiver);
            let group = &positions[g.start..g.start + g.len];
            prop_assert!(group.windows(2).all(|w| w[0] < w[1]));
            for &k in group {
                prop_assert_eq!(queue[k].0, g.dest);
            }
            start += g.len;
        }
    }

    #[test]
    fn byte_cap_respected_beyond_head(queue in queue_strategy(), cap in 500usize..4000) {
        let limits = AggregationLimits { max_bytes: cap, ..Default::default() };
        let (_, positions) = select_fifo(AggregationPolicy::MultiUser, &queue, &limits);
        let total: usize = positions.iter().map(|&k| queue[k].1).sum();
        // Either within cap, or the head alone exceeded it.
        prop_assert!(total <= cap || positions.len() == 1);
    }

    #[test]
    fn nav_identities(n in 1usize..=8, payload_us in 1.0f64..10_000.0) {
        let payload = payload_us * 1e-6;
        // Eq. 1 decomposes into the ACK schedule.
        let last_ack_end = SIFS + nav_receiver(n) + ack_airtime();
        prop_assert!((nav_data(n, payload) - payload - last_ack_end).abs() < 1e-12);
        // ACK NAVs count down to zero.
        prop_assert_eq!(nav_ack(n, n), 0.0);
        for j in 1..n {
            prop_assert!(nav_ack(j, n) > nav_ack(j + 1, n));
        }
        // Receiver deferrals are spaced by one ACK + SIFS.
        for i in 1..n {
            let gap = nav_receiver(i + 1) - nav_receiver(i);
            prop_assert!((gap - (ack_airtime() + SIFS)).abs() < 1e-12);
        }
    }
}
