//! Cross-crate integration: full Carpool frames over realistic links.

use carpool::link::CarpoolLink;
use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{CarpoolFrame, Subframe};
use carpool_frame::mac_frame::{AmpduBundle, MacFrame};
use carpool_phy::mcs::Mcs;
use carpool_phy::rx::Estimation;

fn sta(k: u16) -> MacAddress {
    MacAddress::station(k)
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn eight_receiver_frame() -> CarpoolFrame {
    let subframes: Vec<Subframe> = (0..8u16)
        .map(|k| {
            Subframe::new(
                sta(k),
                if k % 2 == 0 {
                    Mcs::QPSK_1_2
                } else {
                    Mcs::QAM16_1_2
                },
                vec![k as u8 ^ 0xA5; 100 + 30 * k as usize],
            )
        })
        .collect();
    CarpoolFrame::new(subframes).expect("8 receivers allowed")
}

#[test]
fn maximum_aggregation_delivers_to_all_eight() {
    let frame = eight_receiver_frame();
    let mut link = CarpoolLink::builder()
        .snr_db(32.0)
        .static_fading()
        .rician_k(12.0)
        .cfo_hz(60.0)
        .seed(17)
        .build();
    for k in 0..8u16 {
        let rx = link.deliver(&frame, sta(k)).expect("delivery succeeds");
        let payload = rx
            .payload_at(k as usize)
            .unwrap_or_else(|| panic!("station {k} missed its subframe"));
        assert_eq!(
            payload,
            &frame.subframes()[k as usize].payload[..],
            "station {k}"
        );
    }
}

#[test]
fn carpool_subframes_carry_ampdu_bundles() {
    // MAC aggregation inside a Carpool subframe (paper Fig. 4: "the MAC
    // data can be either single data unit or aggregation data unit").
    let mut bundle = AmpduBundle::new();
    for seq in 0..4 {
        bundle
            .push(MacFrame::data(
                sta(2),
                MacAddress::access_point(0),
                seq,
                vec![seq as u8; 180],
            ))
            .expect("same destination");
    }
    let frame = CarpoolFrame::new(vec![
        Subframe::new(sta(1), Mcs::QPSK_1_2, vec![7; 200]),
        Subframe::new(sta(2), Mcs::QAM16_3_4, bundle.to_bytes()),
    ])
    .expect("two receivers");

    let mut link = CarpoolLink::builder().snr_db(35.0).seed(9).build();
    let rx = link.deliver(&frame, sta(2)).expect("delivery succeeds");
    let payload = rx.payload_at(1).expect("matched subframe");
    let mpdus = AmpduBundle::parse_lossy(payload);
    assert_eq!(mpdus.len(), 4);
    for (seq, mpdu) in mpdus.into_iter().enumerate() {
        let f = mpdu.expect("intact MPDU");
        assert_eq!(f.seq, seq as u16);
        assert_eq!(f.body, vec![seq as u8; 180]);
        assert_eq!(f.dest, sta(2));
    }
}

#[test]
fn rte_receiver_handles_long_subframes_better() {
    // A long first subframe over a drifting channel: the channel decays
    // *within* the station's own payload, where RTE's data pilots keep
    // recalibrating while standard estimation goes stale.
    let frame = CarpoolFrame::new(vec![
        Subframe::new(sta(0), Mcs::QAM64_3_4, vec![0x3C; 16_000]),
        Subframe::new(sta(1), Mcs::QPSK_1_2, vec![0x55; 200]),
    ])
    .expect("two receivers");
    let mut clean = [0usize; 2];
    let trials: u64 = 10;
    for (mode_idx, estimation) in [
        Estimation::Standard,
        Estimation::Rte(carpool_phy::rte::CalibrationRule::Average),
    ]
    .into_iter()
    .enumerate()
    {
        for t in 0..trials {
            let mut link = CarpoolLink::builder()
                .snr_db(28.0)
                .coherence_time(4e-3)
                .rician_k(15.0)
                .cfo_hz(100.0)
                .seed(300 + t)
                .estimation(estimation)
                .build();
            let rx = link.deliver(&frame, sta(0)).expect("delivery succeeds");
            if rx.payload_at(0) == Some(&frame.subframes()[0].payload[..]) {
                clean[mode_idx] += 1;
            }
        }
    }
    assert!(
        clean[1] > clean[0],
        "RTE {} clean vs standard {} clean",
        clean[1],
        clean[0]
    );
    assert!(
        clean[1] as u64 > trials * 7 / 10,
        "RTE decodes the long subframe mostly ({}/{trials})",
        clean[1]
    );
}

#[test]
fn broadcast_semantics_deliver_all() {
    let frame = CarpoolFrame::new(vec![
        Subframe::new(sta(10), Mcs::QPSK_1_2, vec![1; 300]),
        Subframe::new(sta(11), Mcs::QPSK_1_2, vec![2; 300]),
        Subframe::new(sta(12), Mcs::QPSK_1_2, vec![3; 300]),
    ])
    .expect("three receivers");
    let mut link = CarpoolLink::builder().snr_db(33.0).seed(4).build();
    let all = link
        .deliver_all(&frame, &[sta(10), sta(11), sta(12)])
        .expect("all deliveries succeed");
    for (k, rx) in all.iter().enumerate() {
        assert_eq!(
            rx.payload_at(k).expect("matched"),
            &frame.subframes()[k].payload[..]
        );
    }
}
