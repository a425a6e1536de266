//! Cross-crate integration: frame synchronisation feeding the Carpool
//! receiver — the full "RF detector → decoder" flow of paper Fig. 2.

use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{receive_carpool_obs_with_scratch, CarpoolFrame, Subframe};
use carpool_frame::coexist::{classify, FrameClass};
use carpool_obs::Obs;
use carpool_phy::math::Complex64;
use carpool_phy::mcs::Mcs;
use carpool_phy::rx::{Estimation, PhyScratch};
use carpool_phy::sync::{correct_cfo, detect_frame, synchronize};
use carpool_phy::tx::SideChannelConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn noise(n: usize, amplitude: f64, rng: &mut StdRng) -> Vec<Complex64> {
    (0..n)
        .map(|_| {
            Complex64::new(
                (rng.gen::<f64>() - 0.5) * amplitude,
                (rng.gen::<f64>() - 0.5) * amplitude,
            )
        })
        .collect()
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn two_sta_frame() -> CarpoolFrame {
    CarpoolFrame::new(vec![
        Subframe::new(MacAddress::station(4), Mcs::QPSK_1_2, vec![0xC3; 220]),
        Subframe::new(MacAddress::station(5), Mcs::QAM16_1_2, vec![0x3C; 330]),
    ])
    .expect("two receivers")
}

#[test]
fn detect_cfo_correct_then_receive_carpool() {
    let frame = two_sta_frame();
    let tx = frame.transmit().expect("modulates");

    // Air: idle noise, then the frame with +9 kHz CFO, noise floor on top.
    let mut rng = StdRng::seed_from_u64(42);
    let mut shifted = tx.samples.clone();
    correct_cfo(&mut shifted, -9_000.0); // inject +9 kHz
    let mut air = noise(300, 5e-4, &mut rng);
    air.extend(shifted);
    air.extend(noise(200, 5e-4, &mut rng));
    for (s, n) in air.iter_mut().zip(noise(100_000, 4e-4, &mut rng)) {
        *s += n;
    }

    // Station 5's receive flow: detect, align, correct CFO, parse.
    let sync = detect_frame(&air, 0.6).expect("frame detected");
    assert!(
        (sync.start as isize - 300).abs() <= 1,
        "timing off: {}",
        sync.start
    );
    assert!((sync.cfo_hz - 9_000.0).abs() < 300.0, "cfo {}", sync.cfo_hz);

    let aligned = synchronize(&air, 0.6).expect("aligned");
    let rx = receive_carpool_obs_with_scratch(
        &aligned,
        MacAddress::station(5),
        Estimation::Standard,
        carpool_bloom::DEFAULT_HASHES,
        Some(SideChannelConfig::default()),
        &Obs::noop(),
        &mut PhyScratch::default(),
    )
    .expect("parses");
    assert_eq!(rx.payload_at(1).expect("matched"), &[0x3C; 330][..]);
}

#[test]
fn synchronized_classification_of_both_formats() {
    use carpool_frame::coexist::LegacyFrame;
    let mut rng = StdRng::seed_from_u64(7);

    let carpool_tx = two_sta_frame().transmit().expect("modulates");
    let legacy_tx = LegacyFrame::new(Mcs::QPSK_1_2, vec![9; 180])
        .expect("legal payload")
        .transmit()
        .expect("modulates");

    for (samples, expect) in [
        (&carpool_tx.samples, FrameClass::Carpool),
        (&legacy_tx.samples, FrameClass::Legacy),
    ] {
        let mut air = noise(177, 5e-4, &mut rng);
        air.extend(samples.iter().copied());
        air.extend(noise(64, 5e-4, &mut rng));
        let aligned = synchronize(&air, 0.6).expect("aligned");
        assert_eq!(classify(&aligned).expect("classifies"), expect);
    }
}

#[test]
fn no_detection_in_pure_noise() {
    let mut rng = StdRng::seed_from_u64(9);
    let air = noise(4000, 1e-3, &mut rng);
    assert!(detect_frame(&air, 0.6).is_err());
}
