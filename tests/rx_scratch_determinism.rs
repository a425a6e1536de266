//! RX scratch-reuse contract: recycling a [`PhyScratch`] across frames
//! — as the `deliver_all` worker pool and the `CarpoolLink::deliver`
//! fast path now do — must be invisible in every result. The workspace
//! carries buffer *capacity* between frames, never values: a station
//! decoding with a warmed scratch must produce bit-identical receptions
//! to one decoding with a fresh scratch, and the figure workloads must
//! stay bit-identical at any thread count (each worker warms its own
//! scratch over a scheduling-dependent share of the stations).
//!
//! Mirrors `tx_cache_determinism.rs` on the receive side:
//!
//! * frame-by-frame: mixed-MCS noisy frames through one shared scratch
//!   vs a fresh scratch each, including an A-HDR early-drop in the
//!   middle of the sequence (the error/drop paths must hand the
//!   workspace back too),
//! * fig03-like: QAM64 3/4 over office fading, 1 vs 4 threads,
//! * fig12-like: side-channel BER at low SNR, 1 vs 4 threads,
//! * fig15: MAC-only (VoIP over the error model) — no PHY receive in
//!   the loop, so scratch reuse cannot touch it; pinned at both thread
//!   counts to document that.

use carpool_bench::{run_mac, run_phy, Fading, PhyRunConfig, OFFICE_FADING};
use carpool_channel::link::LinkChannel;
use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{receive_carpool_obs_with_scratch, CarpoolFrame, Subframe};
use carpool_mac::sim::SimConfig;
use carpool_phy::mcs::Mcs;
use carpool_phy::rx::{Estimation, PhyScratch};
use std::sync::Mutex;

/// The thread override is process-wide state; all mutations in this
/// binary hold this lock.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _guard = OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    carpool_par::set_thread_override(Some(threads));
    let out = f();
    carpool_par::set_thread_override(None);
    out
}

/// A sequence of differently-shaped frames: MCS mix, subframe count and
/// payload sizes all vary, so successive decodes stress every buffer
/// the scratch carries (lattice growth *and* shrink, scatter-map cache
/// across four modulations).
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn frame_sequence() -> Vec<CarpoolFrame> {
    let mcs_cycle = [
        Mcs::BPSK_1_2,
        Mcs::QPSK_1_2,
        Mcs::QAM16_1_2,
        Mcs::QAM64_3_4,
        Mcs::QAM16_3_4,
    ];
    (0..5usize)
        .map(|f| {
            let subframes: Vec<Subframe> = (0..=f.min(3))
                .map(|k| {
                    Subframe::new(
                        MacAddress::station(k as u16),
                        mcs_cycle[(f + k) % mcs_cycle.len()],
                        vec![(f as u8) ^ (k as u8) ^ 0xA5; 180 + 310 * ((f + k) % 3)],
                    )
                })
                .collect();
            CarpoolFrame::new(subframes).expect("valid frame")
        })
        .collect()
}

#[test]
fn shared_scratch_matches_fresh_scratch_frame_by_frame() {
    let frames = frame_sequence();
    let mut channel = LinkChannel::builder().snr_db(24.0).seed(11).build();
    let waveforms: Vec<Vec<_>> = frames
        .iter()
        .map(|f| channel.transmit(&f.transmit().expect("valid frame").samples))
        .collect();
    let obs = carpool_obs::Obs::noop();

    // Station 1 is aboard most frames; station 900 is aboard none, so
    // its decodes exercise the A-HDR early-drop exit between warmed
    // decodes of station 1.
    for station in [MacAddress::station(1), MacAddress::station(900)] {
        let mut shared = PhyScratch::default();
        for (i, rx_samples) in waveforms.iter().enumerate() {
            let warmed = receive_carpool_obs_with_scratch(
                rx_samples,
                station,
                Estimation::Standard,
                carpool_bloom::DEFAULT_HASHES,
                None,
                &obs,
                &mut shared,
            );
            let fresh = receive_carpool_obs_with_scratch(
                rx_samples,
                station,
                Estimation::Standard,
                carpool_bloom::DEFAULT_HASHES,
                None,
                &obs,
                &mut PhyScratch::default(),
            );
            match (warmed, fresh) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "frame {i}, station {station:?}"),
                (a, b) => assert_eq!(
                    a.is_err(),
                    b.is_err(),
                    "outcome diverged at frame {i}, station {station:?}"
                ),
            }
        }
    }
}

fn assert_thread_invariant(config: &PhyRunConfig, snrs: &[f64]) {
    let run = |threads: usize| {
        with_threads(threads, || {
            snrs.iter()
                .map(|&snr_db| run_phy(&PhyRunConfig { snr_db, ..*config }))
                .collect::<Vec<_>>()
        })
    };
    let serial = run(1);
    let pooled = run(4);
    for (point, (a, b)) in serial.iter().zip(pooled.iter()).enumerate() {
        assert_eq!(
            a.data_ber.to_bits(),
            b.data_ber.to_bits(),
            "data BER diverged at sweep point {point}"
        );
        assert_eq!(
            a.side_ber.to_bits(),
            b.side_ber.to_bits(),
            "side BER diverged at sweep point {point}"
        );
        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.ber_by_symbol), bits(&b.ber_by_symbol));
    }
}

#[test]
fn fig03_like_sweep_is_scratch_and_thread_invariant() {
    let config = PhyRunConfig {
        payload_bits: 1024 * 8,
        frames: 3,
        seed: 321,
        fading: OFFICE_FADING,
        ..PhyRunConfig::default()
    };
    assert_thread_invariant(&config, &[22.0, 27.0, 32.0]);
}

#[test]
fn fig12_like_sweep_is_scratch_and_thread_invariant() {
    let config = PhyRunConfig {
        payload_bits: 1024 * 8,
        side_channel: Some(carpool_phy::tx::SideChannelConfig::default()),
        fading: Fading::None,
        frames: 3,
        seed: 77,
        ..PhyRunConfig::default()
    };
    assert_thread_invariant(&config, &[14.0, 18.0, 24.0]);
}

#[test]
fn fig15_mac_workload_sees_no_scratch() {
    // Fig 15 (VoIP capacity) runs entirely on the MAC simulator over the
    // calibrated error model; no PHY receive happens, so scratch reuse
    // cannot influence it at any thread count.
    let cfg = SimConfig {
        num_stas: 4,
        duration_s: 0.5,
        ..SimConfig::default()
    };
    let serial = with_threads(1, || run_mac(cfg.clone()));
    let pooled = with_threads(4, || run_mac(cfg.clone()));
    assert_eq!(serial, pooled);
}
