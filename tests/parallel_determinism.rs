//! Cross-crate determinism contract of the `carpool-par` worker pool:
//! the PHY Monte-Carlo driver and the MAC replication sweep must produce
//! byte-identical results whatever the thread count, and worker panics
//! must surface as errors instead of tearing the process down.

use carpool::montecarlo::{run_frames, ChannelPoint};
use carpool_bench::{pattern_bits, run_phy, PhyRunConfig, OFFICE_FADING};
use carpool_mac::error_model::{BerBiasModel, FrameErrorModel};
use carpool_mac::sim::{run_replications, SimConfig};
use carpool_mac::SimReport;
use carpool_obs::Obs;
use carpool_phy::mcs::Mcs;
use carpool_phy::rx::{Estimation, Fec};
use carpool_phy::tx::SectionSpec;
use shared_buf::SharedBuf;
use std::sync::Mutex;

#[path = "../crates/obs/tests/support/shared_buf.rs"]
mod shared_buf;

/// The thread override is process-wide state and the tests in this
/// binary run concurrently, so every mutation holds this lock.
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

#[test]
fn phy_monte_carlo_is_thread_count_invariant() {
    let config = PhyRunConfig {
        frames: 8,
        payload_bits: 1024 * 8,
        seed: 99,
        ..PhyRunConfig::default()
    };
    let one = with_threads(1, || run_phy(&config));
    let four = with_threads(4, || run_phy(&config));
    assert_eq!(one.data_ber.to_bits(), four.data_ber.to_bits());
    assert_eq!(one.side_ber.to_bits(), four.side_ber.to_bits());
    let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&one.ber_by_symbol), bits(&four.ber_by_symbol));

    // The FEC receive paths on the pool, each at an SNR on its own
    // waterfall, where some frames decode and some do not: every tally
    // must match across thread counts.
    let spec = SectionSpec::payload(pattern_bits(1024 * 8, 5), Mcs::QAM64_3_4);
    for (fec, snr_db) in [(Fec::Hard, 22.0), (Fec::Soft, 20.0)] {
        let channel = ChannelPoint {
            snr_db,
            fading: OFFICE_FADING,
            cfo_hz: 100.0,
        };
        let run = || {
            run_frames(
                &spec,
                channel,
                Estimation::Standard,
                fec,
                8,
                99,
                &Obs::noop(),
            )
        };
        let one = with_threads(1, run).expect("valid spec");
        let failed = one.frame_errors;
        assert!(
            0 < failed && failed < 8,
            "{fec:?}: {failed} of 8 frames failed"
        );
        assert_eq!(Ok(one), with_threads(4, run), "{fec:?}");
    }
}

#[test]
fn mac_replications_are_thread_count_invariant() {
    let cfg = SimConfig {
        num_stas: 8,
        duration_s: 1.0,
        ..SimConfig::default()
    };
    let seeds = [1u64, 2, 3, 4, 5];
    let model = || Box::new(BerBiasModel::calibrated()) as Box<dyn FrameErrorModel>;
    let one: Vec<SimReport> =
        with_threads(1, || run_replications(&cfg, &seeds, model).expect("runs"));
    let four: Vec<SimReport> =
        with_threads(4, || run_replications(&cfg, &seeds, model).expect("runs"));
    assert_eq!(one, four);
}

/// Runs the fig03-shaped flight-trace scenario with a ring and a JSONL
/// stream attached and returns the two ring exports and the stream.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn traced_fig03(threads: usize) -> (String, String, String) {
    with_threads(threads, || {
        let flight = std::sync::Arc::new(carpool_obs::FlightRecorder::new(4096));
        let stream = SharedBuf::default();
        let obs = carpool_obs::Obs::noop()
            .with_flight(flight.clone())
            .with_stream(stream.clone());
        carpool::fig03_flight_trace(4, 14.0, 7, &obs).expect("scenario runs");
        obs.flush();
        let records = flight.records();
        (
            carpool_obs::flight::to_chrome_trace(&records),
            carpool_obs::flight::to_jsonl(&records, flight.dropped()),
            stream.text(),
        )
    })
}

/// The flight record rides the same shard-merge contract as every other
/// observable: per-worker buffers absorbed in station order, so both
/// ring exports and the `--obs` stream must be byte-identical whatever
/// the thread count.
#[test]
fn flight_trace_is_thread_count_invariant() {
    let (chrome_one, jsonl_one, stream_one) = traced_fig03(1);
    let (chrome_four, jsonl_four, stream_four) = traced_fig03(4);
    assert!(
        jsonl_one.contains("trace_enqueue") && jsonl_one.contains("trace_outcome"),
        "trace should span MAC enqueue through per-STA outcome"
    );
    assert_eq!(chrome_one, chrome_four, "chrome trace differs by threads");
    assert_eq!(jsonl_one, jsonl_four, "jsonl trace differs by threads");
    assert_eq!(stream_one, stream_four, "obs stream differs by threads");
    // Nothing overflowed, so the stream is the ring export minus its
    // summary trailer.
    assert!(jsonl_one.starts_with(&stream_one) && jsonl_one.len() > stream_one.len());
}

#[test]
fn worker_panic_surfaces_as_err() {
    let items = vec![0u32; 8];
    let result = with_threads(4, || {
        carpool_par::par_map_indexed(&items, |i, _| {
            assert!(i != 3, "injected failure");
            i
        })
    });
    assert_eq!(result, Err(carpool_par::ParError::WorkerPanic));
}

/// One dense multi-AP run on the sharded event engine.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn dense_report(threads: usize, shards: usize) -> carpool_mac::DenseReport {
    let config = carpool_mac::DenseConfig {
        cell: SimConfig {
            num_stas: 12,
            num_aps: 1,
            duration_s: 0.6,
            seed: 21,
            ..SimConfig::default()
        },
        domains: 8,
        shards,
        ..carpool_mac::DenseConfig::default()
    };
    with_threads(threads, || {
        carpool_mac::run_dense(
            &config,
            |_| Box::new(BerBiasModel::calibrated()),
            &carpool_obs::Obs::noop(),
        )
        .expect("dense run succeeds")
    })
}

/// The sharded MAC event engine's determinism contract end to end: the
/// merged report of one big scenario is identical at 1 and 4 worker
/// threads (shard layout pinned, so only scheduling varies).
#[test]
fn dense_mac_engine_is_thread_count_invariant() {
    let one = dense_report(1, 4);
    let four = dense_report(4, 4);
    assert_eq!(one, four);
}

/// ... and identical across shard layouts: domain-per-shard, grouped,
/// and fully serial all merge to the same bytes.
#[test]
fn dense_mac_engine_is_shard_count_invariant() {
    let serial = dense_report(2, 1);
    let grouped = dense_report(2, 3);
    let per_domain = dense_report(2, 8);
    assert_eq!(serial, grouped);
    assert_eq!(serial, per_domain);
}
