//! Integration tests for the simulator's `--obs` record stream: the
//! JSONL lines the handle writes, read back as flight records.

use carpool_mac::error_model::{BerBiasModel, PerfectChannel};
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::{SimConfig, Simulator, UplinkTraffic};
use carpool_obs::flight::TraceKind;
use carpool_obs::{json, MemoryRecorder, Obs, TraceRecord};
use shared_buf::SharedBuf;
use std::sync::Arc;

#[path = "../../obs/tests/support/shared_buf.rs"]
mod shared_buf;

#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn run_with_obs(
    protocol: Protocol,
    stas: usize,
) -> (
    Vec<TraceRecord>,
    carpool_obs::MetricsSnapshot,
    carpool_mac::metrics::SimReport,
) {
    let cfg = SimConfig {
        protocol,
        num_stas: stas,
        duration_s: 1.0,
        seed: 7,
        uplink: Some(UplinkTraffic::default()),
        ..SimConfig::default()
    };
    let recorder = Arc::new(MemoryRecorder::new());
    let stream = SharedBuf::default();
    let obs = Obs::with_recorder(recorder.clone()).with_stream(stream.clone());
    let report = Simulator::new(cfg, Box::new(BerBiasModel::default()))
        .with_obs(obs)
        .run();
    let records = stream
        .text()
        .lines()
        .map(|line| {
            let value = json::parse(line).expect("every line is JSON");
            TraceRecord::from_json(&value).expect("every line is a known record")
        })
        .collect();
    (records, recorder.snapshot(), report)
}

#[test]
fn event_stream_is_monotone_in_simulation_time() {
    let (records, _, _) = run_with_obs(Protocol::Carpool, 10);
    assert!(!records.is_empty(), "an active simulation must record");
    let mut prev_t = f64::NEG_INFINITY;
    for (i, r) in records.iter().enumerate() {
        assert!(
            r.t() >= prev_t,
            "record {i} ({r:?}) at t={} after t={prev_t}",
            r.t()
        );
        prev_t = r.t();
    }
}

#[test]
fn event_stream_agrees_with_report_aggregates() {
    let (records, snap, report) = run_with_obs(Protocol::Carpool, 10);
    let of = |kind| records.iter().filter(move |r| r.kind() == Some(kind));

    assert_eq!(
        of(TraceKind::MacAck).count() as u64,
        report.downlink.delivered_frames + report.uplink.delivered_frames
    );
    assert_eq!(
        of(TraceKind::MacAck).map(TraceRecord::b).sum::<u64>(),
        report.downlink.delivered_bytes + report.uplink.delivered_bytes
    );
    assert_eq!(
        of(TraceKind::MacDrop).count() as u64,
        report.downlink.dropped_frames + report.uplink.dropped_frames
    );
    assert_eq!(
        of(TraceKind::MacTx).count() as u64,
        report.channel.transmissions
    );
    assert_eq!(
        of(TraceKind::MacCollision).count() as u64,
        report.channel.collisions
    );

    // Recorder counters mirror the same totals.
    assert_eq!(
        snap.counter("mac.downlink.delivered_frames"),
        report.downlink.delivered_frames
    );
    assert_eq!(
        snap.counter("mac.uplink.delivered_frames"),
        report.uplink.delivered_frames
    );
    assert_eq!(
        snap.counter("mac.transmissions"),
        report.channel.transmissions
    );
    assert_eq!(snap.counter("mac.collisions"), report.channel.collisions);
    assert_eq!(
        snap.counter("mac.aggregated_frames"),
        report.channel.aggregated_frames
    );

    // Delay histogram max matches the report's max_delay (drops included
    // in FlowMetrics::max_delay may exceed the delivered-only histogram).
    let h = snap
        .histogram("mac.downlink.delay")
        .expect("delay histogram");
    assert_eq!(h.count(), report.downlink.delivered_frames);
    assert!(h.max() <= report.downlink.max_delay + 1e-12);
}

#[test]
fn obs_does_not_perturb_simulation_results() {
    let cfg = SimConfig {
        protocol: Protocol::Dot11,
        num_stas: 8,
        duration_s: 1.0,
        seed: 3,
        ..SimConfig::default()
    };
    let baseline = Simulator::new(cfg.clone(), Box::new(PerfectChannel)).run();
    let observed = Simulator::new(cfg, Box::new(PerfectChannel))
        .with_obs(Obs::noop().with_stream(std::io::sink()))
        .run();
    assert_eq!(baseline.downlink, observed.downlink);
    assert_eq!(baseline.uplink, observed.uplink);
    assert_eq!(baseline.channel, observed.channel);
}
