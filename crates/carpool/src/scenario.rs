//! Named simulation scenarios matching the paper's evaluation setups.
//!
//! The benches, CLI and downstream users all need the same handful of
//! configurations; these constructors are the single source of truth
//! for the Fig. 15/16/17 operating points.

use crate::link::CarpoolLink;
use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{CarpoolFrame, Subframe};
use carpool_frame::FrameError;
use carpool_mac::protocol::Protocol;
use carpool_mac::sim::{AggregationWait, DownlinkTraffic, SimConfig, UplinkTraffic};
use carpool_obs::{Obs, TraceKind};
use carpool_phy::mcs::{Mcs, SYMBOL_DURATION};

/// Fig. 15: two-way VoIP per station, two APs, no background traffic.
pub fn voip_cell(protocol: Protocol, num_stas: usize, seed: u64) -> SimConfig {
    SimConfig {
        protocol,
        num_stas,
        duration_s: 8.0,
        seed,
        ..SimConfig::default()
    }
}

/// Fig. 16: the VoIP cell plus SIGCOMM'08-style uplink background.
pub fn busy_cell(protocol: Protocol, num_stas: usize, seed: u64) -> SimConfig {
    SimConfig {
        uplink: Some(UplinkTraffic::default()),
        ..voip_cell(protocol, num_stas, seed)
    }
}

/// Fig. 17 (paper Section 7.2.2): 30 STAs, deadline-bounded CBR downlink
/// at the VoIP packet rate, and uplink background scaled by
/// `uplink_scale` (it stands in for the STAs' own VoIP and TCP/UDP
/// uplink streams, which the paper keeps while replacing the downlink).
/// Expired frames are dropped, and the deadline also ends aggregation
/// early: "the aggregation process is ended when the size of the
/// buffered frames reaches the maximum frame size or the delay of the
/// oldest frame reaches the maximum latency limit".
pub fn deadline_cell(
    protocol: Protocol,
    frame_bytes: usize,
    deadline_s: f64,
    uplink_scale: f64,
    seed: u64,
) -> SimConfig {
    SimConfig {
        protocol,
        num_stas: 30,
        duration_s: 6.0,
        seed,
        downlink: DownlinkTraffic::Cbr {
            interval_s: 0.010,
            bytes: frame_bytes,
        },
        uplink: Some(UplinkTraffic {
            tcp_fraction: 0.5,
            rate_scale: uplink_scale,
        }),
        deadline: Some(deadline_s),
        drop_expired_s: Some(deadline_s),
        aggregation_wait: Some(AggregationWait {
            max_latency_s: deadline_s * 0.5,
            max_bytes: 65_535,
        }),
        bidirectional_voip: false,
        ..SimConfig::default()
    }
}

/// What [`fig03_flight_trace`] delivered, per station.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightTraceSummary {
    /// Stations whose own subframe decoded byte-exact.
    pub delivered: usize,
    /// Addressed stations on the frame.
    pub stations: usize,
    /// Payload OFDM symbols on air.
    pub payload_symbols: usize,
}

/// Fig. 3-shaped single-frame workload for the flight recorder: one long
/// Carpool aggregate (QAM64-3/4, ~1500-byte subframes) over the office
/// fading link (4 ms coherence, Rician K = 15, 100 Hz CFO), delivered to
/// every addressed station plus one outsider so the trace shows both a
/// full lifecycle (enqueue → A-HDR decision → per-symbol RTE → outcome →
/// ACK) and an early A-HDR drop.
///
/// All trace timestamps derive from a synthetic MAC timeline in sim
/// time: enqueues at `i·10 µs`, the aggregation decision and airtime
/// start at 100 µs, and everything inside the frame at
/// `airtime start + symbol·4 µs` — so the stream is a pure function of
/// `(num_stas, snr_db, seed)` and byte-identical at any thread count.
///
/// # Errors
///
/// Propagates framing and PHY errors ([`FrameError`]).
pub fn fig03_flight_trace(
    num_stas: usize,
    snr_db: f64,
    seed: u64,
    obs: &Obs,
) -> Result<FlightTraceSummary, FrameError> {
    const FRAME_ID: u64 = 1;
    const T_AIR: f64 = 100e-6;
    const SIFS: f64 = 16e-6;

    let num_stas = num_stas.clamp(1, carpool_bloom::MAX_RECEIVERS);
    let stations: Vec<MacAddress> = (1..=num_stas as u16).map(MacAddress::station).collect();
    let payload = |k: usize| vec![(k as u8) ^ 0xC3; 1500];
    let frame = CarpoolFrame::new(
        stations
            .iter()
            .enumerate()
            .map(|(k, &sta)| Subframe::new(sta, Mcs::QAM64_3_4, payload(k)))
            .collect(),
    )?;

    let mac_obs = obs.for_frame(FRAME_ID);
    let header = frame.header();
    for (i, sta) in stations.iter().enumerate() {
        let sta_id = sta
            .as_bytes()
            .iter()
            .fold(0u64, |acc, &b| (acc << 8) | b as u64);
        mac_obs.trace(TraceKind::MacEnqueue, i as f64 * 10e-6, sta_id, 1500, 0);
        // AggDecision payload mirrors the frame-side AhdrDecision: the
        // Bloom positions this receiver's hash set occupies.
        mac_obs.trace(
            TraceKind::AggDecision,
            T_AIR,
            sta_id,
            header.probe_mask(sta.as_bytes(), i),
            0,
        );
    }

    let tx = frame.transmit()?;
    let airtime = tx.payload_symbols() as f64 * SYMBOL_DURATION;
    mac_obs.trace(
        TraceKind::AirtimeStart,
        T_AIR,
        num_stas as u64,
        tx.payload_symbols() as u64,
        0,
    );

    let mut link = CarpoolLink::builder()
        .snr_db(snr_db)
        .coherence_time(4e-3)
        .rician_k(15.0)
        .cfo_hz(100.0)
        .seed(seed)
        .build()
        // In-frame events are stamped relative to airtime start.
        .with_obs(obs.for_frame(FRAME_ID).with_time_base(T_AIR));
    let mut receivers = stations.clone();
    receivers.push(MacAddress::station(900)); // outsider: early A-HDR drop
    let receptions = link.deliver_all(&frame, &receivers)?;

    mac_obs.trace(
        TraceKind::AirtimeEnd,
        T_AIR + airtime,
        num_stas as u64,
        tx.payload_symbols() as u64,
        0,
    );

    let mut delivered = 0usize;
    for (k, (rx, sta)) in receptions.iter().zip(&stations).enumerate() {
        let intact = rx.payload_at(k).is_some_and(|p| p == &payload(k)[..]);
        let sta_id = sta
            .as_bytes()
            .iter()
            .fold(0u64, |acc, &b| (acc << 8) | b as u64);
        let t_ack = T_AIR + airtime + SIFS * (k + 1) as f64;
        if intact {
            delivered += 1;
            // c carries the delivery delay (enqueue → ACK) as f64 bits.
            let delay = t_ack - k as f64 * 10e-6;
            mac_obs.trace(TraceKind::MacAck, t_ack, sta_id, 1500, delay.to_bits());
        } else {
            mac_obs.trace(TraceKind::MacDrop, t_ack, sta_id, 0, 0);
        }
    }

    Ok(FlightTraceSummary {
        delivered,
        stations: num_stas,
        payload_symbols: tx.payload_symbols(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use carpool_mac::error_model::BerBiasModel;
    use carpool_mac::sim::Simulator;

    #[test]
    fn scenarios_have_paper_parameters() {
        let v = voip_cell(Protocol::Carpool, 30, 1);
        assert_eq!(v.num_aps, 2);
        assert!(v.bidirectional_voip);
        assert!(v.uplink.is_none());

        let b = busy_cell(Protocol::Ampdu, 20, 1);
        assert!(b.uplink.is_some());

        let d = deadline_cell(Protocol::Carpool, 120, 0.05, 2.0, 1);
        assert_eq!(d.deadline, Some(0.05));
        assert_eq!(d.drop_expired_s, Some(0.05));
        assert!(d.aggregation_wait.is_some());
        assert!(!d.bidirectional_voip);
    }

    #[test]
    fn flight_trace_captures_a_full_lifecycle() {
        use carpool_obs::FlightRecorder;
        use std::sync::Arc;

        let flight = Arc::new(FlightRecorder::new(carpool_obs::DEFAULT_TRACE_CAPACITY));
        let obs = Obs::noop().with_flight(flight.clone());
        let summary = fig03_flight_trace(2, 30.0, 42, &obs).unwrap();
        assert_eq!(summary.stations, 2);
        assert_eq!(summary.delivered, 2, "clean 30 dB link must deliver");

        let records = flight.records();
        let count = |k: TraceKind| records.iter().filter(|r| r.kind() == Some(k)).count();
        // One complete lifecycle per station, plus the outsider's drop.
        assert_eq!(count(TraceKind::MacEnqueue), 2);
        assert_eq!(count(TraceKind::AggDecision), 2);
        assert_eq!(count(TraceKind::AirtimeStart), 1);
        assert_eq!(count(TraceKind::AirtimeEnd), 1);
        // 2 STAs + outsider, each decided by the frame walk and graded
        // against ground truth by the link facade.
        let graded = records
            .iter()
            .filter(|r| r.kind() == Some(TraceKind::AhdrDecision) && r.c() != 0)
            .count();
        assert_eq!((count(TraceKind::AhdrDecision), graded), (6, 3));
        assert!(count(TraceKind::StaOutcome) >= 2);
        assert_eq!(count(TraceKind::MacAck), 2);
        assert!(count(TraceKind::RteRecal) > 0, "RTE events missing");
        assert!(count(TraceKind::SideCrc) > 0, "side-CRC events missing");
        // Every record is tied to the frame and stamped inside the
        // synthetic MAC timeline.
        assert!(records.iter().all(|r| r.frame() == 1));
        assert_eq!(flight.dropped(), 0);
    }

    #[test]
    fn scenarios_run() {
        for cfg in [
            SimConfig {
                duration_s: 1.0,
                ..voip_cell(Protocol::Carpool, 8, 3)
            },
            SimConfig {
                duration_s: 1.0,
                ..busy_cell(Protocol::Dot11, 8, 3)
            },
            SimConfig {
                duration_s: 1.0,
                ..deadline_cell(Protocol::Ampdu, 200, 0.05, 1.0, 3)
            },
        ] {
            let report = Simulator::new(cfg, Box::new(BerBiasModel::calibrated())).run();
            assert!(report.downlink.delivered_frames > 0);
        }
    }
}
