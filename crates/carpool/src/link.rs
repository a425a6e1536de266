//! End-to-end Carpool link: aggregate frame → channel → station.
//!
//! Ties the whole stack together the way the paper's USRP testbed does:
//! the AP-side [`CarpoolFrame`] is modulated by `carpool-phy`, degraded
//! by a `carpool-channel` link model, and parsed by each station with
//! either standard or real-time channel estimation.

use carpool_channel::link::{LinkChannel, LinkChannelBuilder};
use carpool_channel::DelayProfile;
use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{receive_carpool_obs_with_scratch, CarpoolFrame, CarpoolReception};
use carpool_frame::FrameError;
use carpool_obs::flight::{AHDR_ABOARD, AHDR_BITMAP_SHIFT, AHDR_OUTSIDER};
use carpool_obs::{Obs, TraceKind};
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{Estimation, PhyScratch};
use carpool_phy::tx::SideChannelConfig;

/// An end-to-end link between a Carpool AP and its stations.
///
/// # Examples
///
/// ```
/// use carpool::link::CarpoolLink;
/// use carpool_frame::addr::MacAddress;
/// use carpool_frame::carpool::{CarpoolFrame, Subframe};
/// use carpool_phy::mcs::Mcs;
///
/// # fn main() -> Result<(), carpool_frame::FrameError> {
/// let mut link = CarpoolLink::builder().snr_db(35.0).seed(3).build();
/// let frame = CarpoolFrame::new(vec![Subframe::new(
///     MacAddress::station(7),
///     Mcs::QPSK_1_2,
///     vec![0x42; 100],
/// )])?;
/// let rx = link.deliver(&frame, MacAddress::station(7))?;
/// assert_eq!(rx.payload_at(0).unwrap(), &[0x42; 100][..]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CarpoolLink {
    channel: LinkChannel,
    estimation: Estimation,
    hashes: usize,
    side_channel: Option<SideChannelConfig>,
    obs: Obs,
    /// Receive workspace reused by [`CarpoolLink::deliver`] across
    /// frames ([`CarpoolLink::deliver_all`] workers keep their own).
    scratch: PhyScratch,
}

impl CarpoolLink {
    /// Starts building a link.
    pub fn builder() -> CarpoolLinkBuilder {
        CarpoolLinkBuilder::default()
    }

    /// Attaches an observability handle used by subsequent deliveries.
    /// The facade knows which stations a frame was *really* addressed to,
    /// so on top of the frame/PHY records it records each station's
    /// A-HDR verdict graded against that ground truth
    /// ([`TraceKind::AhdrDecision`] with word `c` set) — the basis for
    /// exact Bloom false-positive accounting in `carpool report`.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        let channel = self.channel;
        self.channel = channel.with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// Grades `rx`'s A-HDR verdict against ground truth: whether `frame`
    /// carries a subframe addressed to `station`, independent of what
    /// the A-HDR says.
    fn record_ahdr_truth(&self, frame: &CarpoolFrame, station: MacAddress, rx: &CarpoolReception) {
        if !self.obs.enabled() {
            return;
        }
        let aboard = frame.subframes().iter().any(|s| s.receiver == station);
        let station_id = station
            .as_bytes()
            .iter()
            .fold(0u64, |acc, &b| (acc << 8) | b as u64);
        let bitmap = rx.matched_indices.iter().fold(0u64, |m, &i| m | (1 << i));
        self.obs.trace(
            TraceKind::AhdrDecision,
            0.0,
            station_id,
            bitmap << AHDR_BITMAP_SHIFT,
            if aboard { AHDR_ABOARD } else { AHDR_OUTSIDER },
        );
    }

    /// Transmits `frame` over the channel and parses it at `station`.
    ///
    /// # Errors
    ///
    /// Propagates framing and PHY errors ([`FrameError`]).
    pub fn deliver(
        &mut self,
        frame: &CarpoolFrame,
        station: MacAddress,
    ) -> Result<CarpoolReception, FrameError> {
        let tx = frame.transmit()?;
        let rx_samples = self.channel.transmit(&tx.samples);
        let rx = receive_carpool_obs_with_scratch(
            &rx_samples,
            station,
            self.estimation,
            self.hashes,
            self.side_channel,
            &self.obs,
            &mut self.scratch,
        )?;
        self.record_ahdr_truth(frame, station, &rx);
        Ok(rx)
    }

    /// Transmits once and parses the *same* waveform at several stations
    /// (broadcast semantics — every STA hears the same downlink frame,
    /// though through an independent channel realisation here unless the
    /// builder's seed is reused).
    ///
    /// The per-station receive paths are independent, so they fan out
    /// across the `carpool-par` worker pool (`CARPOOL_THREADS` controls
    /// the width). Receptions come back in station order. Workers count
    /// straight into this link's metrics recorder and buffer their
    /// records in an [`Obs::shard`], which this link absorbs in that
    /// same station order, so threaded and serial runs produce
    /// identical metrics and an identically ordered record stream.
    ///
    /// # Errors
    ///
    /// Propagates framing and PHY errors ([`FrameError`]); the first
    /// failing station (in station order) wins. A panic inside a worker
    /// surfaces as [`FrameError::Malformed`] rather than unwinding
    /// through the pool.
    pub fn deliver_all(
        &mut self,
        frame: &CarpoolFrame,
        stations: &[MacAddress],
    ) -> Result<Vec<CarpoolReception>, FrameError> {
        let tx = frame.transmit()?;
        let rx_samples = self.channel.transmit(&tx.samples);
        let estimation = self.estimation;
        let hashes = self.hashes;
        let side_channel = self.side_channel;
        let obs = &self.obs;

        // Each pool worker keeps one PhyScratch for its whole share of
        // the stations: decode buffers, scatter maps, and the Viterbi
        // trellis are allocated once per worker, not once per station.
        let shards = carpool_par::par_map_indexed_scratch(
            stations,
            PhyScratch::default,
            |scratch, _idx, &sta| {
                let shard = if obs.tracing() {
                    obs.shard()
                } else {
                    obs.clone()
                };
                let rx = receive_carpool_obs_with_scratch(
                    &rx_samples,
                    sta,
                    estimation,
                    hashes,
                    side_channel,
                    &shard,
                    scratch,
                );
                (rx, shard.take_records())
            },
        )
        .map_err(|panic| FrameError::Malformed {
            reason: format!("parallel receive failed: {panic}"),
        })?;

        let mut receptions = Vec::with_capacity(shards.len());
        for ((rx, records), &sta) in shards.into_iter().zip(stations) {
            self.obs.absorb(&records);
            let rx = rx?;
            self.record_ahdr_truth(frame, sta, &rx);
            receptions.push(rx);
        }
        Ok(receptions)
    }
}

/// Builder for [`CarpoolLink`].
#[derive(Debug, Clone)]
pub struct CarpoolLinkBuilder {
    channel: LinkChannelBuilder,
    estimation: Estimation,
    hashes: usize,
    side_channel: Option<SideChannelConfig>,
}

impl Default for CarpoolLinkBuilder {
    fn default() -> Self {
        CarpoolLinkBuilder {
            channel: LinkChannel::builder(),
            estimation: Estimation::Rte(CalibrationRule::Average),
            hashes: carpool_bloom::DEFAULT_HASHES,
            side_channel: Some(SideChannelConfig::default()),
        }
    }
}

impl CarpoolLinkBuilder {
    /// AWGN at the given SNR (default: noiseless).
    pub fn snr_db(&mut self, snr_db: f64) -> &mut Self {
        self.channel.snr_db(snr_db);
        self
    }

    /// Time-varying Rayleigh fading with the given coherence time.
    pub fn coherence_time(&mut self, seconds: f64) -> &mut Self {
        self.channel.coherence_time(seconds);
        self
    }

    /// Static Rayleigh fading.
    pub fn static_fading(&mut self) -> &mut Self {
        self.channel.static_fading();
        self
    }

    /// Rician K-factor of the fading (0 = Rayleigh).
    pub fn rician_k(&mut self, k: f64) -> &mut Self {
        self.channel.rician_k(k);
        self
    }

    /// Multipath power delay profile.
    pub fn profile(&mut self, profile: DelayProfile) -> &mut Self {
        self.channel.profile(profile);
        self
    }

    /// Residual CFO in Hz.
    pub fn cfo_hz(&mut self, hz: f64) -> &mut Self {
        self.channel.cfo_hz(hz);
        self
    }

    /// RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.channel.seed(seed);
        self
    }

    /// Station-side estimation mode (default: RTE with Eq. 3 averaging).
    pub fn estimation(&mut self, estimation: Estimation) -> &mut Self {
        self.estimation = estimation;
        self
    }

    /// Side-channel configuration shared by AP and stations.
    pub fn side_channel(&mut self, sc: Option<SideChannelConfig>) -> &mut Self {
        self.side_channel = sc;
        self
    }

    /// Bloom-filter hash count.
    pub fn hashes(&mut self, hashes: usize) -> &mut Self {
        self.hashes = hashes;
        self
    }

    /// Builds the link.
    pub fn build(&self) -> CarpoolLink {
        CarpoolLink {
            channel: self.channel.build(),
            estimation: self.estimation,
            hashes: self.hashes,
            side_channel: self.side_channel,
            obs: Obs::noop(),
            scratch: PhyScratch::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carpool_frame::carpool::Subframe;
    use carpool_phy::mcs::Mcs;

    fn two_sta_frame() -> CarpoolFrame {
        CarpoolFrame::new(vec![
            Subframe::new(MacAddress::station(1), Mcs::QPSK_1_2, vec![0xAA; 150]),
            Subframe::new(MacAddress::station(2), Mcs::QAM16_1_2, vec![0xBB; 250]),
        ])
        .unwrap()
    }

    #[test]
    fn clean_link_delivers_both_receivers() {
        let mut link = CarpoolLink::builder().seed(1).build();
        let frame = two_sta_frame();
        let rx = link
            .deliver_all(&frame, &[MacAddress::station(1), MacAddress::station(2)])
            .unwrap();
        assert_eq!(rx[0].payload_at(0).unwrap(), &[0xAA; 150][..]);
        assert_eq!(rx[1].payload_at(1).unwrap(), &[0xBB; 250][..]);
    }

    #[test]
    fn high_snr_fading_link_decodes() {
        let mut link = CarpoolLink::builder()
            .snr_db(35.0)
            .static_fading()
            .cfo_hz(100.0)
            .seed(5)
            .build();
        let frame = two_sta_frame();
        let rx = link.deliver(&frame, MacAddress::station(1)).unwrap();
        assert_eq!(rx.payload_at(0).unwrap(), &[0xAA; 150][..]);
    }

    #[test]
    fn standard_estimation_mode_works_too() {
        let mut link = CarpoolLink::builder()
            .estimation(Estimation::Standard)
            .snr_db(30.0)
            .seed(9)
            .build();
        let frame = two_sta_frame();
        let rx = link.deliver(&frame, MacAddress::station(2)).unwrap();
        assert_eq!(rx.payload_at(1).unwrap(), &[0xBB; 250][..]);
    }

    #[test]
    fn obs_records_ahdr_ground_truth() {
        use carpool_obs::{MemoryRecorder, Obs};
        use std::sync::Arc;

        let recorder = Arc::new(MemoryRecorder::new());
        let mut link = CarpoolLink::builder()
            .seed(1)
            .build()
            .with_obs(Obs::with_recorder(recorder.clone()));
        let frame = two_sta_frame();
        link.deliver_all(
            &frame,
            &[
                MacAddress::station(1),
                MacAddress::station(2),
                MacAddress::station(700),
            ],
        )
        .unwrap();
        let snap = recorder.snapshot();
        // Both addressed stations must match (no false negatives).
        assert_eq!(snap.counter("carpool.ahdr_true_positive"), 2);
        assert_eq!(snap.counter("carpool.ahdr_false_negative"), 0);
        // The outsider is either a clean miss or a counted false positive.
        assert_eq!(
            snap.counter("carpool.ahdr_true_negative")
                + snap.counter("carpool.ahdr_false_positive"),
            1
        );
        // Frame- and PHY-layer metrics flow through the same handle.
        assert!(snap.counter("frame.subframe_decoded") >= 2);
        assert!(snap.counter("phy.sections_decoded") > 0);
    }

    #[test]
    fn outsider_gets_nothing_useful() {
        let mut link = CarpoolLink::builder().seed(2).build();
        let frame = two_sta_frame();
        let rx = link.deliver(&frame, MacAddress::station(500)).unwrap();
        assert!(rx.payload_at(0).is_none() || rx.matched_indices.contains(&0));
    }
}
