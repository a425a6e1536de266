//! The PHY Monte-Carlo loop: one frame, many channel realisations.
//!
//! Every PHY number of the evaluation is a tally of one loop,
//! [`run_frames`]: transmit a frame, pass it through a `carpool-channel`
//! link once per trial, receive it and count what came out wrong — raw
//! BER per symbol (Figs. 3 and 11–14), side-channel BER, side-channel
//! CRC failures per symbol (the software analogue of the USRP traces the
//! paper feeds its MAC simulator, §7.2.1) and post-FEC frame errors.

use carpool_channel::link::LinkChannel;
use carpool_obs::Obs;
use carpool_phy::bits::hamming_distance;
use carpool_phy::rx::{receive_with, Estimation, Fec, SectionLayout};
use carpool_phy::tx::SectionSpec;
use carpool_phy::txcache::transmit_cached;
use carpool_phy::PhyError;

/// Channel fading selector for PHY runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fading {
    /// AWGN + CFO only — the paper's controlled static experiments
    /// (Fig. 11/12).
    None,
    /// Time-varying Rician fading — the paper's office environment for
    /// the long-frame experiments (Fig. 3/13/14). `rician_k = 0` gives
    /// Rayleigh.
    TimeVarying {
        /// Coherence time in seconds.
        coherence_s: f64,
        /// Rician K-factor of the direct path.
        rician_k: f64,
    },
}

/// The link every frame of a run passes through; only its seed differs
/// from frame to frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPoint {
    /// Receive SNR in dB.
    pub snr_db: f64,
    /// Fading model.
    pub fading: Fading,
    /// Residual CFO in Hz.
    pub cfo_hz: f64,
}

/// Integer tallies of a run. Frames are independent trials, so these
/// add exactly, and reducing them in frame order makes a parallel run
/// byte-identical to a serial one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhyTally {
    /// Raw (pre-FEC) bit errors per OFDM symbol position.
    pub bit_errors_by_symbol: Vec<usize>,
    /// Raw bits compared, over all symbols and frames.
    pub bits: usize,
    /// Side-channel bit errors.
    pub side_errors: usize,
    /// Side-channel bits compared (0 when the side channel is off).
    pub side_bits: usize,
    /// Frames whose side-channel CRC failed, per OFDM symbol position.
    pub crc_failures_by_symbol: Vec<usize>,
    /// Decoded payload bit errors (0 under [`Fec::Off`]).
    pub payload_bit_errors: usize,
    /// Frames with at least one payload bit error (0 under [`Fec::Off`]).
    pub frame_errors: usize,
}

impl PhyTally {
    fn zeroed(symbols: usize) -> PhyTally {
        PhyTally {
            bit_errors_by_symbol: vec![0; symbols],
            crc_failures_by_symbol: vec![0; symbols],
            ..PhyTally::default()
        }
    }

    fn add(mut self, other: &PhyTally) -> PhyTally {
        add_each(&mut self.bit_errors_by_symbol, &other.bit_errors_by_symbol);
        add_each(
            &mut self.crc_failures_by_symbol,
            &other.crc_failures_by_symbol,
        );
        self.bits += other.bits;
        self.side_errors += other.side_errors;
        self.side_bits += other.side_bits;
        self.payload_bit_errors += other.payload_bit_errors;
        self.frame_errors += other.frame_errors;
        self
    }
}

fn add_each(total: &mut [usize], frame: &[usize]) {
    for (t, f) in total.iter_mut().zip(frame) {
        *t += f;
    }
}

/// Transmits `spec` once and receives it through `frames` realisations
/// of `channel`, tallying what the receiver got wrong.
///
/// Frame `f`'s link is seeded `seed + f`, and the frames run on the
/// `carpool-par` worker pool, so the tally is the same at every thread
/// count (`CARPOOL_THREADS`). The transmitted waveform comes from
/// [`carpool_phy::txcache`]: a sweep over channel points encodes its
/// frame once.
///
/// Under [`Fec::Off`] the receiver stops before the decoder and the
/// payload tallies stay 0; raw symbol bits, side-channel values and CRC
/// verdicts are the same under every [`Fec`]. `obs` counts the TX-cache
/// lookup and each link's channel counters.
///
/// # Errors
///
/// Returns the transmitter's error for an unencodable `spec`, the
/// receiver's error of the first failing frame, and
/// [`PhyError::InvalidConfig`] if a frame panicked on the worker pool.
pub fn run_frames(
    spec: &SectionSpec,
    channel: ChannelPoint,
    estimation: Estimation,
    fec: Fec,
    frames: usize,
    seed: u64,
    obs: &Obs,
) -> Result<PhyTally, PhyError> {
    let tx = transmit_cached(std::slice::from_ref(spec), obs)?;
    let layouts = [SectionLayout::of(spec)];
    let sent = &tx.sections[0];
    let side_bits_per = spec
        .side_channel
        .map_or(0, |sc| sc.modulation.bits_per_symbol());
    let side_mask = (1u8 << side_bits_per) - 1;

    let per_frame = |f: usize, _: &()| -> Result<PhyTally, PhyError> {
        // Allocated before the channel and receive buffers: allocated
        // after them, it raised perfbench `phy_sweep`'s peak RSS by about
        // 0.3 MiB.
        let mut tally = PhyTally::zeroed(sent.num_symbols);
        let mut builder = LinkChannel::builder();
        builder
            .snr_db(channel.snr_db)
            .cfo_hz(channel.cfo_hz)
            .seed(seed.wrapping_add(f as u64));
        if let Fading::TimeVarying {
            coherence_s,
            rician_k,
        } = channel.fading
        {
            builder.coherence_time(coherence_s).rician_k(rician_k);
        }
        let rx_samples = builder.build().with_obs(obs.clone()).transmit(&tx.samples);
        let rx = receive_with(&rx_samples, &layouts, estimation, fec)?;
        let got = &rx.sections[0];

        for ((errors, t), r) in tally
            .bit_errors_by_symbol
            .iter_mut()
            .zip(&sent.symbol_bits)
            .zip(&got.raw_symbol_bits)
        {
            *errors = hamming_distance(t, r);
            tally.bits += t.len();
        }
        for (failures, &ok) in tally.crc_failures_by_symbol.iter_mut().zip(&got.crc_ok) {
            *failures = usize::from(!ok);
        }
        for (t, r) in sent.side_values.iter().zip(&got.side_values) {
            tally.side_errors += ((t ^ r) & side_mask).count_ones() as usize;
            tally.side_bits += side_bits_per;
        }
        if fec != Fec::Off {
            tally.payload_bit_errors = hamming_distance(&spec.bits, &got.bits);
            tally.frame_errors = usize::from(tally.payload_bit_errors > 0);
        }
        Ok(tally)
    };

    let tallies = carpool_par::par_map_indexed(&vec![(); frames], per_frame).map_err(|panic| {
        PhyError::InvalidConfig {
            reason: format!("Monte-Carlo frame failed: {panic}"),
        }
    })?;
    tallies
        .into_iter()
        .try_fold(PhyTally::zeroed(sent.num_symbols), |total, frame| {
            Ok(total.add(&frame?))
        })
}
