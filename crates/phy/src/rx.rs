//! Receiver chain: baseband samples to section bits.
//!
//! The receiver is *layout driven*: it is told the section structure
//! (lengths, MCS, scrambling, side channel) it should expect. The layer
//! above (`carpool-frame`) discovers that structure incrementally the way
//! a Carpool STA does — decode the fixed-format A-HDR, then each
//! subframe's SIG, then decode or *skip* the subframe body — which is why
//! the core API is the stepwise [`FrameDecoder`]; [`receive`] is a
//! convenience wrapper that decodes a fully known layout in one call.
//!
//! Two estimation modes are provided:
//!
//! * [`Estimation::Standard`] — the 802.11 baseline: one LTF estimate for
//!   the whole frame (exhibits the paper's BER bias on long frames).
//! * [`Estimation::Rte`] — Carpool's real-time estimation: per-symbol
//!   CRCs from the phase offset side channel gate data-pilot updates of
//!   the channel estimate (paper Section 5).
//!
//! Three [`Fec`] modes choose what happens after demapping: hard- or
//! soft-decision Viterbi decoding, or none at all for callers that only
//! read the pre-FEC diagnostics (raw symbol bits, side channel, CRCs).

use crate::convolutional::{
    coded_len, decode_prepared, CodeRate, ViterbiScratch, CONSTRAINT_LENGTH,
};
use crate::equalizer::{estimate_noise_from_ltf, track_phase, ChannelEstimate};
use crate::interleaver::RxSymbolMap;
use crate::math::Complex64;
use crate::mcs::{Mcs, SYMBOL_DURATION};
use crate::modulation::Modulation;
#[cfg(test)]
use crate::ofdm::demodulate_symbol;
use crate::ofdm::{
    demodulate_symbol_into, Carriers, FreqSymbol, CP_LEN, FFT_SIZE, NUM_DATA, SYMBOL_LEN,
};
use crate::preamble::{ltf_offsets, PREAMBLE_LEN};
use crate::rte::{CalibrationRule, RteEstimator};
use crate::scrambler::Scrambler;
use crate::tx::{SectionSpec, SideChannelConfig};
use crate::PhyError;
use carpool_obs::{Obs, TraceKind};

/// Channel estimation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Estimation {
    /// Preamble-only estimation (IEEE 802.11 baseline).
    #[default]
    Standard,
    /// Real-time estimation calibrated by data pilots (Carpool).
    Rte(CalibrationRule),
}

/// Forward error correction applied to each decoded section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fec {
    /// Hard-decision Viterbi decoding of the demapped bits.
    Hard,
    /// Soft-decision (LLR) Viterbi decoding, using the noise variance
    /// estimated from the LTF pair and the per-carrier noise
    /// amplification of zero-forcing equalisation. Per-symbol CRC
    /// checking and RTE gating still use hard decisions.
    Soft,
    /// Stop before FEC: no trellis, no Viterbi, no descrambling, and
    /// [`RxSection::bits`] comes back empty. Every pre-FEC output (raw
    /// symbol bits, CRC verdicts, side values, phase offsets) and the
    /// estimator state match [`Fec::Hard`] exactly.
    Off,
}

/// Expected layout of one received section.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionLayout {
    /// Information bits to recover.
    pub message_bits: usize,
    /// Modulation and coding scheme.
    pub mcs: Mcs,
    /// Whether the section was scrambled.
    pub scramble: bool,
    /// Side-channel configuration, if the transmitter injected one.
    pub side_channel: Option<SideChannelConfig>,
    /// Whether the section's data subcarriers are QBPSK-rotated (the
    /// Carpool A-HDR format mark).
    pub qbpsk: bool,
}

impl SectionLayout {
    /// Layout corresponding to a transmit [`SectionSpec`].
    pub fn of(spec: &SectionSpec) -> SectionLayout {
        SectionLayout {
            message_bits: spec.bits.len(),
            mcs: spec.mcs,
            scramble: spec.scramble,
            side_channel: spec.side_channel,
            qbpsk: spec.qbpsk,
        }
    }

    /// OFDM symbols this section occupies.
    pub fn symbol_count(&self) -> usize {
        self.mcs.symbols_for_bits(self.message_bits)
    }
}

/// Decoded contents and diagnostics of one section.
#[derive(Debug, Clone, PartialEq)]
// lint:allow(dead-api): private_interfaces keeps it pub: pub `FrameDecoder::decode_section` returns it and pub field `RxFrame::sections` holds it
pub struct RxSection {
    /// Recovered information bits (post-Viterbi, descrambled). Empty
    /// under [`Fec::Off`].
    pub bits: Vec<u8>,
    /// Hard-decision interleaved-domain bits per symbol — comparable to
    /// [`crate::tx::SectionInfo::symbol_bits`] for raw BER measurement.
    pub raw_symbol_bits: Vec<Vec<u8>>,
    /// Per-symbol verdict of the side-channel CRC (all symbols in a
    /// group share the verdict). Empty when the side channel is off.
    pub crc_ok: Vec<bool>,
    /// Side-channel values decoded per symbol. Empty when off.
    pub side_values: Vec<u8>,
    /// Tracked total common phase offset per symbol, radians.
    pub phase_offsets: Vec<f64>,
}

/// A fully decoded PPDU.
#[derive(Debug, Clone, PartialEq)]
pub struct RxFrame {
    /// Per-section results, in layout order.
    pub sections: Vec<RxSection>,
    /// The initial LTF-derived channel estimate.
    pub initial_estimate: ChannelEstimate,
}

enum Estimator {
    /// Preamble-only estimation: the decoder's LTF-derived `initial`
    /// estimate is used as-is (no copy of it is kept here).
    Fixed,
    /// Boxed: the estimator holds a whole channel estimate.
    Rte(Box<RteEstimator>),
}

impl Estimator {
    fn current<'e>(&'e self, initial: &'e ChannelEstimate) -> &'e ChannelEstimate {
        match self {
            Estimator::Fixed => initial,
            Estimator::Rte(r) => r.estimate(),
        }
    }
}

/// Buffered state for one side-channel CRC group: its demapped bits and
/// side values and, under RTE only, its raw symbols before the last
/// with their common phase removed (the last is still in
/// [`PhyScratch`]'s `raw` slot when the group closes).
#[derive(Debug, Default)]
struct GroupBuffer {
    bits: Vec<u8>,
    side_values: Vec<u8>,
    received: Vec<FreqSymbol>,
}

impl GroupBuffer {
    fn clear(&mut self) {
        self.bits.clear();
        self.side_values.clear();
        self.received.clear();
    }
}

/// Reusable receive-path workspace: the demodulated and equalised
/// symbol slots, the soft-bit (LLR) buffer, the Viterbi trellis, and the
/// side-channel group buffer. Every [`FrameDecoder`]
/// owns one, so the steady-state symbol loop performs no heap
/// allocation beyond its per-symbol outputs; recycle it across frames
/// with [`FrameDecoder::with_scratch`] / [`FrameDecoder::into_scratch`].
#[derive(Debug)]
pub struct PhyScratch {
    raw: FreqSymbol,
    eq: Carriers,
    llrs: Vec<f64>,
    viterbi: ViterbiScratch,
    group: GroupBuffer,
    /// Fused-pipeline scatter maps, one per `(modulation, rate)` seen.
    rx_maps: Vec<(Modulation, CodeRate, RxSymbolMap)>,
}

impl Default for PhyScratch {
    fn default() -> PhyScratch {
        PhyScratch {
            raw: FreqSymbol::zeroed(),
            eq: Carriers::splat(Complex64::ZERO),
            llrs: Vec::new(),
            viterbi: ViterbiScratch::default(),
            group: GroupBuffer::default(),
            rx_maps: Vec::new(),
        }
    }
}

impl PhyScratch {
    /// Index of the cached scatter map for `(modulation, rate)`,
    /// building it on first use. A linear scan suffices: at most seven
    /// combinations exist (one per [`Mcs`]), and steady-state frames
    /// hit the cache every section.
    fn rx_map_index(&mut self, modulation: Modulation, rate: CodeRate) -> usize {
        if let Some(i) = self
            .rx_maps
            .iter()
            .position(|(m, r, _)| *m == modulation && *r == rate)
        {
            return i;
        }
        self.rx_maps.push((
            modulation,
            rate,
            RxSymbolMap::new(modulation, rate, NUM_DATA),
        ));
        self.rx_maps.len() - 1
    }
}

/// Stepwise PPDU decoder.
///
/// Mirrors a Carpool station's receive flow: construct it on the sample
/// buffer (this consumes the preamble and derives the initial channel
/// estimate), then alternate [`FrameDecoder::decode_section`] and
/// [`FrameDecoder::skip_section`] as the frame structure reveals itself.
///
/// # Examples
///
/// ```
/// use carpool_phy::mcs::Mcs;
/// use carpool_phy::rx::{Estimation, FrameDecoder, SectionLayout};
/// use carpool_phy::tx::{transmit, SectionSpec};
///
/// # fn main() -> Result<(), carpool_phy::PhyError> {
/// let specs = vec![
///     SectionSpec::header(vec![1; 48]),
///     SectionSpec::payload(vec![0, 1, 1, 0], Mcs::QPSK_1_2),
/// ];
/// let tx = transmit(&specs)?;
/// let mut dec = FrameDecoder::new(&tx.samples, Estimation::Standard)?;
/// let hdr = dec.decode_section(&SectionLayout::of(&specs[0]))?;
/// assert_eq!(hdr.bits, specs[0].bits);
/// dec.skip_section(&SectionLayout::of(&specs[1]))?; // not our subframe
/// # Ok(())
/// # }
/// ```
pub struct FrameDecoder<'a> {
    samples: &'a [Complex64],
    estimator: Estimator,
    initial: ChannelEstimate,
    symbol_index: usize,
    sample_pos: usize,
    prev_phase: f64,
    noise_var: f64,
    fec: Fec,
    obs: Obs,
    scratch: PhyScratch,
}

impl<'a> FrameDecoder<'a> {
    /// Consumes the preamble of `samples` and prepares for decoding.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::LengthMismatch`] if the buffer cannot even
    /// hold a preamble.
    pub fn new(samples: &'a [Complex64], estimation: Estimation) -> Result<Self, PhyError> {
        if samples.len() < PREAMBLE_LEN {
            return Err(PhyError::LengthMismatch {
                expected: PREAMBLE_LEN,
                actual: samples.len(),
            });
        }
        let [l1, l2] = ltf_offsets();
        let (ltf1, ltf2) = (symbol_at(samples, l1)?, symbol_at(samples, l2)?);
        let initial = ChannelEstimate::from_ltf(ltf1, ltf2);
        let noise_var = estimate_noise_from_ltf(ltf1, ltf2);
        let estimator = match estimation {
            Estimation::Standard => Estimator::Fixed,
            Estimation::Rte(rule) => {
                Estimator::Rte(Box::new(RteEstimator::new(initial.clone(), rule)))
            }
        };
        Ok(FrameDecoder {
            samples,
            estimator,
            initial,
            symbol_index: 0,
            sample_pos: PREAMBLE_LEN,
            prev_phase: 0.0,
            noise_var,
            fec: Fec::Hard,
            obs: Obs::noop(),
            scratch: PhyScratch::default(),
        })
    }

    /// Installs a recycled [`PhyScratch`] (e.g. from a previous frame's
    /// [`FrameDecoder::into_scratch`]) so repeated frame decodes reuse
    /// their buffers instead of re-allocating them.
    pub fn with_scratch(mut self, scratch: PhyScratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// Consumes the decoder and returns its scratch workspace for reuse.
    pub fn into_scratch(self) -> PhyScratch {
        self.scratch
    }

    /// Attaches an observability handle. When enabled, the decoder records
    /// per-group [`TraceKind::SideCrc`] verdicts, per-symbol
    /// [`TraceKind::RteRecal`] decisions (RTE mode only), equalizer
    /// re-anchors ([`TraceKind::EqReset`]), and `phy.decode` /
    /// `phy.viterbi` timing spans (no `phy.viterbi` under [`Fec::Off`]).
    /// Records are stamped at the OFDM symbol's position in seconds.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Selects the [`Fec`] mode of every later section (default
    /// [`Fec::Hard`]).
    pub fn with_fec(mut self, fec: Fec) -> Self {
        self.fec = fec;
        self
    }

    /// Index of the next payload OFDM symbol to be processed.
    pub fn position(&self) -> usize {
        self.symbol_index
    }

    /// Remaining OFDM symbols available in the buffer.
    pub fn remaining_symbols(&self) -> usize {
        (self.samples.len() - self.sample_pos) / SYMBOL_LEN
    }

    fn ensure_available(&self, symbols: usize) -> Result<(), PhyError> {
        let needed = self.sample_pos + symbols * SYMBOL_LEN;
        if self.samples.len() < needed {
            return Err(PhyError::LengthMismatch {
                expected: needed,
                actual: self.samples.len(),
            });
        }
        Ok(())
    }

    /// Classifies the next symbol's format without consuming it:
    /// `true` if its data constellation sits on the imaginary axis
    /// (QBPSK — a Carpool A-HDR), `false` for a legacy real-axis SIG.
    /// This is how a Carpool node tells Carpool PPDUs from legacy ones
    /// (paper Section 4.3); the tests below use it to pin that the
    /// transmitter's A-HDR can be told apart from a SIG.
    #[cfg(test)]
    fn peek_is_qbpsk(&self) -> Result<bool, PhyError> {
        let raw = demodulate_symbol(symbol_at(self.samples, self.sample_pos)?);
        let estimate = self.estimator.current(&self.initial);
        let offset = track_phase(&estimate.equalize_pilots(&raw), self.symbol_index);
        let mut eq = Carriers::splat(Complex64::ZERO);
        estimate.equalize_rotated(&raw, Complex64::cis(-offset), &mut eq);
        let (mut re, mut im) = (0.0f64, 0.0f64);
        for p in eq.points() {
            re += p.re * p.re;
            im += p.im * p.im;
        }
        Ok(im > re)
    }

    /// Skips a section without demodulating its payload — what a Carpool
    /// station does with subframes destined to other receivers. Only the
    /// symbol/sample cursors advance; the channel estimator and the
    /// side-channel phase reference are *not* updated (the station can
    /// power down its decode path, paper Section 8).
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::LengthMismatch`] if the buffer is too short.
    pub fn skip_section(&mut self, layout: &SectionLayout) -> Result<(), PhyError> {
        let n = layout.symbol_count();
        self.ensure_available(n)?;
        self.symbol_index += n;
        self.sample_pos += n * SYMBOL_LEN;
        // Re-anchor the differential phase reference on the next decoded
        // symbol rather than across the gap.
        self.prev_phase = f64::NAN;
        self.obs.trace(
            TraceKind::EqReset,
            symbol_time(self.symbol_index),
            self.symbol_index as u64,
            0,
            0,
        );
        Ok(())
    }

    /// Decodes the next section according to `layout`.
    ///
    /// # Errors
    ///
    /// * [`PhyError::LengthMismatch`] if the buffer is too short.
    /// * [`PhyError::InvalidConfig`] if the layout's side-channel group
    ///   cannot carry a CRC: its group must span 1 to 8 coded bits.
    pub fn decode_section(&mut self, layout: &SectionLayout) -> Result<RxSection, PhyError> {
        if let Some(sc) = &layout.side_channel {
            sc.validate()?;
        }
        let num_symbols = layout.symbol_count();
        self.ensure_available(num_symbols)?;
        // Split `self` into disjoint field borrows: the span guard and
        // counters only borrow `obs`, so the estimator and scratch can be
        // updated inside the symbol loop without cloning the handle.
        let FrameDecoder {
            samples,
            estimator,
            initial,
            symbol_index,
            sample_pos,
            prev_phase,
            noise_var,
            fec,
            obs,
            scratch,
        } = self;
        let fec = *fec;
        let _decode_span = obs.span(carpool_obs::names::PHY_DECODE);
        let modulation = layout.mcs.modulation;
        let rate = layout.mcs.code_rate;
        let n_cbps = layout.mcs.coded_bits_per_symbol();
        let bits_per_point = modulation.bits_per_symbol();

        let mut raw_symbol_bits = Vec::with_capacity(num_symbols);
        let mut phase_offsets = Vec::with_capacity(num_symbols);
        // Side-channel verdicts and values: one per symbol, sized once.
        let side_len = if layout.side_channel.is_some() {
            num_symbols
        } else {
            0
        };
        let mut crc_ok = Vec::with_capacity(side_len);
        let mut side_values = Vec::with_capacity(side_len);

        // One symbol's worth of LLRs, sized once per section.
        if fec == Fec::Soft {
            scratch.llrs.clear();
            scratch.llrs.resize(n_cbps, 0.0);
        }
        // Fused demap→deinterleave→depuncture: the symbol loop scatters
        // quantized integer levels straight into the Viterbi lattice via
        // the per-MCS map; coded bits beyond `usable` (and puncture
        // holes) stay at the lattice's pre-zeroed erasure value. Without
        // FEC there is no lattice to fill.
        let usable = coded_len(layout.message_bits, rate);
        let mut trellis = match fec {
            Fec::Off => None,
            Fec::Hard | Fec::Soft => {
                let map_idx = scratch.rx_map_index(modulation, rate);
                let total_in = layout.message_bits + CONSTRAINT_LENGTH - 1;
                Some((
                    &scratch.rx_maps[map_idx].2,
                    scratch.viterbi.lattice_mut(total_in),
                ))
            }
        };

        let group = &mut scratch.group;
        if let Some(sc) = &layout.side_channel {
            // Size the group's bits once: one row per symbol.
            group
                .bits
                .reserve(sc.group_symbols.min(num_symbols) * n_cbps);
        }
        let bits_per = layout
            .side_channel
            .map(|sc| sc.modulation.bits_per_symbol())
            .unwrap_or(0);

        for k in 0..num_symbols {
            demodulate_symbol_into(symbol_body_at(samples, *sample_pos)?, &mut scratch.raw);
            *sample_pos += SYMBOL_LEN;
            let idx = *symbol_index + k;

            // Equalise the pilots, track the common phase on them, then
            // equalise the data carriers and take that phase off in one
            // pass. RTE reuses the same phasor.
            let estimate = estimator.current(initial);
            let offset = track_phase(&estimate.equalize_pilots(&scratch.raw), idx);
            let derotate = Complex64::cis(-offset);
            let eq = &mut scratch.eq;
            estimate.equalize_rotated(&scratch.raw, derotate, eq);
            phase_offsets.push(offset);
            if layout.qbpsk {
                // Undo the format mark on the data subcarriers: a full
                // complex multiply by -i, whose signed zeros a
                // swap-and-negate would not reproduce.
                eq.rotate_by(-Complex64::I);
            }

            let mut hard = vec![0u8; n_cbps];
            modulation.demap_carriers(eq, &mut hard);

            // Soft path: per-carrier LLRs with ZF noise amplification
            // (noise variance on carrier c grows by 1/|H_c|^2).
            if fec == Fec::Soft {
                let h = estimate.data();
                for (i, slot) in scratch.llrs.chunks_exact_mut(bits_per_point).enumerate() {
                    let gain = h.get(i).norm_sqr().max(1e-9);
                    modulation.demap_soft_slice(eq.get(i), *noise_var / gain, slot);
                }
            }

            if let Some(sc) = &layout.side_channel {
                // Differential decode relative to the previous symbol.
                // After a skip the reference is re-anchored, so the first
                // symbol only establishes it (its value is best-effort 0).
                let value = if prev_phase.is_nan() {
                    0
                } else {
                    sc.modulation.demodulate(offset - *prev_phase)
                };
                side_values.push(value);
                group.bits.extend_from_slice(&hard);
                group.side_values.push(value);

                let len = group.side_values.len();
                if len < sc.group_symbols && k < num_symbols - 1 {
                    // The group stays open. RTE may update from this
                    // symbol once the group's CRC is known, so it keeps
                    // a copy of the raw symbol with the common phase
                    // removed; nothing else reads it.
                    if let Estimator::Rte(_) = estimator {
                        let mut held = scratch.raw;
                        held.rotate_by(derotate);
                        group.received.push(held);
                    }
                } else {
                    let first = idx + 1 - len;
                    let crc = sc.crc_for_group(len);
                    let mut checksum = 0u64;
                    for (j, &v) in group.side_values.iter().enumerate() {
                        checksum |= u64::from(v) << (j * bits_per);
                    }
                    // Mask to CRC width (a partial tail group carries a
                    // narrower checksum).
                    let width = usize::from(crc.width());
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "masked to the CRC width (at most 8 bits), fits u8"
                    )]
                    let checksum = (checksum & ((1u64 << width) - 1)) as u8;
                    let ok = crc.verify(&group.bits, checksum);
                    for _ in 0..len {
                        crc_ok.push(ok);
                    }
                    obs.trace(
                        TraceKind::SideCrc,
                        symbol_time(idx),
                        first as u64,
                        u64::from(ok),
                        0,
                    );
                    match estimator {
                        Estimator::Rte(rte) if ok => {
                            // Each symbol is a data pilot: its raw value
                            // with the tracked common phase removed
                            // (keeping the preamble phase convention)
                            // against its decided points, looked up by
                            // the demapped bits' labels.
                            // The symbols held back were derotated when
                            // they were held; this one is derotated now.
                            scratch.raw.rotate_by(derotate);
                            let held = group.received.iter();
                            let symbols = held.chain(std::iter::once(&scratch.raw));
                            let rows = group.bits.chunks_exact(n_cbps);
                            for (j, (sym, row)) in symbols.zip(rows).enumerate() {
                                let before = rte.updates();
                                rte.update(sym, modulation, row, first + j);
                                let applied = rte.updates() > before;
                                let t = symbol_time(first + j);
                                let symbol = (first + j) as u64;
                                obs.trace(TraceKind::RteRecal, t, symbol, u64::from(applied), 0);
                            }
                        }
                        Estimator::Rte(_) => {
                            // A failed group CRC vetoes every candidate
                            // update in the group (paper Section 5 gating).
                            for sym_idx in first..=idx {
                                let t = symbol_time(sym_idx);
                                obs.trace(TraceKind::RteRecal, t, sym_idx as u64, 0, 0);
                            }
                        }
                        Estimator::Fixed => {}
                    }
                    group.clear();
                }
            }

            *prev_phase = offset;
            // Scatter this symbol's coded bits into the trellis lattice.
            if let Some((sc_map, lattice)) = &mut trellis {
                let limit = n_cbps.min(usable.saturating_sub(k * n_cbps));
                let sym_lattice = &mut lattice[k * sc_map.flat_per_symbol()..];
                if fec == Fec::Soft {
                    sc_map.scatter_soft(&scratch.llrs, limit, sym_lattice);
                } else {
                    sc_map.scatter_hard(&hard, limit, sym_lattice);
                }
            }
            raw_symbol_bits.push(hard);
        }
        *symbol_index += num_symbols;
        obs.counter("phy.symbols_decoded", num_symbols as u64);
        obs.counter("phy.sections_decoded", 1);

        // FEC decode and descramble.
        let bits = if fec == Fec::Off {
            Vec::new()
        } else {
            let mut bits = {
                let _viterbi_span = obs.span(carpool_obs::names::PHY_VITERBI);
                decode_prepared(layout.message_bits, &mut scratch.viterbi)
            };
            if layout.scramble {
                Scrambler::scramble_default_in_place(&mut bits);
            }
            bits
        };

        Ok(RxSection {
            bits,
            raw_symbol_bits,
            crc_ok,
            side_values,
            phase_offsets,
        })
    }
}

/// The `SYMBOL_LEN` samples of the OFDM symbol that starts at `pos`.
///
/// # Errors
///
/// Returns [`PhyError::LengthMismatch`] if `samples` ends before the
/// symbol does.
fn symbol_at(samples: &[Complex64], pos: usize) -> Result<&[Complex64; SYMBOL_LEN], PhyError> {
    chunk_at(samples, pos)
}

/// The `FFT_SIZE` samples that follow the cyclic prefix of the OFDM
/// symbol that starts at `pos`: what its FFT reads.
///
/// # Errors
///
/// Returns [`PhyError::LengthMismatch`], as [`symbol_at`] does, if
/// `samples` ends before the symbol does.
fn symbol_body_at(samples: &[Complex64], pos: usize) -> Result<&[Complex64; FFT_SIZE], PhyError> {
    chunk_at(samples, pos.saturating_add(CP_LEN))
}

/// The `N` samples that start at `pos`, or the error that names where
/// they would end.
fn chunk_at<const N: usize>(
    samples: &[Complex64],
    pos: usize,
) -> Result<&[Complex64; N], PhyError> {
    samples
        .get(pos..)
        .and_then(<[Complex64]>::first_chunk)
        .ok_or(PhyError::LengthMismatch {
            expected: pos.saturating_add(N),
            actual: samples.len(),
        })
}

/// Sim-time stamp of payload symbol `idx` for flight-recorder records.
fn symbol_time(idx: usize) -> f64 {
    idx as f64 * SYMBOL_DURATION
}

/// Receives and decodes a PPDU whose full section layout is known,
/// with hard-decision Viterbi decoding: [`receive_with`] at [`Fec::Hard`].
///
/// # Errors
///
/// * [`PhyError::LengthMismatch`] if `samples` is shorter than the
///   preamble plus the symbols implied by `layouts`.
/// * [`PhyError::EmptyFrame`] if `layouts` is empty.
///
/// # Examples
///
/// ```
/// use carpool_phy::mcs::Mcs;
/// use carpool_phy::rx::{receive, Estimation, SectionLayout};
/// use carpool_phy::tx::{transmit, SectionSpec};
///
/// # fn main() -> Result<(), carpool_phy::PhyError> {
/// let spec = SectionSpec::payload(vec![1, 0, 1, 1, 0, 0, 1, 0], Mcs::QPSK_1_2);
/// let frame = transmit(std::slice::from_ref(&spec))?;
/// let rx = receive(&frame.samples, &[SectionLayout::of(&spec)], Estimation::Standard)?;
/// assert_eq!(rx.sections[0].bits, spec.bits);
/// # Ok(())
/// # }
/// ```
pub fn receive(
    samples: &[Complex64],
    layouts: &[SectionLayout],
    estimation: Estimation,
) -> Result<RxFrame, PhyError> {
    receive_with(samples, layouts, estimation, Fec::Hard)
}

/// Receives a PPDU whose full section layout is known, applying `fec`
/// to every section.
///
/// # Errors
///
/// * [`PhyError::LengthMismatch`] if `samples` is shorter than the
///   preamble plus the symbols implied by `layouts`.
/// * [`PhyError::EmptyFrame`] if `layouts` is empty.
/// * [`PhyError::InvalidConfig`] if a layout's side channel is invalid.
pub fn receive_with(
    samples: &[Complex64],
    layouts: &[SectionLayout],
    estimation: Estimation,
    fec: Fec,
) -> Result<RxFrame, PhyError> {
    if layouts.is_empty() {
        return Err(PhyError::EmptyFrame);
    }
    let total_symbols: usize = layouts.iter().map(|l| l.symbol_count()).sum();
    let needed = PREAMBLE_LEN + total_symbols * SYMBOL_LEN;
    if samples.len() < needed {
        return Err(PhyError::LengthMismatch {
            expected: needed,
            actual: samples.len(),
        });
    }
    let mut decoder = FrameDecoder::new(samples, estimation)?.with_fec(fec);
    let mut sections = Vec::with_capacity(layouts.len());
    for layout in layouts {
        sections.push(decoder.decode_section(layout)?);
    }
    // The decoder is done: move the estimate out instead of cloning it.
    Ok(RxFrame {
        sections,
        initial_estimate: decoder.initial,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bit_error_rate;
    use crate::tx::transmit;

    fn round_trip(spec: SectionSpec, estimation: Estimation) -> RxFrame {
        let frame = transmit(std::slice::from_ref(&spec)).unwrap();
        receive(&frame.samples, &[SectionLayout::of(&spec)], estimation).unwrap()
    }

    fn pattern_bits(n: usize) -> Vec<u8> {
        (0..n).map(|k| ((k * 7 + k / 3) % 5 < 2) as u8).collect()
    }

    #[test]
    fn clean_channel_round_trip_all_mcs() {
        for mcs in Mcs::ALL {
            let spec = SectionSpec::payload(pattern_bits(600), mcs);
            let rx = round_trip(spec.clone(), Estimation::Standard);
            assert_eq!(rx.sections[0].bits, spec.bits, "{mcs}");
        }
    }

    #[test]
    fn clean_channel_round_trip_with_rte() {
        let spec = SectionSpec::payload(pattern_bits(800), Mcs::QAM64_3_4);
        let rx = round_trip(spec.clone(), Estimation::Rte(CalibrationRule::Average));
        assert_eq!(rx.sections[0].bits, spec.bits);
        // All symbol CRCs pass on a clean channel.
        assert!(rx.sections[0].crc_ok.iter().all(|&ok| ok));
    }

    #[test]
    fn side_channel_values_match_transmitter() {
        let spec = SectionSpec::payload(pattern_bits(1000), Mcs::QPSK_1_2);
        let frame = transmit(std::slice::from_ref(&spec)).unwrap();
        let rx = receive(
            &frame.samples,
            &[SectionLayout::of(&spec)],
            Estimation::Standard,
        )
        .unwrap();
        assert_eq!(rx.sections[0].side_values, frame.sections[0].side_values);
    }

    #[test]
    fn raw_symbol_bits_match_on_clean_channel() {
        let spec = SectionSpec::payload(pattern_bits(500), Mcs::QAM16_3_4);
        let frame = transmit(std::slice::from_ref(&spec)).unwrap();
        let rx = receive(
            &frame.samples,
            &[SectionLayout::of(&spec)],
            Estimation::Standard,
        )
        .unwrap();
        for (tx_bits, rx_bits) in frame.sections[0]
            .symbol_bits
            .iter()
            .zip(&rx.sections[0].raw_symbol_bits)
        {
            assert_eq!(bit_error_rate(tx_bits, rx_bits), 0.0);
        }
    }

    #[test]
    fn multi_section_frames_decode() {
        let specs = vec![
            SectionSpec::header(pattern_bits(48)),
            SectionSpec::payload(pattern_bits(400), Mcs::QPSK_3_4),
            SectionSpec::header(pattern_bits(24)),
            SectionSpec::payload(pattern_bits(700), Mcs::QAM64_2_3),
        ];
        let frame = transmit(&specs).unwrap();
        let layouts: Vec<SectionLayout> = specs.iter().map(SectionLayout::of).collect();
        let rx = receive(&frame.samples, &layouts, Estimation::Standard).unwrap();
        for (spec, sec) in specs.iter().zip(&rx.sections) {
            assert_eq!(sec.bits, spec.bits);
        }
    }

    #[test]
    fn skipping_sections_still_decodes_later_ones() {
        let specs = vec![
            SectionSpec::header(pattern_bits(48)),
            SectionSpec::payload(pattern_bits(900), Mcs::QAM16_1_2),
            SectionSpec::payload(pattern_bits(300), Mcs::QPSK_1_2),
        ];
        let frame = transmit(&specs).unwrap();
        let mut dec = FrameDecoder::new(&frame.samples, Estimation::Standard).unwrap();
        let hdr = dec.decode_section(&SectionLayout::of(&specs[0])).unwrap();
        assert_eq!(hdr.bits, specs[0].bits);
        dec.skip_section(&SectionLayout::of(&specs[1])).unwrap();
        let last = dec.decode_section(&SectionLayout::of(&specs[2])).unwrap();
        assert_eq!(last.bits, specs[2].bits);
    }

    #[test]
    fn decoder_position_tracks_symbols() {
        let specs = vec![
            SectionSpec::header(pattern_bits(48)),
            SectionSpec::payload(pattern_bits(300), Mcs::QPSK_1_2),
        ];
        let frame = transmit(&specs).unwrap();
        let mut dec = FrameDecoder::new(&frame.samples, Estimation::Standard).unwrap();
        assert_eq!(dec.position(), 0);
        dec.decode_section(&SectionLayout::of(&specs[0])).unwrap();
        assert_eq!(dec.position(), SectionLayout::of(&specs[0]).symbol_count());
        assert_eq!(
            dec.remaining_symbols(),
            SectionLayout::of(&specs[1]).symbol_count()
        );
    }

    #[test]
    fn legacy_sections_have_no_side_diagnostics() {
        let spec = SectionSpec::payload_legacy(pattern_bits(200), Mcs::QPSK_1_2);
        let rx = round_trip(spec, Estimation::Standard);
        assert!(rx.sections[0].side_values.is_empty());
        assert!(rx.sections[0].crc_ok.is_empty());
    }

    #[test]
    fn truncated_samples_error() {
        let spec = SectionSpec::payload(pattern_bits(300), Mcs::QPSK_1_2);
        let frame = transmit(std::slice::from_ref(&spec)).unwrap();
        let err = receive(
            &frame.samples[..frame.samples.len() - 10],
            &[SectionLayout::of(&spec)],
            Estimation::Standard,
        )
        .unwrap_err();
        assert!(matches!(err, PhyError::LengthMismatch { .. }));
    }

    #[test]
    fn empty_layout_error() {
        assert!(matches!(
            receive(&[], &[], Estimation::Standard),
            Err(PhyError::EmptyFrame)
        ));
    }

    #[test]
    fn short_buffer_rejected_by_decoder() {
        let err = FrameDecoder::new(&[Complex64::ZERO; 100], Estimation::Standard)
            .err()
            .unwrap();
        assert!(matches!(err, PhyError::LengthMismatch { .. }));
    }

    #[test]
    fn qbpsk_header_round_trips_and_classifies() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let specs = vec![
            SectionSpec::header_qbpsk(pattern_bits(48)),
            SectionSpec::header(pattern_bits(24)), // a SIG-like BPSK field
            SectionSpec::payload(pattern_bits(300), Mcs::QPSK_1_2),
        ];
        let frame = transmit(&specs).unwrap();
        // The same frame with uniform noise ~13 dB below the OFDM signal
        // power (~0.0127): the classification must survive it.
        let mut rng = StdRng::seed_from_u64(3);
        let noise_amp = 0.025f64;
        let noisy: Vec<Complex64> = frame
            .samples
            .iter()
            .map(|s| {
                *s + Complex64::new(
                    (rng.gen::<f64>() - 0.5) * noise_amp,
                    (rng.gen::<f64>() - 0.5) * noise_amp,
                )
            })
            .collect();
        for samples in [&frame.samples, &noisy] {
            let mut dec = FrameDecoder::new(samples, Estimation::Standard).unwrap();
            assert!(dec.peek_is_qbpsk().unwrap(), "A-HDR must look like QBPSK");
            let hdr = dec.decode_section(&SectionLayout::of(&specs[0])).unwrap();
            assert_eq!(hdr.bits, specs[0].bits);
            // The next BPSK field reads as real-axis (the axis test is only
            // meaningful on BPSK symbols — SIG vs A-HDR, as in 802.11n).
            assert!(!dec.peek_is_qbpsk().unwrap());
            for spec in &specs[1..] {
                let section = dec.decode_section(&SectionLayout::of(spec)).unwrap();
                assert_eq!(section.bits, spec.bits);
            }
        }
    }

    #[test]
    fn legacy_frame_classifies_as_legacy() {
        let specs = vec![SectionSpec::header(pattern_bits(24))];
        let frame = transmit(&specs).unwrap();
        let dec = FrameDecoder::new(&frame.samples, Estimation::Standard).unwrap();
        assert!(!dec.peek_is_qbpsk().unwrap());
    }

    #[test]
    fn soft_decoding_round_trips_on_clean_channel() {
        for mcs in [Mcs::BPSK_1_2, Mcs::QAM16_3_4, Mcs::QAM64_2_3] {
            let spec = SectionSpec::payload(pattern_bits(500), mcs);
            let frame = transmit(std::slice::from_ref(&spec)).unwrap();
            let rx = receive_with(
                &frame.samples,
                &[SectionLayout::of(&spec)],
                Estimation::Standard,
                Fec::Soft,
            )
            .unwrap();
            assert_eq!(rx.sections[0].bits, spec.bits, "{mcs}");
        }
    }

    #[test]
    fn noise_variance_is_near_zero_on_clean_channel() {
        let spec = SectionSpec::payload(pattern_bits(100), Mcs::QPSK_1_2);
        let frame = transmit(std::slice::from_ref(&spec)).unwrap();
        let dec = FrameDecoder::new(&frame.samples, Estimation::Standard).unwrap();
        assert!(dec.noise_var < 1e-12, "{}", dec.noise_var);
    }

    #[test]
    fn obs_captures_crc_and_rte_decisions() {
        use carpool_obs::{FlightRecorder, MemoryRecorder, Obs};
        use std::sync::Arc;

        let spec = SectionSpec::payload(pattern_bits(800), Mcs::QPSK_1_2);
        let frame = transmit(std::slice::from_ref(&spec)).unwrap();
        let recorder = Arc::new(MemoryRecorder::new());
        let ring = Arc::new(FlightRecorder::new(4096));
        let obs = Obs::with_recorder(recorder.clone()).with_flight(ring.clone());

        let mut dec = FrameDecoder::new(&frame.samples, Estimation::Rte(CalibrationRule::Average))
            .unwrap()
            .with_obs(obs);
        let layout = SectionLayout::of(&spec);
        let rx = dec.decode_section(&layout).unwrap();
        assert_eq!(rx.bits, spec.bits);

        let snap = recorder.snapshot();
        // Clean channel: every group CRC passes, no failures.
        assert_eq!(snap.counter("phy.side_crc_fail"), 0);
        assert!(snap.counter("phy.side_crc_ok") > 0);
        assert_eq!(
            snap.counter("phy.symbols_decoded"),
            layout.symbol_count() as u64
        );
        assert_eq!(snap.counter("phy.sections_decoded"), 1);
        // Every symbol's RTE decision was observed (applied or gated).
        assert_eq!(
            snap.counter("phy.rte_applied") + snap.counter("phy.rte_rejected"),
            layout.symbol_count() as u64
        );
        assert!(snap.histogram("span.phy.decode").is_some());
        assert!(snap.histogram("span.phy.viterbi").is_some());

        let records = ring.records();
        let count = |kind| records.iter().filter(|r| r.kind() == Some(kind)).count();
        assert_eq!(
            count(TraceKind::SideCrc) as u64,
            snap.counter("phy.side_crc_ok")
        );
        assert_eq!(count(TraceKind::RteRecal), layout.symbol_count());
    }

    #[test]
    fn obs_skip_emits_equalizer_reset() {
        use carpool_obs::{FlightRecorder, Obs};
        use std::sync::Arc;

        let specs = vec![
            SectionSpec::header(pattern_bits(48)),
            SectionSpec::payload(pattern_bits(300), Mcs::QPSK_1_2),
        ];
        let frame = transmit(&specs).unwrap();
        let ring = Arc::new(FlightRecorder::new(64));
        let mut dec = FrameDecoder::new(&frame.samples, Estimation::Standard)
            .unwrap()
            .with_obs(Obs::noop().with_flight(ring.clone()));
        dec.skip_section(&SectionLayout::of(&specs[0])).unwrap();
        assert!(ring
            .records()
            .iter()
            .any(|r| r.kind() == Some(TraceKind::EqReset)));
    }

    #[test]
    fn group_of_two_symbols_checks_out() {
        let sc = SideChannelConfig {
            modulation: crate::sidechannel::PhaseOffsetMod::TwoBit,
            group_symbols: 2,
        };
        let spec = SectionSpec {
            bits: pattern_bits(700),
            mcs: Mcs::QPSK_1_2,
            scramble: true,
            side_channel: Some(sc),
            qbpsk: false,
        };
        let rx = round_trip(spec.clone(), Estimation::Rte(CalibrationRule::Average));
        assert_eq!(rx.sections[0].bits, spec.bits);
        assert!(rx.sections[0].crc_ok.iter().all(|&ok| ok));
    }
}
