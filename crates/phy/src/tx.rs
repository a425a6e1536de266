//! Transmitter chain: section bits to baseband samples.
//!
//! A PHY frame (PPDU) is a preamble followed by a list of *sections*.
//! Each section has its own MCS, optional scrambling and optional phase
//! offset side channel — which is exactly the flexibility the Carpool
//! frame format needs: the A-HDR and SIG fields are unscrambled BPSK-1/2
//! sections without injection, while each subframe's MAC data is a
//! scrambled section at its receiver's MCS with the side channel active.
//!
//! Per section, the chain is: scramble → convolutional encode →
//! pad to a whole number of OFDM symbols → per-symbol interleave →
//! constellation map → pilot insertion → side-channel rotation → IFFT+CP.
//!
//! Per frame the chain allocates the sample buffer (sized once) and two
//! bit scratch buffers; per section, its metadata with one
//! interleaved-bit row per symbol; nothing else. Each symbol is mapped
//! through a point table into a stack array of 64 bins in bit-reversed
//! order, transformed in place and written straight into the samples.

use crate::convolutional::encode_into;
use crate::crc::SmallCrc;
use crate::interleaver::Interleaver;
use crate::math::{wrap_angle, Complex64};
use crate::mcs::Mcs;
use crate::ofdm::{
    emit_symbol, pilot_polarity, DATA_SLOTS, FFT_SIZE, NUM_DATA, PILOT_BASE, PILOT_SLOTS,
    SYMBOL_LEN,
};
use crate::preamble::{preamble, PREAMBLE_LEN};
use crate::scrambler::Scrambler;
use crate::sidechannel::PhaseOffsetMod;
use crate::PhyError;

/// Configuration of the per-symbol CRC side channel for a section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SideChannelConfig {
    /// Phase-offset alphabet (1 or 2 bits per symbol).
    pub modulation: PhaseOffsetMod,
    /// OFDM symbols per CRC group. The paper's measurement study found
    /// one symbol per group with the 2-bit alphabet optimal (Section 5.2).
    pub group_symbols: usize,
}

impl Default for SideChannelConfig {
    fn default() -> Self {
        SideChannelConfig {
            modulation: PhaseOffsetMod::TwoBit,
            group_symbols: 1,
        }
    }
}

impl SideChannelConfig {
    /// CRC width (bits) carried by a group of `symbols` symbols.
    ///
    /// # Panics
    ///
    /// Panics if the resulting width is not within 1..=8 (the paper's
    /// schemes use 1–6 bits).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "width asserted to 1..=8 below"
    )]
    pub fn crc_for_group(&self, symbols: usize) -> SmallCrc {
        let width = symbols * self.modulation.bits_per_symbol();
        assert!(
            (1..=8).contains(&width),
            "CRC width {width} unsupported; reduce group_symbols"
        );
        SmallCrc::standard(width as u8)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), PhyError> {
        // A huge group must not wrap to a small width.
        let width = self
            .group_symbols
            .checked_mul(self.modulation.bits_per_symbol());
        if !matches!(width, Some(1..=8)) {
            return Err(PhyError::InvalidConfig {
                reason: format!(
                    "side channel group of {} symbols x {} bits unsupported",
                    self.group_symbols,
                    self.modulation.bits_per_symbol()
                ),
            });
        }
        Ok(())
    }
}

/// Specification of one PPDU section to transmit.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionSpec {
    /// Information bits (pre-coding).
    pub bits: Vec<u8>,
    /// Modulation and coding scheme.
    pub mcs: Mcs,
    /// Whether the 802.11 scrambler whitens this section. Header fields
    /// (A-HDR, SIG) are unscrambled so any receiver can parse them.
    pub scramble: bool,
    /// Phase offset side channel carrying per-symbol CRCs, if enabled.
    pub side_channel: Option<SideChannelConfig>,
    /// Transmit this section's *data* subcarriers rotated by 90°
    /// (QBPSK) — the classic 802.11 format-detection trick. Carpool
    /// marks its A-HDR this way so receivers can distinguish Carpool
    /// PPDUs from legacy ones at the first post-preamble symbol (paper
    /// Section 4.3). Pilots stay unrotated, so pilot phase tracking is
    /// unaffected while the data constellation moves to the imaginary
    /// axis.
    pub qbpsk: bool,
}

impl SectionSpec {
    /// An unscrambled BPSK-1/2 header section without side channel
    /// (used for SIG fields and legacy headers).
    pub fn header(bits: Vec<u8>) -> SectionSpec {
        SectionSpec {
            bits,
            mcs: Mcs::BPSK_1_2,
            scramble: false,
            side_channel: None,
            qbpsk: false,
        }
    }

    /// A QBPSK-marked header section — the Carpool A-HDR (Section 4.3
    /// format detection).
    pub fn header_qbpsk(bits: Vec<u8>) -> SectionSpec {
        SectionSpec {
            qbpsk: true,
            ..SectionSpec::header(bits)
        }
    }

    /// A scrambled payload section with the default side channel.
    pub fn payload(bits: Vec<u8>, mcs: Mcs) -> SectionSpec {
        SectionSpec {
            bits,
            mcs,
            scramble: true,
            side_channel: Some(SideChannelConfig::default()),
            qbpsk: false,
        }
    }

    /// A scrambled payload section without side channel (legacy PHY).
    pub fn payload_legacy(bits: Vec<u8>, mcs: Mcs) -> SectionSpec {
        SectionSpec {
            bits,
            mcs,
            scramble: true,
            side_channel: None,
            qbpsk: false,
        }
    }

    /// Number of OFDM symbols this section occupies.
    pub fn symbol_count(&self) -> usize {
        self.mcs.symbols_for_bits(self.bits.len())
    }
}

/// Per-section transmit metadata, kept for receivers and evaluations.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionInfo {
    /// Index of the section's first payload OFDM symbol in the frame.
    pub first_symbol: usize,
    /// Number of OFDM symbols.
    pub num_symbols: usize,
    /// The spec this section was built from.
    pub spec: SectionSpec,
    /// Interleaved coded bits actually placed on each symbol
    /// (reference for raw-BER measurements).
    pub symbol_bits: Vec<Vec<u8>>,
    /// Side-channel values injected per symbol (empty if disabled).
    pub side_values: Vec<u8>,
}

/// A fully modulated PPDU.
#[derive(Debug, Clone, PartialEq)]
pub struct TxFrame {
    /// Baseband samples: preamble followed by payload symbols.
    pub samples: Vec<Complex64>,
    /// Metadata per section.
    pub sections: Vec<SectionInfo>,
}

impl TxFrame {
    /// Total number of payload OFDM symbols (preamble excluded).
    pub fn payload_symbols(&self) -> usize {
        self.sections.iter().map(|s| s.num_symbols).sum()
    }
}

/// Splits a CRC value of `width` bits into per-symbol side-channel
/// values, `bits_per` bits each, appended to `out`; the first symbol
/// carries the least significant bits.
fn split_crc(value: u8, width: usize, bits_per: usize, out: &mut Vec<u8>) {
    let mut v = value;
    let mut remaining = width;
    while remaining > 0 {
        let take = bits_per.min(remaining);
        out.push(v & ((1 << take) - 1));
        v >>= take;
        remaining -= take;
    }
}

/// Transmits a list of sections as one PPDU.
///
/// # Errors
///
/// Returns [`PhyError::InvalidConfig`] if a section's side-channel
/// configuration is unusable or [`PhyError::EmptyFrame`] if `sections`
/// is empty or contains a section without bits.
///
/// # Examples
///
/// ```
/// use carpool_phy::mcs::Mcs;
/// use carpool_phy::tx::{transmit, SectionSpec};
///
/// # fn main() -> Result<(), carpool_phy::PhyError> {
/// let frame = transmit(&[SectionSpec::payload(vec![1, 0, 1, 1], Mcs::QPSK_1_2)])?;
/// assert!(frame.payload_symbols() >= 1);
/// # Ok(())
/// # }
/// ```
pub fn transmit(sections: &[SectionSpec]) -> Result<TxFrame, PhyError> {
    if sections.is_empty() {
        return Err(PhyError::EmptyFrame);
    }
    // Validate every section and size the buffers before any work.
    let mut total_symbols = 0usize;
    let mut max_coded = 0usize;
    let mut max_scrambled = 0usize;
    for spec in sections {
        if spec.bits.is_empty() {
            return Err(PhyError::EmptyFrame);
        }
        if let Some(sc) = &spec.side_channel {
            sc.validate()?;
        }
        let symbols = spec.symbol_count();
        total_symbols += symbols;
        max_coded = max_coded.max(symbols * spec.mcs.coded_bits_per_symbol());
        if spec.scramble {
            max_scrambled = max_scrambled.max(spec.bits.len());
        }
    }
    let mut samples = Vec::with_capacity(PREAMBLE_LEN + total_symbols * SYMBOL_LEN);
    samples.extend_from_slice(preamble());
    let mut infos = Vec::with_capacity(sections.len());
    let mut scratch = TxScratch {
        scrambled: Vec::with_capacity(max_scrambled),
        // One slot of slack for `encode_into`.
        coded: Vec::with_capacity(max_coded + 1),
    };
    let mut symbol_index = 0usize;
    // Injected rotation of the previous symbol; resets after any
    // non-injected section so differential decoding always references
    // the physically previous symbol.
    let mut last_injected = 0.0f64;

    for spec in sections {
        let info = transmit_section(
            spec,
            symbol_index,
            &mut last_injected,
            &mut scratch,
            &mut samples,
        );
        symbol_index += info.num_symbols;
        infos.push(info);
    }

    Ok(TxFrame {
        samples,
        sections: infos,
    })
}

/// Maps one symbol's interleaved bits, `bps` per data subcarrier, into
/// their bins through the modulation's point table; QBPSK and the
/// side-channel rotation apply in that order.
fn place_points(
    row: &[u8],
    bps: usize,
    points: &[Complex64; 64],
    qbpsk: bool,
    rotation: Option<Complex64>,
    bins: &mut [Complex64; FFT_SIZE],
) {
    for (bits, &slot) in row.chunks_exact(bps).zip(&DATA_SLOTS) {
        let label = bits
            .iter()
            .fold(0usize, |acc, &b| (acc << 1) | usize::from(b));
        let mut point = points[label & 63];
        if qbpsk {
            // Rotate only the data subcarriers; pilots stay put so phase
            // tracking cannot silently undo the mark.
            point *= Complex64::I;
        }
        if let Some(r) = rotation {
            point *= r;
        }
        bins[slot] = point;
    }
}

/// Bit buffers one `transmit` call reuses across its sections.
struct TxScratch {
    scrambled: Vec<u8>,
    coded: Vec<u8>,
}

/// Modulates one validated section onto `samples`, starting at payload
/// symbol `first_symbol`.
fn transmit_section(
    spec: &SectionSpec,
    first_symbol: usize,
    last_injected: &mut f64,
    scratch: &mut TxScratch,
    samples: &mut Vec<Complex64>,
) -> SectionInfo {
    let TxScratch { scrambled, coded } = scratch;
    let modulation = spec.mcs.modulation;
    let n_cbps = spec.mcs.coded_bits_per_symbol();
    let num_symbols = spec.symbol_count();

    // Scramble, encode, and pad to whole symbols.
    let bits = if spec.scramble {
        scrambled.clear();
        scrambled.extend_from_slice(&spec.bits);
        Scrambler::scramble_default_in_place(scrambled);
        scrambled.as_slice()
    } else {
        spec.bits.as_slice()
    };
    coded.clear();
    encode_into(bits, spec.mcs.code_rate, coded);
    debug_assert!(coded.len() <= num_symbols * n_cbps);
    coded.resize(num_symbols * n_cbps, 0);

    let interleaver = Interleaver::new(modulation, NUM_DATA);
    let points = modulation.point_table();

    let mut symbol_bits: Vec<Vec<u8>> = Vec::with_capacity(num_symbols);
    let side_len = match &spec.side_channel {
        Some(_) => num_symbols,
        None => {
            *last_injected = 0.0;
            0
        }
    };
    let mut side_values = Vec::with_capacity(side_len);

    // Symbols go out group by group: a group's CRC covers all its
    // symbols' bits and sets the rotation of each of them.
    let group_len = spec.side_channel.map_or(1, |sc| sc.group_symbols);
    let mut start = 0usize;
    while start < num_symbols {
        let group = group_len.min(num_symbols - start);
        for chunk in coded[start * n_cbps..(start + group) * n_cbps].chunks_exact(n_cbps) {
            let mut row = vec![0u8; n_cbps];
            interleaver.interleave_into(chunk, &mut row);
            symbol_bits.push(row);
        }
        if let Some(sc) = &spec.side_channel {
            let crc = sc.crc_for_group(group);
            let checksum = symbol_bits[start..]
                .iter()
                .fold(0, |reg, row| crc.update(reg, row));
            let bits_per = sc.modulation.bits_per_symbol();
            split_crc(
                checksum,
                usize::from(crc.width()),
                bits_per,
                &mut side_values,
            );
        }
        for k in start..start + group {
            let rotation = spec.side_channel.map(|sc| {
                *last_injected =
                    wrap_angle(*last_injected + sc.modulation.modulate(side_values[k]));
                Complex64::cis(*last_injected)
            });
            let mut bins = [Complex64::ZERO; FFT_SIZE];
            place_points(
                &symbol_bits[k],
                modulation.bits_per_symbol(),
                &points,
                spec.qbpsk,
                rotation,
                &mut bins,
            );
            let polarity = pilot_polarity(first_symbol + k);
            for (&base, &slot) in PILOT_BASE.iter().zip(&PILOT_SLOTS) {
                let mut pilot = Complex64::new(base * polarity, 0.0);
                if let Some(r) = rotation {
                    pilot *= r;
                }
                bins[slot] = pilot;
            }
            emit_symbol(&mut bins, samples);
        }
        start += group;
    }
    debug_assert!(spec.side_channel.is_none() || side_values.len() == num_symbols);

    SectionInfo {
        first_symbol,
        num_symbols,
        spec: spec.clone(),
        symbol_bits,
        side_values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofdm::SYMBOL_LEN;
    use crate::preamble::PREAMBLE_LEN;

    #[test]
    fn frame_length_matches_symbol_count() {
        let frame = transmit(&[
            SectionSpec::header(vec![1; 48]),
            SectionSpec::payload([0, 1, 1, 0].repeat(100), Mcs::QAM16_1_2),
        ])
        .unwrap();
        let expected = PREAMBLE_LEN + frame.payload_symbols() * SYMBOL_LEN;
        assert_eq!(frame.samples.len(), expected);
    }

    #[test]
    fn header_sections_have_no_side_values() {
        let frame = transmit(&[SectionSpec::header(vec![1; 48])]).unwrap();
        assert!(frame.sections[0].side_values.is_empty());
    }

    #[test]
    fn side_values_cover_every_symbol() {
        let frame = transmit(&[SectionSpec::payload(vec![1; 500], Mcs::QPSK_1_2)]).unwrap();
        let s = &frame.sections[0];
        assert_eq!(s.side_values.len(), s.num_symbols);
        for &v in &s.side_values {
            assert!(v < 4);
        }
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(matches!(transmit(&[]), Err(PhyError::EmptyFrame)));
        assert!(matches!(
            transmit(&[SectionSpec::header(vec![])]),
            Err(PhyError::EmptyFrame)
        ));
    }

    #[test]
    fn split_crc_orders_lsb_first() {
        let split = |value, width, bits_per| {
            let mut out = Vec::new();
            split_crc(value, width, bits_per, &mut out);
            out
        };
        assert_eq!(split(0b1101, 4, 2), vec![0b01, 0b11]);
        assert_eq!(split(0b1, 1, 2), vec![0b1]);
        assert_eq!(split(0b101101, 6, 2), vec![0b01, 0b11, 0b10]);
    }

    #[test]
    fn sections_start_at_consecutive_symbols() {
        let frame = transmit(&[
            SectionSpec::header(vec![1; 24]),
            SectionSpec::payload(vec![1; 100], Mcs::QPSK_1_2),
            SectionSpec::payload(vec![0; 100], Mcs::QAM64_3_4),
        ])
        .unwrap();
        let mut next = 0;
        for s in &frame.sections {
            assert_eq!(s.first_symbol, next);
            next += s.num_symbols;
        }
    }

    #[test]
    fn symbol_bits_have_block_size() {
        let frame = transmit(&[SectionSpec::payload(vec![1; 300], Mcs::QAM64_3_4)]).unwrap();
        for bits in &frame.sections[0].symbol_bits {
            assert_eq!(bits.len(), Mcs::QAM64_3_4.coded_bits_per_symbol());
        }
    }

    #[test]
    fn invalid_side_channel_rejected() {
        let spec = SectionSpec {
            bits: vec![1; 10],
            mcs: Mcs::QPSK_1_2,
            scramble: true,
            side_channel: Some(SideChannelConfig {
                modulation: PhaseOffsetMod::TwoBit,
                group_symbols: 5, // 10-bit CRC: unsupported
            }),
            qbpsk: false,
        };
        assert!(matches!(
            transmit(&[spec]),
            Err(PhyError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn oversized_side_channel_group_does_not_wrap() {
        // 2^63 symbols (on 64 bits) x 2 bits wraps to a width of 0 in
        // unchecked release arithmetic.
        let sc = SideChannelConfig {
            modulation: PhaseOffsetMod::TwoBit,
            group_symbols: 1 << (usize::BITS - 1),
        };
        assert!(matches!(sc.validate(), Err(PhyError::InvalidConfig { .. })));
    }
}
