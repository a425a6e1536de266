//! Phase offset side channel (Section 5.2 of the paper, Table 1).
//!
//! The transmitter injects an extra rotation into every payload OFDM
//! symbol *after* data modulation. Because the rotation is applied to
//! data and pilot subcarriers alike, standard pilot phase tracking at the
//! receiver measures and removes the *total* phase (inherent + injected)
//! before demapping — so data decoding is untouched. The side-channel
//! bits are recovered from the *difference* between the tracked phases of
//! consecutive symbols, which cancels the slowly-accumulating inherent
//! offset caused by residual CFO.
//!
//! Carpool uses this channel to carry a per-symbol CRC checksum that
//! tells the receiver which symbols decoded cleanly, enabling data-pilot
//! channel calibration ([`crate::rte`]).

use crate::math::wrap_angle;
use std::f64::consts::PI;

/// Phase offset modulation alphabet (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PhaseOffsetMod {
    /// One bit per symbol: +90° ⇒ 1, −90° ⇒ 0.
    OneBit,
    /// Two bits per symbol: 45° ⇒ 11, 135° ⇒ 01, −135° ⇒ 00, −45° ⇒ 10.
    #[default]
    TwoBit,
}

impl PhaseOffsetMod {
    /// Bits conveyed per OFDM symbol.
    pub fn bits_per_symbol(&self) -> usize {
        match self {
            PhaseOffsetMod::OneBit => 1,
            PhaseOffsetMod::TwoBit => 2,
        }
    }

    /// The modulation alphabet as (angle_radians, bit_value) pairs.
    pub fn alphabet(&self) -> &'static [(f64, u8)] {
        const DEG90: f64 = PI / 2.0;
        const DEG45: f64 = PI / 4.0;
        const DEG135: f64 = 3.0 * PI / 4.0;
        match self {
            PhaseOffsetMod::OneBit => &[(DEG90, 1), (-DEG90, 0)],
            PhaseOffsetMod::TwoBit => &[
                (DEG45, 0b11),
                (DEG135, 0b01),
                (-DEG135, 0b00),
                (-DEG45, 0b10),
            ],
        }
    }

    /// Maps a bit group to the phase offset *difference* in radians.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in [`Self::bits_per_symbol`] bits.
    pub(crate) fn modulate(&self, value: u8) -> f64 {
        let max = (1u8 << self.bits_per_symbol()) - 1;
        assert!(value <= max, "side-channel value {value} exceeds {max}");
        // Every value up to `max` appears in the alphabet, so the
        // fallback angle is unreachable after the assert above.
        self.alphabet()
            .iter()
            .find(|(_, v)| *v == value)
            .map_or(0.0, |(a, _)| *a)
    }

    /// Nearest-angle demodulation of a measured phase difference.
    /// Non-finite inputs compare as maximally distant (`total_cmp`), so
    /// the result is always a valid alphabet value.
    pub(crate) fn demodulate(&self, delta: f64) -> u8 {
        let d = wrap_angle(delta);
        self.alphabet()
            .iter()
            .min_by(|(a, _), (b, _)| angular_distance(d, *a).total_cmp(&angular_distance(d, *b)))
            .map_or(0, |(_, v)| *v)
    }
}

impl std::fmt::Display for PhaseOffsetMod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseOffsetMod::OneBit => f.write_str("1-bit phase offset"),
            PhaseOffsetMod::TwoBit => f.write_str("2-bit phase offset"),
        }
    }
}

fn angular_distance(a: f64, b: f64) -> f64 {
    wrap_angle(a - b).abs()
}

/// Differential phase-offset encoder.
///
/// Tracks the cumulative injected rotation: to convey bit group `v` on
/// symbol `n`, the injected *absolute* rotation is
/// `phi_n = phi_{n-1} + modulate(v)` (paper Fig. 8(b): conveying "110"
/// over three symbols injects 90°, 180°, 90°).
///
/// # Examples
///
/// ```
/// use carpool_phy::sidechannel::{PhaseOffsetEncoder, PhaseOffsetMod};
/// use std::f64::consts::PI;
///
/// let mut enc = PhaseOffsetEncoder::new(PhaseOffsetMod::OneBit);
/// assert!((enc.next_offset(1) - PI / 2.0).abs() < 1e-12); //  90°
/// assert!((enc.next_offset(1) - PI).abs() < 1e-12);       // 180°
/// assert!((enc.next_offset(0) - PI / 2.0).abs() < 1e-12); //  90°
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOffsetEncoder {
    modulation: PhaseOffsetMod,
    cumulative: f64,
}

impl PhaseOffsetEncoder {
    /// Creates an encoder with zero initial rotation.
    pub fn new(modulation: PhaseOffsetMod) -> PhaseOffsetEncoder {
        PhaseOffsetEncoder {
            modulation,
            cumulative: 0.0,
        }
    }

    /// The configured modulation.
    pub fn modulation(&self) -> PhaseOffsetMod {
        self.modulation
    }

    /// Returns the absolute rotation to inject into the next symbol in
    /// order to convey `value`, advancing the encoder state.
    pub fn next_offset(&mut self, value: u8) -> f64 {
        self.cumulative = wrap_angle(self.cumulative + self.modulation.modulate(value));
        self.cumulative
    }
}

/// Differential phase-offset decoder.
///
/// Feed it the total tracked phase of each symbol (from pilot tracking);
/// it emits the bit group carried by each symbol relative to the previous
/// one. The first call establishes the reference (normally the SIG or
/// last header symbol, which carries no injection).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOffsetDecoder {
    modulation: PhaseOffsetMod,
    previous: Option<f64>,
}

impl PhaseOffsetDecoder {
    /// Creates a decoder with no reference phase yet.
    pub fn new(modulation: PhaseOffsetMod) -> PhaseOffsetDecoder {
        PhaseOffsetDecoder {
            modulation,
            previous: None,
        }
    }

    /// The configured modulation.
    pub fn modulation(&self) -> PhaseOffsetMod {
        self.modulation
    }

    /// Sets the reference phase without emitting bits (e.g. the tracked
    /// phase of the last non-injected header symbol).
    pub fn set_reference(&mut self, phase: f64) {
        self.previous = Some(wrap_angle(phase));
    }

    /// Decodes the bit group carried by a symbol whose tracked total
    /// phase is `phase`. Returns `None` for the very first symbol if no
    /// reference was set (it then only establishes the reference).
    pub fn decode(&mut self, phase: f64) -> Option<u8> {
        let phase = wrap_angle(phase);
        let out = self
            .previous
            .map(|prev| self.modulation.demodulate(phase - prev));
        self.previous = Some(phase);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mapping() {
        let m1 = PhaseOffsetMod::OneBit;
        assert!((m1.modulate(1) - PI / 2.0).abs() < 1e-12);
        assert!((m1.modulate(0) + PI / 2.0).abs() < 1e-12);

        let m2 = PhaseOffsetMod::TwoBit;
        assert!((m2.modulate(0b11) - PI / 4.0).abs() < 1e-12);
        assert!((m2.modulate(0b01) - 3.0 * PI / 4.0).abs() < 1e-12);
        assert!((m2.modulate(0b00) + 3.0 * PI / 4.0).abs() < 1e-12);
        assert!((m2.modulate(0b10) + PI / 4.0).abs() < 1e-12);
    }

    #[test]
    fn demodulate_inverts_modulate() {
        for m in [PhaseOffsetMod::OneBit, PhaseOffsetMod::TwoBit] {
            for v in 0..(1u8 << m.bits_per_symbol()) {
                assert_eq!(m.demodulate(m.modulate(v)), v, "{m} value {v}");
            }
        }
    }

    #[test]
    fn demodulate_tolerates_noise() {
        let m = PhaseOffsetMod::TwoBit;
        for v in 0..4u8 {
            let angle = m.modulate(v);
            for noise in [-0.3, -0.1, 0.1, 0.3] {
                assert_eq!(m.demodulate(angle + noise), v);
            }
        }
    }

    #[test]
    fn paper_figure8_example() {
        // Conveying "110" (bit by bit, 1-bit modulation) injects
        // 90°, 180°, 90° absolute offsets.
        let mut enc = PhaseOffsetEncoder::new(PhaseOffsetMod::OneBit);
        let offs: Vec<f64> = [1u8, 1, 0].iter().map(|&b| enc.next_offset(b)).collect();
        assert!((offs[0] - PI / 2.0).abs() < 1e-12);
        assert!((offs[1].abs() - PI).abs() < 1e-12); // 180° == -180° wrapped
        assert!((offs[2] - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn encode_decode_round_trip_with_inherent_drift() {
        // Simulate residual CFO: inherent phase grows linearly per symbol.
        for m in [PhaseOffsetMod::OneBit, PhaseOffsetMod::TwoBit] {
            let values: Vec<u8> = (0..64u8).map(|k| k % (1 << m.bits_per_symbol())).collect();
            let mut enc = PhaseOffsetEncoder::new(m);
            let drift_per_symbol = 0.07; // small, as the paper assumes
            let mut dec = PhaseOffsetDecoder::new(m);
            dec.set_reference(0.0);
            for (n, &v) in values.iter().enumerate() {
                let injected = enc.next_offset(v);
                let inherent = drift_per_symbol * (n + 1) as f64;
                let total = wrap_angle(injected + inherent);
                assert_eq!(dec.decode(total), Some(v), "{m} symbol {n}");
            }
        }
    }

    #[test]
    fn wrap_around_is_unambiguous() {
        // Large cumulative offsets must not confuse the decoder because
        // only consecutive differences matter.
        let m = PhaseOffsetMod::TwoBit;
        let mut enc = PhaseOffsetEncoder::new(m);
        let mut dec = PhaseOffsetDecoder::new(m);
        dec.set_reference(0.0);
        for k in 0..100 {
            let v = 0b01; // +135° each symbol: wraps every few symbols
            let injected = enc.next_offset(v);
            assert_eq!(dec.decode(injected), Some(v), "symbol {k}");
        }
    }

    #[test]
    fn first_symbol_without_reference_yields_none() {
        let mut dec = PhaseOffsetDecoder::new(PhaseOffsetMod::OneBit);
        assert_eq!(dec.decode(0.3), None);
        assert!(dec.decode(0.3 + PI / 2.0).is_some());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn modulate_rejects_out_of_range() {
        PhaseOffsetMod::OneBit.modulate(2);
    }
}
