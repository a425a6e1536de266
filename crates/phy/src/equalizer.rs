//! Channel estimation and equalisation.
//!
//! The standard 802.11 receiver estimates the per-subcarrier channel once
//! from the LTF preamble (least squares: `Ĥ = R / X` averaged over the
//! two LTF repetitions) and equalises every payload symbol with that one
//! estimate. Residual phase (from CFO or channel drift) is tracked per
//! symbol with the four pilot subcarriers and removed before demapping.
//!
//! Because the injected phase offsets of the side channel rotate *all*
//! subcarriers of a symbol coherently, this pilot-tracking step also
//! transparently removes the injected rotation — exactly the property the
//! paper exploits (Section 5.2): data decoding is unaffected while the
//! tracked total phase exposes the side-channel bits.

use crate::fft::fft;
use crate::math::{wrap_angle, Complex64};
use crate::ofdm::{
    carrier_to_bin, pilot_polarity, FreqSymbol, CP_LEN, DATA_CARRIERS, FFT_SIZE, NUM_PILOTS,
    PILOT_BASE, PILOT_CARRIERS, SYMBOL_LEN,
};
use crate::preamble::ltf_value;

/// Per-subcarrier complex channel estimate over the 64 FFT bins.
///
/// Unused bins hold `1 + 0i` so that equalising a null carrier is a
/// harmless no-op. Each bin keeps its reciprocal beside it, refreshed
/// whenever the bin changes, so equalising multiplies instead of
/// dividing: `Complex64` division *is* multiplication by `rhs.inv()`,
/// so the product has the same bits as the quotient, and a fixed
/// estimate inverts each bin once rather than once per symbol.
#[derive(Debug, Clone)]
pub struct ChannelEstimate {
    bins: Vec<Bin>,
}

/// One FFT bin's channel value and its cached reciprocal.
#[derive(Debug, Clone, Copy)]
struct Bin {
    h: Complex64,
    inv: Complex64,
}

impl Bin {
    fn new(h: Complex64) -> Bin {
        Bin { h, inv: h.inv() }
    }
}

/// Estimates are equal when their channel values are: the reciprocals
/// follow from them (and a zero bin's NaN reciprocal must not make an
/// estimate unequal to itself).
impl PartialEq for ChannelEstimate {
    fn eq(&self, other: &ChannelEstimate) -> bool {
        self.bins
            .iter()
            .map(|b| b.h)
            .eq(other.bins.iter().map(|b| b.h))
    }
}

impl ChannelEstimate {
    /// An identity (flat, unit-gain) estimate.
    pub fn identity() -> ChannelEstimate {
        ChannelEstimate {
            bins: vec![Bin::new(Complex64::ONE); FFT_SIZE],
        }
    }

    /// Builds an estimate from explicit per-bin values.
    ///
    /// # Panics
    ///
    /// Panics if `bins.len() != 64`.
    pub fn from_bins(bins: Vec<Complex64>) -> ChannelEstimate {
        assert_eq!(bins.len(), FFT_SIZE, "need {FFT_SIZE} bins");
        ChannelEstimate {
            bins: bins.into_iter().map(Bin::new).collect(),
        }
    }

    /// Least-squares estimate from the two received LTF symbols (each
    /// one symbol of time samples, CP included).
    pub fn from_ltf(
        ltf1: &[Complex64; SYMBOL_LEN],
        ltf2: &[Complex64; SYMBOL_LEN],
    ) -> ChannelEstimate {
        let b1 = fft(&std::array::from_fn(|k| ltf1[CP_LEN + k]));
        let b2 = fft(&std::array::from_fn(|k| ltf2[CP_LEN + k]));
        let mut estimate = ChannelEstimate::identity();
        for c in -26..=26i32 {
            if c == 0 {
                continue;
            }
            let x = ltf_value(c);
            let bin = carrier_to_bin(c);
            let avg = (b1[bin] + b2[bin]).scale(0.5);
            estimate.set(c, avg / x);
        }
        estimate
    }

    /// Channel value on a logical carrier.
    pub fn at(&self, carrier: i32) -> Complex64 {
        self.bins[carrier_to_bin(carrier)].h
    }

    /// Sets the channel value on a logical carrier, and its reciprocal
    /// (calibration by the RTE estimator goes through here).
    pub(crate) fn set(&mut self, carrier: i32, h: Complex64) {
        self.bins[carrier_to_bin(carrier)] = Bin::new(h);
    }

    /// The cached reciprocal `1 / h` on a logical carrier.
    fn inverse(&self, carrier: i32) -> Complex64 {
        self.bins[carrier_to_bin(carrier)].inv
    }

    /// Zero-forcing equalisation of a received frequency symbol.
    pub fn equalize(&self, sym: &FreqSymbol) -> FreqSymbol {
        let mut out = FreqSymbol {
            data: Vec::with_capacity(sym.data.len()),
            pilots: [Complex64::ZERO; NUM_PILOTS],
        };
        self.equalize_into(sym, &mut out);
        out
    }

    /// In-place variant of [`ChannelEstimate::equalize`]: writes the
    /// equalised symbol into `out`, reusing its `data` allocation.
    pub fn equalize_into(&self, sym: &FreqSymbol, out: &mut FreqSymbol) {
        out.data.clear();
        out.data.extend(
            sym.data
                .iter()
                .zip(DATA_CARRIERS)
                .map(|(v, c)| *v * self.inverse(c)),
        );
        for (k, (v, c)) in sym.pilots.iter().zip(PILOT_CARRIERS).enumerate() {
            out.pilots[k] = *v * self.inverse(c);
        }
    }
}

/// Estimates the complex noise variance per sample from the difference
/// of the two (identical) received LTF symbols: `var = E|l1 - l2|^2 / 2`.
pub fn estimate_noise_from_ltf(
    ltf1: &[Complex64; SYMBOL_LEN],
    ltf2: &[Complex64; SYMBOL_LEN],
) -> f64 {
    let diff_power: f64 = ltf1
        .iter()
        .zip(ltf2)
        .map(|(a, b)| (*a - *b).norm_sqr())
        .sum::<f64>()
        / SYMBOL_LEN as f64;
    diff_power / 2.0
}

/// Result of pilot-based phase tracking for one symbol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PhaseTrack {
    /// Total measured common phase offset of the symbol, radians in
    /// `(-pi, pi]`. Includes both inherent (CFO/channel drift) and any
    /// injected side-channel rotation.
    pub offset: f64,
    /// Magnitude-weighted confidence of the measurement (sum of pilot
    /// correlation magnitudes).
    pub confidence: f64,
}

/// Estimates the common phase rotation of an equalised symbol from its
/// four pilots, given the symbol index (for pilot polarity).
pub(crate) fn track_phase(equalized: &FreqSymbol, symbol_index: usize) -> PhaseTrack {
    let p = pilot_polarity(symbol_index);
    let mut acc = Complex64::ZERO;
    for (rx, base) in equalized.pilots.iter().zip(PILOT_BASE) {
        let expected = Complex64::new(base * p, 0.0);
        acc += *rx * expected.conj();
    }
    PhaseTrack {
        offset: wrap_angle(acc.arg()),
        confidence: acc.abs(),
    }
}

/// Removes a common phase rotation from all subcarriers of a symbol.
pub fn compensate_phase(sym: &mut FreqSymbol, offset: f64) {
    let r = Complex64::cis(-offset);
    for d in &mut sym.data {
        *d *= r;
    }
    for p in &mut sym.pilots {
        *p *= r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::Modulation;
    use crate::ofdm::{modulate_symbol, NUM_DATA};
    use crate::preamble::{generate_preamble, ltf_offsets};

    fn apply_flat_channel(samples: &[Complex64], h: Complex64) -> Vec<Complex64> {
        samples.iter().map(|s| *s * h).collect()
    }

    /// The estimate from the two LTF symbols of a received preamble.
    fn estimate_from_preamble(pre: &[Complex64]) -> ChannelEstimate {
        let ltf = |at: usize| -> &[Complex64; SYMBOL_LEN] {
            pre[at..at + SYMBOL_LEN].try_into().unwrap()
        };
        let [a, b] = ltf_offsets();
        ChannelEstimate::from_ltf(ltf(a), ltf(b))
    }

    #[test]
    fn identity_estimate_is_transparent() {
        let est = ChannelEstimate::identity();
        let data = Modulation::Qpsk.map_all(&[1u8, 0, 1, 1].repeat(24));
        let sym = FreqSymbol::with_standard_pilots(data.clone(), 0);
        let eq = est.equalize(&sym);
        for (a, b) in eq.data.iter().zip(&data) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn ltf_estimation_recovers_flat_channel() {
        let h = Complex64::from_polar(0.8, 0.6);
        let est = estimate_from_preamble(&apply_flat_channel(&generate_preamble(), h));
        for c in [-26, -7, 1, 21, 26] {
            assert!((est.at(c) - h).abs() < 1e-9, "carrier {c}");
        }
    }

    #[test]
    fn equalization_inverts_channel() {
        let h = Complex64::from_polar(0.5, -1.2);
        let bits: Vec<u8> = (0..96).map(|k| (k % 5 < 2) as u8).collect();
        let data = Modulation::Qpsk.map_all(&bits);
        let sym = FreqSymbol::with_standard_pilots(data, 7);
        let time = apply_flat_channel(&modulate_symbol(&sym), h);
        let est = estimate_from_preamble(&apply_flat_channel(&generate_preamble(), h));

        let rx = crate::ofdm::demodulate_symbol(time.as_slice().try_into().unwrap());
        let eq = est.equalize(&rx);
        assert_eq!(Modulation::Qpsk.demap_all(&eq.data), bits);
    }

    #[test]
    fn phase_tracking_measures_injected_rotation() {
        let data = Modulation::Bpsk.map_all(&[1u8; 48]);
        for &angle in &[0.1, 0.7, -1.4, std::f64::consts::FRAC_PI_2] {
            let mut sym = FreqSymbol::with_standard_pilots(data.clone(), 5);
            sym.rotate(angle);
            let track = track_phase(&sym, 5);
            assert!(
                (track.offset - angle).abs() < 1e-9,
                "angle {angle}: measured {}",
                track.offset
            );
            assert!(track.confidence > 3.9);
        }
    }

    #[test]
    fn phase_compensation_restores_data() {
        let bits: Vec<u8> = (0..48u8).map(|k| k % 2).collect();
        let data = Modulation::Bpsk.map_all(&bits);
        let mut sym = FreqSymbol::with_standard_pilots(data, 2);
        sym.rotate(1.0);
        let track = track_phase(&sym, 2);
        compensate_phase(&mut sym, track.offset);
        assert_eq!(Modulation::Bpsk.demap_all(&sym.data), bits);
    }

    #[test]
    fn tracking_uses_polarity_correctly() {
        // At a symbol index with negative polarity, uncompensated pilots
        // would read as a pi rotation; polarity handling must yield ~0.
        let data = Modulation::Bpsk.map_all(&[0u8; 48]);
        let idx = 4; // polarity -1 in the standard sequence
        assert_eq!(pilot_polarity(idx), -1.0);
        let sym = FreqSymbol::with_standard_pilots(data, idx);
        let track = track_phase(&sym, idx);
        assert!(track.offset.abs() < 1e-9);
    }

    #[test]
    fn reciprocal_equalization_matches_division_bit_for_bit() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Moderate values, and every f64 bit pattern class (zeros,
        // subnormals, infinities, NaN) from raw words.
        let mut value = move |raw: bool| {
            let w = next();
            if raw {
                f64::from_bits(w)
            } else {
                (w >> 11) as f64 / (1u64 << 51) as f64 - 2.0
            }
        };
        for round in 0..64 {
            let raw = round % 2 == 1;
            let bins = (0..FFT_SIZE)
                .map(|_| Complex64::new(value(raw), value(raw)))
                .collect();
            let mut est = ChannelEstimate::from_bins(bins);
            // The mutator keeps the reciprocals in step.
            for c in [-26, -21, -1, 1, 7, 26] {
                est.set(c, Complex64::new(value(raw), value(raw)));
            }
            est.set(3, Complex64::ZERO);
            let data = (0..NUM_DATA)
                .map(|_| Complex64::new(value(raw), value(raw)))
                .collect();
            let sym = FreqSymbol::with_standard_pilots(data, round);
            let eq = est.equalize(&sym);
            // Rust leaves the sign and payload of a NaN result open (a
            // constant-folded 0/0 and a computed one may differ), so a
            // NaN component matches any NaN; every other value must
            // match bit for bit.
            let bits = |z: Complex64| {
                let word = |x: f64| if x.is_nan() { None } else { Some(x.to_bits()) };
                (word(z.re), word(z.im))
            };
            for ((got, v), c) in eq.data.iter().zip(&sym.data).zip(DATA_CARRIERS) {
                assert_eq!(bits(*got), bits(*v / est.at(c)), "carrier {c}");
            }
            for ((got, v), c) in eq.pilots.iter().zip(&sym.pilots).zip(PILOT_CARRIERS) {
                assert_eq!(bits(*got), bits(*v / est.at(c)), "pilot {c}");
            }
        }
    }
}
