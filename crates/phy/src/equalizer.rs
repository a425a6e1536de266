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
    carrier_to_bin, pilot_polarity, Carriers, FreqSymbol, CP_LEN, DATA_CARRIERS, NUM_DATA,
    NUM_PILOTS, PILOT_BASE, PILOT_CARRIERS, SYMBOL_LEN,
};
use crate::preamble::ltf_value;

/// Per-subcarrier complex channel estimate of the 52 used carriers.
///
/// The data carriers' values sit in `ofdm::Carriers` (struct-of-arrays, in
/// data-carrier order) and the pilots' beside them. Each value keeps its
/// reciprocal, refreshed whenever the value changes, so equalising
/// multiplies instead of dividing: `Complex64` division *is*
/// multiplication by `rhs.inv()`, so the product has the same bits as
/// the quotient, and a fixed estimate inverts each carrier once rather
/// than once per symbol. Guard carriers and DC carry nothing and read
/// as `1 + 0i`.
#[derive(Debug, Clone)]
pub struct ChannelEstimate {
    data: Carriers,
    data_inv: Carriers,
    pilots: [Complex64; NUM_PILOTS],
    pilots_inv: [Complex64; NUM_PILOTS],
}

/// Estimates are equal when their channel values are: the reciprocals
/// follow from them (and a zero carrier's NaN reciprocal must not make
/// an estimate unequal to itself).
impl PartialEq for ChannelEstimate {
    fn eq(&self, other: &ChannelEstimate) -> bool {
        self.data == other.data && self.pilots == other.pilots
    }
}

impl ChannelEstimate {
    /// An estimate from the data carriers' and pilots' values.
    fn new(data: Carriers, pilots: [Complex64; NUM_PILOTS]) -> ChannelEstimate {
        let mut data_inv = Carriers::splat(Complex64::ZERO);
        data_inv.set_reciprocals(&data);
        ChannelEstimate {
            data,
            data_inv,
            pilots_inv: pilots.map(Complex64::inv),
            pilots,
        }
    }

    /// Builds an estimate from explicit per-bin values; only the 52 used
    /// carriers' bins are kept.
    ///
    /// # Panics
    ///
    /// Panics if `bins.len() != 64`.
    pub fn from_bins(bins: Vec<Complex64>) -> ChannelEstimate {
        let sym = FreqSymbol::from_bins(&bins);
        ChannelEstimate::new(sym.data, sym.pilots)
    }

    /// Least-squares estimate from the two received LTF symbols (each
    /// one symbol of time samples, CP included).
    pub(crate) fn from_ltf(
        ltf1: &[Complex64; SYMBOL_LEN],
        ltf2: &[Complex64; SYMBOL_LEN],
    ) -> ChannelEstimate {
        let b1 = fft(&std::array::from_fn(|k| ltf1[CP_LEN + k]));
        let b2 = fft(&std::array::from_fn(|k| ltf2[CP_LEN + k]));
        let ls = |c: i32| {
            let bin = carrier_to_bin(c);
            (b1[bin] + b2[bin]).scale(0.5) / ltf_value(c)
        };
        let mut data = Carriers::splat(Complex64::ZERO);
        for (i, c) in DATA_CARRIERS.into_iter().enumerate() {
            data.set(i, ls(c));
        }
        ChannelEstimate::new(data, PILOT_CARRIERS.map(ls))
    }

    /// An identity (flat, unit-gain) estimate.
    #[cfg(test)]
    pub(crate) fn identity() -> ChannelEstimate {
        ChannelEstimate::new(
            Carriers::splat(Complex64::ONE),
            [Complex64::ONE; NUM_PILOTS],
        )
    }

    /// Channel value on a logical carrier (`1 + 0i` off the used ones).
    pub fn at(&self, carrier: i32) -> Complex64 {
        if let Some(i) = DATA_CARRIERS.iter().position(|&c| c == carrier) {
            self.data.get(i)
        } else if let Some(k) = PILOT_CARRIERS.iter().position(|&c| c == carrier) {
            self.pilots[k]
        } else {
            Complex64::ONE
        }
    }

    /// The data carriers' channel values.
    pub(crate) fn data(&self) -> &Carriers {
        &self.data
    }

    /// The pilots' channel values.
    pub(crate) fn pilots(&self) -> &[Complex64; NUM_PILOTS] {
        &self.pilots
    }

    /// Updates the data carriers' values in place with `update`, then
    /// their reciprocals (calibration by the RTE estimator goes through
    /// here).
    pub(crate) fn update_data(&mut self, update: impl FnOnce(&mut Carriers)) {
        update(&mut self.data);
        self.data_inv.set_reciprocals(&self.data);
    }

    /// Replaces pilot `k`'s value and its reciprocal.
    pub(crate) fn set_pilot(&mut self, k: usize, h: Complex64) {
        self.pilots[k] = h;
        self.pilots_inv[k] = h.inv();
    }

    /// Zero-forcing equalisation of a received frequency symbol.
    pub fn equalize(&self, sym: &FreqSymbol) -> FreqSymbol {
        let mut out = FreqSymbol::zeroed();
        self.equalize_into(sym, &mut out);
        out
    }

    /// In-place variant of [`ChannelEstimate::equalize`]: writes the
    /// equalised symbol into `out`.
    pub fn equalize_into(&self, sym: &FreqSymbol, out: &mut FreqSymbol) {
        out.data = sym.data;
        out.data.mul_assign(&self.data_inv);
        out.pilots = self.equalize_pilots(sym);
    }

    /// The equalised pilots of `sym`.
    pub(crate) fn equalize_pilots(&self, sym: &FreqSymbol) -> [Complex64; NUM_PILOTS] {
        std::array::from_fn(|k| sym.pilots[k] * self.pilots_inv[k])
    }

    /// Writes the equalised data carriers of `sym`, each then multiplied
    /// by the phasor `r`, to `out`: per lane the two products
    /// [`ChannelEstimate::equalize`] and [`FreqSymbol::rotate_by`] make,
    /// in one pass.
    pub(crate) fn equalize_rotated(&self, sym: &FreqSymbol, r: Complex64, out: &mut Carriers) {
        let (x, inv) = (&sym.data, &self.data_inv);
        for i in 0..NUM_DATA {
            let re = x.re[i] * inv.re[i] - x.im[i] * inv.im[i];
            let im = x.re[i] * inv.im[i] + x.im[i] * inv.re[i];
            out.re[i] = re * r.re - im * r.im;
            out.im[i] = re * r.im + im * r.re;
        }
    }
}

/// Estimates the complex noise variance per sample from the difference
/// of the two (identical) received LTF symbols: `var = E|l1 - l2|^2 / 2`.
pub(crate) fn estimate_noise_from_ltf(
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
pub(crate) fn track_phase(pilots: &[Complex64; NUM_PILOTS], symbol_index: usize) -> PhaseTrack {
    let p = pilot_polarity(symbol_index);
    let mut acc = Complex64::ZERO;
    for (rx, base) in pilots.iter().zip(PILOT_BASE) {
        let expected = Complex64::new(base * p, 0.0);
        acc += *rx * expected.conj();
    }
    PhaseTrack {
        offset: wrap_angle(acc.arg()),
        confidence: acc.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::Modulation;
    use crate::ofdm::{modulate_symbol, FFT_SIZE};
    use crate::preamble::{ltf_offsets, preamble};

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
        for (a, b) in eq.data.points().iter().zip(&data) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn ltf_estimation_recovers_flat_channel() {
        let h = Complex64::from_polar(0.8, 0.6);
        let est = estimate_from_preamble(&apply_flat_channel(preamble(), h));
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
        let est = estimate_from_preamble(&apply_flat_channel(preamble(), h));

        let rx = crate::ofdm::demodulate_symbol(time.as_slice().try_into().unwrap());
        let eq = est.equalize(&rx);
        assert_eq!(Modulation::Qpsk.demap_all(&eq.data.points()), bits);
    }

    #[test]
    fn phase_tracking_measures_injected_rotation() {
        let data = Modulation::Bpsk.map_all(&[1u8; 48]);
        for &angle in &[0.1, 0.7, -1.4, std::f64::consts::FRAC_PI_2] {
            let mut sym = FreqSymbol::with_standard_pilots(data.clone(), 5);
            sym.rotate(angle);
            let track = track_phase(&sym.pilots, 5);
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
        let track = track_phase(&sym.pilots, 2);
        sym.rotate(-track.offset);
        assert_eq!(Modulation::Bpsk.demap_all(&sym.data.points()), bits);
    }

    #[test]
    fn tracking_uses_polarity_correctly() {
        // At a symbol index with negative polarity, uncompensated pilots
        // would read as a pi rotation; polarity handling must yield ~0.
        let data = Modulation::Bpsk.map_all(&[0u8; 48]);
        let idx = 4; // polarity -1 in the standard sequence
        assert_eq!(pilot_polarity(idx), -1.0);
        let sym = FreqSymbol::with_standard_pilots(data, idx);
        let track = track_phase(&sym.pilots, idx);
        assert!(track.offset.abs() < 1e-9);
    }

    /// Sets one carrier of `est` through the mutators RTE uses.
    fn set(est: &mut ChannelEstimate, carrier: i32, h: Complex64) {
        if let Some(i) = DATA_CARRIERS.iter().position(|&c| c == carrier) {
            est.update_data(|data| data.set(i, h));
        } else if let Some(k) = PILOT_CARRIERS.iter().position(|&c| c == carrier) {
            est.set_pilot(k, h);
        }
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
                set(&mut est, c, Complex64::new(value(raw), value(raw)));
            }
            set(&mut est, 3, Complex64::ZERO);
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
            for ((got, v), c) in eq
                .data
                .points()
                .iter()
                .zip(&sym.data.points())
                .zip(DATA_CARRIERS)
            {
                assert_eq!(bits(*got), bits(*v / est.at(c)), "carrier {c}");
            }
            for ((got, v), c) in eq.pilots.iter().zip(&sym.pilots).zip(PILOT_CARRIERS) {
                assert_eq!(bits(*got), bits(*v / est.at(c)), "pilot {c}");
            }
        }
    }
}
