//! OFDM symbol construction and deconstruction.
//!
//! Implements the 20 MHz IEEE 802.11a/g/n subcarrier plan: a 64-point
//! (I)FFT with 48 data subcarriers, 4 pilot subcarriers at positions
//! ±7 and ±21, a null at DC and 11 guard carriers, plus a 16-sample
//! cyclic prefix. Pilot polarity follows the standard's 127-element
//! sequence so receivers can track residual phase.

use crate::fft::{butterflies_64, BITREV_64, INV_SCALE_64};
use crate::math::Complex64;

/// FFT size of the 20 MHz channelisation.
pub const FFT_SIZE: usize = 64;
/// Cyclic prefix length (800 ns guard interval at 20 Msample/s).
pub const CP_LEN: usize = 16;
/// Samples per OFDM symbol including the cyclic prefix.
pub const SYMBOL_LEN: usize = FFT_SIZE + CP_LEN;
/// Number of data subcarriers.
pub const NUM_DATA: usize = 48;
/// Number of pilot subcarriers.
pub const NUM_PILOTS: usize = 4;
/// Logical pilot subcarrier indices (signed, DC = 0).
pub const PILOT_CARRIERS: [i32; NUM_PILOTS] = [-21, -7, 7, 21];
/// Base pilot values before polarity, per IEEE 802.11-2012 18.3.5.9.
pub const PILOT_BASE: [f64; NUM_PILOTS] = [1.0, 1.0, 1.0, -1.0];

/// The 127-element pilot polarity sequence p_0..p_126 (IEEE 802.11-2012
/// Eq. 18-25), generated by the scrambler LFSR seeded with all ones.
pub fn pilot_polarity(symbol_index: usize) -> f64 {
    // Generate from the scrambler with seed 0x7F: polarity = 1 - 2*s_n.
    // Precomputed here as a table for clarity and speed.
    const SEQ: [i8; 127] = [
        1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1, -1, -1, 1, 1, -1, 1, 1, -1, 1, 1,
        1, 1, 1, 1, -1, 1, 1, 1, -1, 1, 1, -1, -1, 1, 1, 1, -1, 1, -1, -1, -1, 1, -1, 1, -1, -1, 1,
        -1, -1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, -1, -1, -1, 1, 1, -1, -1,
        -1, -1, 1, -1, -1, 1, -1, 1, 1, 1, 1, -1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, -1, 1, 1,
        -1, 1, -1, 1, 1, 1, -1, -1, 1, -1, -1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1,
    ];
    SEQ[symbol_index % SEQ.len()] as f64
}

/// The logical (signed) data subcarrier indices in ascending order:
/// -26..=26 excluding DC and the four pilot positions.
pub const DATA_CARRIERS: [i32; NUM_DATA] = build_data_carriers();

const fn build_data_carriers() -> [i32; NUM_DATA] {
    let mut out = [0i32; NUM_DATA];
    let mut n = 0;
    let mut k = -26i32;
    while k <= 26 {
        let mut is_pilot = false;
        let mut p = 0;
        while p < NUM_PILOTS {
            if PILOT_CARRIERS[p] == k {
                is_pilot = true;
            }
            p += 1;
        }
        if k != 0 && !is_pilot {
            out[n] = k;
            n += 1;
        }
        k += 1;
    }
    out
}

/// Maps a logical signed subcarrier index to an FFT bin (0..64).
#[inline]
#[expect(
    clippy::cast_sign_loss,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    reason = "each branch casts a value in 0..64; FFT_SIZE (64) fits i32"
)]
pub const fn carrier_to_bin(carrier: i32) -> usize {
    if carrier >= 0 {
        carrier as usize
    } else {
        (FFT_SIZE as i32 + carrier) as usize
    }
}

/// Bit-reversed FFT bin of each data carrier (in [`DATA_CARRIERS`]
/// order): where its value enters the 64-point butterflies.
pub(crate) const DATA_SLOTS: [usize; NUM_DATA] = build_slots(&DATA_CARRIERS);
/// Bit-reversed FFT bin of each pilot (in [`PILOT_CARRIERS`] order).
pub(crate) const PILOT_SLOTS: [usize; NUM_PILOTS] = build_slots(&PILOT_CARRIERS);

const fn build_slots<const N: usize>(carriers: &[i32; N]) -> [usize; N] {
    let mut out = [0usize; N];
    let mut k = 0;
    while k < N {
        out[k] = BITREV_64[carrier_to_bin(carriers[k])] as usize;
        k += 1;
    }
    out
}

/// Runs the inverse transform over 64 bins given in bit-reversed order
/// (see [`DATA_SLOTS`]) and appends the cyclic prefix and body to `out`:
/// the same samples [`crate::fft::ifft`] plus a CP copy produce.
pub(crate) fn emit_symbol(bins: &mut [Complex64; FFT_SIZE], out: &mut Vec<Complex64>) {
    butterflies_64(bins, true);
    let scaled = |x: &Complex64| x.scale(INV_SCALE_64);
    out.extend(bins[FFT_SIZE - CP_LEN..].iter().map(scaled));
    out.extend(bins.iter().map(scaled));
}

/// Appends one symbol (cyclic prefix + IFFT of `bins`, given in natural
/// order) to `out`.
pub(crate) fn emit_bins(bins: &[Complex64], out: &mut Vec<Complex64>) {
    let mut block = [Complex64::ZERO; FFT_SIZE];
    for (&value, &slot) in bins.iter().zip(&BITREV_64) {
        block[usize::from(slot)] = value;
    }
    emit_symbol(&mut block, out);
}

/// Frequency-domain contents of one OFDM symbol before the IFFT.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqSymbol {
    /// 48 data subcarrier values, ordered by ascending logical index.
    pub data: Vec<Complex64>,
    /// 4 pilot subcarrier values, ordered as [`PILOT_CARRIERS`].
    pub pilots: [Complex64; NUM_PILOTS],
}

impl FreqSymbol {
    /// Builds a frequency symbol from 48 data points, applying standard
    /// pilots with the polarity of `symbol_index`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != 48`.
    pub fn with_standard_pilots(data: Vec<Complex64>, symbol_index: usize) -> FreqSymbol {
        assert_eq!(data.len(), NUM_DATA, "need exactly {NUM_DATA} data points");
        let p = pilot_polarity(symbol_index);
        let pilots = [
            Complex64::new(PILOT_BASE[0] * p, 0.0),
            Complex64::new(PILOT_BASE[1] * p, 0.0),
            Complex64::new(PILOT_BASE[2] * p, 0.0),
            Complex64::new(PILOT_BASE[3] * p, 0.0),
        ];
        FreqSymbol { data, pilots }
    }

    /// Rotates every data and pilot subcarrier by `angle` radians.
    ///
    /// This is the phase-offset injection primitive of the side channel
    /// (Section 5.2): rotating *all* subcarriers keeps pilots and data
    /// consistent, so standard pilot phase tracking transparently removes
    /// the rotation before demodulation.
    pub fn rotate(&mut self, angle: f64) {
        let r = Complex64::cis(angle);
        for d in &mut self.data {
            *d *= r;
        }
        for p in &mut self.pilots {
            *p *= r;
        }
    }

    /// Expands to the 64 FFT bins (guards and DC zeroed).
    #[cfg(test)]
    fn to_bins(&self) -> Vec<Complex64> {
        let mut bins = vec![Complex64::ZERO; FFT_SIZE];
        for (value, carrier) in self.data.iter().zip(DATA_CARRIERS) {
            bins[carrier_to_bin(carrier)] = *value;
        }
        for (value, carrier) in self.pilots.iter().zip(PILOT_CARRIERS) {
            bins[carrier_to_bin(carrier)] = *value;
        }
        bins
    }

    /// Extracts data/pilot values from 64 FFT bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins.len() != 64`.
    pub fn from_bins(bins: &[Complex64]) -> FreqSymbol {
        let mut sym = FreqSymbol {
            data: Vec::with_capacity(NUM_DATA),
            pilots: [Complex64::ZERO; NUM_PILOTS],
        };
        sym.fill_from_bins(bins);
        sym
    }

    /// In-place variant of [`FreqSymbol::from_bins`]: refills this symbol
    /// from 64 FFT bins, reusing the `data` allocation.
    ///
    /// # Panics
    ///
    /// Panics if `bins.len() != 64`.
    fn fill_from_bins(&mut self, bins: &[Complex64]) {
        assert_eq!(bins.len(), FFT_SIZE, "need {FFT_SIZE} bins");
        self.data.clear();
        self.data
            .extend(DATA_CARRIERS.iter().map(|&c| bins[carrier_to_bin(c)]));
        for (slot, carrier) in self.pilots.iter_mut().zip(PILOT_CARRIERS) {
            *slot = bins[carrier_to_bin(carrier)];
        }
    }

    /// An empty symbol (48 zero data carriers, zero pilots) to use as a
    /// reusable target for the in-place demodulation paths.
    pub fn zeroed() -> FreqSymbol {
        FreqSymbol {
            data: vec![Complex64::ZERO; NUM_DATA],
            pilots: [Complex64::ZERO; NUM_PILOTS],
        }
    }
}

/// Converts a frequency symbol to time-domain samples with cyclic
/// prefix (test helper; the transmitter emits symbols in place).
#[cfg(test)]
pub(crate) fn modulate_symbol(sym: &FreqSymbol) -> Vec<Complex64> {
    let mut out = Vec::with_capacity(SYMBOL_LEN);
    emit_bins(&sym.to_bins(), &mut out);
    out
}

/// Recovers the frequency symbol from one symbol's time samples.
///
/// The cyclic prefix is discarded; the remaining 64 samples are FFT'd.
pub fn demodulate_symbol(samples: &[Complex64; SYMBOL_LEN]) -> FreqSymbol {
    let mut out = FreqSymbol::zeroed();
    demodulate_symbol_into(samples, &mut out);
    out
}

/// Allocation-free variant of [`demodulate_symbol`]: `out` receives the
/// frequency symbol and is reused across calls. The 64-point FFT runs on
/// a stack array, loaded straight into bit-reversed order.
pub fn demodulate_symbol_into(samples: &[Complex64; SYMBOL_LEN], out: &mut FreqSymbol) {
    let mut bins = [Complex64::ZERO; FFT_SIZE];
    for (&s, &slot) in samples[CP_LEN..].iter().zip(&BITREV_64) {
        bins[usize::from(slot)] = s;
    }
    butterflies_64(&mut bins, false);
    out.fill_from_bins(&bins);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::Modulation;

    #[test]
    fn carrier_plan_counts() {
        let dc = DATA_CARRIERS;
        assert_eq!(dc.len(), NUM_DATA);
        assert!(!dc.contains(&0));
        for p in PILOT_CARRIERS {
            assert!(!dc.contains(&p));
        }
        // All within ±26.
        assert!(dc.iter().all(|&c| (-26..=26).contains(&c)));
    }

    #[test]
    fn bin_mapping_is_injective() {
        let mut seen = std::collections::BTreeSet::new();
        for c in DATA_CARRIERS.into_iter().chain(PILOT_CARRIERS) {
            assert!(seen.insert(carrier_to_bin(c)), "bin collision for {c}");
        }
    }

    #[test]
    fn pilot_polarity_periodicity_and_values() {
        assert_eq!(pilot_polarity(0), 1.0);
        assert_eq!(pilot_polarity(4), -1.0);
        for k in 0..300 {
            let p = pilot_polarity(k);
            assert!(p == 1.0 || p == -1.0);
            assert_eq!(p, pilot_polarity(k + 127));
        }
    }

    #[test]
    fn modulate_demodulate_round_trip() {
        let bits: Vec<u8> = (0..NUM_DATA * 2).map(|k| (k % 3 == 1) as u8).collect();
        let data = Modulation::Qpsk.map_all(&bits);
        let sym = FreqSymbol::with_standard_pilots(data.clone(), 3);
        let time: [Complex64; SYMBOL_LEN] = modulate_symbol(&sym).try_into().unwrap();
        let back = demodulate_symbol(&time);
        for (a, b) in back.data.iter().zip(&data) {
            assert!((*a - *b).abs() < 1e-9);
        }
        for (a, b) in back.pilots.iter().zip(&sym.pilots) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn cyclic_prefix_is_a_copy_of_tail() {
        let data = vec![Complex64::new(0.3, -0.2); NUM_DATA];
        let sym = FreqSymbol::with_standard_pilots(data, 0);
        let time = modulate_symbol(&sym);
        for k in 0..CP_LEN {
            assert_eq!(time[k], time[FFT_SIZE + k]);
        }
    }

    #[test]
    fn rotation_rotates_everything_uniformly() {
        let data = Modulation::Bpsk.map_all(&[1u8; NUM_DATA]);
        let mut sym = FreqSymbol::with_standard_pilots(data, 0);
        let before = sym.clone();
        sym.rotate(std::f64::consts::FRAC_PI_2);
        for (a, b) in sym.data.iter().zip(&before.data) {
            let d = crate::math::wrap_angle(a.arg() - b.arg());
            assert!((d - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
            assert!((a.abs() - b.abs()).abs() < 1e-12);
        }
        for (a, b) in sym.pilots.iter().zip(&before.pilots) {
            let d = crate::math::wrap_angle(a.arg() - b.arg());
            assert!((d - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        }
    }

    #[test]
    fn dc_and_guards_are_null() {
        let data = vec![Complex64::ONE; NUM_DATA];
        let sym = FreqSymbol::with_standard_pilots(data, 0);
        let bins = sym.to_bins();
        assert_eq!(bins[0], Complex64::ZERO); // DC
        for (bin, value) in bins.iter().enumerate().take(38).skip(27) {
            assert_eq!(*value, Complex64::ZERO, "guard bin {bin}");
        }
    }
}
