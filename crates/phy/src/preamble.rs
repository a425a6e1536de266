//! PLCP preamble: short and long training fields.
//!
//! Following the paper's implementation (Section 6), the preamble is two
//! OFDM symbols of STF followed by two OFDM symbols of LTF. The STF is
//! used by real hardware for detection and AGC; in this simulator it is
//! generated faithfully but the receiver relies on the LTF, which carries
//! the known ±1 training sequence on all 52 used subcarriers and yields
//! the least-squares channel estimate Ĥo that standard decoding uses for
//! the whole frame (and that RTE then calibrates).

use crate::math::Complex64;
use crate::ofdm::{carrier_to_bin, emit_bins, FFT_SIZE, SYMBOL_LEN};
use std::sync::OnceLock;

/// L-LTF training values on logical subcarriers -26..=26 (DC included as 0),
/// per IEEE 802.11-2012 Eq. 18-11.
pub(crate) const LTF_SEQUENCE: [i8; 53] = [
    1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1,
    1, // -26..-1
    0, // DC
    1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1,
    1, // 1..26
];

/// Known LTF value on a logical carrier index (`-26..=26`).
///
/// # Panics
///
/// Panics if `carrier` is outside `-26..=26`.
#[expect(
    clippy::cast_sign_loss,
    reason = "carrier asserted to -26..=26 below, so the index is 0..=52"
)]
pub(crate) fn ltf_value(carrier: i32) -> Complex64 {
    assert!(
        (-26..=26).contains(&carrier),
        "carrier {carrier} out of range"
    );
    Complex64::new(LTF_SEQUENCE[(carrier + 26) as usize] as f64, 0.0)
}

/// STF frequency-domain values: nonzero on every 4th subcarrier,
/// normalised per IEEE 802.11-2012 Eq. 18-8.
fn stf_bins() -> Vec<Complex64> {
    let s = (13.0f64 / 6.0).sqrt();
    let p = Complex64::new(s, s);
    let n = Complex64::new(-s, -s);
    // (carrier, value) pairs from the standard.
    let entries: [(i32, Complex64); 12] = [
        (-24, p),
        (-20, n),
        (-16, p),
        (-12, n),
        (-8, n),
        (-4, p),
        (4, n),
        (8, n),
        (12, p),
        (16, p),
        (20, p),
        (24, p),
    ];
    let mut bins = vec![Complex64::ZERO; FFT_SIZE];
    for (c, v) in entries {
        bins[carrier_to_bin(c)] = v;
    }
    bins
}

/// LTF frequency-domain values over the 64 FFT bins.
pub(crate) fn ltf_bins() -> Vec<Complex64> {
    let mut bins = vec![Complex64::ZERO; FFT_SIZE];
    for c in -26..=26i32 {
        if c == 0 {
            continue;
        }
        bins[carrier_to_bin(c)] = ltf_value(c);
    }
    bins
}

/// Number of OFDM symbols in the preamble (2 STF + 2 LTF).
pub(crate) const PREAMBLE_SYMBOLS: usize = 4;
/// Total preamble length in samples.
pub const PREAMBLE_LEN: usize = PREAMBLE_SYMBOLS * SYMBOL_LEN;

/// The preamble waveform, built once: every PPDU starts with it.
pub(crate) fn preamble() -> &'static [Complex64] {
    static PREAMBLE: OnceLock<Vec<Complex64>> = OnceLock::new();
    PREAMBLE.get_or_init(|| {
        let (stf, ltf) = (stf_bins(), ltf_bins());
        let mut out = Vec::with_capacity(PREAMBLE_LEN);
        for bins in [&stf, &stf, &ltf, &ltf] {
            emit_bins(bins, &mut out);
        }
        out
    })
}

/// Byte offsets of the two LTF symbols inside the preamble, in samples.
pub(crate) fn ltf_offsets() -> [usize; 2] {
    [2 * SYMBOL_LEN, 3 * SYMBOL_LEN]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft;
    use crate::ofdm::CP_LEN;

    #[test]
    fn preamble_has_expected_length() {
        assert_eq!(preamble().len(), PREAMBLE_LEN);
        assert_eq!(PREAMBLE_LEN, 4 * 80);
    }

    #[test]
    fn ltf_sequence_is_pm_one_with_dc_null() {
        assert_eq!(LTF_SEQUENCE.len(), 53);
        assert_eq!(LTF_SEQUENCE[26], 0);
        for (k, &v) in LTF_SEQUENCE.iter().enumerate() {
            if k != 26 {
                assert!(v == 1 || v == -1);
            }
        }
    }

    #[test]
    fn ltf_symbols_are_identical_repetitions() {
        let pre = preamble();
        let [a, b] = ltf_offsets();
        for k in 0..SYMBOL_LEN {
            assert_eq!(pre[a + k], pre[b + k]);
        }
    }

    #[test]
    fn ltf_round_trips_through_fft() {
        let pre = preamble();
        let [a, _] = ltf_offsets();
        let bins = fft(&std::array::from_fn(|k| pre[a + CP_LEN + k]));
        for c in -26..=26i32 {
            if c == 0 {
                continue;
            }
            let got = bins[carrier_to_bin(c)];
            let want = ltf_value(c);
            assert!((got - want).abs() < 1e-9, "carrier {c}: {got} vs {want}");
        }
    }

    #[test]
    fn stf_has_period_16_structure() {
        // Energy only on every 4th carrier makes the STF time signal
        // periodic with period 16 samples.
        let mut stf = Vec::new();
        emit_bins(&stf_bins(), &mut stf);
        let body = &stf[CP_LEN..];
        for k in 0..FFT_SIZE - 16 {
            assert!(
                (body[k] - body[k + 16]).abs() < 1e-9,
                "sample {k} not periodic"
            );
        }
    }

    #[test]
    fn preamble_symbols_have_energy() {
        let pre = preamble();
        // 52 used carriers of unit-ish magnitude, 1/64 IFFT normalisation:
        // mean time-domain power ~ 52/64^2 ~ 0.0127.
        let power = crate::math::mean_power(pre);
        assert!((0.005..0.05).contains(&power), "preamble power {power}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ltf_value_range_check() {
        ltf_value(27);
    }
}
