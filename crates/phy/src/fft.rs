//! Radix-2 decimation-in-time FFT used for OFDM (de)modulation.
//!
//! The OFDM symbol size in IEEE 802.11a/g/n (20 MHz) is 64 subcarriers, so
//! a simple iterative radix-2 implementation is entirely sufficient. Both
//! directions use the engineering convention: the *inverse* transform
//! carries the `1/N` normalisation, so `ifft(fft(x)) == x`.

use crate::math::Complex64;
use std::sync::OnceLock;

/// Largest transform size (as log2) whose twiddle factors are cached.
/// OFDM uses 64-point transforms (log2 = 6); anything beyond the cache
/// falls back to computing the `cis` recurrence per call.
const MAX_CACHED_LOG2: usize = 12;

/// Per-size forward twiddle tables, keyed by log2(n). Each table holds
/// the butterfly factors of every stage concatenated (stage `len` starts
/// at offset `len/2 - 1` and holds `len/2` factors), `n - 1` in total.
static FWD_TWIDDLES: [OnceLock<Vec<Complex64>>; MAX_CACHED_LOG2 + 1] =
    [const { OnceLock::new() }; MAX_CACHED_LOG2 + 1];
/// Inverse-direction counterpart of [`FWD_TWIDDLES`].
static INV_TWIDDLES: [OnceLock<Vec<Complex64>>; MAX_CACHED_LOG2 + 1] =
    [const { OnceLock::new() }; MAX_CACHED_LOG2 + 1];
/// Per-size bit-reversal permutations, keyed by log2(n). Each entry is
/// the list of `(i, j)` swap pairs (with `i < j`) that the carry-ripple
/// permutation loop would perform, so applying the cached pairs is
/// trivially identical to recomputing the permutation per call.
static BITREV_SWAPS: [OnceLock<Vec<(u32, u32)>>; MAX_CACHED_LOG2 + 1] =
    [const { OnceLock::new() }; MAX_CACHED_LOG2 + 1];

/// Builds one direction's twiddle table for a size-`n` transform using
/// the exact multiplicative recurrence of the butterfly loop, so cached
/// and uncached transforms are bit-identical.
fn build_twiddles(n: usize, sign: f64) -> Vec<Complex64> {
    let mut table = Vec::with_capacity(n.saturating_sub(1));
    let mut len = 2usize;
    while len <= n {
        let angle = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex64::cis(angle);
        let mut w = Complex64::ONE;
        for _ in 0..len / 2 {
            table.push(w);
            w *= wlen;
        }
        len <<= 1;
    }
    table
}

/// Cached twiddle table for a power-of-two `n`, or `None` if `n` is
/// beyond the cache size.
fn twiddles(n: usize, inverse: bool) -> Option<&'static [Complex64]> {
    let log2 = n.trailing_zeros() as usize;
    if n != (1 << log2) || log2 > MAX_CACHED_LOG2 {
        return None;
    }
    let (cache, sign) = if inverse {
        (&INV_TWIDDLES[log2], 1.0)
    } else {
        (&FWD_TWIDDLES[log2], -1.0)
    };
    Some(cache.get_or_init(|| build_twiddles(n, sign)).as_slice())
}

/// Errors returned by FFT routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftError {
    /// The input length is not a power of two.
    NotPowerOfTwo {
        /// Offending length.
        len: usize,
    },
}

impl std::fmt::Display for FftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FftError::NotPowerOfTwo { len } => {
                write!(f, "fft length {len} is not a power of two")
            }
        }
    }
}

impl std::error::Error for FftError {}

/// Enumerates the `(i, j)` swap pairs of the size-`n` bit-reversal
/// permutation via the carry-ripple counter.
#[expect(
    clippy::cast_possible_truncation,
    reason = "indices < n <= 2^12 fit in u32"
)]
fn build_bitrev_swaps(n: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            pairs.push((i as u32, j as u32));
        }
    }
    pairs
}

/// Cached swap-pair list for a power-of-two `n`, or `None` beyond the
/// cache size.
fn bitrev_swaps(n: usize) -> Option<&'static [(u32, u32)]> {
    let log2 = n.trailing_zeros() as usize;
    if n != (1 << log2) || log2 > MAX_CACHED_LOG2 {
        return None;
    }
    Some(
        BITREV_SWAPS[log2]
            .get_or_init(|| build_bitrev_swaps(n))
            .as_slice(),
    )
}

fn bit_reverse_permute(data: &mut [Complex64]) {
    let n = data.len();
    if let Some(pairs) = bitrev_swaps(n) {
        for &(i, j) in pairs {
            data.swap(i as usize, j as usize);
        }
        return;
    }
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
}

fn transform(data: &mut [Complex64], inverse: bool) -> Result<(), FftError> {
    if let Ok(block) = <&mut [Complex64; 64]>::try_from(&mut *data) {
        bit_reverse_64(block);
        butterflies_64(block, inverse);
        if inverse {
            for x in block.iter_mut() {
                *x = x.scale(INV_SCALE_64);
            }
        }
        return Ok(());
    }
    transform_generic(data, inverse)
}

/// The radix-2 loop for any power-of-two size. 64-point transforms take
/// the specialised kernel instead, which computes the same result.
fn transform_generic(data: &mut [Complex64], inverse: bool) -> Result<(), FftError> {
    let n = data.len();
    if n == 0 || !n.is_power_of_two() {
        return Err(FftError::NotPowerOfTwo { len: n });
    }
    bit_reverse_permute(data);
    if let Some(table) = twiddles(n, inverse) {
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stage = &table[half - 1..half - 1 + half];
            for chunk in data.chunks_mut(len) {
                for (k, &w) in stage.iter().enumerate() {
                    let u = chunk[k];
                    let v = chunk[k + half] * w;
                    chunk[k] = u + v;
                    chunk[k + half] = u - v;
                }
            }
            len <<= 1;
        }
    } else {
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let angle = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex64::cis(angle);
            for chunk in data.chunks_mut(len) {
                let mut w = Complex64::ONE;
                let half = len / 2;
                for k in 0..half {
                    let u = chunk[k];
                    let v = chunk[k + half] * w;
                    chunk[k] = u + v;
                    chunk[k + half] = u - v;
                    w *= wlen;
                }
            }
            len <<= 1;
        }
    }
    if inverse {
        let scale = 1.0 / n as f64;
        for x in data.iter_mut() {
            *x = x.scale(scale);
        }
    }
    Ok(())
}

/// Inverse-transform normalisation of the 64-point kernel; equal to the
/// generic loop's `1.0 / n as f64` for `n = 64`.
pub(crate) const INV_SCALE_64: f64 = 1.0 / 64.0;

/// Bit-reversed position of every 6-bit index: input sample `k` of a
/// 64-point transform enters the butterflies at `BITREV_64[k]`.
pub(crate) const BITREV_64: [u8; 64] = build_bitrev_64();

const fn build_bitrev_64() -> [u8; 64] {
    let mut table = [0u8; 64];
    let mut i = 0u8;
    while i < 64 {
        table[i as usize] = i.reverse_bits() >> 2;
        i += 1;
    }
    table
}

// The 64-point twiddle tables, stage after stage as `build_twiddles`
// lays them out (stage `len` starts at `len/2 - 1`). They are the exact
// values of its `cis` recurrence, written out so the kernel needs no
// lookup; `kernel_twiddles_match_the_recurrence` pins them.
#[expect(
    clippy::approx_constant,
    reason = "recurrence values, some an ulp away from the named constants"
)]
const FWD_TWIDDLES_64: [Complex64; 63] = [
    Complex64::new(1.0, 0.0),
    Complex64::new(1.0, 0.0),
    Complex64::new(6.123233995736766e-17, -1.0),
    Complex64::new(1.0, 0.0),
    Complex64::new(0.7071067811865476, -0.7071067811865475),
    Complex64::new(2.220446049250313e-16, -1.0),
    Complex64::new(-0.7071067811865474, -0.7071067811865477),
    Complex64::new(1.0, 0.0),
    Complex64::new(0.9238795325112867, -0.3826834323650898),
    Complex64::new(0.7071067811865475, -0.7071067811865476),
    Complex64::new(0.38268343236508967, -0.9238795325112867),
    Complex64::new(-1.1102230246251565e-16, -1.0),
    Complex64::new(-0.3826834323650899, -0.9238795325112867),
    Complex64::new(-0.7071067811865477, -0.7071067811865475),
    Complex64::new(-0.9238795325112868, -0.3826834323650896),
    Complex64::new(1.0, 0.0),
    Complex64::new(0.9807852804032304, -0.19509032201612825),
    Complex64::new(0.9238795325112867, -0.3826834323650897),
    Complex64::new(0.8314696123025452, -0.5555702330196022),
    Complex64::new(0.7071067811865475, -0.7071067811865475),
    Complex64::new(0.5555702330196022, -0.8314696123025451),
    Complex64::new(0.3826834323650897, -0.9238795325112866),
    Complex64::new(0.19509032201612825, -0.9807852804032302),
    Complex64::new(5.551115123125783e-17, -0.9999999999999998),
    Complex64::new(-0.19509032201612814, -0.9807852804032302),
    Complex64::new(-0.38268343236508956, -0.9238795325112865),
    Complex64::new(-0.555570233019602, -0.831469612302545),
    Complex64::new(-0.7071067811865472, -0.7071067811865474),
    Complex64::new(-0.8314696123025449, -0.5555702330196021),
    Complex64::new(-0.9238795325112863, -0.3826834323650896),
    Complex64::new(-0.9807852804032299, -0.1950903220161282),
    Complex64::new(1.0, 0.0),
    Complex64::new(0.9951847266721969, -0.0980171403295606),
    Complex64::new(0.9807852804032305, -0.19509032201612828),
    Complex64::new(0.9569403357322089, -0.2902846772544624),
    Complex64::new(0.9238795325112868, -0.38268343236508984),
    Complex64::new(0.8819212643483552, -0.47139673682599775),
    Complex64::new(0.8314696123025453, -0.5555702330196024),
    Complex64::new(0.7730104533627371, -0.6343932841636457),
    Complex64::new(0.7071067811865477, -0.7071067811865478),
    Complex64::new(0.6343932841636457, -0.7730104533627373),
    Complex64::new(0.5555702330196025, -0.8314696123025456),
    Complex64::new(0.471396736825998, -0.8819212643483554),
    Complex64::new(0.38268343236509006, -0.9238795325112872),
    Complex64::new(0.2902846772544626, -0.9569403357322094),
    Complex64::new(0.19509032201612847, -0.980785280403231),
    Complex64::new(0.09801714032956076, -0.9951847266721975),
    Complex64::new(9.71445146547012e-17, -1.0000000000000007),
    Complex64::new(-0.09801714032956058, -0.9951847266721976),
    Complex64::new(-0.1950903220161283, -0.9807852804032312),
    Complex64::new(-0.2902846772544625, -0.9569403357322096),
    Complex64::new(-0.38268343236509, -0.9238795325112875),
    Complex64::new(-0.471396736825998, -0.8819212643483558),
    Complex64::new(-0.5555702330196026, -0.831469612302546),
    Complex64::new(-0.634393284163646, -0.7730104533627378),
    Complex64::new(-0.7071067811865482, -0.7071067811865482),
    Complex64::new(-0.7730104533627378, -0.6343932841636462),
    Complex64::new(-0.8314696123025461, -0.5555702330196028),
    Complex64::new(-0.881921264348356, -0.47139673682599825),
    Complex64::new(-0.9238795325112878, -0.3826834323650903),
    Complex64::new(-0.95694033573221, -0.2902846772544628),
    Complex64::new(-0.9807852804032317, -0.19509032201612858),
    Complex64::new(-0.9951847266721981, -0.0980171403295608),
];
#[expect(
    clippy::approx_constant,
    reason = "recurrence values, some an ulp away from the named constants"
)]
const INV_TWIDDLES_64: [Complex64; 63] = [
    Complex64::new(1.0, 0.0),
    Complex64::new(1.0, 0.0),
    Complex64::new(6.123233995736766e-17, 1.0),
    Complex64::new(1.0, 0.0),
    Complex64::new(0.7071067811865476, 0.7071067811865475),
    Complex64::new(2.220446049250313e-16, 1.0),
    Complex64::new(-0.7071067811865474, 0.7071067811865477),
    Complex64::new(1.0, 0.0),
    Complex64::new(0.9238795325112867, 0.3826834323650898),
    Complex64::new(0.7071067811865475, 0.7071067811865476),
    Complex64::new(0.38268343236508967, 0.9238795325112867),
    Complex64::new(-1.1102230246251565e-16, 1.0),
    Complex64::new(-0.3826834323650899, 0.9238795325112867),
    Complex64::new(-0.7071067811865477, 0.7071067811865475),
    Complex64::new(-0.9238795325112868, 0.3826834323650896),
    Complex64::new(1.0, 0.0),
    Complex64::new(0.9807852804032304, 0.19509032201612825),
    Complex64::new(0.9238795325112867, 0.3826834323650897),
    Complex64::new(0.8314696123025452, 0.5555702330196022),
    Complex64::new(0.7071067811865475, 0.7071067811865475),
    Complex64::new(0.5555702330196022, 0.8314696123025451),
    Complex64::new(0.3826834323650897, 0.9238795325112866),
    Complex64::new(0.19509032201612825, 0.9807852804032302),
    Complex64::new(5.551115123125783e-17, 0.9999999999999998),
    Complex64::new(-0.19509032201612814, 0.9807852804032302),
    Complex64::new(-0.38268343236508956, 0.9238795325112865),
    Complex64::new(-0.555570233019602, 0.831469612302545),
    Complex64::new(-0.7071067811865472, 0.7071067811865474),
    Complex64::new(-0.8314696123025449, 0.5555702330196021),
    Complex64::new(-0.9238795325112863, 0.3826834323650896),
    Complex64::new(-0.9807852804032299, 0.1950903220161282),
    Complex64::new(1.0, 0.0),
    Complex64::new(0.9951847266721969, 0.0980171403295606),
    Complex64::new(0.9807852804032305, 0.19509032201612828),
    Complex64::new(0.9569403357322089, 0.2902846772544624),
    Complex64::new(0.9238795325112868, 0.38268343236508984),
    Complex64::new(0.8819212643483552, 0.47139673682599775),
    Complex64::new(0.8314696123025453, 0.5555702330196024),
    Complex64::new(0.7730104533627371, 0.6343932841636457),
    Complex64::new(0.7071067811865477, 0.7071067811865478),
    Complex64::new(0.6343932841636457, 0.7730104533627373),
    Complex64::new(0.5555702330196025, 0.8314696123025456),
    Complex64::new(0.471396736825998, 0.8819212643483554),
    Complex64::new(0.38268343236509006, 0.9238795325112872),
    Complex64::new(0.2902846772544626, 0.9569403357322094),
    Complex64::new(0.19509032201612847, 0.980785280403231),
    Complex64::new(0.09801714032956076, 0.9951847266721975),
    Complex64::new(9.71445146547012e-17, 1.0000000000000007),
    Complex64::new(-0.09801714032956058, 0.9951847266721976),
    Complex64::new(-0.1950903220161283, 0.9807852804032312),
    Complex64::new(-0.2902846772544625, 0.9569403357322096),
    Complex64::new(-0.38268343236509, 0.9238795325112875),
    Complex64::new(-0.471396736825998, 0.8819212643483558),
    Complex64::new(-0.5555702330196026, 0.831469612302546),
    Complex64::new(-0.634393284163646, 0.7730104533627378),
    Complex64::new(-0.7071067811865482, 0.7071067811865482),
    Complex64::new(-0.7730104533627378, 0.6343932841636462),
    Complex64::new(-0.8314696123025461, 0.5555702330196028),
    Complex64::new(-0.881921264348356, 0.47139673682599825),
    Complex64::new(-0.9238795325112878, 0.3826834323650903),
    Complex64::new(-0.95694033573221, 0.2902846772544628),
    Complex64::new(-0.9807852804032317, 0.19509032201612858),
    Complex64::new(-0.9951847266721981, 0.0980171403295608),
];

/// Applies the 64-point bit-reversal permutation in place.
fn bit_reverse_64(data: &mut [Complex64; 64]) {
    for (i, &j) in BITREV_64.iter().enumerate() {
        let j = usize::from(j);
        if i < j {
            data.swap(i, j);
        }
    }
}

/// The six radix-2 stages of a 64-point transform over input already in
/// bit-reversed order, without the inverse `1/64` scaling. Twiddles and
/// butterfly order are those of the generic loop, so the output is
/// bit-identical to it; the fixed size lets every stage run without
/// bounds checks.
#[inline]
pub(crate) fn butterflies_64(data: &mut [Complex64; 64], inverse: bool) {
    let table = if inverse {
        &INV_TWIDDLES_64
    } else {
        &FWD_TWIDDLES_64
    };
    stage_64::<1>(data, table);
    stage_64::<2>(data, table);
    stage_64::<4>(data, table);
    stage_64::<8>(data, table);
    stage_64::<16>(data, table);
    stage_64::<32>(data, table);
}

#[inline(always)]
fn stage_64<const HALF: usize>(data: &mut [Complex64; 64], table: &[Complex64; 63]) {
    let stage = &table[HALF - 1..2 * HALF - 1];
    for chunk in data.chunks_exact_mut(2 * HALF) {
        let (lo, hi) = chunk.split_at_mut(HALF);
        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
            let u = *a;
            let v = *b * w;
            *a = u + v;
            *b = u - v;
        }
    }
}

/// In-place forward FFT.
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] if `data.len()` is zero or not a
/// power of two.
///
/// # Examples
///
/// ```
/// use carpool_phy::fft::fft_in_place;
/// use carpool_phy::math::Complex64;
///
/// # fn main() -> Result<(), carpool_phy::fft::FftError> {
/// let mut x = vec![Complex64::ONE; 8];
/// fft_in_place(&mut x)?;
/// // A constant signal concentrates all energy in bin 0.
/// assert!((x[0].re - 8.0).abs() < 1e-12);
/// assert!(x[1].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn fft_in_place(data: &mut [Complex64]) -> Result<(), FftError> {
    transform(data, false)
}

/// In-place inverse FFT with `1/N` normalisation.
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] if `data.len()` is zero or not a
/// power of two.
pub fn ifft_in_place(data: &mut [Complex64]) -> Result<(), FftError> {
    transform(data, true)
}

/// Out-of-place forward FFT.
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] if the input length is invalid.
pub fn fft(input: &[Complex64]) -> Result<Vec<Complex64>, FftError> {
    let mut out = input.to_vec();
    fft_in_place(&mut out)?;
    Ok(out)
}

/// Out-of-place inverse FFT with `1/N` normalisation.
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] if the input length is invalid.
pub fn ifft(input: &[Complex64]) -> Result<Vec<Complex64>, FftError> {
    let mut out = input.to_vec();
    ifft_in_place(&mut out)?;
    Ok(out)
}

/// Forward FFT of a *real-valued* signal, at roughly half the cost of
/// the complex transform.
///
/// Packs the even/odd samples into a half-size complex sequence, runs
/// one `N/2`-point complex FFT, and untangles the conjugate-symmetric
/// halves. This is the natural kernel for real correlation metrics on
/// the preamble path — e.g. spectra of the Schmidl–Cox timing metric or
/// matched-filter magnitude profiles — where the imaginary part of the
/// input is identically zero and the full complex transform wastes half
/// its butterflies.
///
/// Returns the full `N`-bin spectrum (the upper half is the conjugate
/// mirror of the lower, as for any real input). Results agree with
/// [`fft`] on the zero-padded complex input to floating-point rounding
/// (not bit-exactly: the half-size factorization evaluates a different
/// but mathematically equal expression).
///
/// # Errors
///
/// Returns [`FftError::NotPowerOfTwo`] if `input.len()` is zero, one,
/// or not a power of two (the split-radix step needs `N >= 2`).
pub fn fft_real(input: &[f64]) -> Result<Vec<Complex64>, FftError> {
    let n = input.len();
    if n < 2 || !n.is_power_of_two() {
        return Err(FftError::NotPowerOfTwo { len: n });
    }
    let half = n / 2;
    // Pack even samples into the real lane and odd samples into the
    // imaginary lane of a half-size complex signal.
    let mut packed: Vec<Complex64> = (0..half)
        .map(|k| Complex64::new(input[2 * k], input[2 * k + 1]))
        .collect();
    fft_in_place(&mut packed)?;

    // Untangle: for Z = fft(even + i*odd),
    //   E[k] = (Z[k] + conj(Z[-k])) / 2,  O[k] = (Z[k] - conj(Z[-k])) / 2i,
    //   X[k] = E[k] + w^k O[k],  X[k + N/2] = E[k] - w^k O[k].
    let mut out = vec![Complex64::ZERO; n];
    for k in 0..half {
        let zk = packed[k];
        let zmk = packed[(half - k) % half].conj();
        let e = (zk + zmk).scale(0.5);
        let o_times_i = (zk - zmk).scale(0.5); // i * O[k]
        let o = Complex64::new(o_times_i.im, -o_times_i.re);
        let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
        let w = Complex64::cis(angle);
        let t = w * o;
        out[k] = e + t;
        out[k + half] = e - t;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex64, b: Complex64) {
        assert!(
            (a - b).abs() < 1e-9,
            "expected {b}, got {a} (delta {})",
            (a - b).abs()
        );
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex64::ZERO; 12];
        assert_eq!(
            fft_in_place(&mut x).unwrap_err(),
            FftError::NotPowerOfTwo { len: 12 }
        );
        assert!(ifft(&[]).is_err());
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        fft_in_place(&mut x).unwrap();
        for bin in x {
            assert_close(bin, Complex64::ONE);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let tone = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * std::f64::consts::PI * tone as f64 * t as f64 / n as f64))
            .collect();
        let spec = fft(&x).unwrap();
        for (k, bin) in spec.iter().enumerate() {
            if k == tone {
                assert!((bin.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(bin.abs() < 1e-9, "leakage at bin {k}: {bin}");
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let x: Vec<Complex64> = (0..64)
            .map(|k| Complex64::new((k as f64 * 0.37).sin(), (k as f64 * 0.91).cos()))
            .collect();
        let y = ifft(&fft(&x).unwrap()).unwrap();
        for (a, b) in x.iter().zip(y.iter()) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex64> = (0..32).map(|k| Complex64::new(k as f64, -1.0)).collect();
        let b: Vec<Complex64> = (0..32).map(|k| Complex64::new(0.5, k as f64)).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a).unwrap();
        let fb = fft(&b).unwrap();
        let fsum = fft(&sum).unwrap();
        for k in 0..32 {
            assert_close(fsum[k], fa[k] + fb[k]);
        }
    }

    #[test]
    fn cached_twiddles_are_bit_identical_to_the_recurrence() {
        // The cache must reproduce the butterfly recurrence exactly so
        // printed bench numbers do not move by a ulp.
        for inverse in [false, true] {
            let sign = if inverse { 1.0 } else { -1.0 };
            let table = twiddles(64, inverse).unwrap();
            let mut idx = 0;
            let mut len = 2usize;
            while len <= 64 {
                let angle = sign * 2.0 * std::f64::consts::PI / len as f64;
                let wlen = Complex64::cis(angle);
                let mut w = Complex64::ONE;
                for _ in 0..len / 2 {
                    assert_eq!(table[idx].re.to_bits(), w.re.to_bits());
                    assert_eq!(table[idx].im.to_bits(), w.im.to_bits());
                    idx += 1;
                    w *= wlen;
                }
                len <<= 1;
            }
            assert_eq!(idx, 63);
        }
    }

    #[test]
    fn uncached_sizes_fall_back_to_the_direct_path() {
        let n = 1 << (MAX_CACHED_LOG2 + 1);
        assert!(twiddles(n, false).is_none());
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::ONE;
        fft_in_place(&mut x).unwrap();
        for bin in x.iter().take(8) {
            assert_close(*bin, Complex64::ONE);
        }
    }

    #[test]
    fn cached_bitrev_swaps_match_the_ripple_loop() {
        for log2 in 1..=6 {
            let n = 1usize << log2;
            let cached = bitrev_swaps(n).unwrap();
            assert_eq!(cached, build_bitrev_swaps(n).as_slice());
        }
        assert!(bitrev_swaps(1 << (MAX_CACHED_LOG2 + 1)).is_none());
        assert!(bitrev_swaps(12).is_none());
    }

    #[test]
    fn real_fft_matches_complex_fft() {
        for n in [2usize, 4, 8, 64, 128] {
            let x: Vec<f64> = (0..n).map(|k| (k as f64 * 0.73).sin() + 0.25).collect();
            let complex_in: Vec<Complex64> = x.iter().map(|&r| Complex64::new(r, 0.0)).collect();
            let want = fft(&complex_in).unwrap();
            let got = fft_real(&x).unwrap();
            assert_eq!(got.len(), n);
            for (a, b) in got.iter().zip(want.iter()) {
                assert_close(*a, *b);
            }
        }
    }

    #[test]
    fn real_fft_spectrum_is_conjugate_symmetric() {
        let x: Vec<f64> = (0..64).map(|k| (k as f64 * 1.3).cos()).collect();
        let spec = fft_real(&x).unwrap();
        for k in 1..32 {
            assert_close(spec[64 - k], spec[k].conj());
        }
    }

    #[test]
    fn real_fft_rejects_bad_lengths() {
        assert!(fft_real(&[]).is_err());
        assert!(fft_real(&[1.0]).is_err());
        assert!(fft_real(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: Vec<Complex64> = (0..128)
            .map(|k| Complex64::new((k as f64).sin(), (k as f64 * 2.0).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(|s| s.norm_sqr()).sum();
        let spec = fft(&x).unwrap();
        let freq_energy: f64 = spec.iter().map(|s| s.norm_sqr()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-6);
    }

    #[test]
    fn kernel_twiddles_match_the_recurrence() {
        for (inverse, table) in [(false, &FWD_TWIDDLES_64), (true, &INV_TWIDDLES_64)] {
            let built = build_twiddles(64, if inverse { 1.0 } else { -1.0 });
            assert_eq!(built.len(), table.len());
            for (a, b) in table.iter().zip(&built) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn kernel_is_bit_identical_to_the_generic_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(64);
        let specials = [0.0, -0.0, 1.0, -1.0, 1e-310, -1e300, 0.1];
        for trial in 0..200 {
            let x: Vec<Complex64> = (0..64)
                .map(|k| {
                    if trial % 4 == 0 {
                        // Signed zeros and extremes, where an
                        // algebraically equal shortcut would differ.
                        Complex64::new(specials[k % 7], specials[(k * 3 + trial) % 7])
                    } else {
                        Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
                    }
                })
                .collect();
            for inverse in [false, true] {
                let mut generic = x.clone();
                transform_generic(&mut generic, inverse).unwrap();
                let mut fast = x.clone();
                if inverse {
                    ifft_in_place(&mut fast).unwrap();
                } else {
                    fft_in_place(&mut fast).unwrap();
                }
                for (a, b) in fast.iter().zip(&generic) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "trial {trial}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "trial {trial}");
                }
            }
        }
    }

    #[test]
    fn bitrev_table_matches_the_swap_pairs() {
        for &(i, j) in bitrev_swaps(64).unwrap() {
            assert_eq!(u32::from(BITREV_64[i as usize]), j);
            assert_eq!(u32::from(BITREV_64[j as usize]), i);
        }
    }
}
