//! The 64-point radix-2 decimation-in-time FFT used for OFDM
//! (de)modulation.
//!
//! Every 20 MHz IEEE 802.11a/g/n OFDM symbol has 64 subcarriers, so the
//! transform has exactly one size and its inputs are `[Complex64; 64]`
//! arrays. The bit-reversal permutation and the twiddle factors are
//! compile-time tables; the test module keeps the textbook radix-2 loop
//! as the bit-exact reference they must reproduce, NaN, infinite and
//! signed-zero inputs included; the kernel runs that loop's butterflies
//! in two passes over 8-point blocks held in locals, on 4-lane AVX2
//! vectors where the host has AVX2 and portably elsewhere. Both
//! directions use
//! the engineering convention: the *inverse* transform carries the `1/N`
//! normalisation, so `ifft(&fft(&x)) == x` up to rounding.

use crate::math::Complex64;

/// Inverse-transform normalisation of the 64-point kernel.
pub(crate) const INV_SCALE_64: f64 = 1.0 / 64.0;

/// Bit-reversed position of every 6-bit index: input sample `k` of a
/// 64-point transform enters the butterflies at `BITREV_64[k]`, and the
/// point at position `k` is input sample `BITREV_64[k]`.
const BITREV_64: [u8; 64] = build_bitrev_64();

const fn build_bitrev_64() -> [u8; 64] {
    let mut table = [0u8; 64];
    let mut i = 0u8;
    while i < 64 {
        table[i as usize] = i.reverse_bits() >> 2;
        i += 1;
    }
    table
}

// The 64-point twiddle tables, stage after stage (stage `len` starts at
// `len/2 - 1` and holds `len/2` factors). They are the exact values of
// the radix-2 loop's `cis` recurrence, written out so the kernel needs
// no lookup; `kernel_twiddles_match_the_recurrence` pins them.
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

/// The six radix-2 stages of a 64-point transform of `input`, given in
/// natural order, without the inverse `1/64` scaling.
/// Twiddles and butterflies are those of the textbook radix-2 loop, so
/// the output is bit-identical to it: each butterfly reads only its own
/// two inputs, so the order they run in changes nothing.
///
/// The stages run as two passes of eight 8-point blocks, each block
/// loaded into locals, put through three stages and stored back, so
/// that every point is loaded and stored twice instead of six times.
/// The first pass loads every point from its bit-reversed position in
/// `input` ([`BITREV_64`]), so no separate permutation runs. Stages 1, 2
/// and 4 pair points at most 4 apart and never leave a group of 8
/// consecutive (bit-reversed) points; stages 8, 16 and 32 pair points
/// 8, 16 and 32 apart, so they never leave a column
/// `j, j + 8, ..., j + 56`.
///
/// Two kernels run these passes, picked per call by run-time CPU
/// detection like the Viterbi ACS loop: an AVX2 kernel on x86-64 hosts
/// that have AVX2, and the portable one everywhere else.
#[inline]
pub(crate) fn butterflies_64(input: &[Complex64; 64], inverse: bool) -> [Complex64; 64] {
    let t = if inverse {
        &INV_TWIDDLES_64
    } else {
        &FWD_TWIDDLES_64
    };
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        #[expect(
            unsafe_code,
            reason = "the AVX2 FFT kernel's entry after run-time detection"
        )]
        // SAFETY: the only precondition of calling a
        // `#[target_feature(enable = "avx2")]` fn is that the CPU supports
        // AVX2, which `is_x86_feature_detected!` confirmed just above.
        let out = unsafe { butterflies_64_avx2(input, t) };
        return out;
    }
    butterflies_64_portable(input, t)
}

/// Input position of the point at bit-reversed position `k`.
const fn reversed(k: usize) -> usize {
    BITREV_64[k] as usize
}

/// The portable kernel of [`butterflies_64`], one block at a time.
fn butterflies_64_portable(input: &[Complex64; 64], t: &[Complex64; 63]) -> [Complex64; 64] {
    // Stage `half` starts at entry `half - 1` of the table; within a
    // group, local index `i` has position `i` in its butterfly span.
    let inner = ([t[0]], [t[1], t[2]], [t[3], t[4], t[5], t[6]]);
    let mut out = [Complex64::ZERO; 64];
    for (g, group) in out.as_chunks_mut::<8>().0.iter_mut().enumerate() {
        *group = std::array::from_fn(|i| input[reversed(8 * g + i)]);
        radix2_cubed(group, inner.0, inner.1, inner.2);
    }
    for j in 0..8 {
        // In column `j`, local index `m` is point `j + 8m`: its position
        // in a span of 16 is `j + 8 (m % 2)`, in a span of 32
        // `j + 8 (m % 4)` and in the span of 64 `j + 8m`.
        let mut column: [Complex64; 8] = std::array::from_fn(|m| out[j + 8 * m]);
        radix2_cubed(
            &mut column,
            [t[7 + j]],
            [t[15 + j], t[23 + j]],
            [t[31 + j], t[39 + j], t[47 + j], t[55 + j]],
        );
        for (m, &x) in column.iter().enumerate() {
            out[j + 8 * m] = x;
        }
    }
    out
}

/// [`butterflies_64_portable`] on 4-lane AVX2 `f64` vectors, two complex
/// points per vector, bit-identical to it. The first pass takes the
/// 8-point groups two at a time, vector `i` holding local point `i` of
/// both, so each stage's twiddle is one broadcast; the second takes the
/// columns two at a time, vector `m` holding the adjacent points
/// `j + 8m` and `j + 1 + 8m`, whose twiddles sit side by side in the
/// table. Every butterfly computes what the portable one does: the
/// complex product is `movedup`/`permute` + `mul` + `addsub`, whose
/// imaginary lane adds the same two products in the other order (`f64`
/// addition commutes bit for bit), with no fused multiply-add. Only
/// register intrinsics are used, so the body needs no `unsafe`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn butterflies_64_avx2(input: &[Complex64; 64], t: &[Complex64; 63]) -> [Complex64; 64] {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd,
        _mm256_movedup_pd, _mm256_mul_pd, _mm256_permute_pd, _mm256_setr_pd, _mm256_sub_pd,
        _mm_cvtsd_f64, _mm_unpackhi_pd,
    };

    /// A twiddle pair as its real parts and its imaginary parts, each
    /// duplicated across its point's two lanes.
    #[derive(Clone, Copy)]
    struct Twiddle {
        re: __m256d,
        im: __m256d,
    }

    #[target_feature(enable = "avx2")]
    fn pack(lo: Complex64, hi: Complex64) -> __m256d {
        _mm256_setr_pd(lo.re, lo.im, hi.re, hi.im)
    }

    #[target_feature(enable = "avx2")]
    fn unpack(v: __m256d) -> (Complex64, Complex64) {
        let complex = |half| {
            Complex64::new(
                _mm_cvtsd_f64(half),
                _mm_cvtsd_f64(_mm_unpackhi_pd(half, half)),
            )
        };
        (
            complex(_mm256_castpd256_pd128(v)),
            complex(_mm256_extractf128_pd::<1>(v)),
        )
    }

    #[target_feature(enable = "avx2")]
    fn twiddle(lo: Complex64, hi: Complex64) -> Twiddle {
        let w = pack(lo, hi);
        Twiddle {
            re: _mm256_movedup_pd(w),
            im: _mm256_permute_pd::<0b1111>(w),
        }
    }

    /// `(a, b) <- (a + b w, a - b w)` on both points of the vectors.
    #[target_feature(enable = "avx2")]
    fn butterfly(y: &mut [__m256d; 8], a: usize, b: usize, w: Twiddle) {
        let swapped = _mm256_permute_pd::<0b0101>(y[b]);
        let v = _mm256_addsub_pd(_mm256_mul_pd(y[b], w.re), _mm256_mul_pd(swapped, w.im));
        let u = y[a];
        y[a] = _mm256_add_pd(u, v);
        y[b] = _mm256_sub_pd(u, v);
    }

    /// [`radix2_cubed`] on vectors.
    #[target_feature(enable = "avx2")]
    fn radix2_cubed(y: &mut [__m256d; 8], w1: Twiddle, w2: [Twiddle; 2], w4: [Twiddle; 4]) {
        for base in [0, 2, 4, 6] {
            butterfly(y, base, base + 1, w1);
        }
        for base in [0, 4] {
            for (k, &w) in w2.iter().enumerate() {
                butterfly(y, base + k, base + k + 2, w);
            }
        }
        for (k, &w) in w4.iter().enumerate() {
            butterfly(y, k, k + 4, w);
        }
    }

    /// Groups `G / 8` and `G / 8 + 1` through stages 1, 2 and 4: vector
    /// `i` holds bit-reversed points `G + i` and `G + 8 + i`, loaded from
    /// their input positions. `G` is a constant, so every index is.
    #[target_feature(enable = "avx2")]
    fn group_pair<const G: usize>(
        input: &[Complex64; 64],
        out: &mut [Complex64; 64],
        w1: Twiddle,
        w2: [Twiddle; 2],
        w4: [Twiddle; 4],
    ) {
        let mut y: [__m256d; 8] =
            std::array::from_fn(|i| pack(input[reversed(G + i)], input[reversed(G + 8 + i)]));
        radix2_cubed(&mut y, w1, w2, w4);
        for (i, &v) in y.iter().enumerate() {
            (out[G + i], out[G + 8 + i]) = unpack(v);
        }
    }

    /// Columns `J` and `J + 1` through stages 8, 16 and 32: vector `m`
    /// holds points `J + 8m` and `J + 1 + 8m`, whose twiddles are
    /// neighbours in the table. `J` is a constant, so every index is.
    #[target_feature(enable = "avx2")]
    fn column_pair<const J: usize>(data: &mut [Complex64; 64], t: &[Complex64; 63]) {
        let pair = |k: usize| twiddle(t[k + J], t[k + J + 1]);
        let mut y: [__m256d; 8] =
            std::array::from_fn(|m| pack(data[J + 8 * m], data[J + 1 + 8 * m]));
        radix2_cubed(
            &mut y,
            pair(7),
            [pair(15), pair(23)],
            [pair(31), pair(39), pair(47), pair(55)],
        );
        for (m, &v) in y.iter().enumerate() {
            (data[J + 8 * m], data[J + 1 + 8 * m]) = unpack(v);
        }
    }

    let broadcast = |k: usize| twiddle(t[k], t[k]);
    let (w1, w2, w4) = (
        broadcast(0),
        [broadcast(1), broadcast(2)],
        [broadcast(3), broadcast(4), broadcast(5), broadcast(6)],
    );
    let mut out = [Complex64::ZERO; 64];
    group_pair::<0>(input, &mut out, w1, w2, w4);
    group_pair::<16>(input, &mut out, w1, w2, w4);
    group_pair::<32>(input, &mut out, w1, w2, w4);
    group_pair::<48>(input, &mut out, w1, w2, w4);
    column_pair::<0>(&mut out, t);
    column_pair::<2>(&mut out, t);
    column_pair::<4>(&mut out, t);
    column_pair::<6>(&mut out, t);
    out
}

/// Three radix-2 stages over 8 points held in locals: pairs 1, 2 and 4
/// apart, the `k`-th butterfly of each span taking twiddle `w[k]`.
#[inline(always)]
fn radix2_cubed(
    x: &mut [Complex64; 8],
    w1: [Complex64; 1],
    w2: [Complex64; 2],
    w4: [Complex64; 4],
) {
    let mut y = *x;
    for base in [0, 2, 4, 6] {
        butterfly(&mut y, base, base + 1, w1[0]);
    }
    for base in [0, 4] {
        for (k, &w) in w2.iter().enumerate() {
            butterfly(&mut y, base + k, base + k + 2, w);
        }
    }
    for (k, &w) in w4.iter().enumerate() {
        butterfly(&mut y, k, k + 4, w);
    }
    *x = y;
}

/// One radix-2 butterfly: `(a, b) <- (a + b w, a - b w)`.
#[inline(always)]
fn butterfly(x: &mut [Complex64; 8], a: usize, b: usize, w: Complex64) {
    let u = x[a];
    let v = x[b] * w;
    x[a] = u + v;
    x[b] = u - v;
}

/// In-place forward FFT.
///
/// # Examples
///
/// ```
/// use carpool_phy::fft::fft_in_place;
/// use carpool_phy::math::Complex64;
///
/// let mut x = [Complex64::ONE; 64];
/// fft_in_place(&mut x);
/// // A constant signal concentrates all energy in bin 0.
/// assert!((x[0].re - 64.0).abs() < 1e-12);
/// assert!(x[1].abs() < 1e-12);
/// ```
pub fn fft_in_place(data: &mut [Complex64; 64]) {
    *data = butterflies_64(data, false);
}

/// In-place inverse FFT with `1/N` normalisation.
pub fn ifft_in_place(data: &mut [Complex64; 64]) {
    *data = butterflies_64(data, true);
    for x in data.iter_mut() {
        *x = x.scale(INV_SCALE_64);
    }
}

/// Out-of-place forward FFT.
pub fn fft(input: &[Complex64; 64]) -> [Complex64; 64] {
    butterflies_64(input, false)
}

/// Out-of-place inverse FFT with `1/N` normalisation.
pub fn ifft(input: &[Complex64; 64]) -> [Complex64; 64] {
    let mut out = *input;
    ifft_in_place(&mut out);
    out
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

    /// The textbook radix-2 loop for any power-of-two size: carry-ripple
    /// bit reversal, then each stage's twiddles by the multiplicative
    /// `cis` recurrence, then the inverse `1/n` scaling. The kernel's
    /// tables and butterfly order must reproduce it bit for bit.
    fn reference_transform(data: &mut [Complex64], inverse: bool) {
        let n = data.len();
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
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let wlen = Complex64::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
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
        if inverse {
            let scale = 1.0 / n as f64;
            for x in data.iter_mut() {
                *x = x.scale(scale);
            }
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = [Complex64::ZERO; 64];
        x[0] = Complex64::ONE;
        fft_in_place(&mut x);
        for bin in x {
            assert_close(bin, Complex64::ONE);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let tone = 5;
        let x: [Complex64; 64] = std::array::from_fn(|t| {
            Complex64::cis(2.0 * std::f64::consts::PI * tone as f64 * t as f64 / n as f64)
        });
        let spec = fft(&x);
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
        let x: [Complex64; 64] = std::array::from_fn(|k| {
            Complex64::new((k as f64 * 0.37).sin(), (k as f64 * 0.91).cos())
        });
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(y.iter()) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn linearity() {
        let a: [Complex64; 64] = std::array::from_fn(|k| Complex64::new(k as f64, -1.0));
        let b: [Complex64; 64] = std::array::from_fn(|k| Complex64::new(0.5, k as f64));
        let sum: [Complex64; 64] = std::array::from_fn(|k| a[k] + b[k]);
        let (fa, fb, fsum) = (fft(&a), fft(&b), fft(&sum));
        for k in 0..64 {
            assert_close(fsum[k], fa[k] + fb[k]);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: [Complex64; 64] =
            std::array::from_fn(|k| Complex64::new((k as f64).sin(), (k as f64 * 2.0).cos()));
        let time_energy: f64 = x.iter().map(|s| s.norm_sqr()).sum();
        let freq_energy: f64 = fft(&x).iter().map(|s| s.norm_sqr()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-6);
    }

    #[test]
    fn kernel_twiddles_match_the_recurrence() {
        for (inverse, table) in [(false, &FWD_TWIDDLES_64), (true, &INV_TWIDDLES_64)] {
            let sign = if inverse { 1.0 } else { -1.0 };
            let mut idx = 0;
            let mut len = 2usize;
            while len <= 64 {
                let wlen = Complex64::cis(sign * 2.0 * std::f64::consts::PI / len as f64);
                let mut w = Complex64::ONE;
                for _ in 0..len / 2 {
                    assert_eq!(table[idx].re.to_bits(), w.re.to_bits(), "entry {idx}");
                    assert_eq!(table[idx].im.to_bits(), w.im.to_bits(), "entry {idx}");
                    idx += 1;
                    w *= wlen;
                }
                len <<= 1;
            }
            assert_eq!(idx, table.len());
        }
    }

    #[test]
    fn kernel_is_bit_identical_to_the_generic_loop() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(64);
        let specials = [0.0, -0.0, 1.0, -1.0, 1e-310, -1e300, 0.1];
        let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        // NaN payloads and signs are unspecified by Rust's float
        // semantics, so a NaN matches any NaN; every other value must
        // match bit for bit.
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        for trial in 0..240 {
            let x: [Complex64; 64] = std::array::from_fn(|k| {
                if trial % 4 == 0 {
                    // Signed zeros and extremes, where an
                    // algebraically equal shortcut would differ.
                    Complex64::new(specials[k % 7], specials[(k * 3 + trial) % 7])
                } else if trial % 8 == 1 && k % (trial % 13 + 5) == 0 {
                    // A few NaN and infinite samples among ordinary ones.
                    Complex64::new(non_finite[k % 3], rng.gen::<f64>() - 0.5)
                } else if trial % 8 == 5 {
                    // Signed zeros alone: every sum and product is a
                    // zero whose sign a reordered or fused step would
                    // change.
                    let zero = |negative: bool| if negative { -0.0 } else { 0.0 };
                    Complex64::new(zero(rng.gen::<f64>() < 0.5), zero(rng.gen::<f64>() < 0.5))
                } else if trial % 8 == 3 && k == trial % 64 {
                    // One infinite imaginary part: its NaNs spread
                    // through the stages from a single input.
                    Complex64::new(rng.gen::<f64>() - 0.5, non_finite[1 + trial % 2])
                } else {
                    Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
                }
            });
            for inverse in [false, true] {
                let mut generic = x;
                reference_transform(&mut generic, inverse);
                let t = if inverse {
                    &INV_TWIDDLES_64
                } else {
                    &FWD_TWIDDLES_64
                };
                let scaled = |mut y: [Complex64; 64]| {
                    if inverse {
                        y = y.map(|z| z.scale(INV_SCALE_64));
                    }
                    y
                };
                // `butterflies_64` runs the AVX2 kernel where the host
                // has AVX2; elsewhere both rows check the portable one.
                let kernels = [
                    scaled(butterflies_64_portable(&x, t)),
                    scaled(butterflies_64(&x, inverse)),
                    if inverse { ifft(&x) } else { fft(&x) },
                ];
                for (kernel, out) in kernels.iter().enumerate() {
                    for (a, b) in out.iter().zip(&generic) {
                        assert!(
                            same(a.re, b.re),
                            "trial {trial} kernel {kernel}: {a} vs {b}"
                        );
                        assert!(
                            same(a.im, b.im),
                            "trial {trial} kernel {kernel}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }
}
