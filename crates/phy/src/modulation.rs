//! Gray-coded constellation mapping for BPSK, QPSK, 16-QAM and 64-QAM.
//!
//! Mappings follow IEEE 802.11-2012 Table 18-8..18-11: per-axis Gray
//! coding with normalisation factors `1`, `1/sqrt(2)`, `1/sqrt(10)` and
//! `1/sqrt(42)` so every constellation has unit average power. Demapping
//! is hard-decision minimum-distance, implemented per axis (which is
//! exact for these square constellations).
//!
//! Two parts of the receive and transmit hot paths live here, both held
//! bit for bit to plain references by the unit tests:
//!
//! - The QAM16/QAM64 slicer of [`Modulation::demap_all`] decides a whole
//!   OFDM symbol's 96 axis values array-wise, without a branch per lane,
//!   and falls back to a per-lane walk only when some lane sits on a
//!   rounding tie. Every lane gets what a scan over all levels keeping
//!   the first strict minimum would give, NaN and infinities included.
//! - A process-wide per-label table holds every constellation point with
//!   its reciprocal and energy, built once from [`Modulation::map`]. The
//!   transmitter maps through it, and RTE reads its data pilots from it.

use std::sync::OnceLock;

use crate::math::Complex64;
use crate::ofdm::{Carriers, NUM_DATA};

/// Modulation scheme of a data subcarrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Modulation {
    /// Binary phase shift keying, 1 bit/subcarrier.
    #[default]
    Bpsk,
    /// Quadrature phase shift keying, 2 bits/subcarrier.
    Qpsk,
    /// 16-ary quadrature amplitude modulation, 4 bits/subcarrier.
    Qam16,
    /// 64-ary quadrature amplitude modulation, 6 bits/subcarrier.
    Qam64,
}

impl Modulation {
    /// All modulations, in increasing order.
    pub const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    /// Bits carried per subcarrier.
    pub fn bits_per_symbol(&self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Normalisation factor K_MOD (IEEE 802.11-2012 17.3.5.8).
    pub(crate) fn normalization(&self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        }
    }

    /// Per-axis Gray map: bits -> unnormalised PAM level. Only the
    /// least significant bit of each entry is read.
    fn axis_level(&self, bits: &[u8]) -> f64 {
        let label = bits
            .iter()
            .fold(0, |label, &bit| label << 1 | usize::from(bit & 1));
        self.label_levels()[label]
    }

    /// Unnormalised PAM level of each per-axis Gray label (the label's
    /// bits read as a binary number, first bit most significant), per
    /// IEEE 802.11-2012 Table 18-8..18-11.
    fn label_levels(&self) -> &'static [f64] {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => &[-1.0, 1.0],
            Modulation::Qam16 => &[-3.0, -1.0, 3.0, 1.0],
            Modulation::Qam64 => &[-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0],
        }
    }

    /// Every constellation point with its [`Complex64::inv`] and
    /// [`Complex64::norm_sqr`], indexed by the point's bits read as a
    /// binary number (first bit most significant): entry `l` holds what
    /// [`Modulation::map`] returns for the bits of `l`, bit for bit.
    /// Entries from `1 << bits_per_symbol()` on are zero and unused.
    /// The transmitter maps a subcarrier with one lookup, and RTE reads
    /// a decided data pilot and the reciprocal it divides by the same
    /// way. The tables are built once per process.
    pub(crate) fn label_points(&self) -> &'static [LabelPoint; 64] {
        static TABLES: OnceLock<[[LabelPoint; 64]; 4]> = OnceLock::new();
        let tables = TABLES.get_or_init(|| Modulation::ALL.map(|m| m.build_label_points()));
        &tables[*self as usize]
    }

    fn build_label_points(self) -> [LabelPoint; 64] {
        let bps = self.bits_per_symbol();
        let mut table = [LabelPoint::default(); 64];
        let mut bits = [0u8; 6];
        for (label, entry) in (0u8..).zip(table.iter_mut().take(1 << bps)) {
            for (k, bit) in bits[..bps].iter_mut().enumerate() {
                *bit = (label >> (bps - 1 - k)) & 1;
            }
            let point = self.map(&bits[..bps]);
            *entry = LabelPoint {
                point,
                inv: point.inv(),
                norm_sqr: point.norm_sqr(),
            };
        }
        table
    }

    /// Maps a group of [`Modulation::bits_per_symbol`] bits to one
    /// constellation point with unit average power.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has the wrong length or contains non-binary values.
    ///
    /// # Examples
    ///
    /// ```
    /// use carpool_phy::modulation::Modulation;
    /// let point = Modulation::Bpsk.map(&[1]);
    /// assert_eq!(point.re, 1.0);
    /// assert_eq!(point.im, 0.0);
    /// ```
    pub fn map(&self, bits: &[u8]) -> Complex64 {
        assert_eq!(
            bits.len(),
            self.bits_per_symbol(),
            "expected {} bits for {:?}",
            self.bits_per_symbol(),
            self
        );
        assert!(bits.iter().all(|&b| b <= 1), "non-binary bit value");
        let k = self.normalization();
        if *self == Modulation::Bpsk {
            return Complex64::new(self.axis_level(bits) * k, 0.0);
        }
        let (re, im) = bits.split_at(bits.len() / 2);
        Complex64::new(self.axis_level(re) * k, self.axis_level(im) * k)
    }

    /// Maps a full bit slice to constellation points.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of the bits per symbol.
    pub fn map_all(&self, bits: &[u8]) -> Vec<Complex64> {
        let bps = self.bits_per_symbol();
        assert_eq!(bits.len() % bps, 0, "bit count not a multiple of {bps}");
        bits.chunks(bps).map(|c| self.map(c)).collect()
    }

    /// Hard-decision demapping of equalised constellation points, each to
    /// its [`Modulation::bits_per_symbol`] Gray-label bits.
    pub fn demap_all(&self, points: &[Complex64]) -> Vec<u8> {
        let bps = self.bits_per_symbol();
        let mut out = vec![0u8; points.len() * bps];
        for (symbol, bits) in points.chunks(NUM_DATA).zip(out.chunks_mut(NUM_DATA * bps)) {
            let mut lanes = Carriers::splat(Complex64::ZERO);
            for (i, &p) in symbol.iter().enumerate() {
                lanes.set(i, p);
            }
            let len = symbol.len();
            self.demap_lanes(&lanes.re[..len], &lanes.im[..len], bits);
        }
        out
    }

    /// [`Modulation::demap_all`] of one symbol's data carriers, into
    /// `out` (`48 * bits_per_symbol()` bits).
    pub(crate) fn demap_carriers(&self, points: &Carriers, out: &mut [u8]) {
        self.demap_lanes(&points.re, &points.im, out);
    }

    /// Hard decisions of up to one symbol's points, given as their real
    /// parts `re` and imaginary parts `im`.
    ///
    /// BPSK and QPSK decide on the sign of `coordinate / k`. Their `k`
    /// (1 and 1/√2) lies in `(0, 1]`, and dividing by such a `k` keeps
    /// every sign, zeros and infinities included, without underflowing to
    /// zero, so `coordinate / k >= 0.0` is `coordinate >= 0.0` and they
    /// need no division.
    fn demap_lanes(&self, re: &[f64], im: &[f64], out: &mut [u8]) {
        let k = self.normalization();
        match self {
            Modulation::Bpsk => {
                for (bit, &re) in out.iter_mut().zip(re) {
                    *bit = u8::from(re >= 0.0);
                }
            }
            Modulation::Qpsk => {
                for (bits, (&re, &im)) in out.chunks_exact_mut(2).zip(re.iter().zip(im)) {
                    bits[0] = u8::from(re >= 0.0);
                    bits[1] = u8::from(im >= 0.0);
                }
            }
            Modulation::Qam16 => slice_qam::<4, 2>(re, im, k, self.axis_levels(), out),
            Modulation::Qam64 => slice_qam::<8, 3>(re, im, k, self.axis_levels(), out),
        }
    }

    /// Per-axis PAM levels of this constellation (unnormalised).
    fn axis_levels(&self) -> &'static [f64] {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => &[-1.0, 1.0],
            Modulation::Qam16 => &[-3.0, -1.0, 1.0, 3.0],
            Modulation::Qam64 => &[-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0],
        }
    }

    /// Max-log soft demapping of one axis coordinate into per-bit LLRs,
    /// written to a pre-sized slice (one slot per axis bit).
    ///
    /// Convention: positive LLR favours bit value 1. `noise_var` is the
    /// per-axis Gaussian noise variance after equalisation.
    fn axis_llrs_slice(&self, level: f64, noise_var: f64, out: &mut [f64]) {
        let levels = self.axis_levels();
        let inv = 1.0 / (2.0 * noise_var.max(1e-12));
        // Label bits run most significant first.
        for (shift, slot) in (0..out.len()).rev().zip(out.iter_mut()) {
            let mut best0 = f64::INFINITY;
            let mut best1 = f64::INFINITY;
            for (idx, &l) in levels.iter().enumerate() {
                let d = (level - l) * (level - l);
                if (gray(idx) >> shift) & 1 == 0 {
                    best0 = best0.min(d);
                } else {
                    best1 = best1.min(d);
                }
            }
            *slot = (best0 - best1) * inv;
        }
    }

    /// Max-log LLR demapping of one equalised constellation point into a
    /// pre-sized slice of exactly [`Modulation::bits_per_symbol`] slots,
    /// in the same bit order as [`Modulation::demap_all`]; positive
    /// favours 1. `noise_var` is the total complex noise variance (split
    /// evenly between axes). The fused RX pipeline demaps every point of
    /// a symbol into one section-sized buffer this way.
    pub(crate) fn demap_soft_slice(&self, point: Complex64, noise_var: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.bits_per_symbol());
        let k = self.normalization();
        let re = point.re / k;
        let im = point.im / k;
        // Normalising the point by K scales the noise by 1/K^2.
        let axis_var = noise_var / (2.0 * k * k);
        match self {
            Modulation::Bpsk => self.axis_llrs_slice(re, axis_var, out),
            Modulation::Qpsk | Modulation::Qam16 | Modulation::Qam64 => {
                let (lo, hi) = out.split_at_mut(out.len() / 2);
                self.axis_llrs_slice(re, axis_var, lo);
                self.axis_llrs_slice(im, axis_var, hi);
            }
        }
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "QAM16",
            Modulation::Qam64 => "QAM64",
        };
        f.write_str(name)
    }
}

/// The label of a point's bits, read as a binary number with the first
/// bit most significant: its index into [`Modulation::label_points`].
pub(crate) fn label(bits: &[u8]) -> usize {
    bits.iter()
        .fold(0usize, |acc, &b| (acc << 1) | usize::from(b))
}

/// Gray label of the PAM level with ascending index `idx`.
const fn gray(idx: usize) -> usize {
    idx ^ (idx >> 1)
}

/// One entry of [`Modulation::label_points`]: a constellation point,
/// its reciprocal and its energy, each bit for bit what
/// [`Complex64::inv`] and [`Complex64::norm_sqr`] return for it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct LabelPoint {
    pub(crate) point: Complex64,
    pub(crate) inv: Complex64,
    pub(crate) norm_sqr: f64,
}

/// Hard decisions of a square QAM with `N` levels (`B` label bits) per
/// axis, ascending in `levels`, for the points with real parts `re` and
/// imaginary parts `im` (one OFDM symbol at most), written to `out` as
/// [`Modulation::demap_all`] lays them out: each point's real-axis label
/// bits, then its imaginary-axis ones. Each axis value's label bits are
/// copied from a per-level table.
fn slice_qam<const N: usize, const B: usize>(
    re: &[f64],
    im: &[f64],
    k: f64,
    levels: &[f64],
    out: &mut [u8],
) {
    let table = const { level_bits::<N, B>() };
    let re_index = level_indices::<N>(re, k, levels);
    let im_index = level_indices::<N>(im, k, levels);
    for (bits, (&jr, &ji)) in out
        .chunks_exact_mut(2 * B)
        .zip(re_index.iter().zip(&im_index))
    {
        let (re_bits, im_bits) = bits.split_at_mut(B);
        #[expect(clippy::cast_sign_loss, reason = "a level index in 0..N")]
        let (jr, ji) = (jr as usize, ji as usize);
        re_bits.copy_from_slice(&table[jr]);
        im_bits.copy_from_slice(&table[ji]);
    }
}

/// Gray label bits of each level index of an `N`-level axis, first bit
/// most significant: row `j` holds the `B` bits of `gray(j)`.
const fn level_bits<const N: usize, const B: usize>() -> [[u8; B]; N] {
    let mut table = [[0u8; B]; N];
    let mut j = 0;
    while j < N {
        let mut b = 0;
        while b < B {
            table[j][b] = if (gray(j) >> (B - 1 - b)) & 1 == 1 {
                1
            } else {
                0
            };
            b += 1;
        }
        j += 1;
    }
    table
}

/// Level index of each axis coordinate of an `N`-level axis (up to one
/// symbol's worth, in `coords`; the slots past them are unused).
///
/// Each lane must return the first of the ascending levels at the least
/// rounded distance `|v - level|`, where `v = coordinate / k` (what a
/// scan keeping the first strict minimum returns). The slicer clamps
/// each `v` into `±(N - 0.5)` and truncates `(v + N) / 2` to a level
/// index `j`: the number of thresholds (`2i - N`) strictly below `v`, or
/// one more when the sum rounds up onto a threshold. Either way the
/// exact answer is `j` unless the level left of it is at least as near
/// in rounded arithmetic, the condition of a walk left. That condition
/// is checked for every lane at once; only when some lane meets it (a
/// rounding tie, a value on a threshold, `+inf` or a huge magnitude,
/// whose distances all round alike) does the walk run, lane by lane. A
/// NaN lane truncates to index 0, as the scan leaves it, and never ties.
fn level_indices<const N: usize>(coords: &[f64], k: f64, levels: &[f64]) -> [i32; NUM_DATA] {
    let n = N as f64;
    let top = n - 0.5;
    let lanes = coords.len();
    let mut axis = [0.0f64; NUM_DATA];
    for (v, &c) in axis.iter_mut().zip(coords) {
        *v = c / k;
    }
    // Branch-free, so that the loop vectorizes and a lane's level
    // index costs no misprediction.
    let mut index = [0i32; NUM_DATA];
    let mut tie = false;
    for (j, &v) in index.iter_mut().zip(&axis) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "clamped into [0.25, N - 0.25], or NaN, which casts to 0"
        )]
        let t = ((v.clamp(-top, top) + n) * 0.5) as i32;
        let level = f64::from(2 * t) - (n - 1.0);
        tie |= (t > 0) & ((v - (level - 2.0)).abs() <= (v - level).abs());
        *j = t;
    }
    if tie {
        walk_left(&axis[..lanes], &mut index[..lanes], levels);
    }
    index
}

/// The cold path of [`level_indices`]: moves each lane's level index left
/// while the level left of it is at least as near to the lane's value.
#[cold]
fn walk_left(axis: &[f64], index: &mut [i32], levels: &[f64]) {
    for (j, &v) in index.iter_mut().zip(axis) {
        #[expect(clippy::cast_sign_loss, reason = "a level index in 0..N")]
        let distance = |i: i32| (v - levels[i as usize]).abs();
        while *j > 0 && distance(*j - 1) <= distance(*j) {
            *j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_bit_patterns(width: usize) -> Vec<Vec<u8>> {
        (0..(1usize << width))
            .map(|v| (0..width).map(|k| u8::from((v >> k) & 1 == 1)).collect())
            .collect()
    }

    #[test]
    fn map_demap_round_trip_all_points() {
        for m in Modulation::ALL {
            for bits in all_bit_patterns(m.bits_per_symbol()) {
                let p = m.map(&bits);
                assert_eq!(m.demap_all(&[p]), bits, "{m} bits {bits:?}");
            }
        }
    }

    #[test]
    fn constellations_have_unit_average_power() {
        for m in Modulation::ALL {
            let pats = all_bit_patterns(m.bits_per_symbol());
            let avg: f64 =
                pats.iter().map(|b| m.map(b).norm_sqr()).sum::<f64>() / pats.len() as f64;
            assert!((avg - 1.0).abs() < 1e-12, "{m}: avg power {avg}");
        }
    }

    #[test]
    fn gray_coding_adjacent_points_differ_by_one_bit() {
        // Along the I axis of QAM16, adjacent levels must differ in 1 bit.
        let m = Modulation::Qam16;
        let pats = all_bit_patterns(4);
        let mut by_level: Vec<(f64, Vec<u8>)> = pats
            .iter()
            .map(|b| (m.map(b).re, b.clone()))
            .filter(|(_, b)| b[2] == 0 && b[3] == 0) // fix Q axis
            .collect();
        by_level.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in by_level.windows(2) {
            let d: usize = w[0].1.iter().zip(&w[1].1).filter(|(x, y)| x != y).count();
            assert_eq!(d, 1, "levels {} and {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn demap_is_robust_to_small_noise() {
        for m in Modulation::ALL {
            // Adjacent points sit two normalised units apart.
            let margin = 2.0 * m.normalization() * 0.45;
            for bits in all_bit_patterns(m.bits_per_symbol()) {
                let p = m.map(&bits) + Complex64::new(margin / 2.0, -margin / 2.0);
                assert_eq!(m.demap_all(&[p]), bits, "{m}");
            }
        }
    }

    #[test]
    fn map_all_demap_all_round_trip() {
        let m = Modulation::Qam64;
        let bits: Vec<u8> = (0..6 * 48).map(|k| ((k * 7 + 3) % 5 == 0) as u8).collect();
        let pts = m.map_all(&bits);
        assert_eq!(pts.len(), 48);
        assert_eq!(m.demap_all(&pts), bits);
    }

    #[test]
    #[should_panic(expected = "expected 2 bits")]
    fn wrong_bit_count_panics() {
        Modulation::Qpsk.map(&[1]);
    }

    #[test]
    fn soft_demap_signs_agree_with_hard_demap() {
        for m in Modulation::ALL {
            let bps = m.bits_per_symbol();
            for bits in all_bit_patterns(bps) {
                let p = m.map(&bits) + Complex64::new(0.07, -0.11);
                let mut llrs = vec![0.0; bps];
                m.demap_soft_slice(p, 0.3, &mut llrs);
                let signs: Vec<u8> = llrs.iter().map(|&l| u8::from(l > 0.0)).collect();
                assert_eq!(signs, m.demap_all(&[p]), "{m} bits {bits:?}");
            }
        }
    }

    #[test]
    fn bpsk_points_are_real() {
        assert_eq!(Modulation::Bpsk.map(&[0]), Complex64::new(-1.0, 0.0));
        assert_eq!(Modulation::Bpsk.map(&[1]), Complex64::new(1.0, 0.0));
    }

    #[test]
    fn display_names() {
        assert_eq!(Modulation::Qam64.to_string(), "QAM64");
    }

    /// Reference slicer: a scan over every level keeping the first
    /// strict minimum of `|v - l|`.
    fn scan_nearest_level(value: f64, levels: &[f64]) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (k, &l) in levels.iter().enumerate() {
            let d = (value - l).abs();
            if d < best_d {
                best_d = d;
                best = k;
            }
        }
        best
    }

    /// Reference hard demap: per axis, the scan above and an explicit
    /// Gray label table (`>= 0` for BPSK and QPSK).
    fn oracle_demap(m: Modulation, points: &[Complex64]) -> Vec<u8> {
        oracle_demap_by(m, points, m.normalization())
    }

    /// [`oracle_demap`] with the axis values `coordinate / k`.
    fn oracle_demap_by(m: Modulation, points: &[Complex64], k: f64) -> Vec<u8> {
        const Q16: [[u8; 2]; 4] = [[0, 0], [0, 1], [1, 1], [1, 0]];
        const Q64: [[u8; 3]; 8] = [
            [0, 0, 0],
            [0, 0, 1],
            [0, 1, 1],
            [0, 1, 0],
            [1, 1, 0],
            [1, 1, 1],
            [1, 0, 1],
            [1, 0, 0],
        ];
        let mut out = Vec::new();
        let mut axis = |v: f64| match m {
            Modulation::Bpsk | Modulation::Qpsk => out.push(u8::from(v >= 0.0)),
            Modulation::Qam16 => out.extend(Q16[scan_nearest_level(v, m.axis_levels())]),
            Modulation::Qam64 => out.extend(Q64[scan_nearest_level(v, m.axis_levels())]),
        };
        for p in points {
            axis(p.re / k);
            if m != Modulation::Bpsk {
                axis(p.im / k);
            }
        }
        out
    }

    /// Axis values where a slicer can go wrong: ±64 ulps around every
    /// midpoint and level, signed zeros, infinities, NaN and huge and
    /// tiny magnitudes.
    fn edge_values(m: Modulation) -> Vec<f64> {
        let mut out = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for e in [1e17, 1e-17, 1e300, 1e-300, f64::MAX, f64::MIN_POSITIVE] {
            out.extend([e, -e]);
        }
        let levels = m.axis_levels();
        let midpoints = levels.windows(2).map(|w| (w[0] + w[1]) / 2.0);
        for centre in midpoints.chain(levels.iter().copied()) {
            let (mut up, mut down) = (centre, centre);
            out.push(centre);
            for _ in 0..64 {
                up = up.next_up();
                down = down.next_down();
                out.extend([up, down]);
            }
        }
        out
    }

    /// Every f64 bit pattern class: xorshift64 words read as f64.
    fn random_values(n: usize) -> impl Iterator<Item = f64> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f64::from_bits(x)
        })
    }

    #[test]
    fn threshold_slicer_matches_the_scan_exactly() {
        // With k = 1 every coordinate is its own axis value, so each
        // edge value reaches the slicer exactly.
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let values: Vec<f64> = edge_values(m)
                .into_iter()
                .chain(random_values(1 << 21))
                .collect();
            let points: Vec<Complex64> = values
                .chunks(2)
                .map(|c| Complex64::new(c[0], c.get(1).copied().unwrap_or(0.0)))
                .collect();
            let bps = m.bits_per_symbol();
            let mut got = vec![0u8; points.len() * bps];
            let levels = m.axis_levels();
            for (symbol, out) in points.chunks(NUM_DATA).zip(got.chunks_mut(NUM_DATA * bps)) {
                let re: Vec<f64> = symbol.iter().map(|p| p.re).collect();
                let im: Vec<f64> = symbol.iter().map(|p| p.im).collect();
                match m {
                    Modulation::Qam16 => slice_qam::<4, 2>(&re, &im, 1.0, levels, out),
                    _ => slice_qam::<8, 3>(&re, &im, 1.0, levels, out),
                }
            }
            let want = oracle_demap_by(m, &points, 1.0);
            for (k, p) in points.iter().enumerate() {
                let range = k * bps..(k + 1) * bps;
                assert_eq!(
                    got[range.clone()],
                    want[range],
                    "{m} at {p:?} ({:#018x}, {:#018x})",
                    p.re.to_bits(),
                    p.im.to_bits()
                );
            }
        }
    }

    #[test]
    fn demap_all_matches_the_scanning_demap() {
        for m in Modulation::ALL {
            let axis: Vec<f64> = edge_values(m)
                .into_iter()
                .chain(random_values(4096))
                .collect();
            // Every edge value on each axis, paired with a random one.
            let points: Vec<Complex64> = axis
                .iter()
                .zip(axis.iter().rev())
                .flat_map(|(&a, &b)| {
                    [
                        Complex64::new(a * m.normalization(), b),
                        Complex64::new(b, a),
                    ]
                })
                .collect();
            let got = m.demap_all(&points);
            let want = oracle_demap(m, &points);
            assert_eq!(got.len(), want.len(), "{m}");
            for (k, p) in points.iter().enumerate() {
                let bps = m.bits_per_symbol();
                let range = k * bps..(k + 1) * bps;
                assert_eq!(got[range.clone()], want[range], "{m} at {p:?}");
            }
        }
    }

    /// A coordinate whose division by `k` gives `v` exactly, when one
    /// lies within a few ulps of `v * k`; else the nearest tried.
    fn coordinate_for(v: f64, k: f64) -> f64 {
        let mut p = v * k;
        for _ in 0..8 {
            match (p / k).partial_cmp(&v) {
                Some(std::cmp::Ordering::Less) => p = p.next_up(),
                Some(std::cmp::Ordering::Greater) => p = p.next_down(),
                _ => break,
            }
        }
        p
    }

    #[test]
    fn demap_all_slices_every_lane_of_a_mixed_symbol_like_the_scan() {
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let k = m.normalization();
            let n = m.axis_levels().len() as f64;
            // Ordinary lanes: axis values spread over the constellation
            // and a little beyond, none of them near a threshold on
            // purpose.
            let mut ordinary = random_values(usize::MAX)
                .map(f64::to_bits)
                .map(move |w| ((w >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * (n + 1.0));
            // Special lanes: every edge value, once as an axis value
            // (a coordinate that divides to it) and once as the raw
            // coordinate itself.
            let special: Vec<f64> = edge_values(m)
                .into_iter()
                .flat_map(|v| [coordinate_for(v, k), v])
                .collect();
            // Dense symbols alternate special and ordinary lanes; sparse
            // ones hold a single special lane among 95 ordinary ones, so
            // a tie or a NaN has only clean neighbours to disturb.
            let mut lanes = Vec::new();
            for &s in &special {
                lanes.extend([s, ordinary.next().unwrap_or_default() * k]);
            }
            for (j, &s) in special.iter().enumerate() {
                let at = j * 7 % 96;
                for lane in 0..96 {
                    lanes.push(if lane == at {
                        s
                    } else {
                        ordinary.next().unwrap_or_default() * k
                    });
                }
            }
            lanes.resize(lanes.len().next_multiple_of(96), 0.5 * k);
            for (s, axis) in lanes.chunks_exact(96).enumerate() {
                let symbol: Vec<Complex64> = axis
                    .chunks_exact(2)
                    .map(|c| Complex64::new(c[0], c[1]))
                    .collect();
                assert_eq!(
                    m.demap_all(&symbol),
                    oracle_demap(m, &symbol),
                    "{m} symbol {s}: {symbol:?}"
                );
            }
        }
    }

    #[test]
    fn label_points_match_map_bit_for_bit_for_every_label() {
        let bits = |c: Complex64| (c.re.to_bits(), c.im.to_bits());
        for m in Modulation::ALL {
            let bps = m.bits_per_symbol();
            let table = m.label_points();
            for (label, entry) in table.iter().enumerate() {
                if label >> bps != 0 {
                    assert_eq!(*entry, LabelPoint::default(), "{m} unused entry {label}");
                    continue;
                }
                let label_bits: Vec<u8> = (0..bps)
                    .map(|k| u8::from((label >> (bps - 1 - k)) & 1 == 1))
                    .collect();
                let want = m.map(&label_bits);
                assert_eq!(bits(entry.point), bits(want), "{m} {label_bits:?}");
                assert_eq!(bits(entry.inv), bits(want.inv()), "{m} {label_bits:?}");
                assert_eq!(
                    entry.norm_sqr.to_bits(),
                    want.norm_sqr().to_bits(),
                    "{m} {label_bits:?}"
                );
            }
        }
    }
}
