//! Gray-coded constellation mapping for BPSK, QPSK, 16-QAM and 64-QAM.
//!
//! Mappings follow IEEE 802.11-2012 Table 18-8..18-11: per-axis Gray
//! coding with normalisation factors `1`, `1/sqrt(2)`, `1/sqrt(10)` and
//! `1/sqrt(42)` so every constellation has unit average power. Demapping
//! is hard-decision minimum-distance, implemented per axis (which is
//! exact for these square constellations).

use crate::math::Complex64;

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

    /// Every constellation point, indexed by its bits read as a binary
    /// number (first bit most significant): entry `l` is what
    /// [`Modulation::map`] returns for the bits of `l`, bit for bit, so
    /// the transmitter maps a subcarrier with one lookup.
    pub(crate) fn point_table(&self) -> [Complex64; 64] {
        let bps = self.bits_per_symbol();
        let mut table = [Complex64::ZERO; 64];
        let mut bits = [0u8; 6];
        for (label, point) in (0u8..).zip(table.iter_mut().take(1 << bps)) {
            for (k, bit) in bits[..bps].iter_mut().enumerate() {
                *bit = (label >> (bps - 1 - k)) & 1;
            }
            *point = self.map(&bits[..bps]);
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
        self.point(bits)
    }

    /// [`Modulation::map`] without its checks: the same `level * k`
    /// products, bit for bit.
    fn point(&self, bits: &[u8]) -> Complex64 {
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

    /// Re-modulates demapped bits (0/1 values, [`Modulation::bits_per_symbol`]
    /// per point) into `out`, one point per slot: what
    /// [`Modulation::map_all`] returns, bit for bit, without its
    /// per-point checks. RTE's data pilots are built this way.
    pub(crate) fn remap_into(&self, bits: &[u8], out: &mut [Complex64]) {
        for (point, label) in out
            .iter_mut()
            .zip(bits.chunks_exact(self.bits_per_symbol()))
        {
            *point = self.point(label);
        }
    }

    /// Hard-decision demapping of equalised constellation points, each to
    /// its [`Modulation::bits_per_symbol`] Gray-label bits.
    pub fn demap_all(&self, points: &[Complex64]) -> Vec<u8> {
        let k = self.normalization();
        let bps = self.bits_per_symbol();
        let mut out = vec![0u8; points.len() * bps];
        match self {
            Modulation::Bpsk => {
                for (bit, p) in out.iter_mut().zip(points) {
                    *bit = u8::from(p.re / k >= 0.0);
                }
            }
            Modulation::Qpsk => {
                for (bits, p) in out.chunks_exact_mut(2).zip(points) {
                    bits[0] = u8::from(p.re / k >= 0.0);
                    bits[1] = u8::from(p.im / k >= 0.0);
                }
            }
            Modulation::Qam16 | Modulation::Qam64 => {
                let levels = self.axis_levels();
                let mids = self.axis_midpoints();
                for (bits, p) in out.chunks_exact_mut(bps).zip(points) {
                    let (re, im) = bits.split_at_mut(bps / 2);
                    write_label(nearest_level(p.re / k, levels, mids), re);
                    write_label(nearest_level(p.im / k, levels, mids), im);
                }
            }
        }
        out
    }

    /// Per-axis PAM levels of this constellation (unnormalised).
    fn axis_levels(&self) -> &'static [f64] {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => &[-1.0, 1.0],
            Modulation::Qam16 => &[-3.0, -1.0, 1.0, 3.0],
            Modulation::Qam64 => &[-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0],
        }
    }

    /// Midpoints between adjacent [`Modulation::axis_levels`]: the
    /// hard-decision thresholds.
    fn axis_midpoints(&self) -> &'static [f64] {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => &[0.0],
            Modulation::Qam16 => &[-2.0, 0.0, 2.0],
            Modulation::Qam64 => &[-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0],
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

/// Gray label of the PAM level with ascending index `idx`.
const fn gray(idx: usize) -> usize {
    idx ^ (idx >> 1)
}

/// Writes the Gray label of level index `idx` into `out`, most
/// significant bit first.
fn write_label(idx: usize, out: &mut [u8]) {
    let label = gray(idx);
    for (shift, bit) in (0..out.len()).rev().zip(out.iter_mut()) {
        *bit = u8::from((label >> shift) & 1 == 1);
    }
}

/// Index of the first of `levels` (ascending) at the least rounded
/// distance `|value - level|`; `mids` are the midpoints of adjacent
/// levels. This is exactly what a scan keeping the first strict minimum
/// returns, rounding ties, huge values, ±inf and NaN (all index 0)
/// included: the count of midpoints strictly below `value` indexes an
/// exactly nearest level, and rounding keeps the distances' order
/// weakly, so any rounded tie with it lies to its left, and the walk
/// left lands on the first.
fn nearest_level(value: f64, levels: &[f64], mids: &[f64]) -> usize {
    let mut j = mids.iter().filter(|&&m| m < value).count();
    while j > 0 && (value - levels[j - 1]).abs() <= (value - levels[j]).abs() {
        j -= 1;
    }
    j
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
        let k = m.normalization();
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
        for &centre in m.axis_midpoints().iter().chain(m.axis_levels()) {
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
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let (levels, mids) = (m.axis_levels(), m.axis_midpoints());
            let values = edge_values(m).into_iter().chain(random_values(1 << 21));
            for v in values {
                assert_eq!(
                    nearest_level(v, levels, mids),
                    scan_nearest_level(v, levels),
                    "{m} at {v:e} ({:#018x})",
                    v.to_bits()
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

    #[test]
    fn remap_matches_map_bit_for_bit_for_every_label() {
        for m in Modulation::ALL {
            let bps = m.bits_per_symbol();
            let labels = all_bit_patterns(bps);
            let bits: Vec<u8> = labels.concat();
            let mut points = vec![Complex64::new(f64::NAN, f64::NAN); labels.len()];
            m.remap_into(&bits, &mut points);
            for (label, point) in labels.iter().zip(&points) {
                let want = m.map(label);
                assert_eq!(
                    (point.re.to_bits(), point.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "{m} {label:?}"
                );
            }
        }
    }
}
