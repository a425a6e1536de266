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
    pub fn normalization(&self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        }
    }

    /// Per-axis Gray map: bits -> unnormalised PAM level.
    fn axis_level(&self, bits: &[u8]) -> f64 {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => {
                if bits[0] == 0 {
                    -1.0
                } else {
                    1.0
                }
            }
            // Matching on the LSB as bool keeps the Gray map exhaustive
            // without an unreachable arm (callers only pass 0/1).
            Modulation::Qam16 => match (bits[0] & 1 == 1, bits[1] & 1 == 1) {
                (false, false) => -3.0,
                (false, true) => -1.0,
                (true, true) => 1.0,
                (true, false) => 3.0,
            },
            Modulation::Qam64 => match (bits[0] & 1 == 1, bits[1] & 1 == 1, bits[2] & 1 == 1) {
                (false, false, false) => -7.0,
                (false, false, true) => -5.0,
                (false, true, true) => -3.0,
                (false, true, false) => -1.0,
                (true, true, false) => 1.0,
                (true, true, true) => 3.0,
                (true, false, true) => 5.0,
                (true, false, false) => 7.0,
            },
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

    /// Per-axis Gray demap: PAM level decision -> bits.
    fn axis_bits(&self, level: f64, out: &mut Vec<u8>) {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => {
                out.push((level >= 0.0) as u8);
            }
            Modulation::Qam16 => {
                let l = nearest_level(level, &[-3.0, -1.0, 1.0, 3.0]);
                let bits: [u8; 2] = match l {
                    0 => [0, 0],
                    1 => [0, 1],
                    2 => [1, 1],
                    _ => [1, 0],
                };
                out.extend_from_slice(&bits);
            }
            Modulation::Qam64 => {
                let l = nearest_level(level, &[-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0]);
                let bits: [u8; 3] = match l {
                    0 => [0, 0, 0],
                    1 => [0, 0, 1],
                    2 => [0, 1, 1],
                    3 => [0, 1, 0],
                    4 => [1, 1, 0],
                    5 => [1, 1, 1],
                    6 => [1, 0, 1],
                    _ => [1, 0, 0],
                };
                out.extend_from_slice(&bits);
            }
        }
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
        match self {
            Modulation::Bpsk => Complex64::new(self.axis_level(bits) * k, 0.0),
            Modulation::Qpsk => Complex64::new(
                self.axis_level(&bits[0..1]) * k,
                self.axis_level(&bits[1..2]) * k,
            ),
            Modulation::Qam16 => Complex64::new(
                self.axis_level(&bits[0..2]) * k,
                self.axis_level(&bits[2..4]) * k,
            ),
            Modulation::Qam64 => Complex64::new(
                self.axis_level(&bits[0..3]) * k,
                self.axis_level(&bits[3..6]) * k,
            ),
        }
    }

    /// Maps a full bit slice to constellation points.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of the bits per symbol.
    pub fn map_all(&self, bits: &[u8]) -> Vec<Complex64> {
        let mut out = Vec::with_capacity(bits.len() / self.bits_per_symbol().max(1));
        self.map_all_into(bits, &mut out);
        out
    }

    /// Appends the mapped points for `bits` to `out` — the reusable-buffer
    /// form of [`Modulation::map_all`] used by the receive hot loop.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len()` is not a multiple of the bits per symbol.
    pub fn map_all_into(&self, bits: &[u8], out: &mut Vec<Complex64>) {
        let bps = self.bits_per_symbol();
        assert_eq!(bits.len() % bps, 0, "bit count not a multiple of {bps}");
        out.reserve(bits.len() / bps);
        out.extend(bits.chunks(bps).map(|c| self.map(c)));
    }

    /// Hard-decision demapping of equalised constellation points, each to
    /// its [`Modulation::bits_per_symbol`] Gray-label bits.
    pub fn demap_all(&self, points: &[Complex64]) -> Vec<u8> {
        let k = self.normalization();
        let mut out = Vec::with_capacity(points.len() * self.bits_per_symbol());
        for p in points {
            self.axis_bits(p.re / k, &mut out);
            if *self != Modulation::Bpsk {
                self.axis_bits(p.im / k, &mut out);
            }
        }
        out
    }

    /// Minimum distance between constellation points (after normalisation).
    ///
    /// Useful for analytical BER sanity checks in tests.
    pub fn min_distance(&self) -> f64 {
        2.0 * self.normalization()
    }

    /// Per-axis PAM levels of this constellation (unnormalised).
    fn axis_levels(&self) -> &'static [f64] {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => &[-1.0, 1.0],
            Modulation::Qam16 => &[-3.0, -1.0, 1.0, 3.0],
            Modulation::Qam64 => &[-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0],
        }
    }

    /// Bits of the Gray label of axis level index `idx`, most-significant
    /// label bit first (matching [`Modulation::axis_bits`] output order).
    fn axis_label(&self, idx: usize) -> &'static [u8] {
        match self {
            Modulation::Bpsk | Modulation::Qpsk => {
                const L: [[u8; 1]; 2] = [[0], [1]];
                &L[idx]
            }
            Modulation::Qam16 => {
                const L: [[u8; 2]; 4] = [[0, 0], [0, 1], [1, 1], [1, 0]];
                &L[idx]
            }
            Modulation::Qam64 => {
                const L: [[u8; 3]; 8] = [
                    [0, 0, 0],
                    [0, 0, 1],
                    [0, 1, 1],
                    [0, 1, 0],
                    [1, 1, 0],
                    [1, 1, 1],
                    [1, 0, 1],
                    [1, 0, 0],
                ];
                &L[idx]
            }
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
        for (b, slot) in out.iter_mut().enumerate() {
            let mut best0 = f64::INFINITY;
            let mut best1 = f64::INFINITY;
            for (idx, &l) in levels.iter().enumerate() {
                let d = (level - l) * (level - l);
                if self.axis_label(idx)[b] == 0 {
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
    pub fn demap_soft_slice(&self, point: Complex64, noise_var: f64, out: &mut [f64]) {
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

fn nearest_level(value: f64, levels: &[f64]) -> usize {
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
            let margin = m.min_distance() * 0.45;
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
}
