//! IEEE 802.11 block interleaver.
//!
//! Coded bits of each OFDM symbol are interleaved by the two-permutation
//! scheme of IEEE 802.11-2012 18.3.5.7: the first permutation ensures
//! adjacent coded bits land on non-adjacent subcarriers and the second
//! ensures they alternate between more and less significant constellation
//! bits. Block size is `N_CBPS` (coded bits per OFDM symbol).

use crate::convolutional::{depuncture_layout, quantize_llr, CodeRate};
use crate::modulation::Modulation;
use crate::ofdm::NUM_DATA;

/// Largest block: 64-QAM over 48 data subcarriers.
const MAX_CBPS: usize = 6 * NUM_DATA;

/// Output position of every input bit for the 48-subcarrier format, one
/// table per bits-per-subcarrier count (1, 2, 4, 6); only the first
/// `N_CBPS` entries of a table are used.
static PERMUTATIONS: [[u16; MAX_CBPS]; 4] = [
    build_permutation(1),
    build_permutation(2),
    build_permutation(4),
    build_permutation(6),
];

/// The standard's two-step index mapping (IEEE 802.11-2012 18.3.5.7) for
/// `n_bpsc` coded bits per subcarrier over 48 subcarriers.
const fn permute(k: usize, n_cbps: usize, n_bpsc: usize) -> usize {
    let s = if n_bpsc / 2 > 1 { n_bpsc / 2 } else { 1 };
    // First permutation.
    let i = (n_cbps / 16) * (k % 16) + k / 16;
    // Second permutation.
    s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s
}

#[expect(clippy::cast_possible_truncation, reason = "positions are below 288")]
const fn build_permutation(n_bpsc: usize) -> [u16; MAX_CBPS] {
    let n_cbps = n_bpsc * NUM_DATA;
    let mut table = [0u16; MAX_CBPS];
    let mut k = 0;
    while k < n_cbps {
        table[k] = permute(k, n_cbps, n_bpsc) as u16;
        k += 1;
    }
    table
}

/// Interleaver for one OFDM symbol of `N_CBPS` coded bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interleaver {
    n_cbps: usize,
    n_bpsc: usize,
}

impl Interleaver {
    /// Creates an interleaver for the given modulation over `n_data`
    /// data subcarriers (48 for the 802.11a/g format used here).
    ///
    /// # Panics
    ///
    /// Panics if `n_data` is not a multiple of 16 (the column count of
    /// the standard interleaver).
    pub fn new(modulation: Modulation, n_data: usize) -> Interleaver {
        let n_bpsc = modulation.bits_per_symbol();
        let n_cbps = n_bpsc * n_data;
        assert!(
            n_cbps.is_multiple_of(16),
            "N_CBPS {n_cbps} must be a multiple of 16"
        );
        Interleaver { n_cbps, n_bpsc }
    }

    /// Coded bits per OFDM symbol handled by this interleaver.
    pub fn block_size(&self) -> usize {
        self.n_cbps
    }

    /// Index mapping of the transmitter: output position of input bit `k`.
    fn permute(&self, k: usize) -> usize {
        permute(k, self.n_cbps, self.n_bpsc)
    }

    /// The precomputed permutation, for the 48-subcarrier format.
    fn table(&self) -> Option<&'static [u16]> {
        let index = match self.n_bpsc {
            1 => 0,
            2 => 1,
            4 => 2,
            _ => 3,
        };
        (self.n_cbps == self.n_bpsc * NUM_DATA).then(|| &PERMUTATIONS[index][..self.n_cbps])
    }

    /// Interleaves one block of exactly `N_CBPS` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.block_size()`.
    pub fn interleave(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.n_cbps];
        self.interleave_into(bits, &mut out);
        out
    }

    /// Writes the interleaved block into `out`, which must hold exactly
    /// `N_CBPS` entries.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `out` is not `self.block_size()` long.
    pub(crate) fn interleave_into(&self, bits: &[u8], out: &mut [u8]) {
        assert_eq!(bits.len(), self.n_cbps, "block size mismatch");
        assert_eq!(out.len(), self.n_cbps, "block size mismatch");
        match self.table() {
            Some(table) => {
                for (&b, &p) in bits.iter().zip(table) {
                    out[usize::from(p)] = b;
                }
            }
            None => {
                for (k, &b) in bits.iter().enumerate() {
                    out[self.permute(k)] = b;
                }
            }
        }
    }

    /// Inverts [`Interleaver::interleave`] on one block of any per-bit
    /// values: hard bits or LLRs. The receiver never calls it (its
    /// `RxSymbolMap` folds this permutation into the Viterbi scatter);
    /// it is the reference the map and the round-trip tests check against.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.block_size()`.
    pub fn deinterleave<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.n_cbps, "block size mismatch");
        match self.table() {
            Some(table) => table.iter().map(|&p| values[usize::from(p)]).collect(),
            None => (0..self.n_cbps).map(|k| values[self.permute(k)]).collect(),
        }
    }
}

/// Precomputed scatter map of the fused RX pipeline: one entry per
/// coded bit of an OFDM symbol, pairing the interleaved (transmission
/// order) source position with the flat trellis-lattice destination
/// offset after deinterleaving and depuncturing. Built once per
/// `(modulation, code rate)` and cached in the receive scratch, it lets
/// the symbol hot loop write quantized integer levels straight into the
/// Viterbi lattice — no coded-order intermediate stream, no separate
/// deinterleave or depuncture pass.
#[derive(Debug, Clone)]
pub(crate) struct RxSymbolMap {
    /// `(interleaved source, flat lattice offset)` per coded bit, in
    /// deinterleaved coded order.
    pairs: Vec<(usize, usize)>,
    /// Flat lattice entries spanned by one OFDM symbol.
    flat_per_symbol: usize,
}

impl RxSymbolMap {
    /// Builds the map for one modulation/rate pair over `n_data` data
    /// subcarriers.
    ///
    /// # Panics
    ///
    /// Panics if the symbol's coded-bit count is not a whole number of
    /// puncture periods (true for every 802.11a/g MCS, where `N_CBPS ∈
    /// {48, 96, 192, 288}` and periods keep 2, 3 or 4 bits).
    pub(crate) fn new(modulation: Modulation, rate: CodeRate, n_data: usize) -> RxSymbolMap {
        let il = Interleaver::new(modulation, n_data);
        let n_cbps = il.block_size();
        let (kept, flat, offs) = depuncture_layout(rate);
        assert!(
            n_cbps.is_multiple_of(kept),
            "N_CBPS {n_cbps} not a multiple of the {kept}-bit puncture period"
        );
        let mut pairs = Vec::with_capacity(n_cbps);
        for k in 0..n_cbps {
            let dst = (k / kept) * flat + offs[k % kept];
            pairs.push((il.permute(k), dst));
        }
        RxSymbolMap {
            pairs,
            flat_per_symbol: (n_cbps / kept) * flat,
        }
    }

    /// Flat lattice entries one OFDM symbol spans; symbol `k` of a
    /// section scatters into `lattice[k * flat_per_symbol()..]`.
    pub(crate) fn flat_per_symbol(&self) -> usize {
        self.flat_per_symbol
    }

    /// Scatters the first `limit` coded bits of one hard-demapped
    /// symbol (interleaved order, bits 0/1) into the lattice slice as
    /// ±1 levels. Slots past `limit` — puncture holes and positions
    /// beyond the section's usable coded length — keep the lattice's
    /// pre-zeroed erasure value.
    pub(crate) fn scatter_hard(&self, interleaved: &[u8], limit: usize, lattice: &mut [i32]) {
        for &(src, dst) in &self.pairs[..limit] {
            lattice[dst] = i32::from(interleaved[src]) * 2 - 1;
        }
    }

    /// Scatters the first `limit` coded bits of one soft-demapped
    /// symbol (interleaved-order LLRs) into the lattice slice as
    /// quantized levels; see [`RxSymbolMap::scatter_hard`].
    pub(crate) fn scatter_soft(&self, llrs: &[f64], limit: usize, lattice: &mut [i32]) {
        for &(src, dst) in &self.pairs[..limit] {
            lattice[dst] = quantize_llr(llrs[src]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_modulations() {
        for m in Modulation::ALL {
            let il = Interleaver::new(m, 48);
            let bits: Vec<u8> = (0..il.block_size())
                .map(|k| ((k * 31) % 7 < 3) as u8)
                .collect();
            assert_eq!(il.deinterleave(&il.interleave(&bits)), bits, "{m}");
        }
    }

    #[test]
    fn permutation_is_bijective() {
        for m in Modulation::ALL {
            let il = Interleaver::new(m, 48);
            let mut seen = vec![false; il.block_size()];
            for k in 0..il.block_size() {
                let p = il.permute(k);
                assert!(!seen[p], "{m}: position {p} hit twice");
                seen[p] = true;
            }
        }
    }

    #[test]
    fn adjacent_bits_are_separated() {
        // The point of the interleaver: adjacent coded bits must map to
        // positions at least a few subcarriers apart.
        let il = Interleaver::new(Modulation::Bpsk, 48);
        for k in 0..il.block_size() - 1 {
            let a = il.permute(k).cast_signed();
            let b = il.permute(k + 1).cast_signed();
            assert!((a - b).abs() >= 3, "bits {k},{} land {a},{b}", k + 1);
        }
    }

    #[test]
    fn interleaving_actually_permutes() {
        let il = Interleaver::new(Modulation::Qam16, 48);
        let mut bits = vec![0u8; il.block_size()];
        bits[1] = 1; // position 0 maps to 0 by construction; use 1
        let out = il.interleave(&bits);
        assert_ne!(out, bits);
        assert_eq!(out.iter().map(|&b| b as usize).sum::<usize>(), 1);
    }

    #[test]
    fn standard_bpsk_first_index() {
        // For BPSK/48 carriers, N_CBPS=48, s=1: position of bit 0 is 0,
        // bit 1 goes to 48/16*1 = 3.
        let il = Interleaver::new(Modulation::Bpsk, 48);
        assert_eq!(il.permute(0), 0);
        assert_eq!(il.permute(1), 3);
        assert_eq!(il.permute(16), 1);
    }

    #[test]
    fn tables_match_the_index_mapping() {
        for m in Modulation::ALL {
            let il = Interleaver::new(m, 48);
            let table = il.table().unwrap();
            assert_eq!(table.len(), il.block_size());
            for (k, &p) in table.iter().enumerate() {
                assert_eq!(usize::from(p), il.permute(k), "{m} bit {k}");
            }
        }
        // Other subcarrier counts fall back to the arithmetic mapping.
        let il = Interleaver::new(Modulation::Qpsk, 64);
        assert!(il.table().is_none());
        let bits: Vec<u8> = (0..il.block_size()).map(|k| (k % 5 == 2) as u8).collect();
        assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn rejects_wrong_block_length() {
        Interleaver::new(Modulation::Bpsk, 48).interleave(&[0, 1]);
    }

    #[test]
    fn scatter_matches_deinterleave_then_depuncture() {
        // The fused map must equal the composition it replaces:
        // deinterleave to coded order, then place kept bits at the flat
        // lattice offsets of the puncture layout.
        for m in Modulation::ALL {
            for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
                let il = Interleaver::new(m, 48);
                let map = RxSymbolMap::new(m, rate, 48);
                let n = il.block_size();
                let (kept, flat, offs) = depuncture_layout(rate);
                assert_eq!(map.flat_per_symbol(), (n / kept) * flat, "{m} {rate}");

                let bits: Vec<u8> = (0..n).map(|k| ((k * 13 + 5) % 3 == 0) as u8).collect();
                let llrs: Vec<f64> = (0..n).map(|k| (k as f64 - 20.0) * 0.37).collect();
                let coded = il.deinterleave(&bits);
                let coded_llrs = il.deinterleave(&llrs);

                // Truncated limits exercise the erasure tail a section's
                // last symbol sees.
                for limit in [n, n - 7] {
                    let mut expect_h = vec![0i32; map.flat_per_symbol()];
                    let mut expect_s = vec![0i32; map.flat_per_symbol()];
                    for k in 0..limit {
                        let dst = (k / kept) * flat + offs[k % kept];
                        expect_h[dst] = i32::from(coded[k]) * 2 - 1;
                        expect_s[dst] = quantize_llr(coded_llrs[k]);
                    }
                    let mut got_h = vec![0i32; map.flat_per_symbol()];
                    map.scatter_hard(&bits, limit, &mut got_h);
                    assert_eq!(got_h, expect_h, "hard {m} {rate} limit {limit}");
                    let mut got_s = vec![0i32; map.flat_per_symbol()];
                    map.scatter_soft(&llrs, limit, &mut got_s);
                    assert_eq!(got_s, expect_s, "soft {m} {rate} limit {limit}");
                }
            }
        }
    }
}
