//! IEEE 802.11 frame-synchronous scrambler.
//!
//! The 802.11 OFDM PHY whitens the data field with a length-127 scrambler
//! generated by the polynomial `S(x) = x^7 + x^4 + 1`. Scrambling and
//! descrambling are the same XOR operation when started from the same
//! seed. Notably, the SIG field is *not* scrambled — which is what lets a
//! Carpool receiver decode the SIG of a foreign subframe to learn its
//! length and skip it (Section 4.1 of the paper).

/// Frame-synchronous scrambler state (7-bit LFSR, `x^7 + x^4 + 1`).
///
/// # Examples
///
/// ```
/// use carpool_phy::scrambler::Scrambler;
///
/// let data = vec![1u8, 0, 1, 1, 0, 0, 1, 0, 1];
/// let scrambled = Scrambler::new(0b1011101).scramble(&data);
/// let recovered = Scrambler::new(0b1011101).scramble(&scrambled);
/// assert_eq!(recovered, data);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scrambler {
    state: u8,
}

impl Scrambler {
    /// The default nonzero seed used by this implementation.
    pub const DEFAULT_SEED: u8 = 0b101_1101;

    /// Creates a scrambler with the given 7-bit seed.
    ///
    /// # Panics
    ///
    /// Panics if `seed` is zero (an all-zero LFSR never advances) or wider
    /// than 7 bits.
    pub fn new(seed: u8) -> Scrambler {
        assert!(seed != 0, "scrambler seed must be nonzero");
        assert!(seed < 0x80, "scrambler seed must fit in 7 bits");
        Scrambler { state: seed }
    }

    /// Produces the next bit of the scrambling sequence.
    fn next_bit(&mut self) -> u8 {
        let (state, out) = lfsr_step(self.state);
        self.state = state;
        out
    }

    /// Scrambles (or descrambles) `bits` in place from the default seed,
    /// exactly as `Scrambler::default().scramble(bits)` does,
    /// by XORing a table of the sequence's 127-bit period. The PPDU
    /// transmitter and receiver run it on every payload section.
    ///
    /// # Panics
    ///
    /// Panics if any element is not 0 or 1.
    pub(crate) fn scramble_default_in_place(bits: &mut [u8]) {
        let mut seen = 0u8;
        for chunk in bits.chunks_mut(DEFAULT_PERIOD.len()) {
            for (b, &s) in chunk.iter_mut().zip(&DEFAULT_PERIOD) {
                seen |= *b;
                *b ^= s;
            }
        }
        assert!(seen <= 1, "bit value {seen} out of range");
    }

    /// Scrambles (or descrambles) a bit slice, consuming scrambler state.
    ///
    /// # Panics
    ///
    /// Panics if any element is not 0 or 1.
    pub fn scramble(mut self, bits: &[u8]) -> Vec<u8> {
        bits.iter()
            .map(|&b| {
                assert!(b <= 1, "bit value {b} out of range");
                b ^ self.next_bit()
            })
            .collect()
    }
}

/// One LFSR step: the next state and the output bit.
const fn lfsr_step(state: u8) -> (u8, u8) {
    let out = ((state >> 6) ^ (state >> 3)) & 1;
    (((state << 1) | out) & 0x7F, out)
}

/// One full period of the sequence the default seed generates: a 7-bit
/// maximal-length LFSR repeats every 127 bits.
static DEFAULT_PERIOD: [u8; 127] = default_period();

const fn default_period() -> [u8; 127] {
    let mut seq = [0u8; 127];
    let mut state = Scrambler::DEFAULT_SEED;
    let mut k = 0;
    while k < seq.len() {
        let (next, out) = lfsr_step(state);
        seq[k] = out;
        state = next;
        k += 1;
    }
    seq
}

impl Default for Scrambler {
    fn default() -> Self {
        Scrambler::new(Self::DEFAULT_SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_has_period_127() {
        let mut s = Scrambler::new(1);
        let first: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        let second: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        assert_eq!(first, second);
        // And is not constant.
        assert!(first.contains(&0) && first.contains(&1));
    }

    #[test]
    fn standard_prefix_for_all_ones_seed() {
        // IEEE 802.11-2012 17.3.5.5: seed 1111111 generates the sequence
        // beginning 0000 1110 1111 0010 ...
        let mut s = Scrambler::new(0b111_1111);
        let seq: Vec<u8> = (0..16).map(|_| s.next_bit()).collect();
        assert_eq!(seq, vec![0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn scramble_is_involution_with_same_seed() {
        let data: Vec<u8> = (0..500).map(|k| (k % 3 == 0) as u8).collect();
        for seed in [1, 0x55, 0x7F, Scrambler::DEFAULT_SEED] {
            let once = Scrambler::new(seed).scramble(&data);
            let twice = Scrambler::new(seed).scramble(&once);
            assert_eq!(twice, data, "seed {seed:#x}");
            assert_ne!(once, data, "seed {seed:#x} should change the data");
        }
    }

    #[test]
    fn default_table_matches_the_lfsr() {
        for len in [0, 1, 126, 127, 128, 300, 1001] {
            let data: Vec<u8> = (0..len).map(|k| u8::from(k % 7 < 3)).collect();
            let mut fast = data.clone();
            Scrambler::scramble_default_in_place(&mut fast);
            assert_eq!(fast, Scrambler::default().scramble(&data), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn default_table_rejects_non_binary_bits() {
        Scrambler::scramble_default_in_place(&mut [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_seed_rejected() {
        Scrambler::new(0);
    }

    #[test]
    fn whitening_balances_bias() {
        // Scrambling a long run of zeros should produce roughly half ones.
        let zeros = vec![0u8; 1270];
        let out = Scrambler::default().scramble(&zeros);
        let ones: usize = out.iter().map(|&b| b as usize).sum();
        let ratio = ones as f64 / out.len() as f64;
        assert!((0.4..0.6).contains(&ratio), "ratio {ratio}");
    }
}
