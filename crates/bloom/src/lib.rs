#![warn(missing_docs)]
//! # carpool-bloom — the coded Bloom filter aggregation header (A-HDR)
//!
//! Carpool indicates the receiver of every subframe with a 48-bit *coded
//! Bloom filter* carried in two BPSK-1/2 OFDM symbols right after the
//! preamble (paper Section 4.1). Position information is encoded in the
//! *choice of hash set*: subframe `i` inserts its receiver's MAC address
//! with the `i`-th family of `h` hash functions. A station checks each
//! hash set in turn; any all-ones match marks a candidate subframe.
//!
//! Bloom filters have no false negatives, so a station never misses its
//! subframe; false positives merely cost the energy of decoding an
//! irrelevant subframe (paper Section 8). With the optimal
//! `h = (48/N) ln 2` and N = 4..8 receivers the false positive ratio is
//! 0.31%–5.59%; the paper fixes `h = 4` for up to 8 receivers.
//!
//! # Examples
//!
//! ```
//! use carpool_bloom::AggregationHeader;
//!
//! let sta_a = [0x02, 0, 0, 0, 0, 0xAA];
//! let sta_b = [0x02, 0, 0, 0, 0, 0xBB];
//! let mut hdr = AggregationHeader::new(4);
//! hdr.insert(&sta_a, 0);
//! hdr.insert(&sta_b, 1);
//! assert!(hdr.query(&sta_b, 1));
//! assert_eq!(hdr.matched_indices(&sta_a, 2), vec![0]);
//! ```

pub mod analysis;

/// Width of the A-HDR Bloom filter in bits: two BPSK OFDM symbols at
/// coding rate 1/2 carry 2 x 48 / 2 = 48 information bits.
pub const BLOOM_BITS: usize = 48;

/// Maximum number of receivers the paper's implementation aggregates.
pub const MAX_RECEIVERS: usize = 8;

/// The paper's fixed hash count for up to [`MAX_RECEIVERS`] receivers.
pub const DEFAULT_HASHES: usize = 4;

/// Errors from A-HDR construction and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BloomError {
    /// The subframe index exceeds the supported receiver count.
    IndexOutOfRange {
        /// Offending subframe index.
        index: usize,
    },
    /// A bit buffer of the wrong length was supplied.
    WrongLength {
        /// Bits provided.
        actual: usize,
    },
    /// Hash count outside 1..=BLOOM_BITS.
    BadHashCount {
        /// Offending hash count.
        hashes: usize,
    },
}

impl std::fmt::Display for BloomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BloomError::IndexOutOfRange { index } => {
                write!(f, "subframe index {index} out of range")
            }
            BloomError::WrongLength { actual } => {
                write!(f, "expected {BLOOM_BITS} bits, got {actual}")
            }
            BloomError::BadHashCount { hashes } => {
                write!(f, "hash count {hashes} outside 1..={BLOOM_BITS}")
            }
        }
    }
}

impl std::error::Error for BloomError {}

/// 64-bit FNV-1a over a byte slice, salted for hash-family separation.
fn fnv1a(data: &[u8], salt: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    // Final avalanche (splitmix64 tail) for good low-bit behaviour.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Bit position selected by function `fn_index` of hash set `set_index`.
fn position(item: &[u8], set_index: usize, fn_index: usize) -> usize {
    let salt = ((set_index as u64) << 32) | fn_index as u64;
    (fnv1a(item, salt) % BLOOM_BITS as u64) as usize
}

/// The 48-bit coded Bloom filter of a Carpool aggregation header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AggregationHeader {
    bits: u64,
    hashes: usize,
}

impl AggregationHeader {
    /// Creates an empty header using `hashes` hash functions per set.
    ///
    /// The paper derives the optimum `h = (48/N) ln 2` and uses
    /// [`DEFAULT_HASHES`] = 4 for its 8-receiver limit.
    ///
    /// # Panics
    ///
    /// Panics if `hashes` is zero or greater than [`BLOOM_BITS`].
    pub fn new(hashes: usize) -> AggregationHeader {
        assert!(
            (1..=BLOOM_BITS).contains(&hashes),
            "hash count {hashes} outside 1..={BLOOM_BITS}"
        );
        AggregationHeader { bits: 0, hashes }
    }

    /// Builds the header for an ordered list of receiver addresses, one
    /// subframe per receiver.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::IndexOutOfRange`] if more than
    /// [`MAX_RECEIVERS`] receivers are supplied.
    pub fn for_receivers<T: AsRef<[u8]>>(
        receivers: &[T],
        hashes: usize,
    ) -> Result<AggregationHeader, BloomError> {
        if receivers.len() > MAX_RECEIVERS {
            return Err(BloomError::IndexOutOfRange {
                index: receivers.len() - 1,
            });
        }
        if !(1..=BLOOM_BITS).contains(&hashes) {
            return Err(BloomError::BadHashCount { hashes });
        }
        let mut hdr = AggregationHeader::new(hashes);
        for (i, r) in receivers.iter().enumerate() {
            hdr.insert(r.as_ref(), i);
        }
        Ok(hdr)
    }

    /// Number of hash functions per hash set.
    pub fn hashes(&self) -> usize {
        self.hashes
    }

    /// Raw 48-bit filter value.
    pub fn raw(&self) -> u64 {
        self.bits
    }

    /// Number of set bits (useful for load diagnostics).
    pub fn popcount(&self) -> u32 {
        self.bits.count_ones()
    }

    /// The set of filter bits hash set `subframe_index` probes for
    /// `item` — exactly the bits [`AggregationHeader::insert`] would
    /// set and [`AggregationHeader::query`] tests. Exposed so trace
    /// tooling can record *which* Bloom positions drove a membership
    /// decision, not just the boolean verdict.
    pub fn probe_mask(&self, item: &[u8], subframe_index: usize) -> u64 {
        (0..self.hashes).fold(0u64, |mask, f| {
            mask | (1u64 << position(item, subframe_index, f))
        })
    }

    /// Inserts `item` as the receiver of subframe `subframe_index`.
    ///
    /// # Panics
    ///
    /// Panics if `subframe_index >= MAX_RECEIVERS`.
    pub fn insert(&mut self, item: &[u8], subframe_index: usize) {
        assert!(
            subframe_index < MAX_RECEIVERS,
            "subframe index {subframe_index} out of range"
        );
        self.bits |= self.probe_mask(item, subframe_index);
    }

    /// Checks whether `item` may be the receiver of `subframe_index`.
    ///
    /// No false negatives: if the item was inserted at this index, the
    /// result is always `true`.
    pub fn query(&self, item: &[u8], subframe_index: usize) -> bool {
        let mask = self.probe_mask(item, subframe_index);
        self.bits & mask == mask
    }

    /// All subframe indices (0..`num_subframes`) that match `item` —
    /// the receiver decodes *all* of these (paper: "each receiver
    /// decodes all matched subframes" to never miss its own).
    pub fn matched_indices(&self, item: &[u8], num_subframes: usize) -> Vec<usize> {
        (0..num_subframes.min(MAX_RECEIVERS))
            .filter(|&i| self.query(item, i))
            .collect()
    }

    /// Serialises to [`BLOOM_BITS`] bits (LSB of the raw value first),
    /// ready for a BPSK-1/2 header section.
    pub fn to_bits(&self) -> Vec<u8> {
        (0..BLOOM_BITS)
            .map(|k| ((self.bits >> k) & 1) as u8)
            .collect()
    }

    /// Parses a header from [`BLOOM_BITS`] bits.
    ///
    /// # Errors
    ///
    /// Returns [`BloomError::WrongLength`] for any other bit count and
    /// [`BloomError::BadHashCount`] for an invalid `hashes`.
    pub fn from_bits(bits: &[u8], hashes: usize) -> Result<AggregationHeader, BloomError> {
        if bits.len() != BLOOM_BITS {
            return Err(BloomError::WrongLength { actual: bits.len() });
        }
        if !(1..=BLOOM_BITS).contains(&hashes) {
            return Err(BloomError::BadHashCount { hashes });
        }
        let mut raw = 0u64;
        for (k, &b) in bits.iter().enumerate() {
            if b > 1 {
                return Err(BloomError::WrongLength { actual: bits.len() });
            }
            raw |= (b as u64) << k;
        }
        Ok(AggregationHeader { bits: raw, hashes })
    }
}

impl std::fmt::Display for AggregationHeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "A-HDR[{:012x}, h={}]", self.bits, self.hashes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(last: u8) -> [u8; 6] {
        [0x02, 0x11, 0x22, 0x33, 0x44, last]
    }

    #[test]
    fn probe_mask_agrees_with_insert_and_query() {
        let mut hdr = AggregationHeader::new(DEFAULT_HASHES);
        let mask = hdr.probe_mask(&mac(1), 0);
        // h hash functions probe at most h distinct 48-bit positions.
        assert!(mask.count_ones() as usize <= hdr.hashes());
        assert!(mask != 0 && mask < 1u64 << BLOOM_BITS);
        hdr.insert(&mac(1), 0);
        // Insert sets exactly the probed bits, and query demands all of them.
        assert_eq!(hdr.raw(), mask);
        assert!(hdr.query(&mac(1), 0));
        // Same item, different hash set: an independent mask.
        assert_ne!(hdr.probe_mask(&mac(1), 1), mask);
    }

    #[test]
    fn no_false_negatives_ever() {
        for n in 1..=MAX_RECEIVERS {
            let receivers: Vec<[u8; 6]> = (0..n as u8).map(mac).collect();
            let hdr = AggregationHeader::for_receivers(&receivers, 4).unwrap();
            for (i, r) in receivers.iter().enumerate() {
                assert!(hdr.query(r, i), "n={n} receiver {i} missed");
                assert!(hdr.matched_indices(r, n).contains(&i));
            }
        }
    }

    #[test]
    fn wrong_index_usually_rejects() {
        let receivers: Vec<[u8; 6]> = (0..4u8).map(mac).collect();
        let hdr = AggregationHeader::for_receivers(&receivers, 4).unwrap();
        // A receiver inserted at index 0 should (almost surely) not match
        // at a far index with these few insertions.
        let misses = (4..8).filter(|&i| !hdr.query(&mac(0), i)).count();
        assert!(misses >= 3, "only {misses} rejections");
    }

    #[test]
    fn uninvolved_station_usually_drops_frame() {
        let receivers: Vec<[u8; 6]> = (0..6u8).map(mac).collect();
        let hdr = AggregationHeader::for_receivers(&receivers, 4).unwrap();
        let mut dropped = 0;
        let trials = 200;
        for k in 0..trials {
            let outsider = [0xAA, 0xBB, k as u8, (k >> 8) as u8, 0x01, 0x02];
            if hdr.matched_indices(&outsider, 6).is_empty() {
                dropped += 1;
            }
        }
        // With 6 receivers the per-set FP ratio is a few percent; over 6
        // sets most outsiders still match nowhere.
        assert!(dropped > trials / 2, "dropped {dropped}/{trials}");
    }

    #[test]
    fn bits_round_trip() {
        let receivers: Vec<[u8; 6]> = (0..5u8).map(mac).collect();
        let hdr = AggregationHeader::for_receivers(&receivers, 4).unwrap();
        let bits = hdr.to_bits();
        assert_eq!(bits.len(), BLOOM_BITS);
        let parsed = AggregationHeader::from_bits(&bits, 4).unwrap();
        assert_eq!(parsed, hdr);
    }

    #[test]
    fn from_bits_validates() {
        assert!(matches!(
            AggregationHeader::from_bits(&[0; 47], 4),
            Err(BloomError::WrongLength { actual: 47 })
        ));
        assert!(matches!(
            AggregationHeader::from_bits(&[0; 48], 0),
            Err(BloomError::BadHashCount { hashes: 0 })
        ));
        assert!(matches!(
            AggregationHeader::from_bits(&[2; 48], 4),
            Err(BloomError::WrongLength { .. })
        ));
    }

    #[test]
    fn too_many_receivers_rejected() {
        let receivers: Vec<[u8; 6]> = (0..9u8).map(mac).collect();
        assert!(matches!(
            AggregationHeader::for_receivers(&receivers, 4),
            Err(BloomError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut hdr = AggregationHeader::new(4);
        hdr.insert(&mac(1), 2);
        let snapshot = hdr;
        hdr.insert(&mac(1), 2);
        assert_eq!(hdr, snapshot);
    }

    #[test]
    fn popcount_bounded_by_insertions() {
        let mut hdr = AggregationHeader::new(4);
        hdr.insert(&mac(1), 0);
        assert!(hdr.popcount() <= 4);
        hdr.insert(&mac(2), 1);
        assert!(hdr.popcount() <= 8);
    }

    #[test]
    fn hash_positions_are_reasonably_uniform() {
        // Chi-square-ish sanity: over many items the 48 positions should
        // all be hit.
        let mut counts = [0usize; BLOOM_BITS];
        for k in 0..3000u32 {
            let item = k.to_le_bytes();
            for set in 0..8 {
                for f in 0..4 {
                    counts[position(&item, set, f)] += 1;
                }
            }
        }
        let total: usize = counts.iter().sum();
        let mean = total as f64 / BLOOM_BITS as f64;
        for (pos, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > mean * 0.7 && (c as f64) < mean * 1.3,
                "position {pos}: {c} vs mean {mean}"
            );
        }
    }

    #[test]
    fn different_sets_give_different_positions() {
        // Positional encoding only works if hash sets differ.
        let item = mac(7);
        let sets: Vec<Vec<usize>> = (0..8)
            .map(|s| (0..4).map(|f| position(&item, s, f)).collect())
            .collect();
        let distinct: std::collections::BTreeSet<&Vec<usize>> = sets.iter().collect();
        assert!(distinct.len() >= 7, "hash sets collide too much");
    }

    #[test]
    fn display_is_nonempty() {
        let hdr = AggregationHeader::new(DEFAULT_HASHES);
        assert!(!hdr.to_string().is_empty());
    }

    #[test]
    fn error_display() {
        assert!(BloomError::IndexOutOfRange { index: 9 }
            .to_string()
            .contains('9'));
        assert!(BloomError::WrongLength { actual: 3 }
            .to_string()
            .contains("48"));
    }
}
