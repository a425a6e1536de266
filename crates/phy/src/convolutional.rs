//! Rate-1/2, constraint-length-7 convolutional code with Viterbi decoding.
//!
//! This is the mandatory code of the IEEE 802.11 OFDM PHY: generator
//! polynomials `g0 = 133 (octal)` and `g1 = 171 (octal)`. Higher rates
//! (2/3 and 3/4) are derived by puncturing, exactly as in the standard.
//!
//! The Carpool A-HDR is "coded using the lowest coding rate" (BPSK, rate
//! 1/2), so two OFDM symbols — 96 coded bits — carry the 48-bit Bloom
//! filter (Section 4.1).
//!
//! # Decoder architecture
//!
//! Both public decoders ([`decode`] hard, [`decode_levels_with`] over
//! quantized LLRs) and the crate-private fused RX path run on one
//! fixed-cost integer kernel:
//!
//! * per-bit observations are signed integer levels (quantized LLRs for
//!   soft decisions, ±1 for hard decisions, 0 for punctured erasures),
//!   stored as one flat `[a, b]`-interleaved `i32` lattice;
//! * the add-compare-select loop walks all 32 butterflies with
//!   branchless selects and *plain* (non-saturating) `i32` adds, proved
//!   wrap-free by the scaling analysis below. It has two
//!   implementations with identical integer arithmetic, picked per
//!   decode by run-time CPU detection: a hand-written AVX2 kernel
//!   (8-lane `i32`, four butterfly blocks per step) on x86-64 hosts that
//!   have AVX2, and the portable kernel — straight-line lane arrays the
//!   autovectorizer lifts to baseline SIMD — everywhere else. Entering
//!   the AVX2 kernel is the one `unsafe` block of the library code: a
//!   call to a `#[target_feature(enable = "avx2")]` fn right after
//!   `is_x86_feature_detected!("avx2")` said yes. The kernel itself
//!   uses only register intrinsics (no pointer loads or stores), which
//!   are safe inside such a fn. A unit test requires both kernels to
//!   produce the same survivor words and final path metrics on every
//!   run;
//! * survivor memory is bit-packed, one `u64` word per step. State `s`
//!   has its decision at bit `(s & 1) * 32 + (s >> 1)`: even states fill
//!   the low half, odd states the high half, each in butterfly order, so
//!   the AVX2 word is just two 32-bit compare masks side by side. The
//!   portable kernel ORs each decision into its bit of the two halves,
//!   which the autovectorizer compiles to a constant-mask AND and an OR
//!   reduction. Traceback runs over that window into caller-provided
//!   [`ViterbiScratch`] buffers.
//!
//! The reference is a plain f64 Viterbi oracle in
//! `tests/viterbi_golden.rs`: its golden corpus proves the integer
//! kernel's decisions identical to it on LLRs that sit on the
//! quantization grid.
//!
//! # Quantization scaling analysis
//!
//! LLRs are mapped to `q = round(llr * 2^7)` clamped to ±2^20
//! ([`LLR_QUANT_CLAMP`]). The scaling budget, in order:
//!
//! * **Resolution.** 7 fractional bits (step 1/128). Classical Viterbi
//!   quantization studies show 3–4 soft bits already cost < 0.2 dB on
//!   AWGN; 1/128 steps are far below the noise floor of any operating
//!   point this PHY sweeps.
//! * **Branch cost.** A step's cost is `±q_a ± q_b`, so
//!   `|cost| <= 2 * 2^20 < 2^21` — no overflow in a single add.
//! * **Path-metric spread.** Every `NORM_INTERVAL` steps the minimum
//!   metric is subtracted (a uniform shift, invisible to `argmin`). Any
//!   state is reachable from any other in `K-1 = 6` steps, so the
//!   normalized spread is bounded by `2(K-1) * 2^21 = 12 * 2^21 < 2^25`,
//!   and between normalizations metrics drift by at most
//!   `NORM_INTERVAL * 2^21 = 2^26` from the last normalized frame:
//!   finite metrics stay inside `[-32 * 2^21, 44 * 2^21]`, and the
//!   normalization subtraction `m - min` is at most `76 * 2^21 < 2^28`.
//! * **Wrap freedom without saturation.** The kernel uses plain `i32`
//!   adds (saturating ops compile to compare/select chains that defeat
//!   vectorization). States not yet reached by any finite-cost path
//!   carry the marker `INT_INF = i32::MAX / 2`; every state is reachable
//!   from the seed within `K-1 = 6` steps, so a marker drifts by at most
//!   `6 * 2^21` before a finite candidate wins its select — the global
//!   metric maximum is `INT_INF + 6 * 2^21 < i32::MAX - 2^21`, and the
//!   first normalization (step 32) only ever sees finite-path values.
//!   Adversarial inputs are covered at the boundary: ±inf LLRs saturate
//!   at the quantizer clamp and NaN quantizes to an erasure, so lattice
//!   levels never exceed ±2^20. The AVX2 lane adds wrap silently even in
//!   a build that traps overflow, so its bound is inherited: it performs
//!   the portable kernel's adds, subtractions and minima lane for lane,
//!   and the kernel-equality unit test shows both agree on the same
//!   worst-case lattices on which the trapping portable kernel runs
//!   without overflow.
//!
//! Each of the four bounds (branch cost, unreached marker, finite
//! metrics, normalization subtraction) is a `const` assert next to
//! `NORM_INTERVAL`, evaluated in `i64`: loosening the clamp, the
//! marker or the interval fails the build. The runtime half is a unit
//! test that feeds the portable kernel constant, alternating and
//! erasure-mixed clamp lattices up to the longest SIG-field frame at
//! every rate in a build that traps `i32` overflow;
//! `tests/viterbi_overflow.rs` feeds the same lattices to the public
//! decoders.

/// Constraint length of the 802.11 code.
pub const CONSTRAINT_LENGTH: usize = 7;
/// Number of trellis states (`2^(K-1)`).
pub(crate) const NUM_STATES: usize = 1 << (CONSTRAINT_LENGTH - 1);
/// Generator polynomial g0 = 133 octal.
pub(crate) const G0: u32 = 0o133;
/// Generator polynomial g1 = 171 octal.
pub(crate) const G1: u32 = 0o171;

/// Coding rate of the convolutional code after (optional) puncturing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodeRate {
    /// Rate 1/2: no puncturing.
    #[default]
    Half,
    /// Rate 2/3: puncture pattern keeps 4 of 6 output bits.
    TwoThirds,
    /// Rate 3/4: puncture pattern keeps 4 of 6 output bits per 3 inputs.
    ThreeQuarters,
}

impl CodeRate {
    /// Numerator of the rate fraction.
    pub fn numerator(&self) -> usize {
        match self {
            CodeRate::Half => 1,
            CodeRate::TwoThirds => 2,
            CodeRate::ThreeQuarters => 3,
        }
    }

    /// Denominator of the rate fraction.
    pub fn denominator(&self) -> usize {
        match self {
            CodeRate::Half => 2,
            CodeRate::TwoThirds => 3,
            CodeRate::ThreeQuarters => 4,
        }
    }

    /// The rate as a float (e.g. 0.75 for [`CodeRate::ThreeQuarters`]).
    pub fn as_f64(&self) -> f64 {
        self.numerator() as f64 / self.denominator() as f64
    }

    /// Puncturing pattern applied to the rate-1/2 mother code output.
    ///
    /// The pattern is given per input-bit period as `(keep_a, keep_b)`
    /// pairs, matching IEEE 802.11-2012 Figure 18-9.
    fn puncture_pattern(&self) -> &'static [(bool, bool)] {
        match self {
            CodeRate::Half => &[(true, true)],
            CodeRate::TwoThirds => &[(true, true), (true, false)],
            CodeRate::ThreeQuarters => &[(true, true), (true, false), (false, true)],
        }
    }
}

impl std::fmt::Display for CodeRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.numerator(), self.denominator())
    }
}

#[inline]
const fn parity(x: u32) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Expected `(g0, g1)` output bits for every `(state, input)` trellis
/// transition. State = previous `K-1` input bits; next state =
/// `((state << 1) | input) & (NUM_STATES - 1)`.
const EXPECTED: [[(u8, u8); 2]; NUM_STATES] = build_expected();

const fn build_expected() -> [[(u8, u8); 2]; NUM_STATES] {
    let mut table = [[(0u8, 0u8); 2]; NUM_STATES];
    let mut state = 0;
    while state < NUM_STATES {
        let mut input = 0;
        while input < 2 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "state < NUM_STATES (64) and input < 2, both fit u32; const context"
            )]
            let shift = ((state as u32) << 1) | input as u32;
            table[state][input] = (parity(shift & G0), parity(shift & G1));
            input += 1;
        }
        state += 1;
    }
    table
}

/// Fixed-point scale of quantized LLRs: `q = round(llr * 2^LLR_SCALE_BITS)`.
pub(crate) const LLR_SCALE_BITS: u32 = 7;

/// Saturation bound of a quantized LLR. See the module-level scaling
/// analysis: branch costs stay within `±2^21`, finite path metrics
/// within `[-32 * 2^21, 44 * 2^21]` and unreached-state markers below
/// `INT_INF + 7 * 2^21`, so `i32` arithmetic cannot wrap (the `const`
/// asserts next to `NORM_INTERVAL` check each bound).
pub const LLR_QUANT_CLAMP: i32 = 1 << 20;

/// Path metric of a trellis state not yet reached by any finite-cost
/// path. Half of `i32::MAX`: the marker survives at most `K-1 = 6`
/// plain branch adds of `±2^21` before a finite path wins its select
/// (every state is reachable from the seed in 6 steps), so even the
/// worst transient `INT_INF + 6 * 2^21`, plus the one `±d` the next
/// step adds to it, stays well inside `i32` (asserted next to
/// [`NORM_INTERVAL`]).
const INT_INF: i32 = i32::MAX / 2;

/// `EXPECTED`, re-indexed for the ACS inner loop: for next-state `ns`
/// and predecessor choice `b` (0 = low predecessor `ns >> 1`, 1 = high
/// predecessor `(ns >> 1) | 32`), the expected output pair encoded as
/// `2*g0 + g1` — an index into the four per-step branch costs.
const BRANCH_CODE: [[u8; 2]; NUM_STATES] = build_branch_code();

const fn build_branch_code() -> [[u8; 2]; NUM_STATES] {
    let mut table = [[0u8; 2]; NUM_STATES];
    let mut ns = 0;
    while ns < NUM_STATES {
        let mut b = 0;
        while b < 2 {
            let pred = (ns >> 1) | (b << (CONSTRAINT_LENGTH - 2));
            let input = ns & 1;
            let (e0, e1) = EXPECTED[pred][input];
            table[ns][b] = e0 * 2 + e1;
            b += 1;
        }
        ns += 1;
    }
    table
}

const LLR_SCALE_F: f64 = (1i64 << LLR_SCALE_BITS) as f64;
const LLR_CLAMP_F: f64 = LLR_QUANT_CLAMP as f64;

/// Quantizes one LLR to the integer lattice: `round(llr * 2^7)`,
/// saturated at ±[`LLR_QUANT_CLAMP`]. NaN carries no information and
/// maps to 0 (an erasure), ±inf saturate at the clamp.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "clamped to ±2^20, exactly representable in i32"
)]
pub fn quantize_llr(llr: f64) -> i32 {
    if llr.is_nan() {
        return 0;
    }
    (llr * LLR_SCALE_F).round().clamp(-LLR_CLAMP_F, LLR_CLAMP_F) as i32
}

/// Convolutionally encodes `bits` at the given rate.
///
/// The encoder appends `K-1 = 6` zero tail bits so the trellis terminates
/// in the zero state, then punctures per the 802.11 patterns. Use
/// [`decode`] with the same rate to recover the input.
///
/// # Examples
///
/// ```
/// use carpool_phy::convolutional::{encode, decode, CodeRate};
///
/// let data = vec![1u8, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0];
/// let coded = encode(&data, CodeRate::Half);
/// assert_eq!(decode(&coded, data.len(), CodeRate::Half), data);
/// ```
pub fn encode(bits: &[u8], rate: CodeRate) -> Vec<u8> {
    let mut out = Vec::with_capacity(coded_len(bits.len(), rate) + 1);
    encode_into(bits, rate, &mut out);
    out
}

/// Encodes `bits` (plus the six zero tail bits) and appends the
/// punctured output to `out`: the buffer-reusing form of [`encode`].
///
/// Every input bit writes both mother-code outputs and advances the
/// write position only past the kept ones, so puncturing costs no
/// branch; one slack slot absorbs the last write when it is dropped.
///
/// # Panics
///
/// Panics if any input bit is not 0 or 1.
pub(crate) fn encode_into(bits: &[u8], rate: CodeRate, out: &mut Vec<u8>) {
    let start = out.len();
    let len = coded_len(bits.len(), rate);
    out.resize(start + len + 1, 0);
    let buf = &mut out[start..];
    let pattern = rate.puncture_pattern();
    let (mut state, mut phase, mut pos) = (0usize, 0usize, 0usize);
    // OR of every input: any bit above bit 0 marks a non-binary value.
    let mut seen = 0u8;
    let mut shift_in = |bit: u8| {
        seen |= bit;
        let bit = usize::from(bit & 1);
        let (a, b) = EXPECTED[state][bit];
        state = ((state << 1) | bit) & (NUM_STATES - 1);
        let (keep_a, keep_b) = pattern[phase];
        buf[pos] = a;
        pos += usize::from(keep_a);
        buf[pos] = b;
        pos += usize::from(keep_b);
        phase = if phase + 1 == pattern.len() {
            0
        } else {
            phase + 1
        };
    };
    for &bit in bits {
        shift_in(bit);
    }
    for _ in 1..CONSTRAINT_LENGTH {
        shift_in(0);
    }
    assert!(
        seen <= 1,
        "bit value {} out of range",
        bits.iter().find(|&&b| b > 1).copied().unwrap_or_default()
    );
    debug_assert_eq!(pos, len);
    out.truncate(start + len);
}

/// Number of coded bits produced by [`encode`] for `message_len` input bits.
pub fn coded_len(message_len: usize, rate: CodeRate) -> usize {
    let total_in = message_len + CONSTRAINT_LENGTH - 1;
    let pattern = rate.puncture_pattern();
    let per_period: usize = pattern
        .iter()
        .map(|(a, b)| usize::from(*a) + usize::from(*b))
        .sum();
    let full = total_in / pattern.len();
    let mut n = full * per_period;
    for (a, b) in pattern.iter().take(total_in % pattern.len()) {
        n += usize::from(*a) + usize::from(*b);
    }
    n
}

/// Flat-lattice addressing of the puncture pattern, per period:
/// `(kept_bits, flat_stride, offsets)` where surviving coded bit `r` of
/// a period lands at flat index `period * flat_stride + offsets[r]`.
/// The flat lattice interleaves each trellis step's `(a, b)` pair, so a
/// kept `a` of in-period step `s` sits at `2 * s`, a kept `b` at
/// `2 * s + 1` (`consistent_with_puncture_pattern` pins this to
/// [`CodeRate::puncture_pattern`]).
pub(crate) fn depuncture_layout(rate: CodeRate) -> (usize, usize, &'static [usize]) {
    match rate {
        CodeRate::Half => (2, 2, &[0, 1]),
        CodeRate::TwoThirds => (3, 4, &[0, 1, 2]),
        CodeRate::ThreeQuarters => (4, 6, &[0, 1, 2, 5]),
    }
}

/// Depunctures integer levels in coded (transmission) order into the
/// flat lattice; punctured and missing positions stay zero (erasures).
/// Each rate is a straight period-chunk copy through
/// [`depuncture_layout`] — rate 1/2 is one `copy_from_slice`.
fn depuncture_levels_into(levels: &[i32], total_in: usize, rate: CodeRate, out: &mut Vec<i32>) {
    out.clear();
    out.resize(2 * total_in, 0);
    let n = levels.len().min(coded_len(
        total_in.saturating_sub(CONSTRAINT_LENGTH - 1),
        rate,
    ));
    let (kept, flat, offs) = depuncture_layout(rate);
    if kept == flat {
        // Rate 1/2: every mother bit survives; flat order == coded order.
        out[..n].copy_from_slice(&levels[..n]);
        return;
    }
    let full = n / kept;
    for p in 0..full {
        let base = p * flat;
        let src = p * kept;
        for (r, &off) in offs.iter().enumerate() {
            out[base + off] = levels[src + r];
        }
    }
    for (r, &off) in offs.iter().enumerate().take(n - full * kept) {
        out[full * flat + off] = levels[full * kept + r];
    }
}

/// Reusable decoder workspace: the depunctured lattice, the bit-packed
/// survivor window and the traceback buffer, recycled across calls so
/// the per-frame decode loop allocates nothing after warm-up.
///
/// Create one with `ViterbiScratch::default()` and pass it to
/// [`decode_levels_with`]; [`decode`] allocates a fresh one per call.
/// The receiver keeps one in its `PhyScratch`.
#[derive(Debug, Default)]
pub struct ViterbiScratch {
    /// Integer observation lattice of the kernel: flat
    /// `[a, b]`-interleaved levels, `2 * total_in` entries per decode.
    int_lattice: Vec<i32>,
    /// Survivor window: one decision word per step, bit
    /// [`survivor_bit`]`(s)` set when state `s` selected its high
    /// predecessor.
    survivors: Vec<u64>,
    /// Traceback output buffer (`total_in` bits before truncation).
    decoded: Vec<u8>,
}

impl ViterbiScratch {
    /// Hands out the integer lattice sized and zeroed for `total_in`
    /// trellis steps, for producers (the fused RX demap path) that
    /// scatter quantized levels directly into trellis slots. A zeroed
    /// slot is an erasure, so the producer only writes positions that
    /// carry observations.
    pub(crate) fn lattice_mut(&mut self, total_in: usize) -> &mut [i32] {
        self.int_lattice.clear();
        self.int_lattice.resize(2 * total_in, 0);
        &mut self.int_lattice
    }
}

/// Half the trellis: the butterfly loop walks predecessor pairs
/// `(j, j + 32)`.
const HALF_STATES: usize = NUM_STATES / 2;

/// Branch-cost index of the transition `j -> 2j` (low predecessor,
/// input 0). Both generators tap the newest and the oldest register
/// bit, so within a predecessor pair the other three transitions cost
/// exactly `-`, `-` and `+` this entry's cost — one lookup serves all
/// four edges of the butterfly (proved by `butterfly_sign_symmetry`).
const PAIR_CODE: [usize; HALF_STATES] = build_pair_code();

const fn build_pair_code() -> [usize; HALF_STATES] {
    let mut table = [0usize; HALF_STATES];
    let mut j = 0;
    while j < HALF_STATES {
        table[j] = BRANCH_CODE[2 * j][0] as usize;
        j += 1;
    }
    table
}

/// Steps between path-metric re-normalizations. Between passes the
/// metrics drift by at most `NORM_INTERVAL * 2^21 = 2^26` on top of a
/// `< 2^25` spread — far inside `i32` with the `i32::MAX / 2`
/// not-yet-reachable marker (see the module-level wrap-freedom bullet).
/// Normalization subtracts the running minimum from every state, a
/// uniform shift no comparison can see, so any interval yields
/// bit-identical decisions.
const NORM_INTERVAL: usize = 32;

// Compile-time proof of the module-level scaling analysis. The bounds
// are computed in `i64`, so the asserts cannot overflow themselves.

/// Branch-cost budget of one trellis step: `|d| = |±q_a ± q_b|`.
const MAX_BRANCH_COST: i64 = 1 << 21;
/// `K-1`: every state is reachable from any other in this many steps.
#[expect(clippy::cast_possible_wrap, reason = "K = 7")]
const MEMORY: i64 = CONSTRAINT_LENGTH as i64 - 1;
/// [`NORM_INTERVAL`] as a signed step count.
#[expect(clippy::cast_possible_wrap, reason = "NORM_INTERVAL = 32")]
const NORM_STEPS: i64 = NORM_INTERVAL as i64;
/// `i32::MAX`, widened.
const I32_MAX: i64 = i32::MAX as i64;

// Branch cost: `|d| <= 2 * clamp <= 2^21`.
const _: () = assert!(
    0 < LLR_QUANT_CLAMP && 2 * (LLR_QUANT_CLAMP as i64) <= MAX_BRANCH_COST,
    "branch cost 2 * LLR_QUANT_CLAMP exceeds 2^21"
);

// Unreached marker: `INT_INF` drifts by at most `K-1` branch costs
// before a finite path replaces it; that, plus the `±d` of the next
// step, fits `i32`, and the marker still loses every select against a
// finite path (whose metric is at most `(K-1) * 2^21` by then).
const _: () = assert!(
    INT_INF as i64 + (MEMORY + 1) * MAX_BRANCH_COST <= I32_MAX
        && INT_INF as i64 - (MEMORY + 1) * MAX_BRANCH_COST > MEMORY * MAX_BRANCH_COST,
    "unreached-state marker INT_INF can wrap or win a select"
);

// Finite metrics: normalized metrics lie in `[0, 2(K-1) * 2^21]` and
// drift by at most `NORM_INTERVAL` branch costs before the next
// normalization, so they stay within `[-NORM_INTERVAL * 2^21,
// (2(K-1) + NORM_INTERVAL) * 2^21]`. The first normalization runs
// after every marker is gone (`NORM_INTERVAL > K-1`).
const _: () = assert!(
    NORM_STEPS > MEMORY && (2 * MEMORY + NORM_STEPS) * MAX_BRANCH_COST <= I32_MAX,
    "finite path metrics can wrap between normalizations"
);

// Normalization subtraction in `acs_forward`: `m - min <=
// (2(K-1) + NORM_INTERVAL) * 2^21 + NORM_INTERVAL * 2^21 = 76 * 2^21`.
const _: () = assert!(
    (2 * MEMORY + 2 * NORM_STEPS) * MAX_BRANCH_COST <= I32_MAX,
    "normalization subtraction m - min can wrap"
);

/// Sign masks for the per-butterfly branch cost `d = ±la ± lb`: the
/// `la` term is negated exactly when the pair's branch code has its
/// `g0` bit set (`MASK_A`, bit 2), the `lb` term when the `g1` bit is
/// set (`MASK_B`, bit 1) — the same four-entry cost table
/// `[la+lb, la-lb, lb-la, -la-lb]` the scalar kernel indexed, unrolled
/// into two conditional negations `(x ^ m) - m` with `m ∈ {0, -1}`
/// that vectorize on baseline x86-64.
const MASK_A: [i32; HALF_STATES] = build_cost_masks(2);
/// `lb` companion of [`MASK_A`].
const MASK_B: [i32; HALF_STATES] = build_cost_masks(1);

const fn build_cost_masks(bit: usize) -> [i32; HALF_STATES] {
    let mut table = [0i32; HALF_STATES];
    let mut j = 0;
    while j < HALF_STATES {
        if PAIR_CODE[j] & bit != 0 {
            table[j] = -1;
        }
        j += 1;
    }
    table
}

/// Bit of a step's survivor word that holds state `s`'s decision: even
/// states `2j` at bit `j`, odd states `2j + 1` at bit `32 + j`. Both
/// halves run in butterfly order, which is the order the ACS kernels
/// produce them in.
#[inline]
const fn survivor_bit(s: usize) -> usize {
    (s & 1) * HALF_STATES + (s >> 1)
}

/// One batched add-compare-select step of the portable kernel: reads
/// the 64 path metrics from `cur`, writes the 64 updated metrics to
/// `nxt` and returns the step's survivor word (bit [`survivor_bit`]`(s)`
/// set when state `s` chose its high predecessor). The 32 butterflies
/// are straight-line lane arithmetic — two mask-negations, four plain
/// `i32` adds, two compares, two selects per pair, no data-dependent
/// branches and no saturating ops — which the autovectorizer lifts to
/// SIMD lanes (interleaved stride-2 stores for `nxt`). Butterfly `j`
/// ORs its two decisions into bit `j` of the even-state and odd-state
/// halves, which vectorizes to a constant-mask AND and an OR reduction.
/// The AVX2 kernel performs the same operations lane for lane.
///
/// Wrap freedom of the plain adds: `d` is two clamped levels
/// (`|d| <= 2^21`); an unreached-state marker in `cur` is at most
/// `INT_INF + 6 * 2^21` (markers survive at most `K-1 = 6` steps), and
/// finite metrics lie in `[-32 * 2^21, 44 * 2^21]` between
/// normalizations, so `m ± d` fits `i32`. The `const` asserts next to
/// [`NORM_INTERVAL`] check these bounds at compile time; the
/// `portable_kernel_cannot_wrap_on_clamp_lattices` unit test checks
/// them at run time.
#[inline]
fn acs_step(la: i32, lb: i32, cur: &[i32; NUM_STATES], nxt: &mut [i32; NUM_STATES]) -> u64 {
    let mut even = 0u32;
    let mut odd = 0u32;
    for j in 0..HALF_STATES {
        let m0 = cur[j];
        let m1 = cur[j + HALF_STATES];
        // Branch cost of the `j -> 2j` edge: conditional negation via
        // xor/subtract keeps the expression branch- and multiply-free.
        let d = ((la ^ MASK_A[j]) - MASK_A[j]) + ((lb ^ MASK_B[j]) - MASK_B[j]);
        // Next state 2j (input 0): low predecessor costs +d, high -d.
        let a0 = m0 + d;
        let b0 = m1 - d;
        // Strict `<` keeps the low predecessor on ties — the same
        // convention as the ascending-state scan of the f64 oracle.
        let t0 = b0 < a0;
        nxt[2 * j] = if t0 { b0 } else { a0 };
        // Next state 2j+1 (input 1): signs flip.
        let a1 = m0 - d;
        let b1 = m1 + d;
        let t1 = b1 < a1;
        nxt[2 * j + 1] = if t1 { b1 } else { a1 };
        even |= u32::from(t0) << j;
        odd |= u32::from(t1) << j;
    }
    u64::from(even) | u64::from(odd) << HALF_STATES
}

/// Batched add-compare-select forward pass over the flat integer
/// lattice (`[a, b]` interleaved, two entries per trellis step).
///
/// Fills `survivors` with one packed decision word per step (layout:
/// [`survivor_bit`]). Runs the AVX2 kernel when the host has AVX2 and
/// the portable kernel otherwise; both produce the same words. Path
/// metrics have the running minimum subtracted every [`NORM_INTERVAL`]
/// steps — a uniform shift that preserves every comparison. The
/// normalization subtraction itself cannot wrap: at that point every
/// metric is finite (first pass runs at step 32 > 6) with
/// `m <= 44 * 2^21` and `min >= -32 * 2^21`, so `m - min <= 76 * 2^21 <
/// 2^28` (a `const` assert next to [`NORM_INTERVAL`]).
fn acs_forward(lattice: &[i32], survivors: &mut Vec<u64>) {
    if try_acs_forward_avx2(lattice, survivors).is_none() {
        acs_forward_portable(lattice, survivors);
    }
}

/// [`acs_forward`] on the portable kernel. Path metrics ping-pong
/// between two stack buffers (no copy-back). Returns the final path
/// metrics, which the tests compare with the AVX2 kernel's.
fn acs_forward_portable(lattice: &[i32], survivors: &mut Vec<u64>) -> [i32; NUM_STATES] {
    let mut bufs = [[INT_INF; NUM_STATES]; 2];
    bufs[0][0] = 0; // Encoder starts in the zero state.
    let mut cur = 0usize;
    survivors.clear();
    survivors.reserve(lattice.len() / 2);
    for (t, step) in lattice.chunks_exact(2).enumerate() {
        let (lo, hi) = bufs.split_at_mut(1);
        let (src, dst) = if cur == 0 {
            (&lo[0], &mut hi[0])
        } else {
            (&hi[0], &mut lo[0])
        };
        survivors.push(acs_step(step[0], step[1], src, dst));
        cur ^= 1;
        if (t + 1) % NORM_INTERVAL == 0 {
            let min = bufs[cur].iter().copied().min().unwrap_or(0);
            for m in bufs[cur].iter_mut() {
                *m -= min;
            }
        }
    }
    bufs[cur]
}

/// Runs [`acs_forward_avx2`] if this host has AVX2 and returns its
/// final path metrics; `None`, with `survivors` untouched, otherwise.
#[cfg(target_arch = "x86_64")]
fn try_acs_forward_avx2(lattice: &[i32], survivors: &mut Vec<u64>) -> Option<[i32; NUM_STATES]> {
    if !std::is_x86_feature_detected!("avx2") {
        return None;
    }
    #[expect(
        unsafe_code,
        reason = "the AVX2 ACS kernel's entry after run-time detection; the one unsafe block of the library code"
    )]
    // SAFETY: the only precondition of calling a
    // `#[target_feature(enable = "avx2")]` fn is that the CPU supports
    // AVX2, which `is_x86_feature_detected!` confirmed just above.
    let metrics = unsafe { acs_forward_avx2(lattice, survivors) };
    Some(metrics)
}

/// No AVX2 kernel off x86-64: the portable kernel always runs.
#[cfg(not(target_arch = "x86_64"))]
fn try_acs_forward_avx2(_lattice: &[i32], _survivors: &mut Vec<u64>) -> Option<[i32; NUM_STATES]> {
    None
}

/// [`acs_forward`] on 8-lane AVX2 `i32` vectors, bit-identical to
/// [`acs_forward_portable`]. Vector `k` holds the metrics of states
/// `8k..8k + 8`; a step walks the butterflies `j` in four blocks of
/// eight, with the low predecessors `j` in vector `b` and the high
/// predecessors `j + 32` in vector `b + 4` of block `b`:
///
/// * the branch cost `d = ±la ± lb` is two `sign` ops against the ±1
///   forms of [`MASK_A`] / [`MASK_B`];
/// * each survivor metric is `min` of its two candidates, the value the
///   portable kernel's strict-`<` select keeps, ties included;
/// * `cmpgt` + `movemask` turns a block's eight decisions into eight
///   bits of the survivor word in one instruction (even next-states
///   into the low half, odd ones into the high half);
/// * `unpacklo/hi` + `permute2x128` interleave the even and odd
///   next-state metrics back into state order for the next step;
/// * normalization takes a vector min tree and subtracts the broadcast
///   minimum on the portable kernel's schedule.
///
/// Returns the final path metrics, in state order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn acs_forward_avx2(lattice: &[i32], survivors: &mut Vec<u64>) -> [i32; NUM_STATES] {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_castsi256_ps, _mm256_cmpgt_epi32, _mm256_extract_epi32,
        _mm256_min_epi32, _mm256_movemask_ps, _mm256_permute2x128_si256, _mm256_set1_epi32,
        _mm256_setr_epi32, _mm256_shuffle_epi32, _mm256_sign_epi32, _mm256_sub_epi32,
        _mm256_unpackhi_epi32, _mm256_unpacklo_epi32,
    };

    /// Lanes `8 * block..8 * block + 8` of a per-butterfly mask table as
    /// `sign` operands: -1 where the mask negates, +1 where it does not.
    #[target_feature(enable = "avx2")]
    fn signs(mask: &[i32; HALF_STATES], block: usize) -> __m256i {
        let s = |k: usize| mask[8 * block + k] | 1;
        _mm256_setr_epi32(s(0), s(1), s(2), s(3), s(4), s(5), s(6), s(7))
    }

    /// Eight decision lanes (all-ones or zero) as eight bits.
    #[target_feature(enable = "avx2")]
    fn decision_bits(taken: __m256i) -> u64 {
        u64::from(_mm256_movemask_ps(_mm256_castsi256_ps(taken)).cast_unsigned())
    }

    let sign_a = [0, 1, 2, 3].map(|b| signs(&MASK_A, b));
    let sign_b = [0, 1, 2, 3].map(|b| signs(&MASK_B, b));
    let mut metrics = [_mm256_set1_epi32(INT_INF); 8];
    // Encoder starts in the zero state.
    metrics[0] = _mm256_setr_epi32(
        0, INT_INF, INT_INF, INT_INF, INT_INF, INT_INF, INT_INF, INT_INF,
    );
    survivors.clear();
    survivors.reserve(lattice.len() / 2);
    for (t, step) in lattice.chunks_exact(2).enumerate() {
        let la = _mm256_set1_epi32(step[0]);
        let lb = _mm256_set1_epi32(step[1]);
        let mut next = metrics;
        let mut word = 0u64;
        for b in 0..4 {
            let d = _mm256_add_epi32(
                _mm256_sign_epi32(la, sign_a[b]),
                _mm256_sign_epi32(lb, sign_b[b]),
            );
            let (m0, m1) = (metrics[b], metrics[b + 4]);
            // Next states 2j (input 0): low predecessor +d, high -d.
            let a0 = _mm256_add_epi32(m0, d);
            let b0 = _mm256_sub_epi32(m1, d);
            // Next states 2j+1 (input 1): signs flip.
            let a1 = _mm256_sub_epi32(m0, d);
            let b1 = _mm256_add_epi32(m1, d);
            word |= decision_bits(_mm256_cmpgt_epi32(a0, b0)) << (8 * b);
            word |= decision_bits(_mm256_cmpgt_epi32(a1, b1)) << (HALF_STATES + 8 * b);
            let (even, odd) = (_mm256_min_epi32(a0, b0), _mm256_min_epi32(a1, b1));
            // Per 128-bit half: `lo` = states 2j, 2j+1 for j = 0, 1 and
            // j = 4, 5 of the block, `hi` the same for j = 2, 3 and 6, 7.
            let lo = _mm256_unpacklo_epi32(even, odd);
            let hi = _mm256_unpackhi_epi32(even, odd);
            next[2 * b] = _mm256_permute2x128_si256::<0x20>(lo, hi);
            next[2 * b + 1] = _mm256_permute2x128_si256::<0x31>(lo, hi);
        }
        survivors.push(word);
        metrics = next;
        if (t + 1) % NORM_INTERVAL == 0 {
            let mut min = metrics[0];
            for &m in &metrics[1..] {
                min = _mm256_min_epi32(min, m);
            }
            min = _mm256_min_epi32(min, _mm256_permute2x128_si256::<0x01>(min, min));
            min = _mm256_min_epi32(min, _mm256_shuffle_epi32::<0b01_00_11_10>(min));
            min = _mm256_min_epi32(min, _mm256_shuffle_epi32::<0b10_11_00_01>(min));
            for m in &mut metrics {
                *m = _mm256_sub_epi32(*m, min);
            }
        }
    }
    let mut out = [0; NUM_STATES];
    for (lanes, v) in out.chunks_exact_mut(8).zip(metrics) {
        lanes.copy_from_slice(&[
            _mm256_extract_epi32::<0>(v),
            _mm256_extract_epi32::<1>(v),
            _mm256_extract_epi32::<2>(v),
            _mm256_extract_epi32::<3>(v),
            _mm256_extract_epi32::<4>(v),
            _mm256_extract_epi32::<5>(v),
            _mm256_extract_epi32::<6>(v),
            _mm256_extract_epi32::<7>(v),
        ]);
    }
    out
}

/// Traceback over the packed survivor window, newest step first. The
/// tail bits force the encoder into the zero state, whose path metric is
/// always finite (the all-zeros path accrues only finite costs), so the
/// start state is unconditionally 0.
fn traceback(survivors: &[u64], message_len: usize, decoded: &mut Vec<u8>) {
    let total_in = survivors.len();
    decoded.clear();
    decoded.resize(total_in, 0);
    let mut state = 0usize;
    for t in (0..total_in).rev() {
        decoded[t] = u8::from(state & 1 == 1);
        let high = ((survivors[t] >> survivor_bit(state)) & 1) as usize;
        state = (state >> 1) | (high << (CONSTRAINT_LENGTH - 2));
    }
    decoded.truncate(message_len);
}

/// Hard-decision Viterbi decoder for streams produced by [`encode`].
///
/// `message_len` is the number of *information* bits expected (the tail is
/// handled internally). Extra or missing coded bits degrade gracefully:
/// missing tail positions are treated as erasures. Non-bit input values
/// are treated as 0.
///
/// Bit 1 becomes level +1 and every other value −1, then
/// [`decode_levels_with`] runs. On these levels the kernel's path costs
/// are an affine function of the Hamming metric (`cost = 2 *
/// mismatches − observed_bits`, the offset identical for every path at
/// a given step), so its decisions — ties included — match a classical
/// hard-decision Viterbi exactly.
pub fn decode(coded: &[u8], message_len: usize, rate: CodeRate) -> Vec<u8> {
    let levels: Vec<i32> = coded.iter().map(|&b| if b == 1 { 1 } else { -1 }).collect();
    decode_levels_with(&levels, message_len, rate, &mut ViterbiScratch::default())
}

/// Integer Viterbi decoder over quantized levels, with a caller-provided
/// [`ViterbiScratch`] so repeated decodes reuse the lattice and
/// traceback buffers instead of reallocating them.
///
/// `levels` are per-coded-bit observations in coded (transmission)
/// order: quantized LLRs (see [`quantize_llr`]) for soft decisions, ±1
/// for hard ones. Positive favours bit 1; zero is an erasure, as is
/// every position past the end of `levels`.
///
/// # Examples
///
/// ```
/// use carpool_phy::convolutional::{
///     decode_levels_with, encode, quantize_llr, CodeRate, ViterbiScratch,
/// };
///
/// let data = vec![1u8, 0, 1, 1, 0, 0, 1, 0];
/// let coded = encode(&data, CodeRate::Half);
/// // Confident LLRs: +4 for 1, -4 for 0.
/// let levels: Vec<i32> = coded
///     .iter()
///     .map(|&b| quantize_llr(if b == 1 { 4.0 } else { -4.0 }))
///     .collect();
/// let mut scratch = ViterbiScratch::default();
/// assert_eq!(decode_levels_with(&levels, data.len(), CodeRate::Half, &mut scratch), data);
/// ```
pub fn decode_levels_with(
    levels: &[i32],
    message_len: usize,
    rate: CodeRate,
    scratch: &mut ViterbiScratch,
) -> Vec<u8> {
    if message_len == 0 {
        return Vec::new();
    }
    let total_in = message_len + CONSTRAINT_LENGTH - 1;
    let ViterbiScratch {
        int_lattice,
        survivors,
        decoded,
    } = scratch;
    depuncture_levels_into(levels, total_in, rate, int_lattice);
    acs_forward(int_lattice, survivors);
    traceback(survivors, message_len, decoded);
    decoded.clone()
}

/// Runs the forward pass and traceback over a lattice the caller has
/// already scattered into [`ViterbiScratch::lattice_mut`] — the final
/// stage of the fused demap→deinterleave→depuncture RX path, which
/// skips the coded-order intermediate entirely.
// The scratch is not cleared here: the caller fully scatters the lattice
// through `lattice_mut` by contract, and the forward pass then
// overwrites every metric column it reads.
pub(crate) fn decode_prepared(message_len: usize, scratch: &mut ViterbiScratch) -> Vec<u8> {
    if message_len == 0 {
        return Vec::new();
    }
    let total_in = message_len + CONSTRAINT_LENGTH - 1;
    let ViterbiScratch {
        int_lattice,
        survivors,
        decoded,
    } = scratch;
    debug_assert_eq!(int_lattice.len(), 2 * total_in);
    acs_forward(int_lattice, survivors);
    traceback(survivors, message_len, decoded);
    decoded.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random_bits(n: usize, seed: u64) -> Vec<u8> {
        // xorshift so the tests don't need an RNG dependency here.
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 1) as u8
            })
            .collect()
    }

    #[test]
    fn known_encoder_output() {
        // First input bit 1 from zero state: shift = 0000001.
        // g0 = 1011011 -> parity(0000001 & 1011011) = 1
        // g1 = 1111001 -> parity(0000001 & 1111001) = 1
        let coded = encode(&[1], CodeRate::Half);
        assert_eq!(coded.len(), coded_len(1, CodeRate::Half));
        assert_eq!(&coded[..2], &[1, 1]);
    }

    #[test]
    fn coded_len_matches_encode() {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            for n in [1usize, 2, 3, 17, 48, 100] {
                let bits = pseudo_random_bits(n, 7);
                assert_eq!(
                    encode(&bits, rate).len(),
                    coded_len(n, rate),
                    "rate {rate} n {n}"
                );
            }
        }
    }

    #[test]
    fn round_trip_clean_channel_all_rates() {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            for n in [1usize, 5, 48, 96, 333] {
                let bits = pseudo_random_bits(n, n as u64 + 1);
                let coded = encode(&bits, rate);
                let decoded = decode(&coded, n, rate);
                assert_eq!(decoded, bits, "rate {rate} n {n}");
            }
        }
    }

    #[test]
    fn corrects_scattered_errors_at_half_rate() {
        let bits = pseudo_random_bits(200, 42);
        let mut coded = encode(&bits, CodeRate::Half);
        // Flip well-separated bits; free distance 10 handles these easily.
        for pos in (0..coded.len()).step_by(45) {
            coded[pos] ^= 1;
        }
        assert_eq!(decode(&coded, 200, CodeRate::Half), bits);
    }

    #[test]
    fn corrects_isolated_error_at_three_quarters() {
        let bits = pseudo_random_bits(120, 9);
        let mut coded = encode(&bits, CodeRate::ThreeQuarters);
        coded[30] ^= 1;
        assert_eq!(decode(&coded, 120, CodeRate::ThreeQuarters), bits);
    }

    #[test]
    fn heavy_corruption_fails_gracefully() {
        let bits = pseudo_random_bits(100, 3);
        let coded = encode(&bits, CodeRate::Half);
        let garbage: Vec<u8> = coded.iter().map(|b| b ^ 1).collect();
        let decoded = decode(&garbage, 100, CodeRate::Half);
        // No panic and correct length; content may differ.
        assert_eq!(decoded.len(), 100);
    }

    #[test]
    fn truncated_input_is_tolerated() {
        let bits = pseudo_random_bits(64, 11);
        let coded = encode(&bits, CodeRate::Half);
        let decoded = decode(&coded[..coded.len() - 8], 64, CodeRate::Half);
        assert_eq!(decoded.len(), 64);
        // The head should still be correct; only tail positions were erased.
        assert_eq!(&decoded[..50], &bits[..50]);
    }

    #[test]
    fn empty_message() {
        assert!(decode(&[], 0, CodeRate::Half).is_empty());
    }

    #[test]
    fn butterfly_sign_symmetry() {
        // The pair-butterfly kernel relies on all four edges of a
        // predecessor pair costing ± one value. Codes 0..=3 index the
        // per-step cost table [la+lb, la-lb, lb-la, -la-lb], in which
        // `costs[3 - k] == -costs[k]`; so the claim is that flipping
        // either the input bit or the high predecessor bit complements
        // the branch code.
        for j in 0..HALF_STATES {
            let d = usize::from(BRANCH_CODE[2 * j][0]);
            assert_eq!(PAIR_CODE[j], d);
            assert_eq!(
                usize::from(BRANCH_CODE[2 * j][1]),
                3 - d,
                "high pred, input 0"
            );
            assert_eq!(
                usize::from(BRANCH_CODE[2 * j + 1][0]),
                3 - d,
                "low pred, input 1"
            );
            assert_eq!(
                usize::from(BRANCH_CODE[2 * j + 1][1]),
                d,
                "high pred, input 1"
            );
        }
    }

    #[test]
    fn consistent_with_puncture_pattern() {
        // depuncture_layout is a flat-index re-statement of
        // puncture_pattern; derive one from the other and compare.
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let (kept, flat, offs) = depuncture_layout(rate);
            let pattern = rate.puncture_pattern();
            assert_eq!(flat, 2 * pattern.len(), "rate {rate}");
            let mut expect = Vec::new();
            for (s, &(ka, kb)) in pattern.iter().enumerate() {
                if ka {
                    expect.push(2 * s);
                }
                if kb {
                    expect.push(2 * s + 1);
                }
            }
            assert_eq!(kept, expect.len(), "rate {rate}");
            assert_eq!(offs, expect.as_slice(), "rate {rate}");
        }
    }

    const RATES: [CodeRate; 3] = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];

    /// Information bits of the longest payload the 16-bit SIG length
    /// field allows (65,535 bytes).
    const LONGEST_FRAME_BITS: usize = 8 * 65_535;

    /// The worst-case level patterns over `n` coded bits, by name: every
    /// level at the quantizer clamp, constant or alternating in sign, or
    /// mixed with erasures.
    fn clamp_patterns(n: usize) -> [(&'static str, Vec<i32>); 4] {
        let c = LLR_QUANT_CLAMP;
        [
            ("all +clamp", vec![c; n]),
            ("all -clamp", vec![-c; n]),
            (
                "alternating ±clamp",
                (0..n).map(|k| if k % 2 == 0 { c } else { -c }).collect(),
            ),
            (
                "±clamp with erasures",
                (0..n).map(|k| [c, 0, -c, -c, 0, c, 0][k % 7]).collect(),
            ),
        ]
    }

    /// `n` seeded levels, uniform over `-span..=span`.
    fn random_levels(n: usize, span: i32, seed: u64) -> Vec<i32> {
        let mut x = seed | 1;
        let width = u64::from(2 * span.unsigned_abs() + 1);
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                i32::try_from(x % width).unwrap() - span
            })
            .collect()
    }

    /// The flat trellis lattice of coded-order `levels` for a
    /// `message_len`-bit frame.
    fn lattice_of(levels: &[i32], message_len: usize, rate: CodeRate) -> Vec<i32> {
        let mut lattice = Vec::new();
        depuncture_levels_into(
            levels,
            message_len + CONSTRAINT_LENGTH - 1,
            rate,
            &mut lattice,
        );
        lattice
    }

    /// One kernel's output over a lattice.
    struct KernelRun {
        words: Vec<u64>,
        metrics: [i32; NUM_STATES],
    }

    /// The portable kernel's run and decoded bits over `lattice`, and
    /// the AVX2 kernel's run when this host has AVX2.
    fn run_kernels(lattice: &[i32], message_len: usize) -> (KernelRun, Vec<u8>, Option<KernelRun>) {
        let mut words = Vec::new();
        let metrics = acs_forward_portable(lattice, &mut words);
        let mut bits = Vec::new();
        traceback(&words, message_len, &mut bits);
        let mut avx2_words = Vec::new();
        let avx2 = try_acs_forward_avx2(lattice, &mut avx2_words).map(|metrics| KernelRun {
            words: avx2_words,
            metrics,
        });
        (KernelRun { words, metrics }, bits, avx2)
    }

    /// Requires the AVX2 kernel (when it ran) to match the portable one
    /// lane for lane: equal survivor words, equal final path metrics and
    /// the same decoded bits.
    fn assert_kernels_agree(
        what: &str,
        message_len: usize,
        (portable, bits, avx2): &(KernelRun, Vec<u8>, Option<KernelRun>),
    ) {
        let Some(avx2) = avx2 else { return };
        assert!(
            avx2.words == portable.words,
            "{what}: survivor words differ, first at step {:?} of {}",
            avx2.words
                .iter()
                .zip(&portable.words)
                .position(|(a, p)| a != p),
            portable.words.len()
        );
        assert_eq!(
            avx2.metrics, portable.metrics,
            "{what}: final path metrics differ"
        );
        let mut avx2_bits = Vec::new();
        traceback(&avx2.words, message_len, &mut avx2_bits);
        assert_eq!(&avx2_bits, bits, "{what}: decoded bits differ");
    }

    /// Notes on stderr, past the harness's output capture, that this
    /// host can only check the portable kernel.
    fn note_no_avx2(test: &str) {
        use std::io::Write;
        let _ = writeln!(
            std::io::stderr(),
            "note: {test}: this host has no AVX2 kernel; only the portable kernel was checked"
        );
    }

    #[test]
    fn avx2_and_portable_kernels_agree_bit_for_bit() {
        // Lengths around the phase boundaries (markers alive for the
        // first six steps, the first normalization at step 32) plus a
        // long frame; the trellis runs six tail steps past each.
        let mut avx2_runs = 0;
        for (seed, rate) in [11u64, 13, 17].into_iter().zip(RATES) {
            for message_len in [1, 5, 6, 26, 27, 31, 32, 33, 64, 4096] {
                let n = coded_len(message_len, rate);
                let mut lattices = clamp_patterns(n).to_vec();
                lattices.push(("random levels", random_levels(n, LLR_QUANT_CLAMP, seed)));
                lattices.push(("tie-prone small levels", random_levels(n, 3, seed)));
                for (name, levels) in lattices {
                    let what = format!("{name}, rate {rate}, {message_len} bits");
                    let run = run_kernels(&lattice_of(&levels, message_len, rate), message_len);
                    assert_kernels_agree(&what, message_len, &run);
                    avx2_runs += usize::from(run.2.is_some());
                }
            }
        }
        if avx2_runs == 0 {
            note_no_avx2("avx2_and_portable_kernels_agree_bit_for_bit");
        }
    }

    /// Proves this build traps `i32` overflow. The probe's own "attempt
    /// to add with overflow" panic is expected: it shows up first in a
    /// failing test's captured output, before the panic that failed the
    /// test.
    fn assert_overflow_traps() {
        let wrapped = std::panic::catch_unwind(|| std::hint::black_box(i32::MAX) + 1);
        assert!(
            wrapped.is_err(),
            "this build does not trap i32 overflow, so the kernel runs below \
             would prove nothing; run the test with overflow checks on"
        );
    }

    /// Runs the trapping portable kernel over one worst-case lattice,
    /// then requires the wrapping AVX2 kernel to match it lane for lane.
    /// An all-`-clamp` lattice is the all-zeros codeword.
    fn check_cannot_wrap(name: &str, levels: &[i32], message_len: usize, rate: CodeRate) -> bool {
        let what = format!("{name}, rate {rate}, {message_len} bits");
        let run = run_kernels(&lattice_of(levels, message_len, rate), message_len);
        assert_eq!(run.1.len(), message_len, "{what}");
        if levels.iter().all(|&q| q == -LLR_QUANT_CLAMP) {
            assert!(
                run.1.iter().all(|&b| b == 0),
                "{what}: must decode to zeros"
            );
        }
        assert_kernels_agree(&what, message_len, &run);
        run.2.is_some()
    }

    #[test]
    fn portable_kernel_cannot_wrap_on_clamp_lattices() {
        assert_overflow_traps();
        let mut avx2_checked = false;
        for rate in RATES {
            for message_len in [1, 5, 6, 26, 27, 64, 4_096] {
                for (name, levels) in clamp_patterns(coded_len(message_len, rate)) {
                    avx2_checked |= check_cannot_wrap(name, &levels, message_len, rate);
                }
            }
        }
        // The longest frame the SIG length field allows. One pattern per
        // rate keeps the unoptimized run short; together the three cover
        // a constant, an alternating and an erasure-mixed lattice over
        // ~16k normalization passes each.
        for (rate, pick) in RATES.into_iter().zip([0, 2, 3]) {
            let (name, levels) = &clamp_patterns(coded_len(LONGEST_FRAME_BITS, rate))[pick];
            avx2_checked |= check_cannot_wrap(name, levels, LONGEST_FRAME_BITS, rate);
        }
        if !avx2_checked {
            note_no_avx2("portable_kernel_cannot_wrap_on_clamp_lattices");
        }
    }

    #[test]
    fn rate_arithmetic() {
        assert_eq!(CodeRate::Half.as_f64(), 0.5);
        assert_eq!(CodeRate::TwoThirds.to_string(), "2/3");
        assert!((CodeRate::ThreeQuarters.as_f64() - 0.75).abs() < 1e-12);
    }
}
