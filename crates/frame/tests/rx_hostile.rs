//! Hostile input to the Carpool receive entry point,
//! `receive_carpool_obs_with_scratch`: frames cut at every symbol
//! boundary, silent and NaN/∞-laced buffers, random A-HDRs, and SIGs
//! whose length or MCS points past the end of the buffer.
//!
//! Every call must return `Ok` or `Err`; a panic fails the test. Every
//! call must also allocate in proportion to the buffer it was handed,
//! not to what a hostile header claims: the counting allocator bounds
//! each call's allocations by a constant plus a per-symbol budget.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::panic::{catch_unwind, AssertUnwindSafe};

use carpool_bloom::DEFAULT_HASHES;
use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{
    receive_carpool_obs_with_scratch, CarpoolFrame, CarpoolReception, Subframe,
};
use carpool_frame::sig::Sig;
use carpool_frame::FrameError;
use carpool_obs::Obs;
use carpool_phy::math::Complex64;
use carpool_phy::mcs::Mcs;
use carpool_phy::ofdm::SYMBOL_LEN;
use carpool_phy::preamble::PREAMBLE_LEN;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{Estimation, PhyScratch, SectionLayout};
use carpool_phy::tx::{transmit, SectionSpec, SideChannelConfig};
use counting_alloc::{allocations_during, CountingAlloc};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations any one receive may make regardless of the buffer: the
/// decoder setup, a fresh scratch's first-use buffers (scatter maps,
/// Viterbi lattice) and the result.
const ALLOC_BASE: usize = 48;

/// Allocations per OFDM symbol of the buffer. A section allocates a
/// few vectors plus one row per decoded symbol, and every section spans
/// at least one symbol. The cases below peak at `5 + 4 * symbols`.
const ALLOC_PER_SYMBOL: usize = 4;

/// Side channel of every frame here, as `CarpoolFrame::new` configures it.
fn side_channel() -> Option<SideChannelConfig> {
    Some(SideChannelConfig::default())
}

/// Receives `samples` as `station` with a fresh scratch and no
/// observer. Fails the test, naming `what`, if the receiver panics or
/// allocates beyond the budget for a buffer of this length.
#[expect(clippy::panic, reason = "test helper: a receiver panic fails the test")]
fn receive_checked(
    what: &str,
    samples: &[Complex64],
    station: MacAddress,
    estimation: Estimation,
) -> Result<CarpoolReception, FrameError> {
    let obs = Obs::noop();
    let side_channel = side_channel();
    let mut scratch = PhyScratch::default();
    let (allocs, outcome) = allocations_during(|| {
        catch_unwind(AssertUnwindSafe(|| {
            receive_carpool_obs_with_scratch(
                samples,
                station,
                estimation,
                DEFAULT_HASHES,
                side_channel,
                &obs,
                &mut scratch,
            )
        }))
    });
    let Ok(result) = outcome else {
        panic!("{what}: the receiver panicked");
    };
    let symbols = samples.len() / SYMBOL_LEN;
    assert!(
        allocs <= ALLOC_BASE + ALLOC_PER_SYMBOL * symbols,
        "{what}: {allocs} allocations for a {symbols}-symbol buffer"
    );
    result
}

/// A frame of `n` subframes for stations `0..n`, with random MCSs and
/// short random payloads.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn random_frame(rng: &mut StdRng, n: usize) -> CarpoolFrame {
    let subframes = (0..n)
        .map(|k| {
            let mcs = Mcs::ALL[rng.gen_range(0..Mcs::ALL.len())];
            let len = rng.gen_range(1..=24);
            let payload = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
            Subframe::new(MacAddress::station(k as u16), mcs, payload)
        })
        .collect();
    CarpoolFrame::new(subframes).expect("valid frame")
}

/// Transmits tampered section specs.
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn samples_of(specs: &[SectionSpec]) -> Vec<Complex64> {
    transmit(specs).expect("valid specs").samples
}

/// The estimation mode for the `i`-th case: alternate the two.
fn estimation(i: usize) -> Estimation {
    if i.is_multiple_of(2) {
        Estimation::Standard
    } else {
        Estimation::Rte(CalibrationRule::Average)
    }
}

#[test]
fn frames_cut_at_every_symbol_boundary() {
    let mut rng = StdRng::seed_from_u64(0xC07_2026);
    for n in 1..=8 {
        let frame = random_frame(&mut rng, n);
        let samples = frame.transmit().expect("valid frame").samples;
        let symbols = (samples.len() - PREAMBLE_LEN) / SYMBOL_LEN;
        let mut cuts: Vec<usize> = vec![0, 1, PREAMBLE_LEN / 2, PREAMBLE_LEN - 1];
        cuts.extend((0..=symbols).map(|k| PREAMBLE_LEN + k * SYMBOL_LEN));
        cuts.push(PREAMBLE_LEN + SYMBOL_LEN / 2);
        // The last receiver decodes every SIG; the outsider drops early
        // or, on a Bloom false positive, walks the frame too.
        let last = MacAddress::station(n as u16 - 1);
        for station in [last, MacAddress::station(900)] {
            for (i, &len) in cuts.iter().enumerate() {
                let what = format!("{n} subframes cut to {len} samples, {station:?}");
                let rx = receive_checked(&what, &samples[..len], station, estimation(i));
                if len == samples.len() && station == last {
                    let rx = rx.expect("the whole frame decodes");
                    assert_eq!(
                        rx.payload_at(n - 1),
                        Some(&frame.subframes()[n - 1].payload[..]),
                        "{what}"
                    );
                }
            }
        }
    }
}

#[test]
fn silent_and_non_finite_buffers() {
    let mut rng = StdRng::seed_from_u64(0x51_1E47);
    let frame = random_frame(&mut rng, 3);
    let clean = frame.transmit().expect("valid frame").samples;
    let n = clean.len();
    let nan = Complex64::new(f64::NAN, 0.0);
    let inf = Complex64::new(f64::INFINITY, f64::NEG_INFINITY);
    let laced = |every: usize, value: Complex64, from: usize, to: usize| {
        let mut s = clean.clone();
        for x in s[from..to].iter_mut().step_by(every) {
            *x = value;
        }
        s
    };
    let ahdr = PREAMBLE_LEN..PREAMBLE_LEN + 2 * SYMBOL_LEN;
    let sig = ahdr.end..ahdr.end + SYMBOL_LEN;
    let buffers: Vec<(&str, Vec<Complex64>)> = vec![
        ("empty", Vec::new()),
        ("silent preamble", vec![Complex64::ZERO; PREAMBLE_LEN]),
        ("silent frame", vec![Complex64::ZERO; n]),
        ("all NaN", vec![nan; n]),
        ("all ∞", vec![inf; n]),
        ("NaN every 13th sample", laced(13, nan, 0, n)),
        ("∞ every 97th sample", laced(97, inf, 0, n)),
        ("one NaN in the preamble", laced(n, nan, 3, PREAMBLE_LEN)),
        ("NaN-laced A-HDR", laced(5, nan, ahdr.start, ahdr.end)),
        ("∞-laced A-HDR", laced(7, inf, ahdr.start, ahdr.end)),
        ("NaN-laced first SIG", laced(3, nan, sig.start, sig.end)),
        ("∞-laced payloads", laced(11, inf, sig.end, n)),
    ];
    for (i, (name, samples)) in buffers.iter().enumerate() {
        for k in [0u16, 2, 900] {
            let what = format!("{name}, station {k}");
            let _ = receive_checked(&what, samples, MacAddress::station(k), estimation(i));
        }
    }
}

#[test]
fn random_ahdrs_decode_whatever_they_name() {
    // A random A-HDR names random subframes. The SIGs are intact, so the
    // walk always succeeds, and every payload it decodes is the one
    // transmitted at that index.
    let mut rng = StdRng::seed_from_u64(0xA4D2_2026);
    for trial in 0..48 {
        let n = rng.gen_range(1..=8);
        let frame = random_frame(&mut rng, n);
        let mut specs = frame.to_specs();
        specs[0].bits = (0..specs[0].bits.len())
            .map(|_| rng.gen_range(0..=1u8))
            .collect();
        let samples = samples_of(&specs);
        for k in [0u16, n as u16 - 1, 900] {
            let what = format!("trial {trial}, {n} subframes, station {k}");
            let rx = receive_checked(&what, &samples, MacAddress::station(k), estimation(trial))
                .unwrap_or_else(|e| panic!("{what}: {e:?}"));
            for sub in &rx.subframes {
                if let Some(payload) = &sub.payload {
                    assert!(rx.matched_indices.contains(&sub.index), "{what}");
                    assert_eq!(payload, &frame.subframes()[sub.index].payload, "{what}");
                }
            }
        }
    }
}

#[test]
fn sigs_pointing_past_the_buffer() {
    let mut rng = StdRng::seed_from_u64(0x516_2026);
    for trial in 0..24 {
        let n = rng.gen_range(1..=8);
        let frame = random_frame(&mut rng, n);
        let target = rng.gen_range(0..n);
        let actual = &frame.subframes()[target];
        // Three lies: the longest length the field holds, the slowest
        // MCS at the true length (the last subframe's then runs past
        // the end), and random SIG bits.
        let lies = [
            Sig::new(actual.mcs, u16::MAX).to_bits(),
            Sig::new(Mcs::BPSK_1_2, actual.payload.len() as u16).to_bits(),
            (0..24).map(|_| rng.gen_range(0..=1u8)).collect(),
        ];
        for (lie, bits) in lies.into_iter().enumerate() {
            let mut specs = frame.to_specs();
            specs[1 + 2 * target].bits = bits;
            let samples = samples_of(&specs);
            let total = (samples.len() - PREAMBLE_LEN) / SYMBOL_LEN;
            let claimed = Sig::from_bits(&specs[1 + 2 * target].bits).ok().map(|sig| {
                SectionLayout {
                    message_bits: usize::from(sig.length_bytes) * 8,
                    mcs: sig.mcs,
                    scramble: true,
                    side_channel: side_channel(),
                    qbpsk: false,
                }
                .symbol_count()
            });
            // Symbols before the lying SIG's payload: A-HDR, then each
            // earlier subframe's SIG and payload, then the lying SIG.
            let start = specs[..=2 * target + 1]
                .iter()
                .map(|s| SectionLayout::of(s).symbol_count())
                .sum::<usize>();
            let past_end = claimed.is_some_and(|c| start + c > total);
            for k in 0..n {
                let what = format!("trial {trial}, lie {lie} at SIG {target}, station {k}");
                let rx = receive_checked(
                    &what,
                    &samples,
                    MacAddress::station(k as u16),
                    estimation(k),
                );
                // A station at or after the lying SIG must read it; one
                // that must then decode or skip past the buffer fails.
                if k >= target && past_end {
                    assert!(matches!(rx, Err(FrameError::Phy(_))), "{what}: {rx:?}");
                }
            }
        }
    }
}
