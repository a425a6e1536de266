//! Receive-side allocation budgets, pinned by a counting allocator.
//!
//! * `FrameDecoder::decode_section` with a recycled [`PhyScratch`] (the
//!   per-station path of `CarpoolLink::deliver_all`) allocates three
//!   vectors per section — the `raw_symbol_bits` list, the phase
//!   offsets and the decoded bits — two more with the side channel on
//!   (CRC verdicts and side values, both sized once), and one row per
//!   OFDM symbol: the demapped bits kept in `raw_symbol_bits`. Under
//!   `Fec::Off` the decoded bits are never built: one vector fewer.
//! * `receive` adds a per-frame constant on top: the decoder setup, the
//!   section list and a fresh scratch's first-use buffers. The decoder
//!   setup is RTE's boxed estimator or nothing: the channel estimate and
//!   the symbol slot are fixed-size arrays. Nothing else
//!   grows with the frame length, and under `Fec::Off` that constant
//!   holds no Viterbi lattice or survivor buffers, so it is smaller.
//!   The side-channel group buffers in it depend on the estimator:
//!   Standard keeps only each CRC group's bits and side values, while
//!   RTE, on groups of more than one symbol, also keeps a list of copies
//!   of the raw symbols it may update from once the group's CRC is known.
//! * The Viterbi decoder allocates only the bits it returns once its
//!   scratch is warm.
//!
//! An allocation creeping into the symbol loop, the RTE update or the
//! kernels changes these counts and fails here. Nothing in the PHY uses
//! the worker pool, so every count is the calling thread's own.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use carpool_phy::convolutional::{decode_levels_with, encode, CodeRate, ViterbiScratch};
use carpool_phy::mcs::Mcs;
use carpool_phy::rte::CalibrationRule;
use carpool_phy::rx::{receive_with, Estimation, Fec, FrameDecoder, PhyScratch, SectionLayout};
use carpool_phy::sidechannel::PhaseOffsetMod;
use carpool_phy::tx::{transmit, SectionSpec, SideChannelConfig, TxFrame};
use counting_alloc::{allocations_during, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ESTIMATIONS: [Estimation; 2] = [
    Estimation::Standard,
    Estimation::Rte(CalibrationRule::Average),
];

fn bits(len: usize) -> Vec<u8> {
    (0..len)
        .map(|k| u8::from((k * 7 + k / 3) % 5 < 2))
        .collect()
}

/// Body shapes of [`frame`]: a scrambled payload with the default side
/// channel (CRC groups of one symbol), a legacy payload, a plain
/// header-style section, and a payload whose CRC groups span three
/// symbols.
const KINDS: usize = 4;

/// Symbols per side-channel CRC group of body `kind`, 0 without one.
fn group_symbols(kind: usize) -> usize {
    match kind {
        0 => 1,
        3 => 3,
        _ => 0,
    }
}

/// An A-HDR-led frame: the QBPSK header section, then one section of
/// `len` bits shaped by `kind` (see [`KINDS`]).
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn frame(mcs: Mcs, len: usize, kind: usize) -> (TxFrame, Vec<SectionLayout>) {
    let body = match kind {
        0 => SectionSpec::payload(bits(len), mcs),
        1 => SectionSpec::payload_legacy(bits(len), mcs),
        2 => SectionSpec {
            mcs,
            ..SectionSpec::header(bits(len))
        },
        _ => SectionSpec {
            side_channel: Some(SideChannelConfig {
                modulation: PhaseOffsetMod::TwoBit,
                group_symbols: 3,
            }),
            ..SectionSpec::payload(bits(len), mcs)
        },
    };
    let specs = [SectionSpec::header_qbpsk(bits(48)), body];
    let tx = transmit(&specs).expect("valid specs");
    (tx, specs.iter().map(SectionLayout::of).collect())
}

/// Steady-state allocations of one `decode_section` call: the section
/// vectors, one row per symbol, and the decoded bits unless FEC is off.
fn per_section(layout: &SectionLayout, fec: Fec) -> usize {
    2 + 2 * usize::from(layout.side_channel.is_some())
        + layout.symbol_count()
        + usize::from(fec != Fec::Off)
}

/// Requires every `decode_section` call on a warmed scratch to allocate
/// exactly [`per_section`].
#[expect(
    clippy::expect_used,
    reason = "test helper: a failed decode fails the test"
)]
fn assert_section_budget(fec: Fec) {
    for estimation in ESTIMATIONS {
        for mcs in [Mcs::BPSK_1_2, Mcs::QPSK_3_4, Mcs::QAM64_3_4] {
            for len in [24, 800, 12_003] {
                for kind in 0..KINDS {
                    let (tx, layouts) = frame(mcs, len, kind);
                    // Warm the scratch on the same shape, as a pool
                    // worker's scratch is after its first station.
                    let mut scratch = PhyScratch::default();
                    for pass in 0..3 {
                        let mut decoder = FrameDecoder::new(&tx.samples, estimation)
                            .expect("buffer holds the preamble")
                            .with_scratch(scratch)
                            .with_fec(fec);
                        for layout in &layouts {
                            let (allocs, section) =
                                allocations_during(|| decoder.decode_section(layout));
                            let section = section.expect("buffer holds every section");
                            assert_eq!(section.raw_symbol_bits.len(), layout.symbol_count());
                            assert_eq!(section.bits.is_empty(), fec == Fec::Off);
                            if pass > 0 {
                                assert_eq!(
                                    allocs,
                                    per_section(layout, fec),
                                    "{fec:?} {estimation:?} {mcs} {len} bits kind {kind}: \
                                     {} symbols",
                                    layout.symbol_count()
                                );
                            }
                        }
                        scratch = decoder.into_scratch();
                    }
                }
            }
        }
    }
}

#[test]
fn decode_section_allocates_per_section_and_one_row_per_symbol() {
    assert_section_budget(Fec::Hard);
}

#[test]
fn fec_off_section_allocates_all_but_the_decoded_bits() {
    assert_section_budget(Fec::Off);
}

/// What `receive_with` allocates beyond the steady-state section budget,
/// for frames of 800, 4,001 and 12,003 bits.
fn frame_setups(estimation: Estimation, mcs: Mcs, kind: usize, fec: Fec) -> Vec<usize> {
    [800, 4_001, 12_003]
        .into_iter()
        .map(|len| {
            let (tx, layouts) = frame(mcs, len, kind);
            let (allocs, rx) =
                allocations_during(|| receive_with(&tx.samples, &layouts, estimation, fec));
            assert!(rx.is_ok());
            allocs
                - layouts
                    .iter()
                    .map(|layout| per_section(layout, fec))
                    .sum::<usize>()
        })
        .collect()
}

#[test]
fn receive_adds_only_a_per_frame_constant() {
    for estimation in ESTIMATIONS {
        for mcs in [Mcs::BPSK_1_2, Mcs::QAM64_3_4] {
            for kind in 0..KINDS {
                // Frame setup must not depend on the frame length.
                let setups = frame_setups(estimation, mcs, kind, Fec::Hard);
                assert!(
                    setups.windows(2).all(|w| w[0] == w[1]),
                    "{estimation:?} {mcs} kind {kind}: setup varies with length: {setups:?}"
                );
                // Decoder setup (the LTF channel estimate, whose FFTs
                // run on stack arrays, and a fresh scratch's symbol
                // slot, both fixed-size arrays; the default no-op
                // observability handle) allocates nothing but RTE's
                // boxed estimator, which holds a copy of the estimate.
                let (tx, _) = frame(mcs, 800, kind);
                let (allocs, decoder) =
                    allocations_during(|| FrameDecoder::new(&tx.samples, estimation));
                assert!(decoder.is_ok());
                let rte = usize::from(matches!(estimation, Estimation::Rte(_)));
                assert_eq!(allocs, rte, "{estimation:?}");
            }
        }
    }
}

/// First use of the side-channel group buffers on a fresh scratch, for
/// CRC groups of `group` symbols (0: no side channel): the group's bit
/// and value lists. RTE on groups of more than one symbol also keeps a
/// copy of each raw symbol but the last until the group's CRC is known,
/// in one list (the copies are plain arrays). Standard estimation never
/// reads them, so it keeps none.
fn side_group_first_use(estimation: Estimation, group: usize) -> usize {
    let lists = if group > 0 { 2 } else { 0 };
    let copies = match estimation {
        Estimation::Rte(_) if group > 1 => 1,
        _ => 0,
    };
    lists + copies
}

#[test]
fn fec_off_frame_setup_is_constant_and_holds_no_trellis() {
    for estimation in ESTIMATIONS {
        for mcs in [Mcs::BPSK_1_2, Mcs::QAM64_3_4] {
            for kind in 0..KINDS {
                let (tx, _) = frame(mcs, 800, kind);
                let (decoder_setup, _) =
                    allocations_during(|| FrameDecoder::new(&tx.samples, estimation));
                // Beyond the decoder setup: the section list and, with
                // the side channel on, the group buffers. No scatter
                // map, lattice or survivor buffer, at any length.
                let expected =
                    decoder_setup + 1 + side_group_first_use(estimation, group_symbols(kind));
                let off = frame_setups(estimation, mcs, kind, Fec::Off);
                assert_eq!(off, [expected; 3], "{estimation:?} {mcs} kind {kind}");
                let hard = frame_setups(estimation, mcs, kind, Fec::Hard);
                assert!(
                    hard.iter().all(|&h| h > expected),
                    "{estimation:?} {mcs} kind {kind}: Hard {hard:?} vs Off {off:?}"
                );
            }
        }
    }
}

#[test]
fn viterbi_kernel_allocates_only_its_output() {
    let mut scratch = ViterbiScratch::default();
    for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
        for len in [1, 150, 12_000] {
            let message = bits(len);
            let coded = encode(&message, rate);
            let levels: Vec<i32> = coded.iter().map(|&b| if b == 1 { 1 } else { -1 }).collect();
            for call in 0..3 {
                let (allocs, out) =
                    allocations_during(|| decode_levels_with(&levels, len, rate, &mut scratch));
                assert_eq!(out, message);
                if call > 0 {
                    // The returned bits; the lattice, survivors and
                    // traceback buffers are reused.
                    assert_eq!(allocs, 1, "{rate} {len} bits");
                }
            }
        }
    }
}
