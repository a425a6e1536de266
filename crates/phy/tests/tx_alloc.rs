//! `transmit` allocates only what it returns.
//!
//! Per frame: the sample buffer, the section list, one coded-bit
//! scratch buffer and one scrambling scratch buffer. Per section: its `symbol_bits` list, the copy of its
//! spec, and its `side_values` when the side channel is on. Per symbol:
//! exactly one row of interleaved bits. Everything else (scrambling,
//! encoding, mapping, the IFFT) runs in reused or stack buffers. A
//! counting allocator pins that budget, so a per-symbol allocation
//! creeping back into the chain fails here.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use carpool_phy::mcs::Mcs;
use carpool_phy::sidechannel::PhaseOffsetMod;
use carpool_phy::tx::{transmit, SectionSpec, SideChannelConfig};
use counting_alloc::{allocations_during, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of one `transmit` call, independent of its size: the
/// samples, the section list, the coded-bit scratch, and the scrambling
/// scratch when any section is scrambled.
fn per_frame(specs: &[SectionSpec]) -> usize {
    3 + usize::from(specs.iter().any(|s| s.scramble))
}

/// Allocations per section: `symbol_bits` and the spec copy, plus
/// `side_values` with the side channel on.
fn per_section(spec: &SectionSpec) -> usize {
    2 + usize::from(spec.side_channel.is_some())
}

fn bits(len: usize) -> Vec<u8> {
    (0..len)
        .map(|k| u8::from((k * 7 + k / 3) % 5 < 2))
        .collect()
}

fn expected(specs: &[SectionSpec]) -> usize {
    per_frame(specs)
        + specs
            .iter()
            .map(|s| per_section(s) + s.symbol_count())
            .sum::<usize>()
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a failed setup fails the test"
)]
fn check(specs: &[SectionSpec]) {
    let (allocs, frame) = allocations_during(|| transmit(specs));
    let frame = frame.expect("valid specs");
    assert_eq!(
        frame.payload_symbols(),
        specs.iter().map(SectionSpec::symbol_count).sum()
    );
    assert_eq!(
        allocs,
        expected(specs),
        "{} sections, {} symbols",
        specs.len(),
        frame.payload_symbols()
    );
}

#[test]
fn allocations_are_per_frame_section_and_symbol() {
    // The preamble is built once per process; build it outside the count.
    transmit(&[SectionSpec::header(bits(24))]).expect("valid spec");

    for mcs in Mcs::ALL {
        for len in [1, 37, 1500 * 8 + 3] {
            check(&[SectionSpec::payload(bits(len), mcs)]);
            check(&[SectionSpec::payload_legacy(bits(len), mcs)]);
            check(&[SectionSpec {
                mcs,
                ..SectionSpec::header(bits(len))
            }]);
        }
    }
    // A Carpool-shaped PPDU: A-HDR, SIG and payloads at mixed rates and
    // side-channel groupings.
    check(&[
        SectionSpec::header_qbpsk(bits(48)),
        SectionSpec::header(bits(24)),
        SectionSpec::payload(bits(3001), Mcs::QAM64_3_4),
        SectionSpec {
            bits: bits(999),
            mcs: Mcs::QPSK_3_4,
            scramble: true,
            side_channel: Some(SideChannelConfig {
                modulation: PhaseOffsetMod::OneBit,
                group_symbols: 3,
            }),
            qbpsk: false,
        },
        SectionSpec::payload(bits(40), Mcs::BPSK_1_2),
    ]);
}
