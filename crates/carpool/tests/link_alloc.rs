//! `CarpoolLink::deliver_all` allocates a fixed amount per station.
//!
//! Per call, the frame is transmitted once, sent through the channel
//! once, and the pool worker builds one receive scratch. Per station the
//! cost is exact and does not depend on how many stations came before:
//!
//! * a per-station constant from the decoder setup (1 allocation: the
//!   RTE estimator's box; the channel estimate and the receive scratch's
//!   symbol slot are fixed-size arrays, the two LTF FFTs run on stack
//!   arrays, a no-op observability handle allocates nothing, and workers
//!   of an unobserved link get no record shard);
//! * every decoded section's budget (see `crates/phy/tests/rx_alloc.rs`):
//!   3 vectors, 2 more with the side channel on, and one row per OFDM
//!   symbol;
//! * the frame walk: nothing for a station the A-HDR turns away (its
//!   match list and reception record are empty), 3 allocations for one
//!   that decodes its payload (the match list, the subframe list and the
//!   payload bytes).
//!
//! The pool is forced to one thread so every allocation lands on the
//! counting thread.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use carpool::link::CarpoolLink;
use carpool_frame::addr::MacAddress;
use carpool_frame::carpool::{CarpoolFrame, CarpoolReception, Subframe};
use carpool_phy::mcs::Mcs;
use counting_alloc::{allocations_during, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn sta(n: u16) -> MacAddress {
    MacAddress::station(n)
}

/// Exact allocations one station adds to a `deliver_all` call, from
/// what its reception decoded (the link's default RTE estimation and
/// side channel).
fn per_station(rx: &CarpoolReception) -> usize {
    let sigs = rx.subframes.len();
    let payloads = rx.subframes.iter().filter(|s| s.payload.is_some()).count();
    let sections = 1 + sigs + payloads;
    let walk = if payloads > 0 { 3 } else { 0 };
    1 + 3 * sections + 2 * payloads + rx.symbols_decoded + walk
}

#[test]
fn deliver_all_allocations_are_per_station() {
    carpool_par::set_thread_override(Some(1));
    let frame = CarpoolFrame::new(vec![
        Subframe::new(sta(1), Mcs::QAM64_3_4, vec![0xA5; 1500]),
        Subframe::new(sta(2), Mcs::QPSK_1_2, vec![0x3C; 200]),
        Subframe::new(sta(3), Mcs::QAM16_1_2, vec![0x0F; 600]),
    ]);
    let Ok(frame) = frame else {
        panic!("three receivers fit one frame");
    };
    let mut link = CarpoolLink::builder().snr_db(30.0).seed(5).build();
    let mut deliver = |stations: &[MacAddress]| {
        let (allocs, rx) = allocations_during(|| link.deliver_all(&frame, stations));
        match rx {
            Ok(rx) => (allocs, rx),
            Err(e) => panic!("{} stations: {e}", stations.len()),
        }
    };
    // Process-wide tables (preamble, interleaver maps) are built on
    // first use.
    deliver(&[sta(1), sta(2), sta(3), sta(9)]);

    // First subframe, a later subframe, and a station the A-HDR drops.
    for station in [sta(1), sta(2), sta(3), sta(9)] {
        let mut previous: Option<usize> = None;
        for k in 1..=4 {
            let (allocs, rx) = deliver(&vec![station; k]);
            assert_eq!(rx.len(), k);
            let aboard = station != sta(9);
            assert_eq!(rx[0].subframes.iter().any(|s| s.payload.is_some()), aboard);
            if let Some(previous) = previous {
                assert_eq!(
                    allocs - previous,
                    per_station(&rx[0]),
                    "station {station:?}, {k} copies: {} symbols decoded",
                    rx[0].symbols_decoded
                );
            }
            previous = Some(allocs);
        }
    }
}
