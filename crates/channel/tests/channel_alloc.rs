//! `LinkChannel::transmit` allocates only the buffer it returns.
//!
//! Fading, CFO and AWGN all run in place on that buffer: the fading
//! taps evolve in their own storage, the CFO phasor lives on the stack,
//! and the ziggurat tables are a process-wide static that never touches
//! the heap, on first use or after. A counting allocator pins the budget
//! at exactly one allocation per call, so a per-sample or per-call
//! allocation creeping into the channel fails here.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use carpool_channel::fading::DelayProfile;
use carpool_channel::link::LinkChannel;
use carpool_phy::math::Complex64;
use counting_alloc::{allocations_during, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn frame(n: usize) -> Vec<Complex64> {
    (0..n).map(|k| Complex64::cis(k as f64 * 0.11)).collect()
}

fn check(link: &mut LinkChannel, what: &str) {
    for len in [1, 80, 1999, 16_000] {
        let input = frame(len);
        for call in 0..3 {
            let (allocs, out) = allocations_during(|| link.transmit(&input));
            assert_eq!(out.len(), len);
            assert_eq!(allocs, 1, "{what}: {len} samples, call {call}");
        }
    }
}

#[test]
fn transmit_allocates_only_its_output() {
    // The office link: time-varying Rician fading, 100 Hz CFO, AWGN.
    // This may be the process's first normal draw, so the count also
    // covers building the ziggurat tables.
    let mut office = LinkChannel::builder()
        .snr_db(30.0)
        .coherence_time(4e-3)
        .rician_k(15.0)
        .cfo_hz(100.0)
        .seed(7)
        .build();
    check(&mut office, "office");

    let mut multipath = LinkChannel::builder()
        .snr_db(20.0)
        .profile(DelayProfile::exponential(6, 0.5))
        .coherence_time(1e-3)
        .cfo_hz(150e3)
        .seed(8)
        .build();
    check(&mut multipath, "multipath");

    let mut unfaded = LinkChannel::builder()
        .snr_db(10.0)
        .cfo_hz(100.0)
        .seed(9)
        .build();
    check(&mut unfaded, "awgn+cfo");
}
