//! The no-op handle must stay off the allocator: instrumentation is
//! compiled into every hot loop (per OFDM symbol, per MAC slot), so a
//! disabled `Obs` is only acceptable if each call costs a branch and
//! nothing else. This test installs a counting global allocator and
//! asserts zero allocations across every `Obs` entry point. The count is
//! per thread, so tests running in parallel do not see each other's
//! allocations.

use carpool_obs::{names, Obs, TraceKind};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_during, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn noop_handle_never_allocates() {
    // Construct outside the measured region; only the calls must be free.
    let obs = Obs::noop();
    let (allocs, ()) = allocations_during(|| {
        for i in 0..1000u64 {
            obs.counter("mac.transmissions", 1);
            obs.gauge("mac.queue_depth", i as f64);
            obs.record("mac.delay", 0.001 * i as f64);
            obs.trace(TraceKind::MacAck, i as f64, i, 1500, 0.01f64.to_bits());
            let _span = obs.span(names::PHY_DECODE);
        }
    });
    assert_eq!(allocs, 0, "no-op Obs allocated {allocs} times");
}

#[test]
fn cloning_the_noop_handle_does_not_allocate() {
    let obs = Obs::noop();
    let (allocs, ()) = allocations_during(|| {
        for _ in 0..100 {
            let clone = obs.clone();
            assert!(!clone.enabled());
        }
    });
    assert_eq!(allocs, 0, "Obs::clone allocated {allocs} times");
}
