//! TX-waveform memoization contract: serving an encoded TX waveform from
//! the cache must be invisible in every printed figure — a `run_phy`
//! sweep point gives bit-identical outputs whether its transmit missed
//! the cache (a fresh `transmit`) or hit it, at any thread count.
//!
//! The cache key is the full `SectionSpec` list, and per-trial
//! randomness (channel noise, fading, CFO) is seeded per frame *after*
//! the deterministic transmit step, so a cached waveform is by
//! construction the same object `transmit` would rebuild. These tests
//! pin that contract end-to-end for the figure workloads:
//!
//! * fig03-like: QAM64 3/4 over office fading (multi-SNR payload sweep),
//! * fig12-like: side-channel BER at low SNR over a clean channel,
//! * fig15: MAC-only (VoIP over the error model) — no PHY transmit in
//!   the loop, so the cache cannot touch it.

use carpool_bench::{run_mac, run_phy, Fading, PhyBerResult, PhyRunConfig, OFFICE_FADING};
use carpool_mac::sim::SimConfig;
use carpool_phy::tx::SideChannelConfig;
use carpool_phy::txcache;
use std::sync::Mutex;

/// The thread override and the cache are process-wide state; all
/// mutations in this binary hold this lock.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at the given thread count on an emptied cache and returns
/// its result with the hit/miss counters it left.
fn on_empty_cache<T>(threads: usize, f: impl FnOnce() -> T) -> (T, txcache::TxCacheStats) {
    let _guard = OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    carpool_par::set_thread_override(Some(threads));
    txcache::reset();
    let out = f();
    let stats = txcache::stats();
    txcache::reset();
    carpool_par::set_thread_override(None);
    (out, stats)
}

fn bits(r: &PhyBerResult) -> (u64, u64, Vec<u64>) {
    (
        r.data_ber.to_bits(),
        r.side_ber.to_bits(),
        r.ber_by_symbol.iter().map(|v| v.to_bits()).collect(),
    )
}

fn assert_identical(config: &PhyRunConfig, snrs: &[f64]) {
    for &threads in &[1usize, 4] {
        for &snr_db in snrs {
            let point = PhyRunConfig { snr_db, ..*config };
            // The first run encodes the frame, the second is served the
            // waveform the first one stored.
            let ((missed, hit), stats) =
                on_empty_cache(threads, || (run_phy(&point), run_phy(&point)));
            assert_eq!(
                (stats.hits, stats.misses),
                (1, 1),
                "one miss then one hit at {threads} threads"
            );
            assert_eq!(
                bits(&missed),
                bits(&hit),
                "SNR {snr_db} dB diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn fig03_like_sweep_is_cache_invariant() {
    let config = PhyRunConfig {
        payload_bits: 1024 * 8,
        frames: 3,
        seed: 321,
        fading: OFFICE_FADING,
        ..PhyRunConfig::default()
    };
    assert_identical(&config, &[22.0, 27.0, 32.0]);
}

#[test]
fn fig12_like_sweep_is_cache_invariant() {
    let config = PhyRunConfig {
        payload_bits: 1024 * 8,
        side_channel: Some(SideChannelConfig::default()),
        fading: Fading::None,
        frames: 3,
        seed: 77,
        ..PhyRunConfig::default()
    };
    assert_identical(&config, &[14.0, 18.0, 24.0]);
}

#[test]
fn fig15_mac_workload_ignores_the_cache() {
    // Fig 15 (VoIP capacity) runs entirely on the MAC simulator over the
    // calibrated error model; no waveform is transmitted, so the cache
    // must register no traffic.
    let cfg = SimConfig {
        num_stas: 4,
        duration_s: 0.5,
        ..SimConfig::default()
    };
    let ((first, second), stats) = on_empty_cache(1, || (run_mac(cfg.clone()), run_mac(cfg)));
    assert_eq!(first, second);
    assert_eq!(
        (stats.hits, stats.misses),
        (0, 0),
        "MAC run touched the TX cache"
    );
}
