//! Process-wide memoization of transmitted waveforms.
//!
//! The paper's evaluation sweeps BER across SNR points (Figs. 3/12/15
//! territory) where the *transmitted* frame per trial is identical at
//! every sweep point — only the channel and receiver differ. [`transmit`]
//! is a pure function of its [`SectionSpec`] list, so re-encoding the
//! same payload at each SNR is wasted work. This cache memoizes the
//! encoded [`TxFrame`] keyed by the full spec list and hands out shared
//! [`Arc`] clones.
//!
//! # Determinism
//!
//! A cache hit returns a frame that is *the same value* the transmitter
//! would have produced (the key is the complete input of the pure
//! `transmit` call), so every consumer — including the parallel
//! Monte-Carlo driver, whose per-trial randomness lives entirely in the
//! trial-seeded channel — produces byte-identical results with the cache
//! on or off, at any thread count.
//!
//! # Escape hatches
//!
//! The cache can be disabled for a whole process with the CLI flag
//! `--no-tx-cache`, the environment variable `CARPOOL_NO_TX_CACHE=1`, or
//! programmatically via [`set_enabled`]; [`stats`] exposes hit/miss
//! counters so benches can report the hit rate instead of asserting it.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use carpool_obs::{names, Obs};

use crate::tx::{transmit, SectionSpec, TxFrame};
use crate::PhyError;

/// Upper bound on retained waveforms. Sweeps reuse a handful of distinct
/// specs per process; the bound only exists so a pathological caller
/// cannot grow the cache without limit. Eviction is oldest-first.
pub(crate) const MAX_ENTRIES: usize = 8;

/// Cached (spec list → encoded frame) pairs. Lookup is a linear scan
/// with full structural equality — at most [`MAX_ENTRIES`] comparisons,
/// each a cheap length/discriminant check before the payload memcmp —
/// so no `Hash` requirement leaks into the TX types.
static CACHE: Mutex<Vec<(Vec<SectionSpec>, Arc<TxFrame>)>> = Mutex::new(Vec::new());

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Runtime override: 0 = follow the environment default, 1 = forced on,
/// 2 = forced off.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Environment default, read once per process.
static ENV_DEFAULT: OnceLock<bool> = OnceLock::new();

fn env_default() -> bool {
    *ENV_DEFAULT.get_or_init(|| {
        !matches!(
            std::env::var("CARPOOL_NO_TX_CACHE").as_deref(),
            Ok("1") | Ok("true") | Ok("yes")
        )
    })
}

/// Recover the cache guard even if a prior holder panicked: the stored
/// pairs are only ever inserted whole, so a poisoned lock still guards
/// consistent data.
fn lock_cache() -> MutexGuard<'static, Vec<(Vec<SectionSpec>, Arc<TxFrame>)>> {
    match CACHE.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Whether `transmit_cached` currently memoizes. Defaults to on unless
/// `CARPOOL_NO_TX_CACHE=1` is set; [`set_enabled`] wins over both.
pub fn is_enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_default(),
    }
}

/// Force the cache on or off for the rest of the process (the CLI's
/// `--no-tx-cache` lands here). Takes precedence over the environment.
pub fn set_enabled(on: bool) {
    OVERRIDE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Drops any [`set_enabled`] override, returning control to the
/// `CARPOOL_NO_TX_CACHE` environment default. Tests that toggle the
/// cache restore the ambient configuration with this.
pub fn clear_override() {
    OVERRIDE.store(0, Ordering::Relaxed);
}

/// Snapshot of the process-wide hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the full transmitter (including cache-disabled
    /// calls, which are misses by definition).
    pub misses: u64,
}

impl TxCacheStats {
    /// Hits as a fraction of all lookups (0 when there were none).
    // lint:allow(dead-api): perfbench, a workspace of its own, reports it as `phy.txcache_hit_ratio`
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Current hit/miss counters.
pub fn stats() -> TxCacheStats {
    TxCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

/// Drops every cached waveform and zeroes the counters. Benches call
/// this before timed sections so hit rates describe one workload.
pub fn reset() {
    lock_cache().clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// [`transmit`], memoized. Returns a shared handle to the encoded frame;
/// repeated calls with an equal `sections` list reuse the first result.
///
/// # Errors
///
/// Exactly the errors of [`transmit`]; failed encodes are never cached.
pub fn transmit_cached(sections: &[SectionSpec], obs: &Obs) -> Result<Arc<TxFrame>, PhyError> {
    if is_enabled() {
        if let Some(frame) = lookup(sections) {
            HITS.fetch_add(1, Ordering::Relaxed);
            obs.counter(names::TX_CACHE_HIT, 1);
            return Ok(frame);
        }
    }
    let frame = Arc::new(transmit(sections)?);
    MISSES.fetch_add(1, Ordering::Relaxed);
    obs.counter(names::TX_CACHE_MISS, 1);
    if is_enabled() {
        insert(sections, Arc::clone(&frame));
    }
    Ok(frame)
}

fn lookup(sections: &[SectionSpec]) -> Option<Arc<TxFrame>> {
    let cache = lock_cache();
    cache
        .iter()
        .find(|(key, _)| key.as_slice() == sections)
        .map(|(_, frame)| Arc::clone(frame))
}

fn insert(sections: &[SectionSpec], frame: Arc<TxFrame>) {
    let mut cache = lock_cache();
    // A racing encoder may have inserted the same key between our lookup
    // and now; keep the first entry so handles stay shared.
    if cache.iter().any(|(key, _)| key.as_slice() == sections) {
        return;
    }
    if cache.len() >= MAX_ENTRIES {
        cache.remove(0);
    }
    cache.push((sections.to_vec(), frame));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::Mcs;

    /// The cache and its counters are process-wide; tests that touch
    /// them serialize here and restore the default state on drop.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct CacheSession(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl CacheSession {
        fn start() -> CacheSession {
            let guard = match TEST_LOCK.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            set_enabled(true);
            reset();
            CacheSession(guard)
        }
    }

    impl Drop for CacheSession {
        fn drop(&mut self) {
            reset();
            clear_override();
        }
    }

    fn spec(seed: u8) -> SectionSpec {
        SectionSpec::payload(vec![seed & 1; 64], Mcs::QPSK_1_2)
    }

    #[test]
    fn hit_returns_the_identical_frame() {
        let _session = CacheSession::start();
        let obs = Obs::noop();
        let s = [spec(1)];
        let first = transmit_cached(&s, &obs).expect("valid spec");
        let second = transmit_cached(&s, &obs).expect("valid spec");
        assert!(Arc::ptr_eq(&first, &second), "hit must share the encode");
        assert_eq!(stats(), TxCacheStats { hits: 1, misses: 1 });
        let direct = transmit(&s).expect("valid spec");
        assert_eq!(*first, direct, "cached frame must equal a fresh encode");
    }

    #[test]
    fn different_specs_do_not_collide() {
        let _session = CacheSession::start();
        let obs = Obs::noop();
        let a = transmit_cached(&[spec(0)], &obs).expect("valid spec");
        let b = transmit_cached(&[spec(1)], &obs).expect("valid spec");
        assert_ne!(*a, *b);
        assert_eq!(stats(), TxCacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn disabled_cache_always_reencodes() {
        let _session = CacheSession::start();
        set_enabled(false);
        let obs = Obs::noop();
        let s = [spec(1)];
        let first = transmit_cached(&s, &obs).expect("valid spec");
        let second = transmit_cached(&s, &obs).expect("valid spec");
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(*first, *second, "bypass must still be deterministic");
        assert_eq!(stats(), TxCacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn eviction_keeps_the_cache_bounded() {
        let _session = CacheSession::start();
        let obs = Obs::noop();
        for bits in 0..(MAX_ENTRIES + 2) {
            let s = [SectionSpec::payload(vec![1; 16 + bits], Mcs::QPSK_1_2)];
            transmit_cached(&s, &obs).expect("valid spec");
        }
        assert!(lock_cache().len() <= MAX_ENTRIES);
        // The oldest entry was evicted: re-requesting it is a miss.
        let oldest = [SectionSpec::payload(vec![1; 16], Mcs::QPSK_1_2)];
        let before = stats().misses;
        transmit_cached(&oldest, &obs).expect("valid spec");
        assert_eq!(stats().misses, before + 1);
    }

    #[test]
    fn errors_are_propagated_not_cached() {
        let _session = CacheSession::start();
        let obs = Obs::noop();
        assert!(transmit_cached(&[], &obs).is_err());
        assert!(lock_cache().is_empty());
    }

    #[test]
    fn obs_counters_track_hits_and_misses() {
        let _session = CacheSession::start();
        let recorder = Arc::new(carpool_obs::MemoryRecorder::new());
        let obs = Obs::with_recorder(recorder.clone());
        let s = [spec(1)];
        transmit_cached(&s, &obs).expect("valid spec");
        transmit_cached(&s, &obs).expect("valid spec");
        let snap = recorder.snapshot();
        assert_eq!(snap.counter(names::TX_CACHE_MISS), 1);
        assert_eq!(snap.counter(names::TX_CACHE_HIT), 1);
    }
}
