//! carpool-par: deterministic multi-core execution for trial loops.
//!
//! The figure/table benches replay independent Monte-Carlo trials whose
//! RNG streams are keyed by item index (`seed + i`), so they are
//! embarrassingly parallel *by construction*. This crate provides the
//! minimal std-only machinery to exploit that:
//!
//! - [`par_map_indexed`] — a scoped worker pool (`std::thread::scope`)
//!   that maps `f(i, &items[i])` over a slice and returns results in
//!   item order. Work is claimed from a shared atomic cursor, but the
//!   *output* is keyed purely by index, so 1-thread and N-thread runs
//!   produce identical bytes.
//! - [`par_map_indexed_scratch`] — the same pool with a per-worker
//!   scratch workspace built once per thread, so decode buffers are
//!   reused across every frame a worker claims instead of reallocated
//!   per item.
//!
//! A deterministic reduction is `par_map_indexed(..)?.into_iter().fold(..)`:
//! the fold runs serially on the calling thread in item order, so
//! per-trial tallies merge exactly.
//!
//! # Determinism contract
//!
//! Callers must key any randomness by the item index (never by thread
//! identity or scheduling order), and must not share mutable state
//! between items. Under that contract the output of every function in
//! this crate is a pure function of `(items, f)` — the thread count only
//! changes wall-clock time.
//!
//! Observability rides the same contract: workers record flight records
//! into *private* per-item buffers (`Obs::shard`), which the caller
//! absorbs serially in item order afterwards (see
//! `CarpoolLink::deliver_all` and `Obs::absorb`). That keeps every
//! record output byte-identical at any thread count.
//!
//! # Thread count
//!
//! [`thread_count`] resolves, in order: a process-wide programmatic
//! override ([`set_thread_override`], used by the CLI `--threads` flag),
//! the `CARPOOL_THREADS` environment variable, and finally
//! `std::thread::available_parallelism()`. A count of 1 (or a
//! single-item input) takes a serial fallback path with no thread spawns.
//!
//! Worker panics never hang or tear down the process: both the pooled
//! and the serial path report them as [`ParError::WorkerPanic`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;

/// Errors surfaced by the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParError {
    /// A worker panicked while mapping an item. The panic payload is
    /// reported through the standard panic hook (stderr); the pool
    /// converts it into this error instead of propagating or hanging.
    WorkerPanic,
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::WorkerPanic => write!(f, "a parallel worker panicked"),
        }
    }
}

impl std::error::Error for ParError {}

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or with `None` clears) the process-wide thread-count override.
/// Takes precedence over `CARPOOL_THREADS` and auto-detection; a value
/// of `Some(0)` is treated as `None`.
pub fn set_thread_override(threads: Option<usize>) {
    // ordering: standalone counter-style cell; no other memory is published
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Resolves the worker-thread count: programmatic override, then the
/// `CARPOOL_THREADS` environment variable, then
/// `available_parallelism()` (1 if even that is unavailable).
// lint:allow(dead-api): perfbench, a workspace of its own, records the thread count
pub fn thread_count() -> usize {
    // ordering: standalone counter-style cell; stale reads only pick an
    // old thread count, never tear data
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("CARPOOL_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f(i, &items[i])` over `items` on [`thread_count`] scoped worker
/// threads, returning the results in item order.
///
/// Workers claim indices from a shared atomic cursor, so scheduling is
/// dynamic, but each result slot is keyed by its item index: the output
/// is byte-identical across any thread count (see the crate-level
/// determinism contract).
///
/// # Errors
///
/// Returns [`ParError::WorkerPanic`] if `f` panics on any item (on the
/// serial path too, for a uniform contract).
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_scratch(items, || (), |(), i, t| f(i, t))
}

/// [`par_map_indexed`] with a per-worker scratch workspace: each worker
/// thread calls `make_scratch()` exactly once and threads the value
/// through every item it claims, so expensive reusable buffers (e.g. a
/// PHY receive scratch) are built per *worker*, not per item.
///
/// The determinism contract gains one clause: `f`'s *result* must not
/// depend on the scratch's history — scratch is for buffer reuse, never
/// for carrying state between items (which items share a worker is a
/// scheduling accident).
///
/// # Errors
///
/// Returns [`ParError::WorkerPanic`] if `make_scratch` or `f` panics.
pub fn par_map_indexed_scratch<T, R, S, G, F>(
    items: &[T],
    make_scratch: G,
    f: F,
) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    G: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let threads = thread_count().min(items.len());
    if threads <= 1 {
        return serial_map(items, &make_scratch, &f);
    }

    let cursor = AtomicUsize::new(0);
    let shards: Vec<Result<Vec<(usize, R)>, ParError>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = make_scratch();
                    let mut shard: Vec<(usize, R)> = Vec::new();
                    loop {
                        // ordering: work-claim counter only; results are
                        // published by the scope join, not by this atomic
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        shard.push((i, f(&mut scratch, i, &items[i])));
                    }
                    shard
                })
            })
            .collect();
        // Joining every handle (instead of letting the scope implicitly
        // wait) converts worker panics into Err values here rather than
        // re-raising them when the scope closes.
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| ParError::WorkerPanic))
            .collect()
    });

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for shard in shards {
        for (i, r) in shard? {
            slots[i] = Some(r);
        }
    }
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        match slot {
            Some(r) => out.push(r),
            // A slot can only stay empty if its owner died; the join
            // above reports that, so this is a defensive second net.
            None => return Err(ParError::WorkerPanic),
        }
    }
    Ok(out)
}

/// Runs `num_shards` stateful shards through `epochs` barrier-
/// synchronized steps with deterministic cross-shard message exchange —
/// the primitive behind the sharded MAC event engine.
///
/// Each shard `s` gets a state from `build(s)`. Every epoch, every
/// shard receives the messages routed to it (`route(&msg) == s`) that
/// were emitted in the *previous* epoch, steps via
/// `step(&mut state, epoch, inbox, outbox)`, and publishes its outbox
/// for the next epoch. Messages emitted in the final epoch are
/// discarded. After the last epoch each state is converted by
/// `finish`, and the results are returned in shard order.
///
/// # Determinism contract
///
/// The inbox a shard observes is assembled by scanning source shards in
/// ascending index order, preserving each source's emission order — a
/// pure function of `(build, step, route)`, independent of thread count
/// and scheduling. Shards are distributed to workers by stride
/// (worker `w` owns shards `w, w + W, ...`), and each worker steps its
/// shards in ascending order, so per-shard trajectories never depend on
/// the worker layout either. Messages cross shard boundaries *only*
/// through the outbox; `step` must not share mutable state between
/// shards through other channels.
///
/// Epoch 0's inbox is always empty.
///
/// # Errors
///
/// Returns [`ParError::WorkerPanic`] if `build`, `step`, `route`, or
/// `finish` panics in any worker. Panics never hang the barrier: a
/// failing worker keeps participating in the epoch barrier until every
/// worker has observed the failure, then all exit together.
pub fn run_sharded<S, M, R, B, T, Rt, Fi>(
    num_shards: usize,
    epochs: usize,
    build: B,
    step: T,
    route: Rt,
    finish: Fi,
) -> Result<Vec<R>, ParError>
where
    S: Send,
    M: Clone + Send,
    R: Send,
    B: Fn(usize) -> S + Sync,
    T: Fn(&mut S, usize, &[M], &mut Vec<M>) + Sync,
    Rt: Fn(&M) -> usize + Sync,
    Fi: Fn(S) -> R + Sync,
{
    if num_shards == 0 {
        return Ok(Vec::new());
    }
    let workers = thread_count().min(num_shards).max(1);

    // Double-buffered per-source mailboxes: epoch `e` reads the buffer
    // written during epoch `e - 1` and writes the other one, so one
    // barrier per epoch is enough (reads and writes always touch
    // disjoint buffers).
    let mailboxes: Vec<Vec<Mutex<Vec<M>>>> = (0..2)
        .map(|_| (0..num_shards).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let barrier = Barrier::new(workers);
    // Earliest epoch at which any worker failed (MAX = no failure).
    // The tag matters: a fast worker that passed barrier `e` may panic
    // in epoch `e + 1` *while a slow worker is still waking from
    // barrier `e`* — an untagged flag would make the slow worker exit
    // one epoch early and leave every later barrier one short
    // (deadlock). Exiting only when `failed_at <= epoch` guarantees
    // every worker participates in exactly the same set of barriers:
    // all of 0..=failed_at.
    let failed_at = AtomicUsize::new(usize::MAX);

    let worker = |w: usize| -> Result<Vec<(usize, R)>, ParError> {
        let built: Result<Vec<(usize, S, Vec<M>)>, ParError> =
            catch_unwind(AssertUnwindSafe(|| {
                (w..num_shards)
                    .step_by(workers)
                    .map(|s| (s, build(s), Vec::new()))
                    .collect()
            }))
            .map_err(|_| ParError::WorkerPanic);
        let mut local = match built {
            Ok(local) => local,
            Err(e) => {
                // ordering: AcqRel — the failure tag must be visible to
                // every peer once it passes the epoch barrier
                failed_at.fetch_min(0, Ordering::AcqRel);
                // Join the epoch-0 barrier once so no peer blocks on a
                // missing worker; every worker observes the epoch-0
                // failure right after that barrier and exits, so
                // waiting further epochs would deadlock against
                // already-gone peers.
                if epochs > 0 {
                    barrier.wait();
                }
                return Err(e);
            }
        };
        let mut inbox: Vec<M> = Vec::new();
        for epoch in 0..epochs {
            let read = &mailboxes[epoch % 2];
            let write = &mailboxes[(epoch + 1) % 2];
            let ok = catch_unwind(AssertUnwindSafe(|| {
                for (s, state, out) in local.iter_mut() {
                    inbox.clear();
                    for src in read.iter() {
                        let guard = src
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        for m in guard.iter() {
                            if route(m) == *s {
                                inbox.push(m.clone());
                            }
                        }
                    }
                    out.clear();
                    step(state, epoch, &inbox, out);
                    let mut slot = write[*s]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    slot.clear();
                    slot.extend(out.iter().cloned());
                }
            }))
            .is_ok();
            if !ok {
                // ordering: AcqRel — the failure tag must be visible to
                // every peer once it passes the epoch barrier
                failed_at.fetch_min(epoch, Ordering::AcqRel);
            }
            barrier.wait();
            // A failure tagged `epoch` was stored before its worker
            // arrived at barrier `epoch`, so after that barrier it is
            // visible to everyone; a failure tagged later than `epoch`
            // must be ignored for now — the panicking worker still
            // waits on the barriers in between.
            // ordering: Acquire — pairs with the failing worker's
            // AcqRel fetch_min; the barrier already orders it, Acquire
            // keeps the edge explicit
            if failed_at.load(Ordering::Acquire) <= epoch {
                return Err(ParError::WorkerPanic);
            }
        }
        catch_unwind(AssertUnwindSafe(|| {
            local
                .drain(..)
                .map(|(s, state, _)| (s, finish(state)))
                .collect()
        }))
        .map_err(|_| ParError::WorkerPanic)
    };

    let per_worker: Vec<Result<Vec<(usize, R)>, ParError>> = if workers == 1 {
        vec![worker(0)]
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || worker(w)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(Err(ParError::WorkerPanic)))
                .collect()
        })
    };

    let mut slots: Vec<Option<R>> = Vec::with_capacity(num_shards);
    slots.resize_with(num_shards, || None);
    for worker_result in per_worker {
        for (s, r) in worker_result? {
            slots[s] = Some(r);
        }
    }
    let mut out = Vec::with_capacity(num_shards);
    for slot in slots {
        match slot {
            Some(r) => out.push(r),
            None => return Err(ParError::WorkerPanic),
        }
    }
    Ok(out)
}

/// Single-threaded path: same in-order semantics, same panic-to-error
/// contract, same one-scratch-per-worker discipline, no thread spawns.
fn serial_map<T, R, S, G, F>(items: &[T], make_scratch: &G, f: &F) -> Result<Vec<R>, ParError>
where
    G: Fn() -> S,
    F: Fn(&mut S, usize, &T) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        let mut scratch = make_scratch();
        items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut scratch, i, t))
            .collect()
    }))
    .map_err(|_| ParError::WorkerPanic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-wide thread override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(threads: usize, body: impl FnOnce() -> R) -> R {
        let _guard = OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_thread_override(Some(threads));
        let out = body();
        set_thread_override(None);
        out
    }

    /// An index-keyed xorshift, the same discipline the benches use.
    fn trial(i: usize) -> u64 {
        let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for _ in 0..32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }

    #[test]
    fn output_is_in_item_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = with_threads(4, || {
            par_map_indexed(&items, |i, &x| (i, trial(x))).unwrap()
        });
        for (k, &(i, v)) in out.iter().enumerate() {
            assert_eq!(i, k);
            assert_eq!(v, trial(k));
        }
        // A serial fold over the output is the in-index-order reduction.
        let concat = with_threads(4, || {
            par_map_indexed(&items[..50], |i, _| i.to_string())
                .unwrap()
                .into_iter()
                .fold(String::new(), |mut acc, s| {
                    acc.push_str(&s);
                    acc.push(',');
                    acc
                })
        });
        let expected: String = (0..50).map(|i| format!("{i},")).collect();
        assert_eq!(concat, expected);
    }

    #[test]
    fn one_thread_and_many_threads_agree_exactly() {
        let items: Vec<usize> = (0..100).collect();
        let serial = with_threads(1, || par_map_indexed(&items, |_, &x| trial(x)).unwrap());
        for threads in [2, 3, 4, 8] {
            let parallel = with_threads(threads, || {
                par_map_indexed(&items, |_, &x| trial(x)).unwrap()
            });
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn results_are_keyed_by_index_not_by_arrival() {
        // Item 0 finishes only after item 1 has, so item 1's result
        // arrives first; the output must still be in item order.
        let (done, wait) = std::sync::mpsc::channel();
        let wait = Mutex::new(wait);
        let out = with_threads(2, || {
            par_map_indexed(&[0usize, 1], |i, _| {
                if i == 0 {
                    let _ = wait
                        .lock()
                        .unwrap()
                        .recv_timeout(std::time::Duration::from_secs(60));
                } else {
                    done.send(()).unwrap();
                }
                i
            })
            .unwrap()
        });
        assert_eq!(out, [0, 1]);
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: [u8; 0] = [];
        assert_eq!(
            par_map_indexed(&empty, |_, &x| x).unwrap(),
            Vec::<u8>::new()
        );
        assert_eq!(
            par_map_indexed(&[7u8], |i, &x| (i, x)).unwrap(),
            vec![(0, 7)]
        );
    }

    #[test]
    fn scratch_pool_matches_plain_pool_at_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let plain = with_threads(1, || par_map_indexed(&items, |_, &x| trial(x)).unwrap());
        for threads in [1, 2, 4, 8] {
            let scratched = with_threads(threads, || {
                par_map_indexed_scratch(
                    &items,
                    || Vec::<u64>::with_capacity(8),
                    |buf, _, &x| {
                        // Reuse the buffer the way a decode scratch is
                        // reused: clear, fill, read back.
                        buf.clear();
                        buf.push(trial(x));
                        buf[0]
                    },
                )
                .unwrap()
            });
            assert_eq!(plain, scratched, "threads = {threads}");
        }
    }

    #[test]
    fn scratch_is_built_once_per_worker() {
        let items: Vec<usize> = (0..64).collect();
        let builds = AtomicUsize::new(0);
        with_threads(4, || {
            par_map_indexed_scratch(
                &items,
                || {
                    // ordering: standalone test counter
                    builds.fetch_add(1, Ordering::Relaxed);
                },
                |(), i, _| i,
            )
            .unwrap()
        });
        // ordering: standalone test counter
        assert_eq!(builds.load(Ordering::Relaxed), 4);
        builds.store(0, Ordering::Relaxed);
        with_threads(1, || {
            par_map_indexed_scratch(
                &items,
                || builds.fetch_add(1, Ordering::Relaxed),
                |_, i, _| i,
            )
            .unwrap()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scratch_factory_panic_becomes_error() {
        let items: Vec<usize> = (0..8).collect();
        for threads in [1, 4] {
            let err = with_threads(threads, || {
                par_map_indexed_scratch(&items, || -> () { panic!("boom") }, |(), i, _| i)
                    .unwrap_err()
            });
            assert_eq!(err, ParError::WorkerPanic, "threads = {threads}");
        }
    }

    #[test]
    fn worker_panic_becomes_error() {
        let items: Vec<usize> = (0..64).collect();
        let err = with_threads(4, || {
            par_map_indexed(&items, |i, _| {
                if i == 13 {
                    panic!("boom");
                }
                i
            })
            .unwrap_err()
        });
        assert_eq!(err, ParError::WorkerPanic);
        assert_eq!(err.to_string(), "a parallel worker panicked");
    }

    #[test]
    fn serial_panic_becomes_error_too() {
        let items = [1u8];
        let err = with_threads(1, || {
            par_map_indexed(&items, |_, _| -> u8 { panic!("boom") }).unwrap_err()
        });
        assert_eq!(err, ParError::WorkerPanic);
    }

    /// Ring diffusion: each shard holds a value, sends it to both
    /// neighbours each epoch, and accumulates a hash of what it hears —
    /// order-sensitive on purpose, so any inbox-order wobble shows up.
    fn diffuse(num_shards: usize, epochs: usize) -> Vec<u64> {
        run_sharded(
            num_shards,
            epochs,
            trial,
            |state: &mut u64, _epoch, inbox: &[(usize, u64)], outbox| {
                for &(_, v) in inbox {
                    *state = state.rotate_left(7).wrapping_mul(31).wrapping_add(v);
                }
                let s = (*state % num_shards as u64) as usize;
                outbox.push(((s + 1) % num_shards, *state));
                outbox.push(((s + num_shards - 1) % num_shards, *state));
            },
            |m: &(usize, u64)| m.0,
            |state| state,
        )
        .unwrap()
    }

    #[test]
    fn sharded_results_are_thread_count_invariant() {
        let reference = with_threads(1, || diffuse(7, 5));
        for threads in [2, 3, 4, 8, 16] {
            let got = with_threads(threads, || diffuse(7, 5));
            assert_eq!(reference, got, "threads = {threads}");
        }
    }

    #[test]
    fn sharded_inbox_scans_sources_in_ascending_order() {
        // Every shard messages shard 0 each epoch; shard 0 records the
        // exact arrival order it observed.
        for threads in [1, 4] {
            let out = with_threads(threads, || {
                run_sharded(
                    5,
                    2,
                    |s| Vec::<usize>::new().tap_push(s),
                    |state: &mut Vec<usize>, _epoch, inbox: &[(usize, usize)], outbox| {
                        let me = state[0];
                        if me == 0 {
                            state.extend(inbox.iter().map(|m| m.1));
                        }
                        outbox.push((0, me));
                    },
                    |m: &(usize, usize)| m.0,
                    |state| state,
                )
                .unwrap()
            });
            // Epoch 1's inbox at shard 0: sources 0..5 in ascending order.
            assert_eq!(out[0], vec![0, 0, 1, 2, 3, 4], "threads = {threads}");
        }
    }

    #[test]
    fn sharded_epoch_zero_inbox_is_empty_and_last_outbox_is_dropped() {
        let heard = with_threads(2, || {
            run_sharded(
                3,
                1,
                |_s| 0usize,
                |state: &mut usize, _epoch, inbox: &[(usize, u8)], outbox| {
                    *state += inbox.len();
                    outbox.push(((*state + 1) % 3, 1));
                },
                |m: &(usize, u8)| m.0,
                |state| state,
            )
            .unwrap()
        });
        assert_eq!(heard, vec![0, 0, 0]);
    }

    #[test]
    fn sharded_worker_panic_is_reported_not_hung() {
        for threads in [1, 4] {
            let err = with_threads(threads, || {
                run_sharded(
                    6,
                    4,
                    |s| s,
                    |state: &mut usize, epoch, _inbox: &[(usize, u8)], _outbox| {
                        if *state == 3 && epoch == 2 {
                            panic!("boom");
                        }
                    },
                    |m: &(usize, u8)| m.0,
                    |state| state,
                )
                .unwrap_err()
            });
            assert_eq!(err, ParError::WorkerPanic, "threads = {threads}");
        }
    }

    #[test]
    fn sharded_panics_at_different_epochs_are_reported_not_hung() {
        // Shards 1, 4 and 6 (three workers at four threads) panic at
        // epochs 3, 1 and 2: the epoch-1 failure must stop every worker
        // after that barrier, before the later ones are reached. The call
        // runs on a helper thread, so a worker that leaves the barrier
        // schedule fails this test instead of hanging it.
        for threads in [1, 4] {
            let (done, result) = std::sync::mpsc::channel();
            let (helper, outcome) = with_threads(threads, || {
                let helper = std::thread::spawn(move || {
                    let out = run_sharded(
                        8,
                        6,
                        |s| s,
                        |state: &mut usize, epoch, _inbox: &[(usize, u8)], outbox| {
                            if matches!((*state, epoch), (1, 3) | (4, 1) | (6, 2)) {
                                panic!("boom");
                            }
                            outbox.push(((*state + 1) % 8, 0));
                        },
                        |m: &(usize, u8)| m.0,
                        |state| state,
                    );
                    let _ = done.send(out);
                });
                (
                    helper,
                    result.recv_timeout(std::time::Duration::from_secs(60)),
                )
            });
            assert_eq!(
                outcome,
                Ok(Err(ParError::WorkerPanic)),
                "threads = {threads}"
            );
            helper.join().unwrap();
        }
    }

    #[test]
    fn sharded_build_panic_is_reported_not_hung() {
        let err = with_threads(4, || {
            run_sharded(
                6,
                3,
                |s| {
                    if s == 5 {
                        panic!("boom");
                    }
                    s
                },
                |_state: &mut usize, _epoch, _inbox: &[(usize, u8)], _outbox| {},
                |m: &(usize, u8)| m.0,
                |state| state,
            )
            .unwrap_err()
        });
        assert_eq!(err, ParError::WorkerPanic);
    }

    #[test]
    fn sharded_zero_shards_is_empty() {
        let out: Vec<u8> = run_sharded(
            0,
            3,
            |_s| 0u8,
            |_state: &mut u8, _epoch, _inbox: &[(usize, u8)], _outbox| {},
            |m: &(usize, u8)| m.0,
            |state| state,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    trait TapPush {
        fn tap_push(self, v: usize) -> Self;
    }

    impl TapPush for Vec<usize> {
        fn tap_push(mut self, v: usize) -> Self {
            self.push(v);
            self
        }
    }

    #[test]
    fn override_beats_env_and_zero_clears_it() {
        let _guard = OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_thread_override(Some(3));
        assert_eq!(thread_count(), 3);
        set_thread_override(Some(0));
        assert!(thread_count() >= 1);
        set_thread_override(None);
        assert!(thread_count() >= 1);
    }
}
