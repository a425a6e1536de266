//! Allocation budgets of the pool primitives, pinned by a counting
//! allocator.
//!
//! With the pool forced to one thread, all work runs on the calling
//! thread, whose allocations the counter sees:
//!
//! * `par_map_indexed` (and its scratch variant) allocates exactly the
//!   result vector — nothing per item;
//! * `run_sharded` allocates a fixed set of bookkeeping vectors per
//!   call (two mailbox banks and their index, the shard states, the
//!   worker results, the result slots and the output), and its mailboxes
//!   and inboxes reach their working size within the first two epochs;
//!   from then on an epoch allocates nothing.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_during, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The bookkeeping vectors of one `run_sharded` call.
const SHARDED_SETUP: usize = 8;

#[test]
fn par_map_indexed_allocates_only_its_result() {
    carpool_par::set_thread_override(Some(1));
    for n in [0u64, 1, 7, 1000] {
        let items: Vec<u64> = (0..n).collect();
        let expected = usize::from(n > 0);
        let (allocs, out) = allocations_during(|| {
            carpool_par::par_map_indexed(&items, |i, &x| x.wrapping_mul(3) ^ i as u64)
        });
        assert_eq!(out.map(|v| v.len()), Ok(items.len()));
        assert_eq!(allocs, expected, "par_map_indexed over {n} items");
        let (allocs, out) = allocations_during(|| {
            carpool_par::par_map_indexed_scratch(
                &items,
                || 0u64,
                |seen, _, &x| {
                    *seen += 1;
                    x + *seen
                },
            )
        });
        assert_eq!(out.map(|v| v.len()), Ok(items.len()));
        assert_eq!(allocs, expected, "par_map_indexed_scratch over {n} items");
    }
}

/// One `run_sharded` call in which every shard sends two messages per
/// epoch, one of them to its neighbour.
#[expect(clippy::panic, reason = "test helper: a failed run fails the test")]
fn sharded(shards: usize, epochs: usize) -> (usize, Vec<u64>) {
    let (allocs, out) = allocations_during(|| {
        carpool_par::run_sharded(
            shards,
            epochs,
            |s| s as u64,
            |state: &mut u64, epoch, inbox: &[u64], out: &mut Vec<u64>| {
                *state = inbox
                    .iter()
                    .fold(*state, |acc, m| acc.wrapping_mul(31).wrapping_add(*m));
                out.push(*state % 1000 + epoch as u64);
                out.push(1);
            },
            |m: &u64| (*m as usize) % shards,
            |state| state,
        )
    });
    match out {
        Ok(out) => (allocs, out),
        Err(e) => panic!("{shards} shards, {epochs} epochs: {e}"),
    }
}

#[test]
fn run_sharded_allocates_nothing_per_epoch_once_warm() {
    carpool_par::set_thread_override(Some(1));
    for shards in [1, 4, 16] {
        let (idle, out) = sharded(shards, 0);
        assert_eq!(out.len(), shards);
        assert_eq!(idle, SHARDED_SETUP, "{shards} shards, no epochs");
        let (warm, _) = sharded(shards, 2);
        for epochs in [3, 10, 100, 1000] {
            let (allocs, out) = sharded(shards, epochs);
            assert_eq!(out.len(), shards);
            assert_eq!(allocs, warm, "{shards} shards, {epochs} epochs");
        }
    }
}
