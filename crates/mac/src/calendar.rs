//! Indexed calendar queue over fixed slot-time buckets.
//!
//! The MAC simulator's future events are keyed by an integer *slot
//! tick* (simulation time divided by the 9 µs slot). A calendar queue
//! maps each tick onto a bucket of a power-of-two ring (`bucket =
//! tick & mask`); each bucket holds an intrusive FIFO chain of entries
//! living in a flat slab with a free list, so steady-state push/pop
//! does no heap allocation and no comparisons beyond a short chain
//! walk — unlike a `BinaryHeap`, which pays `O(log n)` comparisons and
//! moves per operation.
//!
//! Events whose tick lies beyond the ring horizon (more than one lap
//! ahead) simply wait in their bucket's chain across laps: the scan
//! cursor only consumes an entry whose tick matches the tick under
//! inspection, so a "next year" entry is skipped until the cursor
//! comes back around. Dequeue order is exactly ascending
//! `(tick, insertion sequence)` — same-tick ties break by insertion
//! order, which is what the simulator's sorted-`Vec` scan used to
//! provide (see `calendar_proptests.rs` for the differential proof).

/// Sentinel for "no entry".
const NIL: u32 = u32::MAX;

/// Default bucket count when no sizing hint is given.
const DEFAULT_BUCKETS: usize = 1024;

/// Hard cap on the ring size (keeps per-domain memory modest even for
/// multi-million-event scenarios; longer chains amortize fine).
const MAX_BUCKETS: usize = 1 << 16;

#[derive(Debug, Clone)]
struct Entry<P> {
    tick: u64,
    seq: u64,
    next: u32,
    payload: P,
}

/// Cached location of the earliest entry, so `peek` followed by `pop`
/// costs one scan, not two.
#[derive(Debug, Clone, Copy)]
struct Earliest {
    entry: u32,
    /// Predecessor in the bucket chain (`NIL` when at the head).
    prev: u32,
    bucket: usize,
    tick: u64,
}

/// A calendar queue with `(tick, insertion sequence)` dequeue order.
#[derive(Debug, Clone)]
pub struct CalendarQueue<P> {
    /// Per-bucket `(head, tail)` of the intrusive FIFO chain.
    chains: Vec<(u32, u32)>,
    /// One bit per bucket: chain non-empty. Lets the cursor skip runs
    /// of 64 empty buckets per word probe.
    occupancy: Vec<u64>,
    entries: Vec<Entry<P>>,
    free_head: u32,
    mask: u64,
    /// No live entry has `tick < cursor`; advances monotonically.
    cursor: u64,
    seq: u64,
    len: usize,
    earliest: Option<Earliest>,
}

impl<P> Default for CalendarQueue<P> {
    fn default() -> Self {
        CalendarQueue::with_capacity(DEFAULT_BUCKETS)
    }
}

impl<P> CalendarQueue<P> {
    /// Creates a queue sized for roughly `events` concurrent entries:
    /// the bucket ring is the next power of two (clamped to
    /// [1024, 65536]) and the entry slab is pre-reserved so pushes do
    /// not allocate until the population exceeds the hint.
    pub fn with_capacity(events: usize) -> CalendarQueue<P> {
        let buckets = events
            .next_power_of_two()
            .clamp(DEFAULT_BUCKETS, MAX_BUCKETS);
        CalendarQueue {
            chains: vec![(NIL, NIL); buckets],
            occupancy: vec![0u64; buckets.div_ceil(64)],
            entries: Vec::with_capacity(events),
            free_head: NIL,
            mask: (buckets - 1) as u64,
            cursor: 0,
            seq: 0,
            len: 0,
            earliest: None,
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `payload` at `tick` and returns its insertion sequence
    /// number. A tick earlier than an already-dequeued tick is clamped
    /// forward: events pushed into the past fire immediately rather
    /// than violating the monotone cursor.
    pub fn push(&mut self, tick: u64, payload: P) -> u64 {
        let tick = tick.max(self.cursor);
        let seq = self.seq;
        self.seq += 1;
        let index = if self.free_head != NIL {
            let index = self.free_head;
            let slot = &mut self.entries[index as usize];
            self.free_head = slot.next;
            *slot = Entry {
                tick,
                seq,
                next: NIL,
                payload,
            };
            index
        } else {
            let index = u32::try_from(self.entries.len()).unwrap_or(u32::MAX - 1);
            self.entries.push(Entry {
                tick,
                seq,
                next: NIL,
                payload,
            });
            index
        };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "masked to the bucket count, fits usize"
        )]
        let bucket = (tick & self.mask) as usize;
        let (head, tail) = self.chains[bucket];
        if head == NIL {
            self.chains[bucket] = (index, index);
            self.occupancy[bucket / 64] |= 1u64 << (bucket % 64);
        } else {
            self.entries[tail as usize].next = index;
            self.chains[bucket] = (head, index);
        }
        self.len += 1;
        // A strictly-earlier tick outdates the cached earliest; an
        // equal tick keeps it (the cache has the smaller sequence).
        if self.earliest.is_some_and(|e| tick < e.tick) {
            self.earliest = None;
        }
        seq
    }

    /// The earliest entry's `(tick, payload)` without removing it.
    pub fn peek(&mut self) -> Option<(u64, &P)> {
        self.locate_earliest();
        let found = self.earliest?;
        let entry = &self.entries[found.entry as usize];
        Some((entry.tick, &entry.payload))
    }

    /// Removes and returns the earliest entry as
    /// `(tick, insertion sequence, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, P)>
    where
        P: Default,
    {
        self.locate_earliest();
        let found = self.earliest.take()?;
        let index = found.entry as usize;
        let next = self.entries[index].next;
        if found.prev == NIL {
            let (_, tail) = self.chains[found.bucket];
            if tail == found.entry {
                self.chains[found.bucket] = (NIL, NIL);
                self.occupancy[found.bucket / 64] &= !(1u64 << (found.bucket % 64));
            } else {
                self.chains[found.bucket] = (next, tail);
            }
        } else {
            self.entries[found.prev as usize].next = next;
            let (head, tail) = self.chains[found.bucket];
            if tail == found.entry {
                self.chains[found.bucket] = (head, found.prev);
            }
        }
        let slot = &mut self.entries[index];
        let tick = slot.tick;
        let seq = slot.seq;
        let payload = std::mem::take(&mut slot.payload);
        slot.next = self.free_head;
        self.free_head = found.entry;
        self.len -= 1;
        Some((tick, seq, payload))
    }

    /// Finds the earliest `(tick, seq)` entry, advancing the cursor
    /// over provably-empty ticks as it goes (each tick is cleared at
    /// most once per queue lifetime, so scans amortize to O(1)).
    fn locate_earliest(&mut self) {
        if self.earliest.is_some() || self.len == 0 {
            return;
        }
        loop {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "masked to the bucket count, fits usize"
            )]
            let bucket = (self.cursor & self.mask) as usize;
            let word = self.occupancy[bucket / 64];
            if word == 0 {
                // 64 consecutive empty buckets: no entry of any lap
                // lives at these ticks; jump to the next word edge.
                let in_word = (bucket % 64) as u64;
                self.cursor += 64 - in_word;
                continue;
            }
            if word & (1u64 << (bucket % 64)) == 0 {
                self.cursor += 1;
                continue;
            }
            // Chains are appended in push order, so the first entry
            // matching this tick already has the minimum sequence.
            let mut prev = NIL;
            let mut walk = self.chains[bucket].0;
            let mut found = false;
            while walk != NIL {
                let entry = &self.entries[walk as usize];
                if entry.tick == self.cursor {
                    self.earliest = Some(Earliest {
                        entry: walk,
                        prev,
                        bucket,
                        tick: self.cursor,
                    });
                    found = true;
                    break;
                }
                prev = walk;
                walk = entry.next;
            }
            if found {
                return;
            }
            // Only future-lap entries here; this tick is done for good.
            self.cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_tick_order() {
        let mut q = CalendarQueue::with_capacity(8);
        q.push(5, "e");
        q.push(1, "a");
        q.push(3, "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["a", "c", "e"]);
    }

    #[test]
    fn same_tick_ties_break_by_insertion_sequence() {
        let mut q = CalendarQueue::with_capacity(8);
        q.push(2, "first");
        q.push(2, "second");
        q.push(2, "third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn entries_beyond_ring_horizon_wait_for_their_lap() {
        // 1024-bucket ring: ticks 10 and 10 + 3*1024 share a bucket.
        let mut q = CalendarQueue::with_capacity(8);
        let far = 10 + 3 * 1024;
        q.push(far, "far");
        q.push(10, "near");
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((10, "near")));
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((far, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop_and_does_not_consume() {
        let mut q = CalendarQueue::with_capacity(8);
        q.push(7, 70u32);
        q.push(4, 40u32);
        assert_eq!(q.peek(), Some((4, &40)));
        assert_eq!(q.peek(), Some((4, &40)));
        assert_eq!(q.pop(), Some((4, 1, 40)));
        assert_eq!(q.peek(), Some((7, &70)));
    }

    #[test]
    fn push_behind_cursor_is_clamped_forward() {
        let mut q = CalendarQueue::with_capacity(8);
        q.push(100, "late");
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((100, "late")));
        // Tick 3 already passed; the entry fires at the cursor instead.
        q.push(3, "past");
        let (tick, _, p) = q.pop().expect("entry present");
        assert_eq!(p, "past");
        assert!(tick >= 100, "clamped tick {tick}");
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        let mut q = CalendarQueue::with_capacity(4);
        q.push(10, 1u32);
        q.push(20, 2u32);
        assert_eq!(q.pop().map(|x| x.2), Some(1));
        q.push(15, 3u32);
        q.push(10_000, 4u32);
        assert_eq!(q.pop().map(|x| x.2), Some(3));
        assert_eq!(q.pop().map(|x| x.2), Some(2));
        assert_eq!(q.pop().map(|x| x.2), Some(4));
        assert_eq!(q.pop().map(|x| x.2), None);
    }

    #[test]
    fn slab_is_recycled_through_free_list() {
        let mut q = CalendarQueue::with_capacity(1024);
        for round in 0..4u64 {
            for k in 0..100u64 {
                q.push(round * 1000 + k, k);
            }
            for _ in 0..100 {
                assert!(q.pop().is_some());
            }
        }
        // 400 events total, never more than 100 live.
        assert!(q.entries.len() <= 100, "slab grew to {}", q.entries.len());
    }
}
