//! Generational-index arena for MAC simulator state.
//!
//! Pending frames (and any other per-run bookkeeping) live in a flat
//! slot vector that is allocated once and reused for the whole run:
//! freeing a value pushes its slot onto an intrusive free list, and the
//! next allocation pops it back — no per-event heap traffic after
//! warm-up. Each slot carries a generation counter so a stale
//! [`Handle`] kept across a free/realloc cycle is detected instead of
//! silently aliasing the new occupant (the classic ABA hazard of plain
//! index arenas).
//!
//! Generation parity encodes liveness: odd generations are live, even
//! generations are vacant. A handle is valid only while its generation
//! matches the slot's, so every accessor returns `Option` and the
//! simulator's `let Some(..) else` fallbacks stay panic-free.

/// Sentinel for "no next free slot".
const NIL: u32 = u32::MAX;

/// A generational reference to an arena slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    index: u32,
    generation: u32,
}

impl Handle {
    /// The raw slot index (stable while the handle is live).
    pub fn index(&self) -> usize {
        self.index as usize
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    value: T,
    /// Odd while occupied, even while vacant.
    generation: u32,
    next_free: u32,
}

/// A growable slot arena with generational handles and a free list.
///
/// `T: Default` lets [`Arena::free`] reclaim the stored value with
/// `std::mem::take` instead of leaving a copy behind in the vacant slot.
#[derive(Debug, Clone, Default)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    live: usize,
}

impl<T: Default> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Arena<T> {
        Arena {
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
        }
    }

    /// Creates an arena with room for `capacity` live values before the
    /// slot vector has to grow.
    pub fn with_capacity(capacity: usize) -> Arena<T> {
        Arena {
            slots: Vec::with_capacity(capacity),
            free_head: NIL,
            live: 0,
        }
    }

    /// Stores `value`, reusing a vacant slot when one is available.
    pub fn alloc(&mut self, value: T) -> Handle {
        self.live += 1;
        if self.free_head != NIL {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            self.free_head = slot.next_free;
            slot.value = value;
            slot.generation = slot.generation.wrapping_add(1);
            return Handle {
                index,
                generation: slot.generation,
            };
        }
        let index = u32::try_from(self.slots.len()).unwrap_or(u32::MAX - 1);
        self.slots.push(Slot {
            value,
            generation: 1,
            next_free: NIL,
        });
        Handle {
            index,
            generation: 1,
        }
    }

    /// Releases the slot behind `handle`, returning its value, or
    /// `None` if the handle is stale.
    pub fn free(&mut self, handle: Handle) -> Option<T> {
        let slot = self.slots.get_mut(handle.index as usize)?;
        if slot.generation != handle.generation || handle.generation.is_multiple_of(2) {
            return None;
        }
        slot.generation = slot.generation.wrapping_add(1);
        slot.next_free = self.free_head;
        self.free_head = handle.index;
        self.live -= 1;
        Some(std::mem::take(&mut slot.value))
    }

    /// Shared access to a live value.
    pub fn get(&self, handle: Handle) -> Option<&T> {
        let slot = self.slots.get(handle.index as usize)?;
        (slot.generation == handle.generation && handle.generation % 2 == 1).then_some(&slot.value)
    }

    /// Mutable access to a live value.
    pub fn get_mut(&mut self, handle: Handle) -> Option<&mut T> {
        let slot = self.slots.get_mut(handle.index as usize)?;
        (slot.generation == handle.generation && handle.generation % 2 == 1)
            .then_some(&mut slot.value)
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no values are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever created (live + vacant) — the arena's
    /// high-water mark.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_then_get_roundtrips() {
        let mut arena: Arena<u64> = Arena::new();
        let h = arena.alloc(42);
        assert_eq!(arena.get(h), Some(&42));
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn free_returns_value_and_recycles_slot() {
        let mut arena: Arena<u64> = Arena::new();
        let a = arena.alloc(1);
        assert_eq!(arena.free(a), Some(1));
        assert!(arena.is_empty());
        let b = arena.alloc(2);
        // Same slot, new generation.
        assert_eq!(a.index(), b.index());
        assert_ne!(a, b);
        assert_eq!(arena.slot_count(), 1);
    }

    #[test]
    fn stale_handle_is_rejected_after_reuse() {
        let mut arena: Arena<u64> = Arena::new();
        let a = arena.alloc(1);
        arena.free(a);
        let _b = arena.alloc(2);
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.free(a), None);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn double_free_is_a_no_op() {
        let mut arena: Arena<u64> = Arena::new();
        let a = arena.alloc(7);
        assert_eq!(arena.free(a), Some(7));
        assert_eq!(arena.free(a), None);
        assert!(arena.is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut arena: Arena<u64> = Arena::new();
        let a = arena.alloc(5);
        if let Some(v) = arena.get_mut(a) {
            *v += 10;
        }
        assert_eq!(arena.get(a), Some(&15));
    }

    #[test]
    fn free_list_is_lifo_and_bounds_slot_growth() {
        let mut arena: Arena<u64> = Arena::new();
        let handles: Vec<Handle> = (0..8).map(|k| arena.alloc(k)).collect();
        for &h in &handles {
            arena.free(h);
        }
        for k in 0..8 {
            arena.alloc(100 + k);
        }
        // All churn reused the original 8 slots.
        assert_eq!(arena.slot_count(), 8);
        assert_eq!(arena.len(), 8);
    }
}
