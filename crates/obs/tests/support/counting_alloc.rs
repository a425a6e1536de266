//! A counting global allocator for allocation-budget tests.
//!
//! The count is kept per thread. The test harness runs tests on parallel
//! threads, and a process-wide counter would charge one test with
//! another's allocations. Install it in a test crate with:
//!
//! ```ignore
//! #[path = "support/counting_alloc.rs"]
//! mod counting_alloc;
//!
//! #[global_allocator]
//! static GLOBAL: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;
//! ```
#![expect(
    unsafe_code,
    reason = "a `GlobalAlloc` impl is unsafe by definition; test support only"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting allocations and
/// reallocations made by the calling thread.
pub(crate) struct CountingAlloc;

thread_local! {
    // A const-initialised `Cell` has no destructor, so touching it from
    // inside the allocator never allocates or re-enters.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with` only fails while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees to this allocator are exactly the guarantees
// `System` needs, and every block it hands out comes from `System`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`; `new_size` is the caller's, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations the current thread made while running `f`.
pub(crate) fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}
