//! A counting global allocator: the benchmark's outside view of how
//! many heap allocations one call into the program makes.
//!
//! Counting is off by default, so untimed and untraced phases pay one
//! relaxed load per allocation and nothing else. [`count`] switches it
//! on around a closure and returns the number of allocations made by
//! every thread while the closure ran, so callers run it only while no
//! other benchmark thread is busy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus an allocation counter. `alloc`, `alloc_zeroed` and
/// `realloc` each count as one allocation; `dealloc` does not count.
pub struct Counting;

fn note() {
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator and
        // the caller's guarantees for `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with counting on; returns its result and the allocations
/// made meanwhile by every thread of the process.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.store(0, Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    let r = f();
    ON.store(false, Ordering::SeqCst);
    (r, COUNT.load(Ordering::SeqCst))
}
