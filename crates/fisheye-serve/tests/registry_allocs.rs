//! The metrics registry allocates only when it creates a metric:
//! `inc`, `add`, `gauge` and `observe` on a name that already exists
//! must not touch the heap, since the serving layer makes several such
//! updates per frame. A counting global allocator counts only the
//! calling thread's allocations, so the harness's other test threads
//! cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use fisheye_serve::Registry;

thread_local! {
    /// This thread's allocations while counting is on; `None` when off.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// [`System`] plus a per-thread allocation counter. `alloc`,
/// `alloc_zeroed` and `realloc` each count as one allocation.
struct Counting;

fn note() {
    // `try_with`: a thread being torn down has no counter left
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialized thread-local `Cell` that never allocates and
// touches no memory the allocator hands out.
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

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.take()).unwrap_or(0)
}

#[test]
fn updates_to_existing_metrics_allocate_nothing() {
    let reg = Registry::new();
    let created = allocations(|| {
        reg.inc("serve.frames");
        reg.add("serve.rows", 3);
        reg.gauge("serve.level", 1.0);
        reg.observe("serve.latency_us", Duration::from_micros(5));
    });
    assert!(
        created >= 4,
        "creating four metrics counted {created} allocations"
    );

    let updated = allocations(|| {
        reg.inc("serve.frames");
        reg.add("serve.rows", 7);
        reg.gauge("serve.level", 2.0);
        reg.observe("serve.latency_us", Duration::from_micros(9));
    });
    assert_eq!(updated, 0, "updates to existing metrics allocated");

    assert_eq!(reg.counter("serve.frames"), 2);
    assert_eq!(reg.counter("serve.rows"), 10);
    assert_eq!(reg.gauge_value("serve.level"), Some(2.0));
    assert_eq!(
        reg.histogram("serve.latency_us").map(|h| h.count()),
        Some(2)
    );
}
