//! Allocation regression test for the metrics store.
//!
//! A counting global allocator tallies the heap allocations (including
//! reallocations) made on the calling thread. A key's `String` is
//! allocated on its first use only: once every key exists (and each
//! histogram has grown to its largest bucket), recording on it — through
//! the global free functions, span guards on a known path, or an
//! engine-owned `Registry` — must not allocate at all.

use obs::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the `GlobalAlloc` contract `System` does;
// the counter bump neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's other guarantees are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations the calling thread makes while running `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn record_everything(reg: &Registry, v: u64) {
    {
        let _run = obs::span("run");
        let _phase = obs::span("phase");
        obs::record_count("c", 1);
        obs::record_value("v", 0.5);
        obs::record_hist("h", v);
    }
    reg.add_count("c", 1);
    reg.add_counts(&[("a", 1), ("b", 1)]);
    reg.add_value("v", 0.5);
    reg.record_hist("h", v);
}

#[test]
fn recording_on_known_keys_allocates_nothing() {
    let reg = Registry::new();
    obs::reset();
    obs::enable();
    // Warm-up: create every key, and grow each histogram to the largest
    // bucket the measured loop reaches — the span-duration histograms
    // included, through one span that outlasts every later one.
    {
        let _run = obs::span("run");
        let _phase = obs::span("phase");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    record_everything(&reg, 1 << 20);

    let allocs = allocs_in(|| {
        for i in 0..1_000 {
            record_everything(&reg, i);
        }
    });
    obs::disable();
    let report = obs::take_report();
    assert_eq!(allocs, 0, "recording on existing keys allocated {allocs} times");
    assert_eq!(report.span_count("run/phase"), 1_002);
    assert_eq!(report.count("c"), 1_001);
    assert_eq!(reg.cumulative().count("b"), 1_001);
}
