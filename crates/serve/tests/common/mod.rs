//! The allocation tests' counting allocator.
//!
//! It counts allocation calls and bytes on one thread, and only inside
//! a measuring window opened by [`count`]. Other threads, such as the
//! test harness's, never land in a window. The counters live in a
//! const-initialized thread-local of a `Copy` type: accessing it never
//! allocates and registers no destructor, so the allocator cannot
//! recurse into itself.
//!
//! Beside the windows it keeps one process-wide count of allocation
//! calls on every thread ([`process_calls`]), for tests that measure a
//! server and its client together.
//!
//! Including this module installs the allocator for the whole test
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// What one measuring window counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub calls: u64,
    /// Bytes those calls asked for (a `realloc` counts its new size).
    pub bytes: u64,
}

thread_local! {
    /// This thread's open window, if any.
    static WINDOW: Cell<Option<Counts>> = const { Cell::new(None) };
}

/// Calls to `alloc`, `alloc_zeroed` and `realloc` on every thread.
static PROCESS_CALLS: AtomicU64 = AtomicU64::new(0);

/// Allocation calls made so far by every thread of the process,
/// windows or not.
#[allow(dead_code)] // the binaries that count one thread use `count`
pub fn process_calls() -> u64 {
    PROCESS_CALLS.load(Ordering::Relaxed)
}

/// Runs `f` in a measuring window on the calling thread and returns its
/// result with what it allocated.
#[allow(dead_code)] // the binaries that count whole requests use `process_calls`
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    WINDOW.with(|w| w.set(Some(Counts::default())));
    let r = f();
    let counts = WINDOW.with(|w| w.take()).expect("the window is still open");
    (r, counts)
}

fn record(bytes: usize) {
    PROCESS_CALLS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread whose locals are being torn down is not
    // measuring anything.
    let _ = WINDOW.try_with(|w| {
        if let Some(c) = w.get() {
            w.set(Some(Counts {
                calls: c.calls + 1,
                bytes: c.bytes + bytes as u64,
            }));
        }
    });
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
