//! Counting global allocator: live/peak heap bytes and allocation counts.
//!
//! Lives in `benchmark/` only, wraps [`System`], and is always on, so
//! both sides of a comparison pay the same few relaxed atomics per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The process-wide allocator; installed by `main.rs`.
pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters beside it, so `System`'s own
// guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new_ptr
    }
}

/// Counter values at one instant.
#[derive(Clone, Copy, Debug)]
pub struct HeapSnapshot {
    /// Allocations (including reallocations) since process start.
    pub allocs: u64,
    /// Bytes requested since process start.
    pub alloc_bytes: u64,
    /// Peak live bytes since the last [`reset_peak`].
    pub peak: usize,
}

/// Reads the counters.
pub fn snapshot() -> HeapSnapshot {
    HeapSnapshot {
        allocs: ALLOCS.load(Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Bytes live right now.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Restarts peak tracking from the bytes live right now.
pub fn reset_peak() {
    PEAK.store(live(), Relaxed);
}
