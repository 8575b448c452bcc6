//! Allocation budget of the analytic step model.
//!
//! `step_breakdown` prices a step from sums over ring walks: beyond the
//! member vectors of the rings it prices, it has nothing to keep. This is
//! the guard behind `paper_sweep`'s `host.allocs_per_op`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multipod_core::step::{step_breakdown, StepOptions};
use multipod_models::catalog;

thread_local! {
    /// Allocations made by this thread; per-thread so the harness's other
    /// threads cannot leak into a measurement.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps a counter beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_4096_chip_step_breakdown_allocates_a_handful() {
    let bert = catalog::bert();
    let options = StepOptions::default();
    let before = ALLOCS.with(Cell::get);
    step_breakdown(&bert, 4096, &options).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(allocs <= 8, "{allocs} allocations");
}
