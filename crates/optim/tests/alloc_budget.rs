//! Allocation budget of an optimizer step.
//!
//! `SgdMomentum` keeps one velocity per layer and updates it and the
//! weights in place, so once the first step has created the velocity a
//! step allocates nothing. This is the guard behind the pod scheduler's
//! per-job training steps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multipod_optim::{Optimizer, SgdMomentum};
use multipod_tensor::{Shape, Tensor};

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
fn sgd_momentum_steps_allocate_nothing_after_the_first() {
    let mut opt = SgdMomentum::new(0.05, 0.9);
    let mut weights = Tensor::fill(Shape::vector(4096), 0.25);
    let grad = Tensor::fill(Shape::vector(4096), -0.125);
    opt.step(0, &mut weights, &grad).unwrap();
    let before = ALLOCS.with(Cell::get);
    for _ in 0..1000 {
        opt.step(0, &mut weights, &grad).unwrap();
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "{allocs} allocations in 1000 steps");
}
