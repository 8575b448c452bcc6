//! Allocation budget of the slice allocator's searches.
//!
//! Every scheduling round asks the allocator for a slice for each queued
//! size that may fit, and most of those asks find no room. Neither the
//! candidate shapes nor a search that fails allocate anything; only a
//! grant records the new slice. This is the guard behind
//! `host.allocs_per_op` of the ledger's `sched_churn` workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use multipod_sched::SliceAllocator;
use multipod_topology::{ChipId, Multipod, MultipodConfig};

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

/// `f`'s result and the allocations it made on this thread.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The ledger's 128×32 machine.
fn paper_mesh() -> Multipod {
    Multipod::new(MultipodConfig::mesh(128, 32, true))
}

#[test]
fn asking_for_the_shapes_of_a_slice_allocates_nothing() {
    let a = SliceAllocator::new(&paper_mesh());
    for k in 1..=12 {
        let (shapes, allocs) = count(|| {
            let shapes = a.shapes_for(0, black_box(1 << k)).unwrap();
            shapes.map(|(w, h)| w * h).sum::<u32>()
        });
        assert_eq!(allocs, 0, "2^{k} chips");
        assert!(shapes >= 1 << k);
    }
    // The errors allocate nothing either.
    for chips in [3, 1 << 13] {
        let (result, allocs) = count(|| a.shapes_for(0, black_box(chips)).map(|s| s.count()));
        assert!(result.is_err());
        assert_eq!(allocs, 0, "{chips} chips");
    }
}

#[test]
fn an_allocation_that_finds_no_room_allocates_nothing() {
    let mut a = SliceAllocator::new(&paper_mesh());
    // Half the mesh in big slices and the rest in 2-chip ones; then one
    // pair frees with a chip of it dead, so one lone chip is free.
    for owner in 0..4 {
        a.allocate(owner, 512).unwrap().unwrap();
    }
    let (mut owner, mut last) = (4, None);
    while let Some(slice) = a.allocate(owner, 2).unwrap() {
        last = Some((owner, slice));
        owner += 1;
    }
    let (owner, slice) = last.unwrap();
    a.free(owner);
    a.mark_dead(ChipId(slice.y0 * 128 + slice.x0));
    assert_eq!(a.live_chips() - a.busy_chips(), 1);
    for chips in [2, 4, 64, 2048, 4096] {
        let (slice, allocs) = count(|| a.allocate(99, black_box(chips)).unwrap());
        assert!(slice.is_none(), "{chips} chips");
        assert_eq!(allocs, 0, "{chips} chips");
    }
}
