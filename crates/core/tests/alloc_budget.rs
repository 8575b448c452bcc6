//! Allocation budget of the analytic step model.
//!
//! `step_breakdown` prices a step from sums over ring walks: beyond the
//! member vectors of the rings it prices, it has nothing to keep. This is
//! the guard behind `paper_sweep`'s `host.allocs_per_op`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multipod_collectives::Precision;
use multipod_core::ablate::summation_ablation;
use multipod_core::overlap::{overlapped_step, OverlapConfig};
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

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_4096_chip_step_breakdown_allocates_a_handful() {
    let bert = catalog::bert();
    let options = StepOptions::default();
    let allocs = allocations(|| {
        step_breakdown(&bert, 4096, &options).unwrap();
    });
    assert!(allocs <= 8, "{allocs} allocations");
}

#[test]
fn an_overlapped_4096_chip_step_allocates_its_graph_and_schedule() {
    // The analytic breakdown (whose rings also price every bucket), the
    // task graph (a `Vec` of tasks and one dependency arena, each grown
    // by doubling), the bucket sizes and update ids, the scheduler's flat
    // per-task arrays, ready heaps, one event FIFO and batch buffer, and
    // the schedule. Pinned: a count that moves is a change to read, not
    // slack to absorb.
    let bert = catalog::bert();
    let options = StepOptions::default();
    let allocs = [1, 8, 20, 32].map(|buckets| {
        let overlap = OverlapConfig {
            buckets,
            ..OverlapConfig::default()
        };
        allocations(|| {
            overlapped_step(&bert, 4096, &options, &overlap).unwrap();
        })
    });
    // At buckets 1/8/20/32; per-node `BTreeSet`s and dependents
    // vectors made them 44/165/376/590, and a `deps` vector per task, a
    // FIFO per instant and a second mesh, network and pair of rings
    // 38/124/271/417.
    assert_eq!(allocs, [22, 32, 43, 57]);
}

#[test]
fn the_summation_ablation_allocates_its_ring_members_and_rows() {
    // Per slice: the snake ring's members, and the Y ring's and the X
    // line's that price the 2-D summation; plus the row vector.
    let allocs = allocations(|| {
        summation_ablation(25_600_000, Precision::F32, &[64, 256, 1024, 4096]).unwrap();
    });
    assert_eq!(allocs, 13);
}
