//! Allocation budget of the topology queries asked once per chip.
//!
//! `Multipod::is_isolated` is asked for every chip of a mesh whenever a
//! checkpoint placement is planned, a trainer marks lost replicas and a
//! slice allocator is built, so it walks a chip's at most four links and
//! keeps nothing. This is the guard behind `host.allocs_per_op` of the
//! ledger's `fault_recovery` and `sched_churn` workloads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

#[test]
fn asking_whether_a_chip_is_isolated_allocates_nothing() {
    let mut meshes = vec![
        Multipod::new(MultipodConfig::mesh(4, 4, true)),
        Multipod::new(MultipodConfig::mesh(1, 2, true)),
        Multipod::new(MultipodConfig::mesh(3, 1, false)),
        Multipod::new(MultipodConfig::multipod(2)),
    ];
    // A lost chip and a failed wrap link, so both answers occur.
    meshes[0].fail_chip(ChipId(5));
    meshes[0].fail_link(ChipId(0), ChipId(3));
    for mesh in &meshes {
        for chip in mesh.chips() {
            let before = ALLOCS.with(Cell::get);
            let isolated = black_box(mesh).is_isolated(black_box(chip));
            assert_eq!(ALLOCS.with(Cell::get) - before, 0, "{chip:?}");
            // The walk sees the same links `neighbors` lists.
            assert_eq!(isolated, mesh.neighbors(chip).is_empty(), "{chip:?}");
        }
    }
    assert!(meshes[0].is_isolated(ChipId(5)));
}
