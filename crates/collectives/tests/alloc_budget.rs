//! Allocation budget of the numeric ring executor.
//!
//! One ring call works in a single arena, so its allocation count may grow
//! with the ring size `n` (one output tensor per member) but never with
//! the `n(n−1)` chunk moves or the `n²` chunks. This is the regression
//! guard behind the ledger's `host.allocs_per_op`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multipod_collectives::{ring, Precision};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_tensor::{Shape, Tensor};
use multipod_topology::{Multipod, MultipodConfig};

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

const CHUNK: usize = 64;

/// Allocations of one reduce-scatter and of one all-gather on an `n`-ring
/// with `CHUNK`-element chunks, routes already warm.
fn allocs(n: usize, precision: Precision) -> (u64, u64) {
    let mesh = Multipod::new(MultipodConfig::mesh(1, n as u32, true));
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    let ring_y = net.mesh().y_ring(0);
    let fwd = ring::Direction::Forward;
    let ins: Vec<Tensor> = (0..n)
        .map(|i| Tensor::fill(Shape::vector(n * CHUNK), 1.0 + i as f32))
        .collect();
    let count = |f: &mut dyn FnMut()| {
        let before = ALLOCS.with(Cell::get);
        f();
        ALLOCS.with(Cell::get) - before
    };
    // Warm-up pass: fills the route cache and grows the network's tables.
    let rs = ring::reduce_scatter(&mut net, &ring_y, &ins, precision, fwd, SimTime::ZERO).unwrap();
    ring::all_gather(&mut net, &ring_y, &rs.shards, precision, fwd, rs.time).unwrap();
    net.reset();
    let scatter = count(&mut || {
        ring::reduce_scatter(&mut net, &ring_y, &ins, precision, fwd, SimTime::ZERO).unwrap();
    });
    let gather = count(&mut || {
        ring::all_gather(&mut net, &ring_y, &rs.shards, precision, fwd, rs.time).unwrap();
    });
    (scatter, gather)
}

#[test]
fn ring_call_allocations_are_linear_in_ring_size() {
    // Doubling n doubles the members (outputs) but quadruples the chunks
    // and the moves: anything allocated per chunk or per move breaks
    // `allocs(2n) ≤ 2·allocs(n) + c`.
    const SLACK: u64 = 16;
    for precision in [Precision::F32, Precision::Bf16] {
        let (scatter_8, gather_8) = allocs(8, precision);
        let (scatter_16, gather_16) = allocs(16, precision);
        assert!(
            scatter_16 <= 2 * scatter_8 + SLACK,
            "{precision:?} reduce-scatter: {scatter_8} allocations at n=8, {scatter_16} at n=16"
        );
        assert!(
            gather_16 <= 2 * gather_8 + SLACK,
            "{precision:?} all-gather: {gather_8} allocations at n=8, {gather_16} at n=16"
        );
        // And in absolute terms: a handful per member, not per chunk (n²).
        assert!(scatter_16 <= 4 * 16 + SLACK, "{scatter_16}");
        assert!(gather_16 <= 4 * 16 + SLACK, "{gather_16}");
    }
}
