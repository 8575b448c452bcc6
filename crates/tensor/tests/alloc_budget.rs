//! Allocation budget of a shape and of a tensor.
//!
//! A `Shape` holds its extents inline, so building, cloning or reshaping
//! one allocates nothing, and cloning a `Tensor` only bumps its buffer's
//! reference count. A tensor's storage is one `Arc<[f32]>` block, written
//! in place by every constructor, so building one costs exactly one
//! allocation and writing through a uniquely owned one costs none. The
//! ring executor, the 2-D summation, the optimizers and `Tensor::split`
//! build and clone shapes, shards and handles per shard and per chunk;
//! this is the guard behind `host.allocs_per_op` of the ledger's
//! `fault_recovery` and `paper_sweep` workloads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

/// Allocations `f` made on this thread. Its result goes through
/// `black_box`, so a release build cannot elide what the call allocated.
fn allocs<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = black_box(f());
    let calls = ALLOCS.with(Cell::get) - before;
    drop(out);
    calls
}

#[test]
fn building_and_reshaping_a_shape_allocates_nothing() {
    let shape = Shape::of(&[4, 8, 3]);
    let cases: [(&str, &dyn Fn() -> Shape); 6] = [
        ("of", &|| Shape::of(black_box(&[4, 8, 3]))),
        ("vector", &|| Shape::vector(black_box(96))),
        ("scalar", &Shape::scalar),
        ("clone", &|| black_box(&shape).clone()),
        ("with_dim", &|| shape.with_dim(1, 2)),
        ("split_axis", &|| shape.split_axis(1, 4).unwrap()),
    ];
    for (name, case) in cases {
        assert_eq!(allocs(case), 0, "Shape::{name}");
    }
}

#[test]
fn a_tensor_handle_costs_its_buffer_count_only() {
    let (shape, data) = (Shape::of(&[4, 8, 3]), vec![1.0f32; 96]);
    // The vector's elements move into one new block; the shape rides
    // inline.
    let mut tensor = None;
    assert_eq!(allocs(|| tensor = Some(Tensor::new(shape, data))), 1);
    let mut tensor = tensor.unwrap();
    assert_eq!(allocs(|| black_box(&tensor).clone()), 0);
    assert_eq!(allocs(|| black_box(tensor.data_mut())[0] = 2.0), 0);
}

#[test]
fn every_constructor_builds_its_block_in_place() {
    let shape = Shape::of(&[4, 8, 3]);
    let values = [0.5f32; 96];
    let cases: [(&str, &dyn Fn() -> Tensor); 5] = [
        ("zeros", &|| Tensor::zeros(black_box(shape.clone()))),
        ("fill", &|| Tensor::fill(black_box(shape.clone()), 1.5)),
        ("from_fn", &|| Tensor::from_fn(shape.clone(), |i| i as f32)),
        ("from_slice", &|| Tensor::from_slice(black_box(&values))),
        ("scalar", &|| Tensor::scalar(black_box(3.0))),
    ];
    for (name, case) in cases {
        assert_eq!(allocs(case), 1, "Tensor::{name}");
    }
    // A rank-1 split: the parts' vector, then one block per part.
    let flat = Tensor::from_slice(&values);
    for parts in [1, 4, 96] {
        let split = allocs(|| flat.split(0, black_box(parts)).unwrap());
        assert_eq!(split, 1 + parts as u64, "split into {parts}");
    }
}
