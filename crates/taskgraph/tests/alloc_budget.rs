//! Allocation budget of building and running a task graph.
//!
//! A graph keeps its tasks in one `Vec` and every dependency list in one
//! arena, and the list scheduler drains each instant of its event queue
//! into one reused buffer, the queue handing a drained FIFO on to the
//! next instant. So neither building nor running makes a container per
//! task or per instant: graphs of different sizes differ only by the
//! doublings of the two build vectors. This is the guard behind the
//! task-graph share of `paper_sweep`'s `host.allocs_per_op`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multipod_taskgraph::{Resource, TaskGraph, TaskId, TaskKind};

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

/// `n` MXU tasks, each depending on the one before.
fn chain(n: u32) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut prev: Option<TaskId> = None;
    for layer in 0..n {
        let kind = TaskKind::LayerBackprop { layer };
        prev = Some(g.add(kind, Resource::Mxu, 1.0e-3, prev.as_slice()).unwrap());
    }
    g
}

/// The overlapped training step's shape, as `multipod-core` builds it
/// with prefetch and weight-update sharding on: an input fetch beside
/// forward → model-parallel comm → one backprop segment per bucket, each
/// segment feeding its bucket's Y-RS → X-RS → update → X-AG → Y-AG chain.
fn overlapped_step(buckets: u32) -> TaskGraph {
    let mut g = TaskGraph::new();
    g.add(TaskKind::InputFetch, Resource::Host, 4.0e-3, &[])
        .unwrap();
    let fwd = g
        .add(TaskKind::Forward, Resource::Mxu, 3.0e-3, &[])
        .unwrap();
    let mut prev = g
        .add(TaskKind::ModelParallelComm, Resource::Mxu, 1.0e-4, &[fwd])
        .unwrap();
    for bucket in 0..buckets {
        let bwd = g
            .add(
                TaskKind::LayerBackprop { layer: bucket },
                Resource::Mxu,
                6.0e-3 / f64::from(buckets),
                &[prev],
            )
            .unwrap();
        prev = bwd;
        let mut dep = bwd;
        for (kind, resource, seconds) in [
            (TaskKind::reduce_scatter_y(bucket), Resource::Ici, 2.0e-4),
            (TaskKind::reduce_scatter_x(bucket), Resource::Ici, 3.0e-5),
            (
                TaskKind::OptimizerShardUpdate { bucket },
                Resource::Mxu,
                1.0e-5,
            ),
            (TaskKind::all_gather_x(bucket), Resource::Ici, 3.0e-5),
            (TaskKind::all_gather_y(bucket), Resource::Ici, 2.0e-4),
        ] {
            dep = g.add(kind, resource, seconds, &[dep]).unwrap();
        }
    }
    g
}

#[test]
fn building_a_chain_costs_the_doublings_of_two_vectors() {
    // Tasks and dependency arena each grow 4, 8, …: two blocks apiece at
    // 8 tasks, seven at 256.
    let (_, at_8) = count(|| chain(8));
    let (_, at_256) = count(|| chain(256));
    assert_eq!([at_8, at_256], [4, 14]);
}

#[test]
fn running_a_chain_allocates_the_same_whatever_its_length() {
    // Five per-task arrays (dependency counts, dependents and their
    // offsets, starts, ends), the MXU ready heap, the
    // queue's map node, its one FIFO, the batch buffer and the schedule:
    // the heap holds one task at a time and every instant one event, so
    // none of them grows with the chain.
    let (g8, g256) = (chain(8), chain(256));
    let (s8, at_8) = count(|| g8.run());
    let (s256, at_256) = count(|| g256.run());
    assert_eq!((s8.tasks.len(), s256.tasks.len()), (8, 256));
    assert_eq!([at_8, at_256], [10, 10]);
}

#[test]
fn an_overlapped_step_builds_and_runs_in_a_fixed_handful() {
    let counts = [1, 32].map(|buckets| {
        let (g, build) = count(|| overlapped_step(buckets));
        let (s, run) = count(|| g.run());
        assert_eq!(s.tasks.len(), 3 + 6 * buckets as usize);
        (build, run)
    });
    // Building: the doublings of the tasks (9 or 195) and the arena (7
    // or 193 ids). Running: the chain's ten blocks, the host and ICI
    // ready heaps, a second FIFO while two instants are pending, and at
    // 32 buckets the heaps' doublings as ICI phases queue behind the
    // rings.
    assert_eq!(counts, [(5, 13), (14, 35)]);
}
