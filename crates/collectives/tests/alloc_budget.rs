//! Allocation budget of the numeric ring executor.
//!
//! A reduce-scatter folds each chunk in the buffer that becomes its
//! shard, so its allocation count may grow with the ring size `n` (one
//! block per shard: the `Arc<[f32]>` the sum is folded in) but never with the
//! `n − 1` rounds, the `n(n−1)` hops or the `n²` chunks, and its bytes are
//! the shards plus a few words per member — never a copy of the `n`
//! inputs. An all-gather assembles one row and hands out `n` handles to
//! it; a handle's shape is inline, so its count does not grow with `n` at
//! all, and its bytes are the row, not `n` rows. The α–β cost
//! model and the degradation check walk their rings hop by hop and keep
//! only sums, so they allocate nothing of their own. This is the
//! regression guard behind the ledger's `host.allocs_per_op` and
//! `alloc_mb_per_op`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multipod_collectives::degraded::ring_degradation;
use multipod_collectives::timing::RingCosts;
use multipod_collectives::twod::two_dim_all_reduce_time;
use multipod_collectives::{ring, Precision};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_tensor::{Shape, Tensor};
use multipod_topology::{Multipod, MultipodConfig};

thread_local! {
    /// Allocations made by this thread, and the bytes they asked for;
    /// per-thread so the harness's other threads cannot leak into a
    /// measurement.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps two counters beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
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

/// What one call allocated: how many times, and how many bytes in all.
#[derive(Clone, Copy, Debug)]
struct Allocated {
    calls: u64,
    bytes: u64,
}

fn count(f: &mut dyn FnMut()) -> Allocated {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    Allocated {
        calls: ALLOCS.with(Cell::get) - before.0,
        bytes: BYTES.with(Cell::get) - before.1,
    }
}

/// Allocations of one reduce-scatter and of one all-gather on an `n`-ring
/// with `CHUNK`-element chunks, routes already warm.
fn allocs(n: usize, precision: Precision) -> (Allocated, Allocated) {
    let mesh = Multipod::new(MultipodConfig::mesh(1, n as u32, true));
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    let ring_y = net.mesh().y_ring(0);
    let fwd = ring::Direction::Forward;
    let ins: Vec<Tensor> = (0..n)
        .map(|i| Tensor::fill(Shape::vector(n * CHUNK), 1.0 + i as f32))
        .collect();
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
    // Doubling n doubles the members (shards) but quadruples the chunks
    // and the moves: anything allocated per chunk or per move breaks
    // `allocs(2n) ≤ 2·allocs(n) + c`.
    const SLACK: u64 = 16;
    for precision in [Precision::F32, Precision::Bf16] {
        let (scatter_8, _) = allocs(8, precision);
        let (scatter_16, _) = allocs(16, precision);
        assert!(
            scatter_16.calls <= 2 * scatter_8.calls + SLACK,
            "{precision:?} reduce-scatter: {scatter_8:?} at n=8, {scatter_16:?} at n=16"
        );
        // And in absolute terms: a handful per member, not per chunk (n²).
        assert!(scatter_16.calls <= 4 * 16 + SLACK, "{scatter_16:?}");
    }
}

#[test]
fn a_reduce_scatter_allocates_its_shards_and_no_arena() {
    // Per shard: the one block its sum is folded in. Per call:
    // the shard and placement vectors, the input views, the message list
    // and the network's path list — none per round, hop or chunk.
    const PER_CALL: u64 = 8;
    // Bytes beside the shards' own, per member: the block's reference
    // counts, one entry in each per-call list.
    const PER_MEMBER_BYTES: u64 = 192;
    for precision in [Precision::F32, Precision::Bf16] {
        for n in [8u64, 16, 32] {
            let (scatter, _) = allocs(n as usize, precision);
            assert!(
                scatter.calls <= n + PER_CALL,
                "{precision:?} reduce-scatter at n={n}: {scatter:?}"
            );
            let shards = n * CHUNK as u64 * 4;
            // A copy of the inputs would add `n` times as much again.
            assert!(
                scatter.bytes <= shards + n * PER_MEMBER_BYTES,
                "{precision:?} reduce-scatter at n={n}: {scatter:?} against {shards} bytes of shards"
            );
        }
    }
}

#[test]
fn an_all_gather_allocates_one_row_whatever_the_ring_size() {
    // The payload is assembled once and shared. A handle is a `Tensor`
    // in the output vector, its shape inline; nothing may be allocated per
    // member, and no payload bytes beyond the one row.
    const SLACK: u64 = 8;
    for precision in [Precision::F32, Precision::Bf16] {
        for n in [8u64, 16] {
            let (_, gather) = allocs(n as usize, precision);
            assert!(
                gather.calls <= SLACK,
                "{precision:?} all-gather at n={n}: {gather:?}"
            );
            let row = n * CHUNK as u64 * 4;
            let handle = size_of::<Tensor>() as u64;
            // A second row of headroom covers the message list, the path list
            // and the row's reference counts — never a row per member.
            assert!(
                gather.bytes <= 2 * row + n * handle,
                "{precision:?} all-gather at n={n}: {gather:?} against a {row}-byte row"
            );
        }
    }
}

#[test]
fn pricing_a_ring_allocates_nothing() {
    // 4096 one-hop edges and a wrap edge routed back across the mesh.
    let net = Network::new(
        Multipod::new(MultipodConfig::multipod(4)),
        NetworkConfig::tpu_v3(),
    );
    let snake = net.mesh().snake_ring();
    let priced = count(&mut || {
        RingCosts::from_ring(&net, &snake, 1).unwrap();
    });
    assert_eq!(priced.calls, 0, "{priced:?}");
    let checked = count(&mut || {
        ring_degradation(net.mesh(), &snake).unwrap();
    });
    assert_eq!(checked.calls, 0, "{checked:?}");
}

#[test]
fn pricing_the_two_dim_summation_allocates_its_two_rings_only() {
    let net = Network::new(
        Multipod::new(MultipodConfig::multipod(4)),
        NetworkConfig::tpu_v3(),
    );
    let priced = count(&mut || {
        two_dim_all_reduce_time(&net, 1 << 20, Precision::F32, 4).unwrap();
    });
    // The member vectors of the Y ring and of the strided X line.
    assert!(priced.calls <= 4, "{priced:?}");
}
