//! Allocation budgets of `Network::transfer` and `EventQueue`.
//!
//! Memoized routes live in three flat vectors and one open-addressed
//! table, so a warm transfer allocates nothing, and interning a route may
//! only ever cost a vector doubling — never a heap block of its own. A
//! warm batch allocates nothing either, and a batch repeated over rounds
//! keeps one list of its paths, however many rounds it runs. The
//! queue keeps one FIFO per pending instant and hands a drained one to the
//! next new instant, so neither an event nor an instant costs a block of
//! its own once the buffers have grown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multipod_simnet::{EventQueue, Network, NetworkConfig, SimTime};
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

fn count(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Every ring-neighbour pair of the 2-D gradient summation: each chip to
/// its successor on its Y ring, then to its successor on its X line.
fn ring_neighbours(mesh: &Multipod) -> Vec<(ChipId, ChipId)> {
    let mut rings: Vec<_> = (0..mesh.x_len()).map(|x| mesh.y_ring(x)).collect();
    rings.extend((0..mesh.y_len()).map(|y| mesh.x_line(y)));
    let mut pairs = Vec::new();
    for ring in &rings {
        let members = ring.members();
        for (i, &from) in members.iter().enumerate() {
            pairs.push((from, members[(i + 1) % members.len()]));
        }
    }
    pairs
}

#[test]
fn warm_transfers_allocate_nothing() {
    let mesh = Multipod::new(MultipodConfig::mesh(32, 32, true));
    let pairs = ring_neighbours(&mesh);
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    for &(from, to) in &pairs {
        net.transfer(from, to, 4096, SimTime::ZERO).unwrap();
    }
    net.reset();
    let mut at = SimTime::ZERO;
    let allocs = count(|| {
        for &(from, to) in pairs.iter().cycle().take(1_000_000) {
            at = net.transfer(from, to, 4096, at).unwrap().finish;
        }
    });
    assert_eq!(allocs, 0, "over 1 M warm transfers");
}

#[test]
fn warm_batches_allocate_nothing_and_rounds_one_path_list() {
    let mesh = Multipod::new(MultipodConfig::mesh(32, 32, true));
    let batch: Vec<(ChipId, ChipId, u64)> = ring_neighbours(&mesh)
        .into_iter()
        .map(|(from, to)| (from, to, 4096))
        .collect();
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    net.parallel_transfers(&batch, SimTime::ZERO).unwrap();
    net.reset();
    let mut at = SimTime::ZERO;
    let allocs = count(|| {
        for _ in 0..64 {
            at = net.parallel_transfers(&batch, at).unwrap();
        }
    });
    assert_eq!(allocs, 0, "over 64 warm batches of {}", batch.len());
    // A ring collective's `n − 1` steps are one batch repeated: the list
    // of its paths is all it allocates, at 2 rounds as at 64.
    for rounds in [2, 64] {
        let allocs = count(|| {
            at = net.repeated_transfers(&batch, rounds, at).unwrap();
        });
        assert_eq!(allocs, 1, "{rounds} rounds of {} messages", batch.len());
    }
}

#[test]
fn interning_routes_costs_vector_doublings_only() {
    let mesh = Multipod::new(MultipodConfig::mesh(256, 64, true));
    let pairs = ring_neighbours(&mesh);
    assert_eq!(pairs.len(), 32_768);
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    let interning = count(|| {
        for &(from, to) in &pairs {
            net.transfer(from, to, 4096, SimTime::ZERO).unwrap();
        }
    });
    assert!(
        interning < 200,
        "{interning} allocations interning {} routes",
        pairs.len()
    );
}

/// The replay's shape: every event of one instant is popped and scheduled
/// again one instant later. The instant filling up grows the spare FIFO
/// once; after that the two buffers take turns, however many instants
/// pass.
#[test]
fn lockstep_instants_allocate_one_fifo_whatever_their_number() {
    const EVENTS: u32 = 4096;
    for instants in [16, 256] {
        let mut q = EventQueue::new();
        for event in 0..EVENTS {
            q.schedule(SimTime::ZERO, event);
        }
        let allocs = count(|| {
            for _ in 0..EVENTS * instants {
                let (at, event) = q.pop().unwrap();
                q.schedule(at + 1.0e-6, event);
            }
        });
        assert_eq!(q.len(), EVENTS as usize);
        // The growth of one `VecDeque` to 4096 slots: 4, 8, …, 4096.
        assert_eq!(allocs, 11, "over {instants} instants of {EVENTS} events");
    }
}

/// `paper_sweep`'s shape: the list scheduler builds a queue per step and
/// never holds more than two events in it, and drains each instant into
/// one buffer of its own.
#[test]
fn a_two_event_queue_costs_at_most_four_allocations() {
    let mut batch = Vec::new();
    let mut drained = (None, None);
    let allocs = count(|| {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_seconds(2.0), 'b');
        q.schedule(SimTime::from_seconds(1.0), 'a');
        drained = (q.pop(), q.pop_batch(&mut batch));
    });
    assert_eq!(drained.0, Some((SimTime::from_seconds(1.0), 'a')));
    assert_eq!(drained.1, Some(SimTime::from_seconds(2.0)));
    assert_eq!(batch, ['b']);
    assert!(allocs <= 4, "{allocs} allocations");
}
