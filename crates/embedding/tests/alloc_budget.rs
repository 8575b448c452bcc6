//! Allocation budget of the embedding layer's serving path.
//!
//! Tables are never materialised, so setting up the serve layout costs
//! O(tables) bytes, and pricing a batch allocates a fixed handful of
//! buffers sized by the batch — nothing per row. This is the regression
//! guard behind the ledger's `embedding.init_ms` and `heap_peak_mb`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multipod_embedding::{EmbeddingCache, EmbeddingSpec, Placement, ShardedEmbedding};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_topology::{Multipod, MultipodConfig};

thread_local! {
    /// `(allocations, bytes)` requested by this thread; per-thread so the
    /// harness's other threads cannot leak into a measurement.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    ALLOCS.with(|c| c.set((c.get().0 + 1, c.get().1 + bytes as u64)));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps counters beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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

/// `(allocations, bytes)` `f` requests on this thread.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    (out, after.0 - before.0, after.1 - before.1)
}

const TABLES: usize = 26;
const CHIPS: usize = 256;

/// The DLRM replica's layout: 26 tables × 100 000 rows × 32 columns on a
/// 16×16 slice (333 MB if stored densely).
fn serve_layout() -> (ShardedEmbedding, u64) {
    let specs = vec![
        EmbeddingSpec {
            rows: 100_000,
            dim: 32
        };
        TABLES
    ];
    let (emb, _, bytes) =
        count(|| ShardedEmbedding::init(Placement::plan(&specs, CHIPS, 1 << 20), 99).unwrap());
    (emb, bytes)
}

#[test]
fn serve_layout_initialises_in_kilobytes() {
    let (emb, bytes) = serve_layout();
    assert!(bytes < 64 << 10, "init allocated {bytes} bytes");
    // And the rows are there all the same.
    assert_eq!(emb.row(TABLES - 1, 99_999).unwrap().len(), 32);
}

#[test]
fn pricing_a_batch_allocates_per_batch_not_per_row() {
    let (emb, _) = serve_layout();
    let mesh = Multipod::new(MultipodConfig::mesh(16, 16, false));
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    let batch = |samples: usize| -> Vec<Vec<usize>> {
        (0..samples)
            .map(|s| {
                (0..TABLES)
                    .map(|t| (s * 7919 + t * 104_729) % 100_000)
                    .collect()
            })
            .collect()
    };
    let mut measure = |samples: usize| {
        let indices = batch(samples);
        let mut cache = EmbeddingCache::new(CHIPS, 4096);
        // Warm-up pass: fills the route cache and installs every remote
        // row, so the measured pass grows neither.
        let cold = emb
            .price(&mut net, &indices, SimTime::ZERO, Some(&mut cache))
            .unwrap();
        assert!(cold.remote_rows > samples * TABLES / 2);
        net.reset();
        let (uncached, allocs, bytes) =
            count(|| emb.price(&mut net, &indices, SimTime::ZERO, None).unwrap());
        assert!(uncached.remote_rows >= cold.remote_rows);
        net.reset();
        let (warm, warm_allocs, _) = count(|| {
            emb.price(&mut net, &indices, SimTime::ZERO, Some(&mut cache))
                .unwrap()
        });
        assert_eq!(warm.remote_rows, 0);
        (allocs.max(warm_allocs), bytes, samples * TABLES)
    };
    let (small_allocs, small_bytes, small_rows) = measure(64);
    let (large_allocs, large_bytes, large_rows) = measure(512);
    // The key buffer plus the message list and its doublings.
    assert!(
        small_allocs <= 16,
        "{small_allocs} allocations for 64 samples"
    );
    assert!(
        large_allocs <= small_allocs + 4,
        "{small_allocs} allocations for 64 samples, {large_allocs} for 512"
    );
    for (bytes, rows) in [(small_bytes, small_rows), (large_bytes, large_rows)] {
        assert!(bytes <= 96 * rows as u64, "{bytes} bytes for {rows} rows");
    }
}
