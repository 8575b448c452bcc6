//! Allocation budget of the embedding layer's serving path.
//!
//! Tables are never materialised, so setting up the serve layout costs
//! O(tables) bytes; pricing a batch allocates a fixed handful of buffers
//! sized by the batch — nothing per row; and replaying a stream's caches
//! holds one host's LRU and the hit bits, however many hosts there are.
//! A row or a looked-up batch is built in its one tensor block, not
//! copied there from a staging buffer. This is the regression guard behind the ledger's `embedding.init_ms`
//! and `heap_peak_mb`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Range;

use multipod_embedding::{EmbeddingCache, EmbeddingSpec, Placement, ShardedEmbedding};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_topology::{Multipod, MultipodConfig};

/// What this thread has asked of the allocator.
#[derive(Clone, Copy)]
struct Tally {
    allocs: u64,
    bytes: u64,
    live: i64,
    peak: i64,
}

thread_local! {
    /// Per-thread so the harness's other threads cannot leak into a
    /// measurement.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocs: 0, bytes: 0, live: 0, peak: 0 })
    };
}

/// Notes `grown` new bytes (one allocation when `fresh`) and `freed` ones.
fn note(fresh: bool, grown: usize, freed: usize) {
    TALLY.with(|c| {
        let mut t = c.get();
        t.allocs += u64::from(fresh);
        t.bytes += grown as u64;
        t.live += grown as i64 - freed as i64;
        t.peak = t.peak.max(t.live);
        c.set(t);
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only bumps counters beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, 0, layout.size());
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` `f` requests on this thread.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (out, allocs, bytes, _) = count_peak(f);
    (out, allocs, bytes)
}

/// `(allocations, bytes, peak live bytes above the start)` of `f` on this
/// thread.
fn count_peak<T>(f: impl FnOnce() -> T) -> (T, u64, u64, u64) {
    let before = TALLY.with(|c| {
        let mut t = c.get();
        t.peak = t.live;
        c.set(t);
        t
    });
    let out = f();
    let after = TALLY.with(Cell::get);
    let peak = (after.peak - before.live).max(0) as u64;
    (
        out,
        after.allocs - before.allocs,
        after.bytes - before.bytes,
        peak,
    )
}

const TABLES: usize = 26;
const CHIPS: usize = 256;

/// The DLRM replica's tables: 26 × 100 000 rows × 32 columns (333 MB if
/// stored densely).
fn serve_tables() -> Vec<EmbeddingSpec> {
    vec![
        EmbeddingSpec {
            rows: 100_000,
            dim: 32
        };
        TABLES
    ]
}

/// The replica's layout on a 16×16 slice.
fn serve_layout() -> (ShardedEmbedding, u64) {
    let (emb, _, bytes) = count(|| {
        ShardedEmbedding::init(Placement::plan(&serve_tables(), CHIPS, 1 << 20), 99).unwrap()
    });
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
            .price(&mut net, &indices, SimTime::ZERO, |_, home, t, row| {
                cache.access(home, t, row)
            })
            .unwrap();
        assert!(cold.remote_rows > samples * TABLES / 2);
        net.reset();
        let (uncached, allocs, bytes) = count(|| {
            emb.price(&mut net, &indices, SimTime::ZERO, |_, _, _, _| false)
                .unwrap()
        });
        assert!(uncached.remote_rows >= cold.remote_rows);
        net.reset();
        let (warm, warm_allocs, _) = count(|| {
            emb.price(&mut net, &indices, SimTime::ZERO, |_, home, t, row| {
                cache.access(home, t, row)
            })
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

#[test]
fn a_row_and_a_lookup_are_each_built_in_one_block() {
    let (mut emb, _) = serve_layout();
    // A row read from its seed and one read from an applied update.
    let indices: Vec<Vec<usize>> = (0..64)
        .map(|s| {
            (0..TABLES)
                .map(|t| (s * 7919 + t * 104_729) % 100_000)
                .collect()
        })
        .collect();
    let grads = multipod_tensor::Tensor::fill(multipod_tensor::Shape::of(&[1, TABLES * 32]), 0.5);
    emb.scatter_update(&indices[..1], &grads, 0.1).unwrap();
    for (table, row) in [(3, 17), (0, indices[0][0])] {
        let (got, allocs, _) = count(|| emb.row(table, row).unwrap());
        assert_eq!(allocs, 1, "row ({table}, {row})");
        assert_eq!(got.len(), 32);
    }

    let mesh = Multipod::new(MultipodConfig::mesh(16, 16, false));
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    // Warm the route cache, so the two measured passes start equal.
    emb.price(&mut net, &indices, SimTime::ZERO, |_, _, _, _| false)
        .unwrap();
    net.reset();
    let (cost, priced, _) = count(|| {
        emb.price(&mut net, &indices, SimTime::ZERO, |_, _, _, _| false)
            .unwrap()
    });
    net.reset();
    let (out, looked_up, _) = count(|| emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap());
    assert_eq!(looked_up, priced + 1, "the gathered batch is one block");
    assert_eq!(out.remote_rows, cost.remote_rows);
    assert_eq!(out.embeddings.shape().dims(), &[64, TABLES * 32]);
    assert_eq!(
        &out.embeddings.data()[..32],
        emb.row(0, indices[0][0]).unwrap().data()
    );
}

/// Bytes a host's LRU spends per row it has room for: a 32-byte arena
/// node plus a hash-map slot of a 24-byte entry and a control byte, the
/// map's bucket count rounded up to a power of two above 8/7 of its room.
const LRU_BYTES_PER_ROW: u64 = 32 + 2 * 25 * 8 / 7 + 1;

#[test]
fn replaying_caches_holds_one_host_however_many_there_are() {
    // 120 batches of 1 to 300 samples over a skewed row space: on 16
    // hosts each sees hundreds of distinct rows, on 256 a few.
    let samples: Vec<Vec<usize>> = (0..18_000usize)
        .map(|s| {
            (0..TABLES)
                .map(|t| (s * 7919 + t * 104_729) % 100_000 / (1 + s % 97))
                .collect()
        })
        .collect();
    let mut batches: Vec<Range<usize>> = Vec::new();
    let mut at = 0;
    while at < samples.len() {
        let len = (1 + batches.len() * 37 % 300).min(samples.len() - at);
        batches.push(at..at + len);
        at += len;
    }
    let bits = (samples.len() * TABLES).div_ceil(64) as u64 * 8;

    let mut allocs_seen = Vec::new();
    for hosts in [16usize, 256] {
        let emb =
            ShardedEmbedding::init(Placement::plan(&serve_tables(), hosts, 1 << 20), 99).unwrap();
        // The most rows one host could ever hold: one per table for every
        // `hosts`-th sample of every batch.
        let one_host = TABLES as u64
            * batches
                .iter()
                .map(|b| b.len().div_ceil(hosts) as u64)
                .sum::<u64>();
        // At 1 << 20 rows a per-host `EmbeddingCache` reserves a 32 MiB
        // arena on every host up front (8 GiB on 256 hosts); the replay
        // sizes its one LRU by the probes a host can make.
        for rows_per_host in [4096usize, 1 << 20] {
            let (replay, allocs, _, peak) = count_peak(|| {
                emb.replay_caches(&samples, &batches, rows_per_host)
                    .unwrap()
            });
            // The caches both serve and miss: some sample has a row served
            // from its host's cache, and some has none.
            let hit = |s: usize| (0..TABLES).any(|t| replay.hit(s, t));
            assert!((0..samples.len()).any(hit) && !(0..samples.len()).all(hit));
            let room = one_host.min(rows_per_host as u64);
            let budget = bits + LRU_BYTES_PER_ROW * room + 1024;
            assert!(
                peak <= budget,
                "{hosts} hosts, {rows_per_host} rows each: peak {peak} bytes over one host's \
                 LRU plus the hit bits ({budget})"
            );
            allocs_seen.push(allocs);
        }
    }
    // The hit bits, the map and the arena: nothing per host or per probe.
    assert!(
        allocs_seen.iter().all(|&a| a == allocs_seen[0] && a <= 3),
        "allocations on 16 and 256 hosts: {allocs_seen:?}"
    );
}
