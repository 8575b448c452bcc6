//! Allocation budget of the DLRM replica's request log.
//!
//! The log is one flat block of `u32` rows beside the arrivals and the
//! per-request sample offsets: generating it allocates the same handful
//! of blocks at 2 000 queries as at 20 000, where the nested form held a
//! heap `Vec` per sample (69 202 of them at 20 000). A replica run then
//! allocates per batch — pricing buffers and task-graph growth — and
//! never per sample. This is the guard behind the ledger's
//! `serve_queries` `host.allocs_per_op` and `heap_peak_mb`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use multipod_serve::{DlrmServeConfig, DlrmServer, QueryLog, QueryStreamConfig};
use multipod_topology::MultipodConfig;

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

#[test]
fn generating_the_log_allocates_a_fixed_handful_of_blocks() {
    for queries in [2000u32, 20_000] {
        let config = QueryStreamConfig::dlrm(queries, 42);
        let (log, allocs, _, peak) = count_peak(|| QueryLog::new(&config).unwrap());
        // The arrivals, the offsets, the rows reserved for `mean_samples`
        // per request, and the trim of the rows to fit.
        assert_eq!(allocs, 4, "{queries} queries");
        let rows_reserved =
            4 * (f64::from(queries) * config.mean_samples) as u64 * config.tables as u64;
        let per_request = 8 * u64::from(queries) + 8 * (u64::from(queries) + 1);
        assert!(
            peak <= rows_reserved + per_request,
            "{queries} queries: peak {peak} bytes over the reserved rows {rows_reserved} \
             plus {per_request} of arrivals and offsets"
        );
        drop(log);
    }
}

#[test]
fn a_replica_run_allocates_per_batch_not_per_sample() {
    let mut seen = Vec::new();
    for queries in [2000u32, 20_000] {
        let config = DlrmServeConfig::demo(MultipodConfig::mesh(16, 16, false), queries, 42);
        let (report, allocs, _, peak) = count_peak(|| DlrmServer::new(config).run().unwrap());
        let samples = (report.mean_batch_samples * report.batches as f64).round() as u64;
        assert!(
            allocs <= 4 * report.batches + 128,
            "{queries} queries: {allocs} allocations for {} batches",
            report.batches
        );
        assert!(
            8 * allocs < samples,
            "{queries} queries: {allocs} allocations for {samples} samples"
        );
        seen.push((allocs, peak));
    }
    // The ledger's op runs the replica at 20 000 queries: the nested log
    // made that peak 20.8 MB; the flat one holds 7.2 MB of rows.
    let (_, peak) = seen[1];
    assert!(peak < 12 << 20, "20 000 queries peak at {peak} bytes");
}
