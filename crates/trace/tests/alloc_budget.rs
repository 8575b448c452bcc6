//! Memory budget of the Chrome export and of reading the recorder's log.
//!
//! The export writes each event's JSON straight to its writer: above the
//! log it holds one `u32` index per event, the stable sort's scratch half,
//! and the per-track and per-link summaries, never a copy of the events or
//! a tree of the document. Reading the log lends it rather than copying
//! it. These are the guards behind
//! the peak of `repro <campaign> --trace` and `--check-determinism`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::io;

use multipod_trace::{
    write_chrome_trace, LinkClass, LinkTransferEvent, Recorder, SimTime, SpanCategory, SpanEvent,
    TraceSink, Track,
};

/// What this thread has asked of the allocator.
#[derive(Clone, Copy)]
struct Tally {
    allocs: u64,
    live: i64,
    peak: i64,
}

thread_local! {
    /// Per-thread so the harness's other threads cannot leak into a
    /// measurement.
    static TALLY: Cell<Tally> = const { Cell::new(Tally { allocs: 0, live: 0, peak: 0 }) };
}

/// Notes `grown` new bytes (one allocation when `fresh`) and `freed` ones.
fn note(fresh: bool, grown: usize, freed: usize) {
    TALLY.with(|c| {
        let mut t = c.get();
        t.allocs += u64::from(fresh);
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

/// `(allocations, peak live bytes above the start)` of `f` on this thread.
fn count_peak<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = TALLY.with(|c| {
        let mut t = c.get();
        t.peak = t.live;
        c.set(t);
        t
    });
    let out = f();
    let after = TALLY.with(Cell::get);
    let peak = (after.peak - before.live).max(0) as u64;
    (out, after.allocs - before.allocs, peak)
}

/// `events` link transfers over the 64 directed links of an 8-chip ring
/// pattern, with a collective-phase span every 1 000 events.
fn recorded(events: u32) -> Recorder {
    let recorder = Recorder::new();
    for i in 0..events {
        let start = SimTime::from_seconds(f64::from(i / 64) * 1e-6);
        let end = SimTime::from_seconds(f64::from(i / 64 + 1) * 1e-6);
        if i % 1000 == 999 {
            recorder.record_span(SpanEvent::new(
                Track::Chip {
                    pod: 0,
                    chip: i % 8,
                },
                SpanCategory::CollectivePhase,
                "reduce-scatter-y",
                start,
                end,
            ));
            continue;
        }
        recorder.record_link(LinkTransferEvent {
            src: i % 8,
            dst: (i / 8) % 8,
            class: LinkClass::MeshY,
            bytes: 4096,
            start,
            end,
        });
    }
    recorder
}

#[test]
fn the_export_holds_a_few_bytes_per_event_above_the_log() {
    for events in [20_000u32, 200_000] {
        let recorder = recorded(events);
        let log = recorder.events();
        let (written, _, peak) = count_peak(|| write_chrome_trace(io::sink(), &log));
        written.expect("a sink takes every byte");
        let budget = 16 * u64::from(events) + 64 * 1024;
        assert!(
            peak <= budget,
            "{events} events: the export peaked {peak} bytes above the log, budget {budget}"
        );
    }
}

#[test]
fn reading_the_log_allocates_nothing() {
    let recorder = recorded(5000);
    let (len, allocs, _) = count_peak(|| black_box(&recorder).events().len());
    assert_eq!(len, 5000);
    assert_eq!(allocs, 0, "Recorder::events lends the log");
}
