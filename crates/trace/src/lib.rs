//! Sim-time observability for the multipod simulator.
//!
//! The simulator's timing answers ("a 2-D all-reduce on 4096 chips takes
//! X ms") come out of thousands of individually-timed link transfers and
//! schedule phases. This crate makes that structure inspectable without
//! perturbing it:
//!
//! * [`SimTime`] — simulated seconds, the clock every event is stamped
//!   with (re-exported by `multipod-simnet`; this crate is the bottom of
//!   the stack so even the network can emit events).
//! * [`TraceSink`] — the hook instrumented components call, reached
//!   through the one `multipod_telemetry::Obs` handle they carry. The
//!   default handle holds no sink at all, so untraced runs pay only a
//!   branch; [`NoopSink`] exists when an object is required, and
//!   [`Recorder`] appends every event in deterministic order.
//! * [`Recorder::link_summaries`] and [`Recorder::span_totals`] — per-link
//!   bytes and busy time (utilization over [`Recorder::horizon_seconds`])
//!   and per-span time totals; [`Recorder::events`] lends the log itself.
//! * [`write_chrome_trace`] — Chrome trace-event JSON (Perfetto-loadable),
//!   streamed to any writer, with pods as processes, chips and directed
//!   links as threads, a summary of the same events under `otherData`,
//!   and byte-identical output for identical simulations.
//!
//! ```
//! use std::sync::Arc;
//! use multipod_trace::{
//!     write_chrome_trace, LinkClass, LinkTransferEvent, Recorder, SimTime, TraceSink,
//! };
//!
//! let recorder = Recorder::shared();
//! let sink: Arc<dyn TraceSink> = recorder.clone();
//! sink.record_link(LinkTransferEvent {
//!     src: 0,
//!     dst: 1,
//!     class: LinkClass::MeshY,
//!     bytes: 1 << 20,
//!     start: SimTime::ZERO,
//!     end: SimTime::from_seconds(15e-6),
//! });
//! let links = recorder.link_summaries();
//! assert_eq!(links[0].bytes, 1 << 20);
//! let mut trace = Vec::new();
//! write_chrome_trace(&mut trace, &recorder.events()).unwrap();
//! assert!(trace.starts_with(br#"{"displayTimeUnit":"ms","traceEvents":["#));
//! ```

mod chrome;
mod event;
mod sink;
mod time;

pub use chrome::write_chrome_trace;
pub use event::{LinkClass, LinkTransferEvent, SpanCategory, SpanEvent, TraceEvent, Track};
pub use sink::{LinkSummary, NoopSink, Recorder, SpanTotal, TraceSink};
pub use time::SimTime;
