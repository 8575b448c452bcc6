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
//! * [`MetricsRegistry`] — serde-serializable counters, gauges, and
//!   histograms; [`Recorder::metrics`] aggregates per-link bytes and busy
//!   time into utilization plus per-span time totals.
//! * [`chrome_trace`] — Chrome trace-event JSON (Perfetto-loadable), with
//!   pods as processes, chips and directed links as threads, and
//!   byte-identical output for identical simulations.
//!
//! ```
//! use std::sync::Arc;
//! use multipod_trace::{
//!     LinkClass, LinkTransferEvent, Recorder, SimTime, TraceSink,
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
//! let trace = recorder.chrome_trace().unwrap();
//! assert!(trace.get("traceEvents").is_some());
//! ```

mod chrome;
mod event;
mod metrics;
mod sink;
mod time;

pub use chrome::{chrome_trace, chrome_trace_with_metrics, write_json};
pub use event::{LinkClass, LinkTransferEvent, SpanCategory, SpanEvent, TraceEvent, Track};
pub use metrics::{Histogram, MetricsRegistry, BUCKET_BOUNDS};
pub use sink::{LinkSummary, NoopSink, Recorder, SpanTotal, TraceSink};
pub use time::SimTime;
