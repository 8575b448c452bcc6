//! Observability for the multipod simulator.
//!
//! Three layers, all deterministic in sim-time:
//!
//! * **Metrics registry** ([`registry`]) — counters, gauges, and
//!   log₂-bucketed mergeable histograms keyed by a typed [`MetricId`].
//!   Subsystems (`simnet`, `collectives`, `core`, `input`, `ckpt`) write
//!   through a shared [`Telemetry`] handle while a run executes; snapshots
//!   serialize to byte-identical JSON across runs.
//! * **Critical-path profiler** ([`profiler`]) — consumes a recorded
//!   [`multipod_trace`] span stream, builds the span dependency graph, and
//!   reports the per-step critical path, per-span slack, and a
//!   compute/comm/overlap/input decomposition of every step window. This is
//!   the baseline measurement for the planned task-graph overlap refactor.
//! * **α–β drift detection** ([`fit`]) — regresses measured collective
//!   times against message sizes and compares the fitted latency and
//!   bandwidth against the analytic cost models, flagging simulator/model
//!   drift.
//!
//! The [`report::FlightReport`] bundles all three into one JSON/text
//! document (the "flight recorder"), which `repro profile` gates in CI.
//!
//! ```
//! use multipod_telemetry::{MetricId, Subsystem, Telemetry};
//!
//! let telemetry = Telemetry::shared();
//! telemetry.inc_counter(MetricId::new(Subsystem::Simnet, "transfers"), 3);
//! telemetry.observe(
//!     MetricId::new(Subsystem::Simnet, "queueing_delay_seconds"),
//!     2.5e-6,
//! );
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counter(&MetricId::new(Subsystem::Simnet, "transfers")), 3);
//! ```

pub mod dist;
pub mod fit;
pub mod profiler;
pub mod registry;
pub mod report;

pub use dist::DistSummary;
pub use fit::{check_drift, collective_samples, fit_alpha_beta, AlphaBetaFit, DriftReport};
pub use profiler::{profile, ProfileReport, SpanSlack, StepDecomposition, StepProfile};
pub use registry::{LogHistogram, MetricId, Registry, Subsystem, Telemetry};
pub use report::FlightReport;
