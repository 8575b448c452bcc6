//! Observability for the multipod simulator.
//!
//! One handle and three layers, all deterministic in sim-time:
//!
//! * **The handle** ([`Obs`]) — the only way product code reaches
//!   observability: an optional [`multipod_trace::TraceSink`] plus an
//!   optional [`Telemetry`] registry, off by default. `Network`, the pod
//!   scheduler and the serving tier own one each and hand clones to what
//!   they build.
//! * **Metrics registry** ([`registry`]) — counters, gauges, and
//!   log₂-bucketed mergeable histograms keyed by a typed [`MetricId`].
//!   Subsystems (`simnet`, `collectives`, `core`, `input`, `ckpt`,
//!   `sched`, `serve`) write through the [`Telemetry`] their [`Obs`]
//!   carries while a run executes; snapshots serialize to byte-identical
//!   JSON across runs.
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
//! use multipod_telemetry::{MetricId, Obs, Subsystem, Telemetry};
//!
//! let telemetry = Telemetry::shared();
//! let obs = Obs::new(None, Some(telemetry.clone()));
//! obs.count(MetricId::new(Subsystem::Simnet, "transfers"), 3);
//! obs.observe(
//!     MetricId::new(Subsystem::Simnet, "queueing_delay_seconds"),
//!     2.5e-6,
//! );
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counter(&MetricId::new(Subsystem::Simnet, "transfers")), 3);
//! ```

pub mod dist;
pub mod fit;
mod obs;
pub mod profiler;
pub mod registry;
pub mod report;

pub use dist::DistSummary;
pub use fit::{check_drift, collective_samples, fit_alpha_beta, AlphaBetaFit, DriftReport};
pub use obs::Obs;
pub use profiler::{profile, ProfileReport, SpanSlack, StepDecomposition, StepProfile};
pub use registry::{LogHistogram, MetricId, Registry, Subsystem, Telemetry};
pub use report::FlightReport;
