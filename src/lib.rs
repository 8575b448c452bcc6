//! # multipod
//!
//! A Rust reproduction of *"Exploring the Limits of Concurrency in ML
//! Training on Google TPUs"* (Kumar et al., MLSys 2021).
//!
//! The paper scales MLPerf v0.7 workloads to a 4096-chip TPU-v3 "multipod".
//! Since the TPU/XLA stack is not portable, this workspace rebuilds every
//! substrate the paper depends on as a deterministic simulator plus real
//! algorithm implementations:
//!
//! * [`topology`] — the 128×32 2-D mesh with torus Y-links and cross-pod
//!   optical X-links, including the sparse row/column routing scheme.
//! * [`simnet`] — a discrete-event network simulator used to time transfers.
//! * [`collectives`] — ring reduce-scatter / all-gather / all-reduce,
//!   the paper's 2-D Y-then-X gradient summation, model-peer-hopping rings
//!   and halo exchange; all numerically real and timed on the network.
//! * [`hlo`] — a small XLA-like graph IR with an SPMD partitioner driven by
//!   sharding annotations (and an MPMD baseline).
//! * [`optim`] — SGD-momentum, LARS and LAMB, with replicated and
//!   weight-update-sharded step implementations.
//! * [`models`] — analytic workload descriptions of the six MLPerf models
//!   plus TPU-v3 and GPU-cluster machine models.
//! * [`input`], [`framework`], [`metrics`] — host input pipeline, TF/JAX
//!   control-plane and evaluation-metric substrates.
//! * [`core`] — the training executor that combines everything into
//!   step-time breakdowns and end-to-end benchmark times.
//! * [`trace`] — sim-time tracing: typed events, per-link utilization
//!   metrics and Chrome-trace (Perfetto) export of any simulated run.
//! * [`telemetry`] — the [`telemetry::Obs`] handle that attaches a trace
//!   recorder and/or a typed metrics registry to a run, plus the
//!   critical-path profiler and flight report over what they captured.
//! * [`faults`] — deterministic fault campaigns: sim-time-scheduled link
//!   outages, chip loss and straggler windows replayed against the
//!   network, with graceful degradation (detours, replica drop with
//!   gradient renormalization, bounded-backoff retries) up the stack.
//! * [`ckpt`] — sharded checkpointing and elastic restart: host-aligned
//!   shard placement, ICI gather + PCIe streaming with content-hashed
//!   manifests, restore onto degraded survivor meshes, rollback recovery
//!   campaigns and Young/Daly optimal-interval analysis.
//!
//! ## Quickstart
//!
//! ```
//! use multipod::core::{Executor, presets};
//!
//! // Reproduce the paper's headline BERT row: 4096 TPU-v3 chips.
//! let preset = presets::bert(4096);
//! let report = Executor::new(preset).run().unwrap();
//! assert!(report.end_to_end_minutes() < 1.0); // paper: 0.39 min
//! ```

pub use multipod_ckpt as ckpt;
pub use multipod_collectives as collectives;
pub use multipod_core as core;
pub use multipod_faults as faults;
pub use multipod_framework as framework;
pub use multipod_hlo as hlo;
pub use multipod_input as input;
pub use multipod_metrics as metrics;
pub use multipod_models as models;
pub use multipod_optim as optim;
pub use multipod_simnet as simnet;
pub use multipod_telemetry as telemetry;
pub use multipod_tensor as tensor;
pub use multipod_topology as topology;
pub use multipod_trace as trace;
