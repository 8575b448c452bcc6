//! The DLRM online-serving path over the simulated mesh.
//!
//! Each dispatched batch pays three phases on the serving slice, modeled
//! as a released task graph over the deterministic list scheduler:
//!
//! 1. **lookup** (host): per-sample cache probes plus local HBM gathers
//!    for replicated/owned/cached rows;
//! 2. **all-to-all** (ICI): the small-batch exchange fetching remote
//!    partitioned rows that missed the per-host cache, priced on a
//!    slice-shaped network;
//! 3. **dense** (MXU): the interaction + top-MLP forward pass.
//!
//! Batches are pinned to their dispatch times with task *release* times,
//! so the schedule reproduces open-loop queueing: a late batch waits for
//! the host/ICI/MXU pipeline to drain, and per-request latency decomposes
//! exactly into batch-wait / queue / lookup / all-to-all / dense.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use multipod_embedding::{EmbeddingSpec, LookupCost, Placement, ShardedEmbedding};
use multipod_models::{catalog, TpuV3};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_taskgraph::{Resource, TaskGraph, TaskKind};
use multipod_telemetry::{DistSummary, MetricId, Obs, Subsystem};
use multipod_topology::{Multipod, MultipodConfig};

use crate::batch::{plan, BatchingConfig};
use crate::stream::{QueryLog, QueryStreamConfig};
use crate::{check, ServeError};

/// Fixed host-side cost per batch lookup: probe the cache, build the
/// gather lists, launch the kernels.
const LOOKUP_OVERHEAD_SECONDS: f64 = 2.0e-5;

/// DLRM serving parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DlrmServeConfig {
    /// The serving slice (a rectangle carved out of the pod).
    pub slice: MultipodConfig,
    /// The query stream.
    pub stream: QueryStreamConfig,
    /// The batching policy.
    pub batching: BatchingConfig,
    /// Embedding dimension of every table.
    pub embedding_dim: usize,
    /// Per-host embedding-cache capacity in rows (0 disables caching).
    pub cache_rows_per_chip: usize,
    /// Replication budget handed to [`Placement::plan`], bytes per chip.
    pub replication_budget_bytes: u64,
    /// Seed for the table initialization.
    pub table_seed: u64,
}

impl DlrmServeConfig {
    /// A canned serving replica: the given slice, the canned DLRM stream
    /// and batching policy, warm 4096-row caches.
    pub fn demo(slice: MultipodConfig, queries: u32, seed: u64) -> DlrmServeConfig {
        DlrmServeConfig {
            slice,
            stream: QueryStreamConfig::dlrm(queries, seed),
            batching: BatchingConfig::demo(),
            embedding_dim: 32,
            cache_rows_per_chip: 4096,
            replication_budget_bytes: 1 << 20,
            table_seed: 99,
        }
    }
}

/// Mean seconds per phase across requests. The five phases sum to the
/// mean end-to-end latency exactly.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseMeans {
    /// Waiting for the batch to close (accumulation window).
    pub batch_wait: f64,
    /// Waiting for the host lookup stage to start after dispatch.
    pub queue: f64,
    /// Host cache probes + local gathers.
    pub lookup: f64,
    /// Remote-row all-to-all, including any stall for the ICI stage.
    pub all_to_all: f64,
    /// Dense forward, including any stall for the MXU stage.
    pub dense: f64,
}

/// What a serving run did.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DlrmServeReport {
    /// Requests served.
    pub requests: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean samples per batch.
    pub mean_batch_samples: f64,
    /// End-to-end request latency (arrival → dense finish), seconds.
    pub latency: DistSummary,
    /// Mean per-phase decomposition, seconds.
    pub phase_means: PhaseMeans,
    /// Embedding-cache hit rate over all remote-row accesses.
    pub cache_hit_rate: f64,
    /// Remote rows served from per-host caches.
    pub cache_hits: u64,
    /// Remote rows that crossed the mesh.
    pub remote_rows: u64,
    /// Completed requests per simulated second.
    pub achieved_qps: f64,
    /// When the last dense pass finished, seconds.
    pub makespan_seconds: f64,
}

/// The mesh of a serving slice.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] on field `slice`, carrying the chips the
/// slice describes, when an extent is zero.
pub(crate) fn slice_mesh(slice: &MultipodConfig) -> Result<Multipod, ServeError> {
    Multipod::try_new(slice.clone()).map_err(|_| ServeError::InvalidConfig {
        field: "slice",
        value: f64::from(slice.pods) * f64::from(slice.pod_x_len) * f64::from(slice.pod_y_len),
    })
}

/// How a run prices its batches: `(embedding, slice network, log, each
/// batch's run of flat samples, cache rows per host)` → costs in order.
type PriceBatches = fn(
    &ShardedEmbedding,
    &mut Network,
    &QueryLog,
    &[Range<usize>],
    usize,
) -> Result<Vec<LookupCost>, ServeError>;

/// Prices every batch in two passes over the log's flat block: the
/// hosts' caches are replayed first (a host sees only its own samples, so
/// one host at a time), then each batch's all-to-all is timed from the
/// recorded outcomes. A batch's samples are one contiguous run of the
/// block, so nothing is copied.
fn price_batches(
    emb: &ShardedEmbedding,
    net: &mut Network,
    log: &QueryLog,
    batches: &[Range<usize>],
    rows_per_host: usize,
) -> Result<Vec<LookupCost>, ServeError> {
    let stream = 0..batches.last().map_or(0, |b| b.end);
    let replay = emb.replay_caches(log.rows(&stream), batches, rows_per_host)?;
    let mut costs = Vec::with_capacity(batches.len());
    for range in batches {
        let rows = log.rows(range);
        costs.push(emb.price(net, rows, SimTime::ZERO, |s, _, t, _| {
            replay.hit(range.start + s, t)
        })?);
        net.reset();
    }
    Ok(costs)
}

/// The DLRM serving replica simulator.
pub struct DlrmServer {
    config: DlrmServeConfig,
    obs: Obs,
}

impl DlrmServer {
    /// A replica over `config`.
    pub fn new(config: DlrmServeConfig) -> DlrmServer {
        DlrmServer {
            config,
            obs: Obs::default(),
        }
    }

    /// Attaches the observability handle: every batch's
    /// lookup/all-to-all/dense span lands on the sink's `Serve` category,
    /// `serve.*` and task-schedule metrics in the registry.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Runs the stream to completion. Deterministic: the same config
    /// yields a byte-identical report.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the stream, batching policy, slice or
    /// embedding layout is invalid.
    pub fn run(&self) -> Result<DlrmServeReport, ServeError> {
        self.run_with(price_batches)
    }

    /// [`DlrmServer::run`] with the batches priced by `price`.
    fn run_with(&self, price: PriceBatches) -> Result<DlrmServeReport, ServeError> {
        let log = QueryLog::new(&self.config.stream)?;
        // Each batch as its run of requests and its dispatch, beside its
        // run of flat samples (the runs follow one another).
        let (mut batches, mut samples) = (Vec::new(), Vec::<Range<usize>>::new());
        plan(log.sizes(), &self.config.batching, |requests, n, _, at| {
            let start = samples.last().map_or(0, |s| s.end);
            samples.push(start..start + n);
            batches.push((requests, at));
        })?;

        let mesh = slice_mesh(&self.config.slice)?;
        let chips = mesh.num_chips();
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let dim = self.config.embedding_dim;
        check(dim > 0, "embedding_dim", 0.0)?;
        let specs = vec![
            EmbeddingSpec {
                rows: self.config.stream.rows_per_table,
                dim,
            };
            self.config.stream.tables
        ];
        let placement = Placement::plan(&specs, chips, self.config.replication_budget_bytes);
        let emb = ShardedEmbedding::init(placement, self.config.table_seed)?;
        let rows_per_host = self.config.cache_rows_per_chip;
        let costs = price(&emb, &mut net, &log, &samples, rows_per_host)?;

        let tpu = TpuV3::new();
        let workload = catalog::dlrm();
        // Every remote row either hit its host's cache or crossed the mesh.
        let (mut cache_hits, mut remote_rows) = (0u64, 0u64);

        // Build one released task graph over every batch: lookup (host)
        // → all-to-all (ICI) → dense (MXU), each stage priced up front.
        let mut graph = TaskGraph::new();
        let mut stages = Vec::with_capacity(batches.len());
        let members = batches.iter().zip(&samples).zip(&costs);
        for (i, ((&(_, dispatch), flat), cost)) in members.enumerate() {
            cache_hits += cost.cache_hits as u64;
            remote_rows += cost.remote_rows as u64;
            let all_to_all_s = cost.time.seconds();
            let local_row_bytes =
                ((cost.local_rows + cost.cache_hits) * dim * 4) as f64 / chips as f64;
            let lookup_s = LOOKUP_OVERHEAD_SECONDS + local_row_bytes / tpu.hbm_bandwidth;
            let per_core_batch = (flat.len() as f64 / chips as f64).max(1.0);
            let eff = workload.efficiency.at(per_core_batch)?;
            let dense_flops = flat.len() as f64 * workload.flops_per_sample / chips as f64;
            let dense_s = tpu.core_compute_time(dense_flops, eff)?;

            let batch_id = i as u32;
            let lookup = graph.add_released(
                TaskKind::ServeLookup { batch: batch_id },
                Resource::Host,
                lookup_s,
                dispatch,
                &[],
            )?;
            let a2a = graph.add(
                TaskKind::ServeAllToAll { batch: batch_id },
                Resource::Ici,
                all_to_all_s,
                &[lookup],
            )?;
            let dense = graph.add(
                TaskKind::ServeDense { batch: batch_id },
                Resource::Mxu,
                dense_s,
                &[a2a],
            )?;
            stages.push((lookup, a2a, dense));
        }

        let schedule = graph.run();
        schedule.record(&self.obs, SimTime::ZERO);

        // Decompose every request's latency into the five phases.
        let id = |name| MetricId::new(Subsystem::Serve, name);
        let requests = log.arrivals.len();
        let mut latencies = Vec::with_capacity(requests);
        let mut means = PhaseMeans::default();
        for ((members, dispatch), &(lookup, a2a, dense)) in batches.iter().zip(&stages) {
            let lk = &schedule.tasks[lookup.0];
            let aa = &schedule.tasks[a2a.0];
            let de = &schedule.tasks[dense.0];
            for &arrival in &log.arrivals[members.clone()] {
                means.batch_wait += *dispatch - arrival;
                means.queue += lk.start - *dispatch;
                means.lookup += lk.end - lk.start;
                means.all_to_all += aa.end - lk.end;
                means.dense += de.end - aa.end;
                let latency = de.end - arrival;
                self.obs.observe(id("latency_seconds"), latency);
                latencies.push(latency);
            }
        }
        let n = requests as f64;
        means.batch_wait /= n;
        means.queue /= n;
        means.lookup /= n;
        means.all_to_all /= n;
        means.dense /= n;

        let makespan = schedule.makespan.seconds();
        let report = DlrmServeReport {
            requests: requests as u64,
            batches: batches.len() as u64,
            mean_batch_samples: samples.iter().map(|b| b.len() as f64).sum::<f64>()
                / batches.len() as f64,
            latency: DistSummary::of(latencies),
            phase_means: means,
            cache_hit_rate: match cache_hits + remote_rows {
                0 => 0.0,
                looked => cache_hits as f64 / looked as f64,
            },
            cache_hits,
            remote_rows,
            achieved_qps: n / makespan.max(f64::MIN_POSITIVE),
            makespan_seconds: makespan,
        };
        self.obs.gauge(id("cache_hit_rate"), report.cache_hit_rate);
        self.obs.gauge(id("achieved_qps"), report.achieved_qps);
        self.obs.count(id("requests"), report.requests);
        self.obs.count(id("batches"), report.batches);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_embedding::LruCache;
    use proptest::prelude::*;

    /// The per-batch loop `price_batches` replaced: every host's LRU
    /// probed batch by batch, in stream order.
    fn price_batches_oracle(
        emb: &ShardedEmbedding,
        net: &mut Network,
        log: &QueryLog,
        batches: &[Range<usize>],
        rows_per_host: usize,
    ) -> Result<Vec<LookupCost>, ServeError> {
        let chips = emb.placement().chips();
        let mut caches: Vec<LruCache> = (0..chips).map(|_| LruCache::new(rows_per_host)).collect();
        let mut costs = Vec::with_capacity(batches.len());
        for b in batches {
            let indices: Vec<Vec<usize>> = log
                .rows(b)
                .map(|s| s.iter().map(|&row| row as usize).collect())
                .collect();
            costs.push(emb.price(net, &indices, SimTime::ZERO, |_, home, t, row| {
                caches[home].access(t, row)
            })?);
            net.reset();
        }
        Ok(costs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Replaying the caches host by host reports exactly what probing
        /// them batch by batch reports, on small random replicas whose
        /// batches outnumber their chips and whose caches evict.
        #[test]
        fn run_reports_what_per_batch_probing_reports(
            (x, y) in (1u32..5, 1u32..5),
            queries in 1u32..160,
            seed in 0u64..1000,
            tables in 1usize..5,
            rows_per_table in 1usize..3000,
            budget in prop::sample::select(vec![0u64, 1024, 1 << 20]),
            cache_rows in prop::sample::select(vec![0usize, 1, 2, 64]),
            max_batch_samples in 8usize..64,
        ) {
            let mut c = DlrmServeConfig::demo(MultipodConfig::mesh(x, y, false), queries, seed);
            c.stream.tables = tables;
            c.stream.rows_per_table = rows_per_table;
            c.stream.max_samples = 8;
            c.batching.max_batch_samples = max_batch_samples;
            c.replication_budget_bytes = budget;
            c.cache_rows_per_chip = cache_rows;
            let server = DlrmServer::new(c);
            prop_assert_eq!(server.run().unwrap(), server.run_with(price_batches_oracle).unwrap());
        }
    }

    fn demo(queries: u32, seed: u64) -> DlrmServeConfig {
        let mut c = DlrmServeConfig::demo(MultipodConfig::mesh(4, 4, false), queries, seed);
        // Small tables keep the unit test fast; a tiny replication
        // budget keeps them partitioned so remote traffic exists.
        c.stream.tables = 4;
        c.stream.rows_per_table = 4096;
        c.replication_budget_bytes = 1024;
        c
    }

    #[test]
    fn serving_run_reports_and_decomposes() {
        let server = DlrmServer::new(demo(300, 42));
        let report = server.run().expect("serving run");
        assert_eq!(report.requests, 300);
        assert!(report.batches > 0 && report.batches <= 300);
        assert!(report.makespan_seconds > 0.0);
        assert!(report.achieved_qps > 0.0);
        assert!(
            report.cache_hit_rate > 0.0,
            "skewed keys must hit the cache"
        );
        assert_eq!(report.latency.count, 300);
        // The five phases sum to the mean latency exactly (same additions
        // in a different grouping, so allow only rounding slack).
        let m = &report.phase_means;
        let sum = m.batch_wait + m.queue + m.lookup + m.all_to_all + m.dense;
        assert!(
            (sum - report.latency.mean).abs() < 1e-9,
            "phase sum {sum} vs mean latency {}",
            report.latency.mean
        );
        assert!(report.latency.p999 >= report.latency.p99);
        assert!(report.latency.p99 >= report.latency.p50);
    }

    #[test]
    fn serving_is_deterministic() {
        let run = || DlrmServer::new(demo(200, 7)).run().expect("serving run");
        assert_eq!(run(), run());
    }

    #[test]
    fn bigger_cache_never_hurts_hit_rate() {
        let rate = |rows: usize| {
            let mut c = demo(200, 11);
            c.cache_rows_per_chip = rows;
            DlrmServer::new(c)
                .run()
                .expect("serving run")
                .cache_hit_rate
        };
        let small = rate(64);
        let large = rate(4096);
        assert!(large >= small, "hit rate regressed: {large} < {small}");
    }

    #[test]
    fn no_cache_means_no_hits() {
        let mut c = demo(100, 3);
        c.cache_rows_per_chip = 0;
        let report = DlrmServer::new(c).run().expect("serving run");
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.cache_hit_rate, 0.0);
    }

    #[test]
    fn zero_extent_slice_is_a_typed_error() {
        let c = DlrmServeConfig::demo(MultipodConfig::mesh(0, 4, false), 50, 1);
        assert!(matches!(
            DlrmServer::new(c).run(),
            Err(ServeError::InvalidConfig {
                field: "slice",
                value
            }) if value == 0.0
        ));
    }

    #[test]
    fn zero_dim_is_a_typed_error() {
        let mut c = demo(10, 1);
        c.embedding_dim = 0;
        assert!(matches!(
            DlrmServer::new(c).run(),
            Err(ServeError::InvalidConfig {
                field: "embedding_dim",
                ..
            })
        ));
    }
}
