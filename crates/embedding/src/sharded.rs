//! Distributed embedding lookup over the simulated mesh.

use std::collections::HashMap;
use std::ops::Range;

use multipod_simnet::{Network, SimTime};
use multipod_tensor::{Shape, Tensor};
use multipod_topology::ChipId;

use crate::{CacheReplay, EmbeddingCache, EmbeddingError, LruCache, Placement};

/// The traffic half of a [`LookupOutcome`]: what a lookup step costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LookupCost {
    /// Completion time of the all-to-all exchange.
    pub time: SimTime,
    /// Remote rows fetched (crossed the mesh).
    pub remote_rows: usize,
    /// Local rows (replicated tables or locally owned rows).
    pub local_rows: usize,
    /// Remote rows served from the home chip's cache (no mesh traffic).
    pub cache_hits: usize,
}

/// The result of one distributed lookup step.
#[derive(Clone, Debug)]
pub struct LookupOutcome {
    /// Per-sample concatenated embeddings, `[batch × (tables · dim)]`.
    pub embeddings: Tensor,
    /// Completion time of the all-to-all exchange.
    pub time: SimTime,
    /// Remote rows fetched (crossed the mesh).
    pub remote_rows: usize,
    /// Local rows (replicated tables or locally owned rows).
    pub local_rows: usize,
    /// Remote rows served from the home chip's cache (no mesh traffic).
    pub cache_hits: usize,
}

/// SplitMix64's finalizer: a bijective avalanche of one word.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The initial value of one table element, in `[-0.1, 0.1)`: a hash of its
/// coordinates, so any row costs O(dim) and none needs the rows before it.
fn value(seed: u64, table: usize, row: usize, col: usize) -> f32 {
    let bits = mix(mix(mix(mix(seed) ^ table as u64) ^ row as u64) ^ col as u64);
    // The top 24 bits are exact in an f32 mantissa.
    -0.1 + 0.2 * ((bits >> 40) as f32 / (1u32 << 24) as f32)
}

/// Folds packed `owner · chips + home` keys into one bulk message per pair,
/// in ascending `(owner, home)` order: transfers are reserved in message
/// order, so contention resolution — and thus timing — depends on it.
fn messages(keys: &mut [u64], chips: u64, row_bytes: u64) -> Vec<(ChipId, ChipId, u64)> {
    keys.sort_unstable();
    // Sized for one message per key: a collect would re-grow per batch.
    let mut out = Vec::with_capacity(keys.len());
    out.extend(keys.chunk_by(|a, b| a == b).map(|run| {
        let (owner, home) = (run[0] / chips, run[0] % chips);
        let bytes = run.len() as u64 * row_bytes;
        (ChipId(owner as u32), ChipId(home as u32), bytes)
    }));
    out
}

/// The chip serving sample `sample` of a batch: samples are owned by
/// chips round-robin.
fn home_of(sample: usize, chips: usize) -> usize {
    sample % chips
}

/// A row id as a batch carries it: `usize` in a caller's batch, `u32` in a
/// serving log's flat block.
pub trait RowId: Copy + TryInto<usize> {}

impl<R: Copy + TryInto<usize>> RowId for R {}

/// `row` as an index; an id no index can hold lies past every table.
fn index<R: RowId>(&row: &R) -> usize {
    row.try_into().unwrap_or(usize::MAX)
}

/// Embedding tables distributed across the chips of a mesh.
///
/// Each partitioned table's rows live on their owning chip; a batch lookup
/// routes each remote request to the owner and the responses back — the
/// all-to-all the paper's DLRM step pays on both the forward lookup and
/// the backward scatter-update.
///
/// No table is materialised: a row is a pure function of `(seed, table,
/// row)` until a scatter-update writes it into the sparse overlay.
#[derive(Debug)]
pub struct ShardedEmbedding {
    placement: Placement,
    seed: u64,
    updated: HashMap<(usize, usize), Vec<f32>>,
    dim: usize,
}

impl ShardedEmbedding {
    /// Initializes tables deterministically from a seed, in O(tables) time.
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::NoTables`] for an empty placement and
    /// [`EmbeddingError::DimMismatch`] when tables disagree on dimension
    /// (the DLRM layout requires one uniform embedding dim).
    pub fn init(placement: Placement, seed: u64) -> Result<ShardedEmbedding, EmbeddingError> {
        if placement.num_tables() == 0 {
            return Err(EmbeddingError::NoTables);
        }
        let dim = placement.spec(0).dim;
        if let Some(t) = (1..placement.num_tables()).find(|&t| placement.spec(t).dim != dim) {
            return Err(EmbeddingError::DimMismatch {
                table: t,
                dim: placement.spec(t).dim,
                expected: dim,
            });
        }
        Ok(ShardedEmbedding {
            placement,
            seed,
            updated: HashMap::new(),
            dim,
        })
    }

    /// The placement in force.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// One row of one table (test/inspection helper).
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::TableOutOfRange`] / [`EmbeddingError::RowOutOfRange`]
    /// when the request falls outside the placement.
    pub fn row(&self, table: usize, row: usize) -> Result<Tensor, EmbeddingError> {
        let tables = self.placement.num_tables();
        if table >= tables {
            return Err(EmbeddingError::TableOutOfRange { table, tables });
        }
        let rows = self.placement.spec(table).rows;
        if row >= rows {
            return Err(EmbeddingError::RowOutOfRange { table, row, rows });
        }
        let shape = Shape::vector(self.dim);
        Ok(Tensor::from_fn(shape, self.values(table, row)))
    }

    /// The current values of one (in-range) row, by column.
    fn values(&self, table: usize, row: usize) -> impl Fn(usize) -> f32 + '_ {
        let updated = self.updated.get(&(table, row));
        move |col| updated.map_or_else(|| value(self.seed, table, row, col), |v| v[col])
    }

    /// Executes a batch lookup: `indices[sample][table]` selects one row
    /// per table per sample. Samples are owned by chips round-robin
    /// (`sample % chips`); remote rows generate request/response traffic
    /// timed on the network.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardedEmbedding::price`].
    pub fn lookup(
        &self,
        net: &mut Network,
        indices: &[Vec<usize>],
        start: SimTime,
    ) -> Result<LookupOutcome, EmbeddingError> {
        let cost = self.price(net, indices, start, |_, _, _, _| false)?;
        Ok(self.gather(indices, cost))
    }

    /// Like [`ShardedEmbedding::lookup`], but consults a per-home-chip
    /// [`EmbeddingCache`] first: a remote row found in its sample's home
    /// cache is served locally (counted in [`LookupOutcome::cache_hits`])
    /// and generates no mesh traffic; a miss pays the all-to-all and
    /// installs the row. Training lookups bypass the cache because
    /// scatter-updates would invalidate it every step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ShardedEmbedding::price`].
    pub fn lookup_cached(
        &self,
        net: &mut Network,
        indices: &[Vec<usize>],
        start: SimTime,
        cache: &mut EmbeddingCache,
    ) -> Result<LookupOutcome, EmbeddingError> {
        let cost = self.price(net, indices, start, |_, home, t, row| {
            cache.access(home, t, row)
        })?;
        Ok(self.gather(indices, cost))
    }

    /// The traffic half of a lookup, without the numeric gather: places
    /// every row, asks `cached(sample, home, table, row)` whether each
    /// remote one is served from its home chip's cache, and times one bulk
    /// response message per `(owner, home)` pair for the rest — the
    /// batched all-to-all of the optimized input path. This is the serving
    /// path, which never reads an embedding value.
    ///
    /// `indices` borrows each sample's row ids (`&[Vec<usize>]`, or a flat
    /// block's `chunks_exact`). `cached` is asked once per remote row, in
    /// sample order and within a sample in table order: a stateful cache
    /// (`EmbeddingCache::access`) sees exactly the probes a per-batch
    /// lookup makes.
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::ChipCountMismatch`] when the placement was planned
    /// for another mesh size, [`EmbeddingError::ArityMismatch`] /
    /// [`EmbeddingError::RowOutOfRange`] when a sample does not carry one
    /// in-range index per table, and [`EmbeddingError::Network`] when a
    /// response message cannot be routed.
    pub fn price<I, R, F>(
        &self,
        net: &mut Network,
        indices: I,
        start: SimTime,
        mut cached: F,
    ) -> Result<LookupCost, EmbeddingError>
    where
        I: IntoIterator<IntoIter: ExactSizeIterator, Item: AsRef<[R]>>,
        R: RowId,
        F: FnMut(usize, usize, usize, usize) -> bool,
    {
        let (placement, mesh) = (self.placement.chips(), net.mesh().num_chips());
        if placement != mesh {
            return Err(EmbeddingError::ChipCountMismatch { placement, mesh });
        }
        let chips = mesh;
        let indices = indices.into_iter();
        // One packed `owner · chips + home` key per remote row.
        let mut remote = Vec::with_capacity(indices.len() * self.placement.num_tables());
        let (mut local_rows, mut cache_hits) = (0usize, 0usize);
        for (sample, row_ids) in indices.enumerate() {
            let row_ids = row_ids.as_ref();
            self.check_sample(sample, row_ids)?;
            let home = home_of(sample, chips);
            for (t, row) in row_ids.iter().map(index).enumerate() {
                match self.remote_owner(t, row, home)? {
                    None => local_rows += 1,
                    Some(_) if cached(sample, home, t, row) => cache_hits += 1,
                    Some(owner) => remote.push((owner * chips + home) as u64),
                }
            }
        }
        let messages = messages(&mut remote, chips as u64, (self.dim * 4) as u64);
        Ok(LookupCost {
            time: net.parallel_transfers(&messages, start)?,
            remote_rows: remote.len(),
            local_rows,
            cache_hits,
        })
    }

    /// Runs every home host's exact LRU of `rows_per_host` rows over a
    /// whole query stream and records each remote row's outcome, so that
    /// `price(.., |s, _, t, _| replay.hit(base + s, t))` on each batch
    /// (`base` its first flat sample) times exactly what per-batch probing
    /// of an [`EmbeddingCache`] in stream order would.
    ///
    /// `samples` is the flattened stream, borrowed as `price`'s `indices`,
    /// and `batches` its batches, as ranges of it in pricing order; a
    /// sample's home is its index within its batch modulo the chip count. A host sees only its own
    /// samples, so the hosts are replayed one after the other through one
    /// [`LruCache`], cleared between hosts: each host's probes stay in
    /// stream order (batches in order, its samples ascending within a
    /// batch, tables ascending within a sample), and at most one host's
    /// rows are ever held.
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::BatchOutOfRange`] when a batch's range leaves
    /// `samples`; otherwise, checking samples in stream order, the error
    /// the first failing `price` call would return
    /// ([`EmbeddingError::ArityMismatch`] /
    /// [`EmbeddingError::RowOutOfRange`], the sample counted within its
    /// batch). Nothing is probed then.
    pub fn replay_caches<I, R>(
        &self,
        samples: I,
        batches: &[Range<usize>],
        rows_per_host: usize,
    ) -> Result<CacheReplay, EmbeddingError>
    where
        I: IntoIterator<IntoIter: ExactSizeIterator + Clone, Item: AsRef<[R]>>,
        R: RowId,
    {
        let (chips, tables) = (self.placement.chips(), self.placement.num_tables());
        let samples = samples.into_iter();
        let len = samples.len();
        // A batch's samples, numbered within it (`skip` is O(1) on slices).
        let members = |r: &Range<usize>| samples.clone().skip(r.start).take(r.len()).enumerate();
        for (batch, range) in batches.iter().enumerate() {
            if range.start > range.end || range.end > len {
                return Err(EmbeddingError::BatchOutOfRange {
                    batch,
                    end: range.end,
                    samples: len,
                });
            }
            for (sample, row_ids) in members(range) {
                self.check_sample(sample, row_ids.as_ref())?;
            }
        }
        // Host 0 makes the most probes: one per table for every `chips`-th
        // sample of each batch, starting with the first.
        let most_probes = tables
            * batches
                .iter()
                .map(|b| b.len().div_ceil(chips))
                .sum::<usize>();
        let mut lru = LruCache::with_room(rows_per_host, most_probes);
        let mut replay = CacheReplay::new(len, tables);
        for host in 0..chips {
            lru.clear();
            for range in batches {
                // Every `chips`-th sample of the batch, from the first one
                // homed on `host`.
                for (sample, row_ids) in members(range).skip(host).step_by(chips) {
                    debug_assert_eq!(home_of(sample, chips), host);
                    for (t, row) in row_ids.as_ref().iter().map(index).enumerate() {
                        if self.remote_owner(t, row, host)?.is_some() {
                            replay.record(range.start + sample, t, lru.access(t, row));
                        }
                    }
                }
            }
        }
        Ok(replay)
    }

    /// The chip `home` fetches row `row` of table `t` from, or `None` when
    /// the row is local to `home`: its table is replicated or `home` owns
    /// the row.
    fn remote_owner(
        &self,
        t: usize,
        row: usize,
        home: usize,
    ) -> Result<Option<usize>, EmbeddingError> {
        if self.placement.is_replicated(t) {
            return Ok(None);
        }
        let owner = self.placement.owner_of(t, row)?;
        Ok((owner != home).then_some(owner))
    }

    /// One index per table, each inside its table.
    fn check_sample<R: RowId>(&self, sample: usize, row_ids: &[R]) -> Result<(), EmbeddingError> {
        let tables = self.placement.num_tables();
        if row_ids.len() != tables {
            return Err(EmbeddingError::ArityMismatch {
                sample,
                got: row_ids.len(),
                tables,
            });
        }
        for (table, row) in row_ids.iter().map(index).enumerate() {
            let rows = self.placement.spec(table).rows;
            if row >= rows {
                return Err(EmbeddingError::RowOutOfRange { table, row, rows });
            }
        }
        Ok(())
    }

    /// The numeric half of a lookup over already-checked `indices`.
    fn gather(&self, indices: &[Vec<usize>], cost: LookupCost) -> LookupOutcome {
        let width = self.placement.num_tables() * self.dim;
        let mut out = Tensor::zeros(Shape::of(&[indices.len(), width]));
        let rows = indices.iter().flat_map(|ids| ids.iter().enumerate());
        // One chunk per row looked up (none when the tables are 0 wide).
        for (chunk, (t, &row)) in out.data_mut().chunks_exact_mut(self.dim.max(1)).zip(rows) {
            let values = self.values(t, row);
            for (col, v) in chunk.iter_mut().enumerate() {
                *v = values(col);
            }
        }
        LookupOutcome {
            embeddings: out,
            time: cost.time,
            remote_rows: cost.remote_rows,
            local_rows: cost.local_rows,
            cache_hits: cost.cache_hits,
        }
    }

    /// Applies a sparse gradient update: each looked-up row receives
    /// `-lr · g` for its sample's gradient slice. The backward all-to-all
    /// mirrors the forward traffic (timed by the caller via
    /// [`ShardedEmbedding::lookup`]'s outcome, as the paper's step does).
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::GradShapeMismatch`] when the gradient tensor's
    /// shape disagrees with the lookup layout; nothing is applied then, nor
    /// when the indices fail [`ShardedEmbedding::price`]'s checks.
    pub fn scatter_update(
        &mut self,
        indices: &[Vec<usize>],
        grads: &Tensor,
        lr: f32,
    ) -> Result<(), EmbeddingError> {
        let (tables, seed, dim) = (self.placement.num_tables(), self.seed, self.dim);
        if grads.shape().dims() != [indices.len(), tables * dim] {
            return Err(EmbeddingError::GradShapeMismatch {
                got: grads.shape().dims().to_vec(),
                expected: vec![indices.len(), tables * dim],
            });
        }
        for (sample, row_ids) in indices.iter().enumerate() {
            self.check_sample(sample, row_ids)?;
        }
        for (sample, row_ids) in indices.iter().enumerate() {
            for (t, &row) in row_ids.iter().enumerate() {
                let g = &grads.data()[(sample * tables + t) * dim..][..dim];
                let values = self
                    .updated
                    .entry((t, row))
                    .or_insert_with(|| (0..dim).map(|col| value(seed, t, row, col)).collect());
                for (v, &gv) in values.iter_mut().zip(g) {
                    *v -= lr * gv;
                }
            }
        }
        Ok(())
    }
}

/// On-device evaluation accumulator (§4.6: "we perform multiple inference
/// steps on device and accumulate them" instead of paying a host
/// round-trip per step).
#[derive(Clone, Debug, Default)]
pub struct EvalAccumulator {
    predictions: Vec<f32>,
    labels: Vec<bool>,
    host_transfers: usize,
}

impl EvalAccumulator {
    /// An empty accumulator.
    pub fn new() -> EvalAccumulator {
        EvalAccumulator::default()
    }

    /// Accumulates one on-device inference step (no host traffic).
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::LengthMismatch`] unless there is one label per
    /// prediction; nothing is accumulated then.
    pub fn accumulate(
        &mut self,
        predictions: &[f32],
        labels: &[bool],
    ) -> Result<(), EmbeddingError> {
        if predictions.len() != labels.len() {
            return Err(EmbeddingError::LengthMismatch {
                predictions: predictions.len(),
                labels: labels.len(),
            });
        }
        self.predictions.extend_from_slice(predictions);
        self.labels.extend_from_slice(labels);
        Ok(())
    }

    /// Drains the accumulated results to the host (one transfer for many
    /// steps).
    pub fn drain_to_host(&mut self) -> (Vec<f32>, Vec<bool>) {
        self.host_transfers += 1;
        (
            std::mem::take(&mut self.predictions),
            std::mem::take(&mut self.labels),
        )
    }

    /// Host round-trips paid so far.
    pub fn host_transfers(&self) -> usize {
        self.host_transfers
    }

    /// Samples currently buffered on device.
    pub fn buffered(&self) -> usize {
        self.labels.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::EmbeddingSpec;
    use multipod_simnet::NetworkConfig;
    use multipod_topology::{Multipod, MultipodConfig};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The aggregation `price` replaced: one `BTreeMap` insert per remote
    /// row, messages issued in the map's iteration order.
    fn messages_oracle(pairs: &[(usize, usize)], row_bytes: u64) -> Vec<(ChipId, ChipId, u64)> {
        let mut traffic: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for &pair in pairs {
            *traffic.entry(pair).or_insert(0) += row_bytes;
        }
        traffic
            .into_iter()
            .map(|((src, dst), bytes)| (ChipId(src as u32), ChipId(dst as u32), bytes))
            .collect()
    }

    proptest! {
        /// Sort-and-merge yields the oracle's messages: same pairs, same
        /// byte totals, same issue order.
        #[test]
        fn messages_equal_the_btreemap_oracle(
            chips in 1usize..24,
            picks in prop::collection::vec((0usize..24, 0usize..24), 0..300),
            row_bytes in 1u64..513,
        ) {
            let pairs: Vec<(usize, usize)> =
                picks.iter().map(|&(o, h)| (o % chips, h % chips)).collect();
            let mut keys: Vec<u64> =
                pairs.iter().map(|&(o, h)| (o * chips + h) as u64).collect();
            prop_assert_eq!(
                messages(&mut keys, chips as u64, row_bytes),
                messages_oracle(&pairs, row_bytes)
            );
        }
    }

    fn setup() -> (Network, ShardedEmbedding) {
        let mesh = Multipod::new(MultipodConfig::mesh(4, 1, false));
        let net = Network::new(mesh, NetworkConfig::tpu_v3());
        let specs = vec![
            EmbeddingSpec { rows: 16, dim: 4 },   // replicated
            EmbeddingSpec { rows: 4096, dim: 4 }, // partitioned
        ];
        let placement = Placement::plan(&specs, 4, 1024);
        (net, ShardedEmbedding::init(placement, 99).unwrap())
    }

    #[test]
    fn lookup_returns_the_right_rows() {
        let (mut net, emb) = setup();
        let indices = vec![vec![3, 100], vec![5, 2000]];
        let out = emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
        assert_eq!(out.embeddings.shape().dims(), &[2, 8]);
        assert_eq!(&out.embeddings.data()[0..4], emb.row(0, 3).unwrap().data());
        assert_eq!(
            &out.embeddings.data()[4..8],
            emb.row(1, 100).unwrap().data()
        );
        assert_eq!(
            &out.embeddings.data()[12..16],
            emb.row(1, 2000).unwrap().data()
        );
    }

    #[test]
    fn replicated_tables_never_cross_the_mesh() {
        let (mut net, emb) = setup();
        let indices = vec![vec![0, 0]; 8]; // table-1 row 0 lives on chip 0
        let out = emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
        // Table 0 is replicated (8 local); table-1 row 0 is local only for
        // samples homed on chip 0 (2 of 8 under round-robin).
        assert_eq!(out.local_rows, 8 + 2);
        assert_eq!(out.remote_rows, 6);
        assert!(out.time > SimTime::ZERO);
    }

    #[test]
    fn remote_traffic_takes_time_and_scales_with_batch() {
        let (mut net, emb) = setup();
        let mut rng = SmallRng::seed_from_u64(5);
        let small: Vec<Vec<usize>> = (0..8)
            .map(|_| vec![rng.gen_range(0..16), rng.gen_range(0..4096)])
            .collect();
        let large: Vec<Vec<usize>> = (0..512)
            .map(|_| vec![rng.gen_range(0..16), rng.gen_range(0..4096)])
            .collect();
        let t_small = emb.lookup(&mut net, &small, SimTime::ZERO).unwrap();
        net.reset();
        let t_large = emb.lookup(&mut net, &large, SimTime::ZERO).unwrap();
        assert!(t_large.remote_rows > 10 * t_small.remote_rows);
        assert!(t_large.time >= t_small.time);
    }

    #[test]
    fn cached_lookup_skips_the_mesh_on_repeat() {
        let (mut net, emb) = setup();
        let mut cache = EmbeddingCache::new(4, 64);
        let indices = vec![vec![0, 0]; 8]; // table-1 row 0: remote for 6/8 homes
        let cold = emb
            .lookup_cached(&mut net, &indices, SimTime::ZERO, &mut cache)
            .unwrap();
        // Homes 1..3 each carry two samples: the first misses and installs
        // the row, the second hits within the same batch.
        assert_eq!(cold.cache_hits, 3);
        assert_eq!(cold.remote_rows, 3);
        assert!(cold.time > SimTime::ZERO);
        net.reset();
        let warm = emb
            .lookup_cached(&mut net, &indices, SimTime::ZERO, &mut cache)
            .unwrap();
        // Every previously remote row now hits its home cache: no traffic.
        assert_eq!(warm.cache_hits, 6);
        assert_eq!(warm.remote_rows, 0);
        assert_eq!(warm.time, SimTime::ZERO);
        // Numerics are unchanged by caching.
        assert_eq!(warm.embeddings, cold.embeddings);
        assert!(cache.hit_rate() > 0.0);
    }

    #[test]
    fn uncached_lookup_reports_zero_hits() {
        let (mut net, emb) = setup();
        let out = emb.lookup(&mut net, &[vec![0, 0]], SimTime::ZERO).unwrap();
        assert_eq!(out.cache_hits, 0);
    }

    #[test]
    fn scatter_update_moves_only_touched_rows() {
        let (mut net, mut emb) = setup();
        let indices = vec![vec![3usize, 100]];
        let before_touched = emb.row(1, 100).unwrap();
        let before_untouched = emb.row(1, 101).unwrap();
        let out = emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
        let grads = Tensor::fill(out.embeddings.shape().clone(), 1.0);
        emb.scatter_update(&indices, &grads, 0.5).unwrap();
        let after = emb.row(1, 100).unwrap();
        let expect = before_touched.map(|v| v - 0.5);
        assert!(after.max_abs_diff(&expect) < 1e-6);
        assert_eq!(emb.row(1, 101).unwrap(), before_untouched);
    }

    #[test]
    fn training_reduces_loss_on_a_toy_task() {
        // One-table logistic-ish regression: row embeddings should move
        // toward their target labels.
        let mesh = Multipod::new(MultipodConfig::mesh(2, 1, false));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let placement = Placement::plan(&[EmbeddingSpec { rows: 32, dim: 1 }], 2, 0);
        let mut emb = ShardedEmbedding::init(placement, 1).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let targets: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let loss = |emb: &ShardedEmbedding| -> f32 {
            (0..32)
                .map(|r| (emb.row(0, r).unwrap().data()[0] - targets[r]).powi(2))
                .sum()
        };
        let initial = loss(&emb);
        for _ in 0..200 {
            let indices: Vec<Vec<usize>> = (0..32).map(|r| vec![r]).collect();
            let out = emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
            let grads: Vec<f32> = out
                .embeddings
                .data()
                .iter()
                .enumerate()
                .map(|(r, &v)| 2.0 * (v - targets[r]))
                .collect();
            let g = Tensor::new(out.embeddings.shape().clone(), grads);
            emb.scatter_update(&indices, &g, 0.05).unwrap();
            net.reset();
        }
        assert!(loss(&emb) < 0.01 * initial, "loss did not drop");
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        let (mut net, mut emb) = setup();
        let err = emb.lookup(&mut net, &[vec![0usize]], SimTime::ZERO);
        assert!(matches!(
            err,
            Err(EmbeddingError::ArityMismatch {
                sample: 0,
                got: 1,
                tables: 2
            })
        ));
        let err = emb.lookup(&mut net, &[vec![0usize, 5000]], SimTime::ZERO);
        assert!(matches!(
            err,
            Err(EmbeddingError::RowOutOfRange {
                table: 1,
                row: 5000,
                rows: 4096
            })
        ));
        assert!(matches!(
            emb.row(7, 0),
            Err(EmbeddingError::TableOutOfRange { table: 7, .. })
        ));
        let grads = Tensor::zeros(Shape::of(&[2, 3]));
        let err = emb.scatter_update(&[vec![0, 0], vec![0, 0]], &grads, 0.1);
        assert!(matches!(err, Err(EmbeddingError::GradShapeMismatch { .. })));
        // An update no lookup could have produced is rejected whole.
        let grads = Tensor::fill(Shape::of(&[2, 8]), 1.0);
        let err = emb.scatter_update(&[vec![0, 0], vec![0, 5000]], &grads, 0.1);
        assert!(matches!(
            err,
            Err(EmbeddingError::RowOutOfRange { row: 5000, .. })
        ));
        assert_eq!(emb.row(1, 0).unwrap(), setup().1.row(1, 0).unwrap());
    }

    #[test]
    fn empty_placement_is_a_typed_error() {
        let err = ShardedEmbedding::init(Placement::plan(&[], 4, 0), 1);
        assert!(matches!(err, Err(EmbeddingError::NoTables)));
    }

    #[test]
    fn placement_for_another_mesh_is_a_typed_error() {
        let (mut net, _) = setup();
        let specs = [EmbeddingSpec { rows: 4096, dim: 4 }];
        for planned in [2, 8] {
            let emb = ShardedEmbedding::init(Placement::plan(&specs, planned, 0), 1).unwrap();
            // Row 4095 lives on the placement's last chip.
            let err = emb.lookup(&mut net, &[vec![4095]], SimTime::ZERO);
            assert_eq!(
                err.err(),
                Some(EmbeddingError::ChipCountMismatch {
                    placement: planned,
                    mesh: 4
                })
            );
        }
    }

    #[test]
    fn eval_accumulator_amortizes_host_transfers() {
        let mut acc = EvalAccumulator::new();
        for step in 0..64 {
            let preds = vec![step as f32; 128];
            let labels = vec![step % 2 == 0; 128];
            acc.accumulate(&preds, &labels).unwrap();
        }
        assert_eq!(acc.buffered(), 64 * 128);
        assert_eq!(acc.host_transfers(), 0);
        let (p, l) = acc.drain_to_host();
        assert_eq!(p.len(), 64 * 128);
        assert_eq!(l.len(), 64 * 128);
        assert_eq!(acc.host_transfers(), 1);
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn eval_step_without_one_label_per_prediction_is_a_typed_error() {
        let mut acc = EvalAccumulator::new();
        assert_eq!(
            acc.accumulate(&[0.5; 3], &[true; 2]),
            Err(EmbeddingError::LengthMismatch {
                predictions: 3,
                labels: 2
            })
        );
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn replay_serves_what_per_batch_probing_serves() {
        let (_, emb) = setup();
        // Two batches of eight: table-1 row 0 is remote for homes 1..3.
        let samples = vec![vec![0usize, 0]; 16];
        let replay = emb.replay_caches(&samples, &[0..8, 8..16], 64).unwrap();
        // Homes 1..3 each carry two samples a batch: the first sample of
        // the first batch misses, every later one hits.
        let hits: Vec<bool> = (0..16).map(|s| replay.hit(s, 1)).collect();
        let first_batch = [false, false, false, false, false, true, true, true];
        let second_batch = [false, true, true, true, false, true, true, true];
        assert_eq!(hits, [first_batch, second_batch].concat());
        assert!((0..16).all(|s| !replay.hit(s, 0)), "table 0 is replicated");
        // Positions outside the stream read as misses.
        assert!(!replay.hit(16, 1) && !replay.hit(0, 2));
    }

    #[test]
    fn replay_rejects_what_the_first_failing_price_would() {
        let (mut net, emb) = setup();
        let mut samples = vec![vec![0usize, 0]; 6];
        samples[4] = vec![0, 5000];
        let batches = [0..3, 3..6];
        let err = emb.replay_caches(&samples, &batches, 64).unwrap_err();
        let first_failing = batches
            .iter()
            .find_map(|b| {
                emb.price(
                    &mut net,
                    &samples[b.clone()],
                    SimTime::ZERO,
                    |_, _, _, _| false,
                )
                .err()
            })
            .unwrap();
        assert_eq!(err, first_failing);
        assert_eq!(
            err,
            EmbeddingError::RowOutOfRange {
                table: 1,
                row: 5000,
                rows: 4096
            }
        );
        samples[4] = vec![0];
        assert_eq!(
            emb.replay_caches(&samples, &batches, 64).unwrap_err(),
            EmbeddingError::ArityMismatch {
                sample: 1,
                got: 1,
                tables: 2
            }
        );
        assert_eq!(
            emb.replay_caches(&samples, &[0..3, 3..7], 64).unwrap_err(),
            EmbeddingError::BatchOutOfRange {
                batch: 1,
                end: 7,
                samples: 6
            }
        );
    }
}
