//! Property tests for the embedding substrate.

use multipod_embedding::{
    masked_self_interaction, EmbeddingCache, EmbeddingSpec, LruCache, Placement, ShardedEmbedding,
};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_tensor::{Shape, Tensor};
use multipod_topology::{Multipod, MultipodConfig};
use proptest::prelude::*;

/// A small deterministic index source for the batch generators below.
fn lcg(seed: u64) -> impl FnMut(usize) -> usize {
    let mut r = seed;
    move |m| {
        r = r
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (r >> 33) as usize % m
    }
}

/// Every row of every table, in table-major order.
fn all_rows(emb: &ShardedEmbedding) -> Vec<Vec<f32>> {
    let placement = emb.placement();
    (0..placement.num_tables())
        .flat_map(|t| (0..placement.spec(t).rows).map(move |r| (t, r)))
        .map(|(t, r)| emb.row(t, r).unwrap().data().to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Row ranges of a partitioned table tile it exactly, and the owner
    /// function is consistent with the ranges, for arbitrary table sizes
    /// and chip counts (including non-dividing ones).
    #[test]
    fn placement_tiles_rows(rows in 1usize..10_000, chips in 1usize..40) {
        let placement = Placement::plan(&[EmbeddingSpec { rows, dim: 4 }], chips, 0);
        let mut covered = 0usize;
        for chip in 0..chips {
            let r = placement.rows_on_chip(0, chip);
            prop_assert_eq!(r.start, covered);
            prop_assert!(r.end >= r.start);
            covered = r.end;
        }
        prop_assert_eq!(covered, rows);
        for probe in [0, rows / 2, rows - 1] {
            let owner = placement.owner_of(0, probe).unwrap();
            prop_assert!(placement.rows_on_chip(0, owner).contains(&probe));
        }
    }

    /// The replication budget is honoured: replicated table bytes never
    /// exceed it, and everything else is partitioned.
    #[test]
    fn replication_budget_is_respected(
        tables in prop::collection::vec(1usize..100_000, 1..12),
        budget_kb in 0u64..512,
    ) {
        let specs: Vec<EmbeddingSpec> =
            tables.iter().map(|&rows| EmbeddingSpec { rows, dim: 8 }).collect();
        let budget = budget_kb * 1024;
        let placement = Placement::plan(&specs, 8, budget);
        let replicated_bytes: u64 = specs
            .iter()
            .enumerate()
            .filter(|&(t, _)| placement.is_replicated(t))
            .map(|(_, s)| s.bytes())
            .sum();
        prop_assert!(replicated_bytes <= budget);
        prop_assert!(placement.bytes_per_chip() <= placement.bytes_fully_replicated());
    }

    /// Lookups return exactly the requested rows, regardless of
    /// placement, batch, or index pattern.
    #[test]
    fn lookup_returns_requested_rows(
        batch in 1usize..24,
        seed in 0u64..10_000,
        budget in prop::sample::select(vec![0u64, 1 << 12, 1 << 30]),
    ) {
        let specs = vec![
            EmbeddingSpec { rows: 32, dim: 3 },
            EmbeddingSpec { rows: 500, dim: 3 },
        ];
        let placement = Placement::plan(&specs, 4, budget);
        let emb = ShardedEmbedding::init(placement, seed).unwrap();
        let mesh = Multipod::new(MultipodConfig::mesh(2, 2, true));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let mut next = lcg(seed);
        let indices: Vec<Vec<usize>> =
            (0..batch).map(|_| vec![next(32), next(500)]).collect();
        let out = emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
        prop_assert_eq!(out.embeddings.shape().dims(), &[batch, 6]);
        for (s, row_ids) in indices.iter().enumerate() {
            for (t, &row) in row_ids.iter().enumerate() {
                let expect = emb.row(t, row).unwrap();
                let got = &out.embeddings.data()[s * 6 + t * 3..s * 6 + (t + 1) * 3];
                prop_assert_eq!(got, expect.data());
            }
        }
        prop_assert_eq!(
            out.remote_rows + out.local_rows,
            batch * 2,
            "every lookup is accounted local or remote"
        );
    }

    /// A row is a pure function of `(seed, table, row)`: two instances
    /// agree, values lie in `[-0.1, 0.1)`, lookups change nothing, and a
    /// scatter-update moves exactly the touched rows, by `-lr · g`.
    #[test]
    fn rows_are_a_pure_function_until_updated(
        seed in 0u64..10_000,
        batch in 1usize..12,
        lr in 0.01f32..1.0,
    ) {
        let specs = [EmbeddingSpec { rows: 40, dim: 3 }, EmbeddingSpec { rows: 300, dim: 3 }];
        let plan = || Placement::plan(&specs, 4, 1 << 9);
        let mut emb = ShardedEmbedding::init(plan(), seed).unwrap();
        let before = all_rows(&emb);
        prop_assert_eq!(&before, &all_rows(&ShardedEmbedding::init(plan(), seed).unwrap()));
        prop_assert!(before.iter().flatten().all(|v| (-0.1..0.1).contains(v)));
        let other = ShardedEmbedding::init(plan(), seed + 1).unwrap();
        prop_assert!(emb.row(1, 0).unwrap() != other.row(1, 0).unwrap());

        let mut next = lcg(seed);
        // A tiny row universe, so batches revisit rows.
        let indices: Vec<Vec<usize>> = (0..batch).map(|_| vec![next(40), next(8)]).collect();
        let mesh = Multipod::new(MultipodConfig::mesh(2, 2, true));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        emb.lookup(&mut net, &indices, SimTime::ZERO).unwrap();
        prop_assert_eq!(&before, &all_rows(&emb));

        let grads: Vec<f32> = (0..batch * 6).map(|_| next(2001) as f32 / 1000.0 - 1.0).collect();
        let grads = Tensor::new(Shape::of(&[batch, 6]), grads);
        emb.scatter_update(&indices, &grads, lr).unwrap();
        let mut expect = before;
        for (s, row_ids) in indices.iter().enumerate() {
            for (t, &row) in row_ids.iter().enumerate() {
                let g = &grads.data()[s * 6 + t * 3..s * 6 + (t + 1) * 3];
                for (v, &gv) in expect[t * 40 + row].iter_mut().zip(g) {
                    *v -= lr * gv;
                }
            }
        }
        prop_assert_eq!(&expect, &all_rows(&emb));
    }

    /// Pricing a batch is the lookup minus the gather: same completion
    /// time and row counts, same cache state, and the same bytes on every
    /// directed link, with and without a cache, over random meshes,
    /// placements and batches.
    #[test]
    fn price_equals_lookup_without_the_gather(
        (x, y, wrap) in (1u32..5, 1u32..5, any::<bool>()),
        rows in prop::collection::vec(1usize..600, 1..5),
        budget in prop::sample::select(vec![0u64, 1 << 11, 1 << 30]),
        cache_rows in prop::sample::select(vec![None, Some(0usize), Some(2), Some(64)]),
        batch in 0usize..40,
        seed in 0u64..10_000,
    ) {
        let chips = (x * y) as usize;
        let specs: Vec<EmbeddingSpec> =
            rows.iter().map(|&rows| EmbeddingSpec { rows, dim: 2 }).collect();
        let emb = ShardedEmbedding::init(Placement::plan(&specs, chips, budget), seed).unwrap();
        let net = || Network::new(
            Multipod::new(MultipodConfig::mesh(x, y, wrap)),
            NetworkConfig::tpu_v3(),
        );
        let (mut net_l, mut net_p) = (net(), net());
        let mut cache_l = cache_rows.map(|c| EmbeddingCache::new(chips, c));
        let mut cache_p = cache_l.clone();
        let mut next = lcg(seed);
        let mut start = SimTime::ZERO;
        // Two batches back to back: the second meets warm caches and
        // links still reserved by the first.
        for _ in 0..2 {
            // At most 16 distinct rows per table, spread over its owners.
            let indices: Vec<Vec<usize>> = (0..batch)
                .map(|_| rows.iter().map(|&r| next(r.min(16)) * (r / r.min(16))).collect())
                .collect();
            let looked = match cache_l.as_mut() {
                Some(c) => emb.lookup_cached(&mut net_l, &indices, start, c),
                None => emb.lookup(&mut net_l, &indices, start),
            }.unwrap();
            let priced = match cache_p.as_mut() {
                Some(c) => emb.price(&mut net_p, &indices, start, |_, home, t, row| {
                    c.access(home, t, row)
                }),
                None => emb.price(&mut net_p, &indices, start, |_, _, _, _| false),
            }.unwrap();
            prop_assert_eq!(priced.time, looked.time);
            prop_assert_eq!(priced.remote_rows, looked.remote_rows);
            prop_assert_eq!(priced.local_rows, looked.local_rows);
            prop_assert_eq!(priced.cache_hits, looked.cache_hits);
            prop_assert_eq!(
                priced.remote_rows + priced.local_rows + priced.cache_hits,
                batch * rows.len()
            );
            start = looked.time;
        }
        if let (Some(l), Some(p)) = (&cache_l, &cache_p) {
            prop_assert_eq!((l.hits(), l.misses()), (p.hits(), p.misses()));
        }
        for from in net_l.mesh().chips() {
            for to in net_l.mesh().chips() {
                prop_assert_eq!(net_l.link_traffic(from, to), net_p.link_traffic(from, to));
            }
        }
    }

    /// Replaying the caches host by host over a whole stream serves the
    /// same remote rows as probing an `EmbeddingCache` batch by batch in
    /// stream order — the same outcome at every position — and pricing
    /// each batch from the replay times what pricing it
    /// against the live cache does, down to the bytes on every directed
    /// link. Batches may hold more samples than there are chips (one host
    /// serves several samples of a batch), and up to 24 distinct rows per
    /// table against capacities of at most 64 make the caches evict.
    #[test]
    fn replayed_caches_equal_per_batch_probing(
        (x, y, wrap) in (1u32..6, 1u32..6, any::<bool>()),
        rows in prop::collection::vec(1usize..600, 1..5),
        budget in prop::sample::select(vec![0u64, 1 << 11, 1 << 30]),
        capacity in prop::sample::select(vec![0usize, 1, 2, 64]),
        lens in prop::collection::vec(0usize..60, 1..6),
        seed in 0u64..10_000,
    ) {
        let chips = (x * y) as usize;
        let specs: Vec<EmbeddingSpec> =
            rows.iter().map(|&rows| EmbeddingSpec { rows, dim: 2 }).collect();
        let emb = ShardedEmbedding::init(Placement::plan(&specs, chips, budget), seed).unwrap();
        let placement = emb.placement();
        let mut next = lcg(seed);
        let samples: Vec<Vec<usize>> = (0..lens.iter().sum())
            .map(|_| rows.iter().map(|&r| next(r.min(24)) * (r / r.min(24))).collect())
            .collect();
        let batches: Vec<std::ops::Range<usize>> = lens
            .iter()
            .scan(0, |at, &len| {
                *at += len;
                Some(*at - len..*at)
            })
            .collect();
        let replay = emb.replay_caches(&samples, &batches, capacity).unwrap();

        let mut probed = EmbeddingCache::new(chips, capacity);
        for batch in &batches {
            for (s, row_ids) in samples[batch.clone()].iter().enumerate() {
                let home = s % chips;
                for (t, &row) in row_ids.iter().enumerate() {
                    let remote = !placement.is_replicated(t)
                        && placement.owner_of(t, row).unwrap() != home;
                    let hit = remote && probed.access(home, t, row);
                    prop_assert_eq!(
                        replay.hit(batch.start + s, t),
                        hit,
                        "sample {} table {}",
                        batch.start + s,
                        t
                    );
                }
            }
        }

        let net = || Network::new(
            Multipod::new(MultipodConfig::mesh(x, y, wrap)),
            NetworkConfig::tpu_v3(),
        );
        let (mut net_live, mut net_replay) = (net(), net());
        let mut live = EmbeddingCache::new(chips, capacity);
        let mut start = SimTime::ZERO;
        // Back to back: each batch meets links the previous one reserved.
        for batch in &batches {
            let indices = &samples[batch.clone()];
            let from_live = emb
                .price(&mut net_live, indices, start, |_, home, t, row| live.access(home, t, row))
                .unwrap();
            let from_replay = emb
                .price(&mut net_replay, indices, start, |s, _, t, _| {
                    replay.hit(batch.start + s, t)
                })
                .unwrap();
            prop_assert_eq!(from_replay, from_live);
            start = from_live.time;
        }
        for from in net_live.mesh().chips() {
            for to in net_live.mesh().chips() {
                prop_assert_eq!(
                    net_live.link_traffic(from, to),
                    net_replay.link_traffic(from, to)
                );
            }
        }
    }

    /// `LruCache` behaves exactly like the obvious model — a recency-
    /// ordered `Vec` — whatever hashes its keys: same hit sequence, same
    /// occupancy, same counters.
    #[test]
    fn lru_matches_a_naive_model(
        accesses in prop::collection::vec((0usize..4, 0usize..48), 1..400),
    ) {
        for capacity in [0usize, 1, 3, 64] {
            let mut cache = LruCache::new(capacity);
            // Least recently used first.
            let mut model: Vec<(usize, usize)> = Vec::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            for &key in &accesses {
                let hit = match model.iter().position(|&k| k == key) {
                    Some(at) => {
                        model.remove(at);
                        true
                    }
                    None => {
                        if model.len() == capacity && capacity > 0 {
                            model.remove(0);
                        }
                        false
                    }
                };
                if capacity > 0 {
                    model.push(key);
                }
                if hit { hits += 1 } else { misses += 1 }
                prop_assert_eq!(cache.access(key.0, key.1), hit);
                prop_assert_eq!(cache.len(), model.len());
            }
            prop_assert_eq!((cache.hits(), cache.misses()), (hits, misses));
        }
    }

    /// The masked interaction layout always carries exactly the
    /// lower-triangle values and zeros elsewhere.
    #[test]
    fn masked_interaction_layout(batch in 1usize..6, tables in 2usize..7, seed in 0u64..1000) {
        use multipod_tensor::TensorRng;
        let dim = 2usize;
        let mut rng = TensorRng::seed(seed);
        let feats = rng.uniform(Shape::of(&[batch, tables * dim]), -1.0, 1.0);
        let out = masked_self_interaction(&feats, dim).unwrap();
        let f = tables;
        prop_assert_eq!(out.gathered.shape().dims(), &[batch, f * (f - 1) / 2]);
        prop_assert_eq!(out.masked.shape().dims(), &[batch, f * f]);
        for b in 0..batch {
            let mut g = out.gathered.data()[b * f * (f - 1) / 2..(b + 1) * f * (f - 1) / 2]
                .iter();
            for i in 0..f {
                for j in 0..f {
                    let m = out.masked.data()[b * f * f + i * f + j];
                    if j < i {
                        prop_assert_eq!(m, *g.next().unwrap());
                    } else {
                        prop_assert_eq!(m, 0.0);
                    }
                }
            }
        }
    }
}
