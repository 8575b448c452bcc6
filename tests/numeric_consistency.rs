//! Cross-crate numeric consistency: the real-math layers (collectives,
//! optimizers, partitioner) compose without losing correctness.

use std::collections::HashMap;

use multipod::collectives::twod::two_dim_all_reduce;
use multipod::collectives::{ring, Precision};
use multipod::hlo::{HloBuilder, Sharding, SpmdPartitioner};
use multipod::optim::{Lamb, Optimizer, StateKey};
use multipod::simnet::{Network, NetworkConfig, SimTime};
use multipod::tensor::{Shape, Tensor, TensorRng};
use multipod::topology::{ChipId, Multipod, MultipodConfig};

/// Full data-parallel training step on a simulated 4x4 pod: per-chip
/// gradients → 2-D all-reduce with a *sharded LAMB update* applied at the
/// shard owners → all replicas end with identical, correctly updated
/// weights (the §3.2 + §3.3 composition).
#[test]
fn sharded_lamb_inside_2d_allreduce_matches_replicated_reference() {
    let mesh = Multipod::new(MultipodConfig::mesh(4, 4, true));
    let mut net = Network::new(mesh.clone(), NetworkConfig::tpu_v3());
    let elems = 256usize;
    let mut rng = TensorRng::seed(21);
    let w0 = rng.uniform(Shape::vector(elems), -1.0, 1.0);
    let grads: Vec<Tensor> = (0..mesh.num_chips())
        .map(|_| rng.uniform(Shape::vector(elems), -0.1, 0.1))
        .collect();

    // Reference: replicated LAMB on the summed gradient.
    let summed = Tensor::sum_all(&grads).unwrap();
    let mut ref_opt = Lamb::new(0.01, 0.01);
    let mut ref_w = w0.clone();
    ref_opt.step(0, &mut ref_w, &summed).unwrap();

    // Sharded: the 2-D schedule leaves each chip one shard of summed
    // gradients; each owner updates its weight shard with per-shard LAMB
    // state, then the broadcast phases distribute the updated shards.
    //
    // LAMB's trust ratio needs whole-layer norms; precompute them from
    // the reference (in production this is the scalar all-reduce of
    // `multipod::optim::wus`).
    let chips_count = mesh.num_chips();
    let shards_total = chips_count; // 16 shards of 16 elems
    let shard_elems = elems / shards_total;
    let mut shard_opt = Lamb::new(0.01, 0.01);
    // Stats pass: accumulate global norms from per-shard prepares on a
    // scratch optimizer.
    let mut probe = Lamb::new(0.01, 0.01);
    let mut global = multipod::optim::LayerStats::default();
    let w_shards = w0.split(0, shards_total).unwrap();
    let g_shards = summed.split(0, shards_total).unwrap();
    for s in 0..shards_total {
        let (_u, stats) = probe
            .prepare(StateKey { layer: 0, shard: s }, &w_shards[s], &g_shards[s])
            .unwrap();
        global = global.merge(stats);
    }

    // The shard a chip owns is determined by the 2-D schedule itself; let
    // the update closure compute the right slice from the shard length.
    let mut shard_index = HashMap::new();
    let mut update = |chip: ChipId, shard: &mut Tensor| {
        // Identify which global shard this is by matching contents
        // against the summed gradient slices (robust to schedule
        // internals).
        let idx = (0..shards_total)
            .find(|&s| shard.max_abs_diff(&g_shards[s]) < 1e-4)
            .expect("shard corresponds to a slice of the summed gradient");
        shard_index.insert(chip, idx);
        let mut w_shard = w_shards[idx].clone();
        let (u, stats) = shard_opt
            .prepare(
                StateKey {
                    layer: 0,
                    shard: idx,
                },
                &w_shard,
                shard,
            )
            .unwrap();
        let _ = stats; // replaced by the globally merged norms
        shard_opt.apply(&mut w_shard, &u, global).unwrap();
        *shard = w_shard;
        assert_eq!(shard.len(), shard_elems);
    };
    let out = two_dim_all_reduce(&mut net, &grads, Precision::F32, 1, Some(&mut update))
        .expect("2-D all-reduce with WUS");

    for (i, o) in out.outputs.iter().enumerate() {
        assert!(
            o.max_abs_diff(&ref_w) < 1e-3,
            "chip {i}: sharded update diverged by {}",
            o.max_abs_diff(&ref_w)
        );
    }
    assert_eq!(shard_index.len(), mesh.num_chips());
}

/// Model parallelism (§3.1) composed with cross-replica gradient rings
/// (§3.3): two feature-sharded replicas compute partial matmuls,
/// all-reduce within their tiles, then sum gradients across replicas with
/// a peer-hopping ring — and the result matches the single-machine
/// reference.
#[test]
fn feature_sharded_forward_plus_peer_gradient_ring() {
    let parts = 2usize;
    // 4 chips in a row: tiles {0,1} and {2,3}; peers (0,2) and (1,3).
    let mesh = Multipod::new(MultipodConfig::mesh(4, 1, false));
    let mut net = Network::new(mesh.clone(), NetworkConfig::tpu_v3());

    let mut b = HloBuilder::new();
    let x = b.parameter("x", Shape::of(&[4, 8]), Sharding::Replicated);
    let w = b.parameter("w", Shape::of(&[8, 6]), Sharding::split(1, parts));
    let y = b.matmul(x, w).unwrap();
    let graph = b.build(vec![y]).unwrap();
    let program = SpmdPartitioner::new(parts).partition(&graph).unwrap();

    let mut rng = TensorRng::seed(5);
    let fx = rng.uniform(Shape::of(&[4, 8]), -1.0, 1.0);
    let fw = rng.uniform(Shape::of(&[8, 6]), -1.0, 1.0);
    let feeds: HashMap<String, Tensor> = [("x", fx.clone()), ("w", fw.clone())]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let reference = graph.evaluate(&feeds).unwrap();

    // Each tile executes the per-core program on its own chips.
    let tiles = mesh.model_tiles(2);
    let mut per_tile_outputs = Vec::new();
    for tile in &tiles {
        let (outs, _) = program
            .execute(&mut net, &feeds, tile.members())
            .expect("tile execution");
        per_tile_outputs.push(outs[0].clone());
    }
    for outs in &per_tile_outputs {
        let assembled = program.assemble_output(0, outs).unwrap();
        assert!(assembled.max_abs_diff(&reference[0]) < 1e-4);
    }

    // "Gradients" (here: the per-core outputs) are summed across model
    // peers using the strided X ring that hops over the tile neighbour.
    for peer in 0..parts {
        let ring_peers = mesh.x_line_strided(0, peer as u32, 2);
        let inputs: Vec<Tensor> = per_tile_outputs.iter().map(|o| o[peer].clone()).collect();
        let reduced = ring::all_reduce_unidirectional(
            &mut net,
            &ring_peers,
            &inputs,
            Precision::F32,
            ring::Direction::Forward,
            SimTime::ZERO,
        )
        .expect("peer ring");
        let expect = Tensor::sum_all(&inputs).unwrap();
        for r in &reduced.outputs {
            assert!(r.max_abs_diff(&expect) < 1e-4);
        }
    }
}

/// bf16 gradient summation (§3.3's payload precision) stays within the
/// format's error bound through the full 2-D schedule.
#[test]
fn bf16_2d_allreduce_error_bounded() {
    let mesh = Multipod::new(MultipodConfig::mesh(4, 4, true));
    let mut net = Network::new(mesh.clone(), NetworkConfig::tpu_v3());
    let mut rng = TensorRng::seed(9);
    let grads: Vec<Tensor> = (0..mesh.num_chips())
        .map(|_| rng.uniform(Shape::vector(64), 0.5, 1.5))
        .collect();
    let reference = Tensor::sum_all(&grads).unwrap();
    let out = two_dim_all_reduce(&mut net, &grads, Precision::Bf16, 1, None).unwrap();
    let bound = reference.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()))
        * mesh.num_chips() as f32
        * (1.0 / 128.0);
    for o in &out.outputs {
        assert!(o.max_abs_diff(&reference) <= bound);
    }
}
