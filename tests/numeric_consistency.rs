//! Cross-crate numeric consistency: the real-math layers (collectives,
//! optimizers, partitioner) compose without losing correctness.

use std::collections::{BTreeSet, HashMap};

use multipod::collectives::twod::two_dim_all_reduce;
use multipod::collectives::{ring, Precision};
use multipod::core::trainer::DataParallelTrainer;
use multipod::hlo::{HloBuilder, Sharding, SpmdPartitioner};
use multipod::optim::{Lamb, LrSchedule, Optimizer};
use multipod::simnet::{Network, NetworkConfig, SimTime};
use multipod::tensor::{Shape, Tensor, TensorRng};
use multipod::topology::{Multipod, MultipodConfig};

/// Full data-parallel training step on a simulated 4x4 pod: per-chip
/// gradients → 2-D reduce-scatter → a *sharded LAMB update* at the shard
/// owners → 2-D all-gather, through `DataParallelTrainer` → all replicas
/// end with identical, correctly updated weights (the §3.2 + §3.3
/// composition).
#[test]
fn sharded_lamb_inside_2d_allreduce_matches_replicated_reference() {
    let elems = 256usize;
    let mut rng = TensorRng::seed(21);
    let w0 = rng.uniform(Shape::vector(elems), -1.0, 1.0);
    let mut trainer = DataParallelTrainer::new(
        MultipodConfig::mesh(4, 4, true),
        Lamb::new(0.01, 0.01),
        LrSchedule::Constant { lr: 0.01 },
    );
    let grads: Vec<Tensor> = (0..trainer.replicas())
        .map(|_| rng.uniform(Shape::vector(elems), -0.1, 0.1))
        .collect();

    // Reference: replicated LAMB on the host-summed gradient.
    let summed = Tensor::sum_all(&grads).unwrap();
    let mut ref_opt = Lamb::new(0.01, 0.01);
    let mut ref_w = w0.clone();
    ref_opt.step(0, &mut ref_w, &summed).unwrap();

    // Sharded: each owner prepares its weight shard from the shard of the
    // network's sum it holds, with per-shard LAMB state; the trust ratio
    // uses the whole-layer norms merged from the owners' partials.
    let mut w = w0.clone();
    trainer.step(&mut w, &grads).expect("sharded LAMB step");
    assert!(
        w.max_abs_diff(&ref_w) < 1e-3,
        "sharded update diverged by {}",
        w.max_abs_diff(&ref_w)
    );
    // One LAMB state slot per owner's shard, none for the whole layer.
    let shards: BTreeSet<usize> = trainer
        .optimizer()
        .export_state()
        .iter()
        .map(|slot| slot.key.shard)
        .collect();
    assert_eq!(shards, (0..trainer.replicas()).collect());
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
