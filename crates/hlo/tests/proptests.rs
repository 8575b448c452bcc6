//! Property test: random layer stacks, random shardings — the partitioned
//! program always matches the reference interpreter.

use std::collections::HashMap;

use multipod_hlo::{CommunicationOpt, HloBuilder, Sharding, SpmdPartitioner};
use multipod_simnet::{Network, NetworkConfig};
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::{ChipId, Multipod, MultipodConfig};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Layer {
    MatMulReplicated,
    MatMulFeatureSharded,
    Relu,
    AddBias,
    ReduceRows,
}

fn arb_layers() -> impl Strategy<Value = Vec<Layer>> {
    prop::collection::vec(
        prop_oneof![
            Just(Layer::MatMulReplicated),
            Just(Layer::MatMulFeatureSharded),
            Just(Layer::Relu),
            Just(Layer::AddBias),
        ],
        1..5,
    )
    .prop_flat_map(|layers| {
        // Optionally cap the stack with a row reduction.
        prop::bool::ANY.prop_map(move |reduce| {
            let mut layers = layers.clone();
            if reduce {
                layers.push(Layer::ReduceRows);
            }
            layers
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any stack of supported layers with mixed shardings partitions into
    /// a program whose assembled outputs equal the reference.
    #[test]
    fn random_stacks_partition_correctly(
        layers in arb_layers(),
        parts_pow in 1u32..3,
        batch_split in any::<bool>(),
        seed in 0u64..10_000,
        naive in any::<bool>(),
    ) {
        let parts = 1usize << parts_pow; // 2 or 4
        let rows = 8usize;
        let dim = 8usize;
        let mut b = HloBuilder::new();
        let x_sharding = if batch_split {
            Sharding::split(0, parts)
        } else {
            Sharding::Replicated
        };
        let x = b.parameter("x", Shape::of(&[rows, dim]), x_sharding);
        let mut cur = x;
        let mut feeds: Vec<(String, Shape)> = vec![("x".into(), Shape::of(&[rows, dim]))];
        let mut reduced = false;
        for (i, layer) in layers.iter().enumerate() {
            if reduced {
                break;
            }
            match layer {
                Layer::MatMulReplicated => {
                    let name = format!("w{i}");
                    let w = b.parameter(&name, Shape::of(&[dim, dim]), Sharding::Replicated);
                    feeds.push((name, Shape::of(&[dim, dim])));
                    cur = b.matmul(cur, w).unwrap();
                }
                Layer::MatMulFeatureSharded => {
                    let name = format!("w{i}");
                    let w = b.parameter(&name, Shape::of(&[dim, dim]), Sharding::split(1, parts));
                    feeds.push((name, Shape::of(&[dim, dim])));
                    cur = b.matmul(cur, w).unwrap();
                }
                Layer::Relu => {
                    cur = b.relu(cur).unwrap();
                }
                Layer::AddBias => {
                    let name = format!("b{i}");
                    let shape = Shape::of(&[rows, dim]);
                    let bias = b.parameter(&name, shape.clone(), Sharding::Replicated);
                    feeds.push((name, shape));
                    cur = b.add(cur, bias).unwrap();
                }
                Layer::ReduceRows => {
                    cur = b.reduce_sum(cur, 0).unwrap();
                    reduced = true;
                }
            }
        }
        let graph = b.build(vec![cur]).unwrap();

        let comm = if naive { CommunicationOpt::Naive } else { CommunicationOpt::Optimized };
        let program = match SpmdPartitioner::with_comm_opt(parts, comm).partition(&graph) {
            Ok(p) => p,
            // Some add-bias shapes cannot follow a feature-sharded matmul
            // under certain sharding states; rejection is acceptable,
            // wrong numbers are not.
            Err(_) => return Ok(()),
        };

        let mut rng = TensorRng::seed(seed);
        let feed_map: HashMap<String, Tensor> = feeds
            .into_iter()
            .map(|(name, shape)| {
                let t = rng.uniform(shape, -1.0, 1.0);
                (name, t)
            })
            .collect();
        let reference = graph.evaluate(&feed_map).unwrap();

        let mesh = Multipod::new(MultipodConfig::mesh(parts as u32, 1, false));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let tile: Vec<ChipId> = net.mesh().chips().collect();
        let (outs, _) = program.execute(&mut net, &feed_map, &tile).unwrap();
        let assembled = program.assemble_output(0, &outs[0]).unwrap();
        prop_assert!(
            assembled.max_abs_diff(&reference[0]) < 1e-3,
            "layers={layers:?} parts={parts} naive={naive} diff={}",
            assembled.max_abs_diff(&reference[0])
        );
    }
}
