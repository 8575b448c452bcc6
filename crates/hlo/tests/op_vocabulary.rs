//! One graph holding every [`OpKind`], through every path that consumes
//! a kind: the reference interpreter, the optimized partition rules, and
//! the single "replicate the operands, emit the same kind" path that is
//! all of `CommunicationOpt::Naive`.

use std::collections::{BTreeSet, HashMap};

use multipod_hlo::{CommunicationOpt, HloBuilder, HloGraph, Op, Sharding, SpmdPartitioner};
use multipod_simnet::{Network, NetworkConfig};
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::{ChipId, Multipod, MultipodConfig};

const COMM_OPTS: [CommunicationOpt; 2] = [CommunicationOpt::Optimized, CommunicationOpt::Naive];

/// The nine forward kinds and the five a backward pass emits, over a
/// batch-split activation, a height-split image and replicated weights.
fn every_kind(parts: usize) -> (HloGraph, HashMap<String, Tensor>) {
    let mut b = HloBuilder::new();
    let x = b.parameter("x", Shape::of(&[4, 6]), Sharding::split(0, parts));
    let w = b.parameter("w", Shape::of(&[6, 4]), Sharding::Replicated);
    let img = b.parameter("img", Shape::of(&[8, 6]), Sharding::split(0, parts));
    let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
    let table = b.parameter("table", Shape::of(&[8, 6]), Sharding::Replicated);
    let idx = b.parameter("idx", Shape::of(&[4]), Sharding::Replicated);

    let xw = b.matmul(x, w).unwrap(); // [4×4], rows split
    let act = b.relu(xw).unwrap();
    let xwt = b.transpose(xw).unwrap(); // [4×4], columns split
    let sum = b.add(act, xwt).unwrap(); // disagreeing shardings: reshard
    let sq = b.mul(sum, sum).unwrap();
    let col = b.reduce_sum(sq, 0).unwrap(); // over the split axis: all-reduce
    let top = b.top_k(col, 2).unwrap();
    let conv = b.conv2d_same(img, k).unwrap(); // halo exchange
    let rows = b.gather(table, idx).unwrap(); // [4×6]

    let relu_g = b.relu_grad(xw, sq).unwrap();
    let wide = b.broadcast_axis(col, 0, 4).unwrap(); // [4×4]
    let mixed = b.add(relu_g, wide).unwrap();
    let flipped = b.rot180(k).unwrap();
    let dk = b.conv_kernel_grad(img, conv, 3, 3).unwrap();
    let kernels = b.add(flipped, dk).unwrap();
    let dtable = b.scatter_add(idx, rows, 8).unwrap();

    let graph = b.build(vec![top, mixed, kernels, dtable]).unwrap();
    let mut rng = TensorRng::seed(19);
    let feeds = [
        ("x", rng.uniform(Shape::of(&[4, 6]), -1.0, 1.0)),
        ("w", rng.uniform(Shape::of(&[6, 4]), -1.0, 1.0)),
        ("img", rng.uniform(Shape::of(&[8, 6]), -1.0, 1.0)),
        ("k", rng.uniform(Shape::of(&[3, 3]), -1.0, 1.0)),
        ("table", rng.uniform(Shape::of(&[8, 6]), -1.0, 1.0)),
        ("idx", Tensor::from_slice(&[7.0, 0.0, 3.0, 7.0])),
    ]
    .into_iter()
    .map(|(n, t)| (n.to_string(), t))
    .collect();
    (graph, feeds)
}

#[test]
fn the_graph_really_holds_all_fourteen_kinds() {
    let (graph, _) = every_kind(2);
    let kinds: BTreeSet<&str> = graph
        .node_ids()
        .filter_map(|id| match graph.op(id) {
            Op::Apply { kind, .. } => Some(kind.name()),
            _ => None,
        })
        .collect();
    assert_eq!(kinds.len(), 14, "{kinds:?}");
}

#[test]
fn every_kind_partitions_and_executes_like_the_reference() {
    let (graph, feeds) = every_kind(2);
    let reference = graph.evaluate(&feeds).unwrap();
    for opt in COMM_OPTS {
        let program = SpmdPartitioner::with_comm_opt(2, opt)
            .partition(&graph)
            .unwrap();
        let mesh = Multipod::new(MultipodConfig::mesh(2, 1, false));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let tile: Vec<ChipId> = net.mesh().chips().collect();
        let (outs, _) = program.execute(&mut net, &feeds, &tile).unwrap();
        assert_eq!(outs.len(), reference.len());
        for (o, per_core) in outs.iter().enumerate() {
            let assembled = program.assemble_output(o, per_core).unwrap();
            assert!(
                assembled.max_abs_diff(&reference[o]) < 1e-4,
                "{opt:?} output {o} diverged by {}",
                assembled.max_abs_diff(&reference[o])
            );
        }
    }
}

#[test]
fn on_one_core_the_program_costs_what_the_graph_costs() {
    // The graph and the program used to carry a FLOP table each, free to
    // drift apart; both now ask `OpKind::flops`, with global shapes and
    // per-core shapes — which on one core are the same shapes.
    let (graph, _) = every_kind(1);
    for opt in COMM_OPTS {
        let program = SpmdPartitioner::with_comm_opt(1, opt)
            .partition(&graph)
            .unwrap();
        assert_eq!(program.flops_per_core(), graph.total_flops(), "{opt:?}");
    }
    assert!(graph.total_flops() > 0);
}
