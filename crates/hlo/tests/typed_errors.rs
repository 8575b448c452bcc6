//! Outside input that used to panic inside the crate and now comes back
//! as an [`HloError`]: a tile of the wrong width, a gather / scatter-add
//! index (fed as data) past its table, a zero part count, and per-core
//! outputs that do not assemble.

use std::collections::HashMap;

use multipod_hlo::{
    CommunicationOpt, GatherStrategy, HloBuilder, HloError, HloGraph, MpmdPartitioner, Sharding,
    SpmdPartitioner,
};
use multipod_simnet::{Network, NetworkConfig};
use multipod_tensor::{Shape, Tensor, TensorError};
use multipod_topology::{ChipId, Multipod, MultipodConfig};

fn tile_net(parts: u32) -> (Network, Vec<ChipId>) {
    let mesh = Multipod::new(MultipodConfig::mesh(parts, 1, false));
    let net = Network::new(mesh, NetworkConfig::tpu_v3());
    let tile = net.mesh().chips().collect();
    (net, tile)
}

fn feeds(pairs: Vec<(&str, Tensor)>) -> HashMap<String, Tensor> {
    pairs.into_iter().map(|(n, t)| (n.to_string(), t)).collect()
}

/// `gather(table[8×2], idx[3])` and its VJP `scatter_add(idx, up, rows=8)`,
/// with the indices arriving in a feed.
fn gather_and_scatter(table: Sharding) -> HloGraph {
    let mut b = HloBuilder::new();
    let t = b.parameter("table", Shape::of(&[8, 2]), table);
    let idx = b.parameter("idx", Shape::of(&[3]), Sharding::Replicated);
    let up = b.parameter("up", Shape::of(&[3, 2]), Sharding::Replicated);
    let g = b.gather(t, idx).unwrap();
    let s = b.scatter_add(idx, up, 8).unwrap();
    b.build(vec![g, s]).unwrap()
}

fn index_feeds(indices: &[f32]) -> HashMap<String, Tensor> {
    feeds(vec![
        ("table", Tensor::fill(Shape::of(&[8, 2]), 1.0)),
        ("idx", Tensor::from_slice(indices)),
        ("up", Tensor::fill(Shape::of(&[3, 2]), 1.0)),
    ])
}

#[test]
fn a_tile_of_the_wrong_width_is_an_error() {
    let graph = gather_and_scatter(Sharding::Replicated);
    let program = SpmdPartitioner::new(2).partition(&graph).unwrap();
    let (mut net, tile) = tile_net(4);
    assert_eq!(
        program
            .execute(&mut net, &index_feeds(&[0.0, 1.0, 2.0]), &tile)
            .unwrap_err(),
        HloError::TileWidth { parts: 2, tile: 4 }
    );
    assert!(matches!(
        program.execute(&mut net, &index_feeds(&[0.0, 1.0, 2.0]), &[]),
        Err(HloError::TileWidth { parts: 2, tile: 0 })
    ));
}

#[test]
fn a_fed_index_past_the_table_is_an_error_in_the_reference_interpreter() {
    let graph = gather_and_scatter(Sharding::Replicated);
    assert!(graph.evaluate(&index_feeds(&[0.0, 7.0, 3.0])).is_ok());
    assert_eq!(
        graph.evaluate(&index_feeds(&[0.0, 8.0, 3.0])).unwrap_err(),
        HloError::IndexOutOfRange {
            op: "gather",
            index: 8,
            rows: 8
        }
    );
    // The scatter-add alone, so the gather cannot fail first.
    let mut b = HloBuilder::new();
    let idx = b.parameter("idx", Shape::of(&[3]), Sharding::Replicated);
    let up = b.parameter("up", Shape::of(&[3, 2]), Sharding::Replicated);
    let s = b.scatter_add(idx, up, 8).unwrap();
    let graph = b.build(vec![s]).unwrap();
    assert_eq!(
        graph.evaluate(&index_feeds(&[0.0, 1.0, 99.0])).unwrap_err(),
        HloError::IndexOutOfRange {
            op: "scatter_add",
            index: 99,
            rows: 8
        }
    );
}

#[test]
fn a_fed_index_past_the_table_is_an_error_in_partitioned_execution() {
    let bad = index_feeds(&[0.0, 8.0, 3.0]);
    let (mut net, tile) = tile_net(2);
    // Local gather of a replicated table, under both communication modes.
    for opt in [CommunicationOpt::Optimized, CommunicationOpt::Naive] {
        let program = SpmdPartitioner::with_comm_opt(2, opt)
            .partition(&gather_and_scatter(Sharding::Replicated))
            .unwrap();
        assert!(matches!(
            program.execute(&mut net, &bad, &tile),
            Err(HloError::IndexOutOfRange {
                index: 8,
                rows: 8,
                ..
            })
        ));
        net.reset();
    }
    // A row-partitioned table: the onehot rewrite used to answer zeros for
    // a row no core owns; it agrees with the reference now.
    for strategy in [GatherStrategy::OneHotMatMul, GatherStrategy::AllGather] {
        let program = SpmdPartitioner::new(2)
            .with_gather_strategy(strategy)
            .partition(&gather_and_scatter(Sharding::split(0, 2)))
            .unwrap();
        assert!(matches!(
            program.execute(&mut net, &bad, &tile),
            Err(HloError::IndexOutOfRange {
                op: "gather",
                index: 8,
                rows: 8
            })
        ));
        net.reset();
        assert!(program
            .execute(&mut net, &index_feeds(&[0.0, 7.0, 3.0]), &tile)
            .is_ok());
        net.reset();
    }
}

#[test]
fn mpmd_with_zero_parts_is_an_error() {
    let graph = gather_and_scatter(Sharding::Replicated);
    assert_eq!(
        MpmdPartitioner::new(0).partition(&graph).unwrap_err(),
        HloError::InvalidPartCount
    );
}

#[test]
fn outputs_that_do_not_assemble_are_errors() {
    let mut b = HloBuilder::new();
    let x = b.parameter("x", Shape::of(&[4, 2]), Sharding::split(0, 2));
    let r = b.relu(x).unwrap();
    let s = b.reduce_sum(r, 0).unwrap();
    let graph = b.build(vec![r, s]).unwrap();
    let program = SpmdPartitioner::new(2).partition(&graph).unwrap();
    let tiles = [
        Tensor::zeros(Shape::of(&[2, 2])),
        Tensor::zeros(Shape::of(&[2, 2])),
    ];
    assert_eq!(
        program.assemble_output(0, &tiles).unwrap().shape().dims(),
        &[4, 2]
    );
    assert_eq!(
        program.assemble_output(2, &tiles).unwrap_err(),
        HloError::UnknownOutput {
            index: 2,
            outputs: 2
        }
    );
    // Split output, tiles that disagree off the split axis.
    let ragged = [
        Tensor::zeros(Shape::of(&[2, 2])),
        Tensor::zeros(Shape::of(&[2, 3])),
    ];
    assert!(matches!(
        program.assemble_output(0, &ragged),
        Err(HloError::Tensor(TensorError::ShapeMismatch { .. }))
    ));
    // No tiles at all, split or replicated.
    assert!(matches!(
        program.assemble_output(0, &[]),
        Err(HloError::Tensor(_))
    ));
    assert!(matches!(
        program.assemble_output(1, &[]),
        Err(HloError::Tensor(TensorError::EmptyInput { .. }))
    ));
}
