//! Golden programs: what the partitioner emits, pinned.
//!
//! `golden_programs.txt` was captured at the commit *before* `Op` and
//! `ComputeOp` became one `OpKind` applied to operand ids, so it is the
//! reference that refactor (and any later one) is held to: the `Display`
//! dump of each graph and of its partitioned program — i.e. the emitted
//! instruction sequence, value numbering, per-core shapes — plus
//! `comm_stats()`, `flops_per_core()` and `compile_cost()`, byte for byte.
//!
//! On a mismatch the dump actually produced is left at
//! `target/tmp/golden_programs.actual.txt`; diff it against the golden
//! file, and copy it over only when the change is intended.

use std::fmt::Write as _;

use multipod_hlo::{
    gradients, CommunicationOpt, GatherStrategy, HloBuilder, HloGraph, MpmdPartitioner,
    PartitionedProgram, Sharding, SpmdPartitioner,
};
use multipod_tensor::{Shape, Tensor};

const COMM_OPTS: [CommunicationOpt; 2] = [CommunicationOpt::Optimized, CommunicationOpt::Naive];

/// The Transformer feed-forward block of `core::graphs` (§3.1 feature
/// sharding: `w1` split on output features, `w2` on input features).
fn transformer_ffn(parts: usize) -> HloGraph {
    let mut b = HloBuilder::new();
    let x = b.parameter("x", Shape::of(&[256, 1024]), Sharding::Replicated);
    let w1 = b.parameter("w1", Shape::of(&[1024, 4096]), Sharding::split(1, parts));
    let w2 = b.parameter("w2", Shape::of(&[4096, 1024]), Sharding::split(0, parts));
    let h = b.matmul(x, w1).unwrap();
    let h = b.relu(h).unwrap();
    let y = b.matmul(h, w2).unwrap();
    b.build(vec![y]).unwrap()
}

/// The SSD spatial convolution of `core::graphs` (image split by height).
fn spatial_conv(parts: usize) -> HloGraph {
    let mut b = HloBuilder::new();
    let img = b.parameter("img", Shape::of(&[304, 304]), Sharding::split(0, parts));
    let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
    let y = b.conv2d_same(img, k).unwrap();
    b.build(vec![y]).unwrap()
}

/// The row-partitioned gather of `tests/gather_topk.rs` (§4.5).
fn row_gather(parts: usize) -> HloGraph {
    let mut b = HloBuilder::new();
    let table = b.parameter("table", Shape::of(&[32, 4]), Sharding::split(0, parts));
    let indices = b.constant(Tensor::from_slice(&[3.0, 31.0, 0.0, 17.0, 8.0]));
    let y = b.gather(table, indices).unwrap();
    b.build(vec![y]).unwrap()
}

fn distributed_topk(parts: usize) -> HloGraph {
    let mut b = HloBuilder::new();
    let x = b.parameter("x", Shape::of(&[64]), Sharding::split(0, parts));
    let y = b.top_k(x, 5).unwrap();
    b.build(vec![y]).unwrap()
}

/// The feature-sharded MLP of `tests/partitioned_training.rs`, extended
/// with its backward pass.
fn sharded_mlp_gradients(parts: usize) -> HloGraph {
    let mut b = HloBuilder::new();
    let x = b.parameter("x", Shape::of(&[4, 8]), Sharding::Replicated);
    let w1 = b.parameter("w1", Shape::of(&[8, 16]), Sharding::split(1, parts));
    let w2 = b.parameter("w2", Shape::of(&[16, 8]), Sharding::split(0, parts));
    let target = b.parameter("target", Shape::of(&[4, 8]), Sharding::Replicated);
    let h = b.matmul(x, w1).unwrap();
    let h = b.relu(h).unwrap();
    let y = b.matmul(h, w2).unwrap();
    let neg_t = b.constant(Tensor::fill(Shape::of(&[4, 8]), -1.0));
    let minus_t = b.mul(target, neg_t).unwrap();
    let resid = b.add(y, minus_t).unwrap();
    let sq = b.mul(resid, resid).unwrap();
    let s = b.reduce_sum(sq, 0).unwrap();
    let loss = b.reduce_sum(s, 0).unwrap();
    let graph = b.build(vec![loss]).unwrap();
    gradients(&graph, loss, &[w1, w2]).unwrap().graph
}

/// The spatially partitioned conv of `tests/partitioned_training.rs`,
/// extended with its kernel gradient.
fn spatial_conv_gradients(parts: usize) -> HloGraph {
    let mut b = HloBuilder::new();
    let img = b.parameter("img", Shape::of(&[8, 6]), Sharding::split(0, parts));
    let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
    let c = b.conv2d_same(img, k).unwrap();
    let sq = b.mul(c, c).unwrap();
    let s = b.reduce_sum(sq, 0).unwrap();
    let loss = b.reduce_sum(s, 0).unwrap();
    let graph = b.build(vec![loss]).unwrap();
    gradients(&graph, loss, &[k]).unwrap().graph
}

fn section(out: &mut String, title: &str, graph: &HloGraph, program: &PartitionedProgram) {
    writeln!(out, "=== {title}").unwrap();
    writeln!(out, "{graph}").unwrap();
    writeln!(out, "total_flops: {}", graph.total_flops()).unwrap();
    writeln!(out, "{program}").unwrap();
    writeln!(out, "comm_stats: {:?}", program.comm_stats()).unwrap();
    writeln!(out, "flops_per_core: {}", program.flops_per_core()).unwrap();
    writeln!(out, "compile_cost: {}", program.compile_cost()).unwrap();
    writeln!(out).unwrap();
}

fn render() -> String {
    let mut out = String::new();
    for (name, build) in [
        ("transformer_ffn", transformer_ffn as fn(usize) -> HloGraph),
        ("spatial_conv", spatial_conv),
    ] {
        for parts in [1, 2, 4, 8] {
            for opt in COMM_OPTS {
                let graph = build(parts);
                let program = SpmdPartitioner::with_comm_opt(parts, opt)
                    .partition(&graph)
                    .unwrap();
                section(
                    &mut out,
                    &format!("{name} parts={parts} {opt:?}"),
                    &graph,
                    &program,
                );
            }
        }
    }
    for strategy in [GatherStrategy::OneHotMatMul, GatherStrategy::AllGather] {
        let graph = row_gather(4);
        let program = SpmdPartitioner::new(4)
            .with_gather_strategy(strategy)
            .partition(&graph)
            .unwrap();
        section(
            &mut out,
            &format!("row_gather parts=4 {strategy:?}"),
            &graph,
            &program,
        );
    }
    {
        let graph = distributed_topk(4);
        let program = SpmdPartitioner::new(4).partition(&graph).unwrap();
        section(&mut out, "distributed_topk parts=4", &graph, &program);
    }
    for (name, graph, parts) in [
        ("sharded_mlp_gradients", sharded_mlp_gradients(4), 4),
        ("spatial_conv_gradients", spatial_conv_gradients(2), 2),
    ] {
        for opt in COMM_OPTS {
            let program = SpmdPartitioner::with_comm_opt(parts, opt)
                .partition(&graph)
                .unwrap();
            section(
                &mut out,
                &format!("{name} parts={parts} {opt:?}"),
                &graph,
                &program,
            );
        }
    }
    {
        let graph = spatial_conv(4);
        let program = MpmdPartitioner::new(4).partition(&graph).unwrap();
        section(&mut out, "mpmd spatial_conv parts=4", &graph, &program);
    }
    out
}

#[test]
fn emitted_programs_are_pinned() {
    let got = render();
    let want = include_str!("golden_programs.txt");
    if got != want {
        let actual =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_programs.actual.txt");
        std::fs::write(&actual, &got).unwrap();
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "golden_programs.txt differs from line {} on; the dump produced is at {}",
            line + 1,
            actual.display()
        );
    }
}
