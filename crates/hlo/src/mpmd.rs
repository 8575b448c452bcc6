//! The MPMD spatial-partitioner baseline.
//!
//! MLPerf v0.6 used "XLA's MPMD spatial partitioner" (§4.4), which the
//! v0.7 submission replaced with SPMD because MPMD:
//!
//! * compiles a *separate program per core*, so compile time grows
//!   linearly with the partition count ("SPMD has better scalability in
//!   compilation time"),
//! * only supports spatial/batch partitioning (no feature sharding of the
//!   contracting dimension), and
//! * cannot express the weight-update-sharding optimization under model
//!   parallelism.
//!
//! The baseline produces semantically identical programs (it reuses the
//! SPMD rewrite machinery for supported graphs) but reports those
//! scalability limits faithfully.

use crate::graph::{HloGraph, Op};
use crate::op::OpKind;
use crate::program::PartitionedProgram;
use crate::sharding::Sharding;
use crate::spmd::SpmdPartitioner;
use crate::HloError;

/// The per-core (MPMD) partitioner used in MLPerf v0.6.
#[derive(Clone, Debug)]
pub struct MpmdPartitioner {
    parts: usize,
}

impl MpmdPartitioner {
    /// A partitioner for `parts`-way spatial partitioning.
    ///
    /// A zero `parts` is rejected with a typed error by
    /// [`MpmdPartitioner::partition`] rather than panicking here.
    pub fn new(parts: usize) -> MpmdPartitioner {
        MpmdPartitioner { parts }
    }

    /// MPMD cannot express weight-update sharding with model parallelism
    /// (§4.4).
    pub fn supports_weight_update_sharding(&self) -> bool {
        false
    }

    /// Partitions `graph`, rejecting feature sharding (contracting-
    /// dimension splits), and charging compile cost proportional to the
    /// partition count.
    ///
    /// # Errors
    ///
    /// Fails for annotations MPMD cannot express and for anything the
    /// underlying rewrite rejects (a zero part count included).
    pub fn partition(&self, graph: &HloGraph) -> Result<PartitionedProgram, HloError> {
        // Feature sharding check: any matmul whose lhs is split on the
        // contracting axis or rhs split at all is out of scope for the
        // spatial partitioner.
        for id in graph.node_ids() {
            if let Op::Apply {
                kind: OpKind::MatMul,
                operands,
            } = graph.op(id)
            {
                let (lhs, rhs) = (operands[0], operands[1]);
                let lhs_sharded_contracting =
                    matches!(graph.annotation(lhs), Some(Sharding::Split { axis: 1, .. }));
                let rhs_sharded = matches!(graph.annotation(rhs), Some(Sharding::Split { .. }));
                if lhs_sharded_contracting || rhs_sharded {
                    return Err(HloError::Unpartitionable {
                        node: id,
                        reason: "MPMD spatial partitioner does not support feature sharding"
                            .to_string(),
                    });
                }
            }
        }
        let mut program = SpmdPartitioner::new(self.parts).partition(graph)?;
        // MPMD compiles one program per core.
        program.compile_cost *= self.parts as u64;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HloBuilder;
    use multipod_tensor::Shape;

    fn spatial_graph() -> HloGraph {
        let mut b = HloBuilder::new();
        let img = b.parameter("img", Shape::of(&[16, 8]), Sharding::split(0, 4));
        let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
        let y = b.conv2d_same(img, k).unwrap();
        b.build(vec![y]).unwrap()
    }

    fn feature_graph() -> HloGraph {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[4, 8]), Sharding::split(1, 4));
        let w = b.parameter("w", Shape::of(&[8, 6]), Sharding::split(0, 4));
        let y = b.matmul(x, w).unwrap();
        b.build(vec![y]).unwrap()
    }

    #[test]
    fn supports_spatial_but_not_feature_sharding() {
        assert!(MpmdPartitioner::new(4).partition(&spatial_graph()).is_ok());
        assert!(matches!(
            MpmdPartitioner::new(4).partition(&feature_graph()),
            Err(HloError::Unpartitionable { .. })
        ));
        // SPMD handles both.
        assert!(SpmdPartitioner::new(4).partition(&feature_graph()).is_ok());
    }

    #[test]
    fn compile_cost_scales_with_parts() {
        let mut b = HloBuilder::new();
        let img = b.parameter("img", Shape::of(&[16, 8]), Sharding::split(0, 2));
        let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
        let y = b.conv2d_same(img, k).unwrap();
        let g2 = b.build(vec![y]).unwrap();
        let p2 = MpmdPartitioner::new(2).partition(&g2).unwrap();
        let mut b = HloBuilder::new();
        let img = b.parameter("img", Shape::of(&[16, 8]), Sharding::split(0, 8));
        let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
        let y = b.conv2d_same(img, k).unwrap();
        let g8 = b.build(vec![y]).unwrap();
        let p8 = MpmdPartitioner::new(8).partition(&g8).unwrap();
        assert_eq!(p8.compile_cost(), 4 * p2.compile_cost());
        // And SPMD's cost does not scale (checked in spmd tests).
    }

    #[test]
    fn wus_support_flags() {
        assert!(!MpmdPartitioner::new(4).supports_weight_update_sharding());
        assert!(SpmdPartitioner::new(4).supports_weight_update_sharding());
    }
}
