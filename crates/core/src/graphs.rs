//! Representative per-model HLO graphs.
//!
//! The model-parallel communication of a step (forward/backward
//! all-reduces for feature sharding, halo exchanges for spatial
//! partitioning, §3.1) is derived by actually *partitioning* a
//! representative layer of each model with the SPMD partitioner and
//! reading off its [`multipod_hlo::CommStats`] — the same mechanism the
//! paper's XLA pipeline uses, rather than hand-waved constants.
//!
//! A representative graph models one layer at one channel; the
//! [`ModelCommProfile`] scales it by layer count and channel multiplier.

use multipod_hlo::{HloBuilder, HloGraph, PartitionedProgram, Sharding, SpmdPartitioner};
use multipod_models::{ParallelismPlan, Workload};
use multipod_tensor::Shape;

/// Scaling constants that turn one representative layer into a full
/// model's per-step communication.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelCommProfile {
    /// Number of layers of the representative kind.
    pub layers: u32,
    /// Channel/head multiplier folded out of the rank-2 representative
    /// graph.
    pub channel_mult: u32,
    /// Forward + backward collective multiplier (backward re-runs the
    /// forward collectives and adds gradient-of-activation exchanges).
    pub fwd_bwd_mult: f64,
}

/// A representative layer graph plus its scaling profile.
#[derive(Debug)]
pub struct RepresentativeModel {
    /// The annotated single-layer graph.
    pub graph: HloGraph,
    /// Scale-out constants.
    pub profile: ModelCommProfile,
}

/// Builds the representative layer for a workload at a given
/// model-parallel width (`parts` cores), or `None` for pure data
/// parallelism.
///
/// # Panics
///
/// Panics when `parts` does not divide the representative dimensions
/// (all paper tile sizes — 1, 2, 4, 8 — divide them).
pub fn representative(workload: &Workload, parts: usize) -> Option<RepresentativeModel> {
    match workload.parallelism {
        ParallelismPlan::DataParallel => None,
        ParallelismPlan::FeatureSharded { .. } => Some(transformer_layer(parts, workload.name)),
        ParallelismPlan::SpatialSharded { .. } => Some(match workload.name {
            "MaskRCNN" => conv_layer(parts, 800, 1336, 52, 64),
            // SSD: 300x300 inputs (padded to a divisible 304).
            _ => conv_layer(parts, 304, 304, 34, 48),
        }),
    }
}

/// One Transformer feed-forward block with Shazeer-style feature
/// sharding: activations replicated, `W1` split on output features,
/// `W2` split on input features, partial matmul + all-reduce (§3.1).
fn transformer_layer(parts: usize, name: &str) -> RepresentativeModel {
    let tokens = 256; // per-sample sequence length
    let hidden = 1024;
    let ff = 4096;
    let mut b = HloBuilder::new();
    let x = b.parameter("x", Shape::of(&[tokens, hidden]), Sharding::Replicated);
    let w1 = b.parameter("w1", Shape::of(&[hidden, ff]), Sharding::split(1, parts));
    let w2 = b.parameter("w2", Shape::of(&[ff, hidden]), Sharding::split(0, parts));
    let h = b.matmul(x, w1).expect("w1 matmul");
    let h = b.relu(h).expect("relu");
    let y = b.matmul(h, w2).expect("w2 matmul"); // partial + all-reduce
                                                 // Invariant: `y` was just minted by this builder.
    let graph = b.build(vec![y]).expect("output id is fresh");
    let layers = if name == "Transformer" { 12 } else { 24 };
    RepresentativeModel {
        graph,
        profile: ModelCommProfile {
            layers,
            channel_mult: 1,
            fwd_bwd_mult: 3.0,
        },
    }
}

/// One spatially partitioned convolution: the image is split along its
/// height across the tile; the partitioner inserts a halo exchange.
fn conv_layer(
    parts: usize,
    height: usize,
    width: usize,
    layers: u32,
    channel_mult: u32,
) -> RepresentativeModel {
    let mut b = HloBuilder::new();
    let img = b.parameter(
        "img",
        Shape::of(&[height, width]),
        Sharding::split(0, parts),
    );
    let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
    let y = b.conv2d_same(img, k).expect("conv");
    // Invariant: `y` was just minted by this builder.
    let graph = b.build(vec![y]).expect("output id is fresh");
    RepresentativeModel {
        graph,
        profile: ModelCommProfile {
            layers,
            channel_mult,
            fwd_bwd_mult: 3.0,
        },
    }
}

impl RepresentativeModel {
    /// Partitions the representative graph over `parts` cores.
    ///
    /// # Panics
    ///
    /// Panics if the annotated graph cannot be partitioned (it always can
    /// for the paper's tile widths).
    pub fn partition(&self, parts: usize) -> PartitionedProgram {
        SpmdPartitioner::new(parts)
            .partition(&self.graph)
            .expect("representative graph partitions")
    }

    /// Per-step model-parallel bytes one core sends for one sample, and
    /// the per-step collective count on the critical path (per sample
    /// batch, not per sample: collectives batch over the replica's
    /// samples), read off one partitioned program.
    pub(crate) fn comm_per_step(&self, parts: usize) -> (f64, f64) {
        let stats = self.partition(parts).comm_stats();
        let bytes = stats.bytes_per_core as f64
            * self.profile.layers as f64
            * self.profile.channel_mult as f64
            * self.profile.fwd_bwd_mult;
        let collectives = stats.total_collectives() as f64
            * self.profile.layers as f64
            * self.profile.fwd_bwd_mult;
        (bytes, collectives)
    }

    /// Per-core compute FLOPs for one sample (through the partitioned
    /// program, so imbalance/duplication from partitioning is captured).
    pub fn flops_per_core_per_sample(&self, parts: usize) -> f64 {
        let program = self.partition(parts);
        program.flops_per_core() as f64
            * self.profile.layers as f64
            * self.profile.channel_mult as f64
            * self.profile.fwd_bwd_mult
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_models::catalog;

    #[test]
    fn data_parallel_models_have_no_representative() {
        assert!(representative(&catalog::bert(), 4).is_none());
        assert!(representative(&catalog::resnet50(), 4).is_none());
    }

    #[test]
    fn transformer_layer_all_reduces() {
        let rep = representative(&catalog::transformer(), 4).unwrap();
        let program = rep.partition(4);
        assert!(program.comm_stats().all_reduces >= 1);
        assert_eq!(program.comm_stats().halo_exchanges, 0);
    }

    #[test]
    fn spatial_models_halo_exchange() {
        for w in [catalog::ssd(), catalog::maskrcnn()] {
            let rep = representative(&w, 4).unwrap();
            let program = rep.partition(4);
            assert!(
                program.comm_stats().halo_exchanges >= 1,
                "{} should halo-exchange",
                w.name
            );
            assert_eq!(program.comm_stats().all_reduces, 0);
        }
    }

    #[test]
    fn per_core_flops_shrink_with_parts() {
        let w = catalog::ssd();
        let f1 = representative(&w, 1).unwrap().flops_per_core_per_sample(1);
        let f8 = representative(&w, 8).unwrap().flops_per_core_per_sample(8);
        let ratio = f1 / f8;
        assert!((6.0..9.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn comm_bytes_grow_with_parts_for_feature_sharding() {
        let w = catalog::transformer();
        let b2 = representative(&w, 2).unwrap().comm_per_step(2).0;
        let b4 = representative(&w, 4).unwrap().comm_per_step(4).0;
        // The all-reduced activation is the same size; ring all-reduce
        // bytes per core are ~2x payload regardless of parts, so bytes do
        // not shrink with parts (communication does not parallelize —
        // the §5 scaling limit).
        assert!(b4 >= 0.9 * b2, "b2={b2} b4={b4}");
    }

    #[test]
    fn halo_bytes_do_not_scale_with_tile_rows() {
        let w = catalog::maskrcnn();
        let rep2 = representative(&w, 2).unwrap();
        let rep4 = representative(&w, 4).unwrap();
        let b2 = rep2.comm_per_step(2).0;
        let b4 = rep4.comm_per_step(4).0;
        // Halo width is fixed by the kernel; per-core halo bytes are
        // constant in the partition count.
        assert!((b2 / b4 - 1.0).abs() < 0.05, "b2={b2} b4={b4}");
    }
}
