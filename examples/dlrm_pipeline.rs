//! A miniature DLRM training + evaluation pipeline (§4.6) built from the
//! real substrates: partitioned embedding tables with distributed lookups
//! on the simulated mesh, the masked feature self-interaction, on-device
//! eval accumulation, and the multithreaded AUC.
//!
//! ```sh
//! cargo run --example dlrm_pipeline
//! ```

use multipod::metrics::auc::auc_fast;
use multipod::simnet::{Network, NetworkConfig, SimTime};
use multipod::tensor::{Tensor, TensorRng};
use multipod::topology::{Multipod, MultipodConfig};
use multipod_embedding::{
    masked_self_interaction, EmbeddingSpec, EvalAccumulator, Placement, ShardedEmbedding,
};

fn main() {
    // A 16-chip slice with a mix of small (replicated) and large
    // (partitioned) tables.
    let mesh = Multipod::new(MultipodConfig::mesh(4, 4, true));
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    let specs = vec![
        EmbeddingSpec { rows: 64, dim: 4 },
        EmbeddingSpec { rows: 64, dim: 4 },
        EmbeddingSpec {
            rows: 100_000,
            dim: 4,
        },
        EmbeddingSpec {
            rows: 200_000,
            dim: 4,
        },
    ];
    let placement = Placement::plan(&specs, 16, 4 * 1024);
    println!("placement:");
    for (t, s) in specs.iter().enumerate() {
        println!(
            "  table {t}: {} rows -> {}",
            s.rows,
            if placement.is_replicated(t) {
                "replicated"
            } else {
                "row-partitioned"
            }
        );
    }
    println!(
        "per-chip storage: {:.1} MiB (fully replicated would be {:.1} MiB)",
        placement.bytes_per_chip() as f64 / (1 << 20) as f64,
        placement.bytes_fully_replicated() as f64 / (1 << 20) as f64,
    );

    let mut emb = ShardedEmbedding::init(placement, 42).expect("placement dims agree");
    let mut rng = TensorRng::seed(7);

    // Synthetic pCTR task: the label depends on a hidden weighting of the
    // (table 0, table 1) ids, so learning is possible.
    let make_batch = |rng: &mut TensorRng, n: usize| -> (Vec<Vec<usize>>, Vec<bool>) {
        let mut idx = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.index(64);
            let b = rng.index(64);
            idx.push(vec![a, b, rng.index(100_000), rng.index(200_000)]);
            // Clicks depend on each id's marginal propensity, so the
            // linear-over-embeddings surrogate can learn it.
            labels.push(a.is_multiple_of(3) || b.is_multiple_of(5));
        }
        (idx, labels)
    };

    // Train the embeddings with a logistic surrogate: the model's score
    // is the mean of all embedding entries plus the pairwise interactions.
    let score = |feats: &Tensor, sample: usize, width: usize| -> f32 {
        feats.data()[sample * width..(sample + 1) * width]
            .iter()
            .sum::<f32>()
    };
    let mut comm_time = 0.0f64;
    for step in 0..300 {
        let (idx, labels) = make_batch(&mut rng, 64);
        let out = emb.lookup(&mut net, &idx, SimTime::ZERO).unwrap();
        comm_time += out.time.seconds();
        net.reset();
        let width = out.embeddings.shape().dim(1);
        // dL/d(embedding entry) for logistic loss with the sum score.
        let grads: Vec<f32> = (0..64)
            .flat_map(|s| {
                let z = score(&out.embeddings, s, width);
                let p = 1.0 / (1.0 + (-z).exp());
                let g = p - if labels[s] { 1.0 } else { 0.0 };
                std::iter::repeat_n(g, width)
            })
            .collect();
        let g = Tensor::new(out.embeddings.shape().clone(), grads);
        emb.scatter_update(&idx, &g, 0.1)
            .expect("gradient shape matches");
        if step % 100 == 99 {
            println!(
                "step {:>3}: cumulative lookup comm {:.1} µs",
                step + 1,
                1e6 * comm_time
            );
        }
    }

    // Evaluate with on-device accumulation (one host transfer for the
    // whole eval, §4.6) and the fast AUC.
    let mut acc = EvalAccumulator::new();
    for _ in 0..32 {
        let (idx, labels) = make_batch(&mut rng, 128);
        let out = emb.lookup(&mut net, &idx, SimTime::ZERO).unwrap();
        net.reset();
        let width = out.embeddings.shape().dim(1);
        let preds: Vec<f32> = (0..128).map(|s| score(&out.embeddings, s, width)).collect();
        // Exercise the interaction layer too (its masked layout feeds the
        // top MLP in the full model).
        let _ = masked_self_interaction(&out.embeddings, 4).expect("width divides dim");
        acc.accumulate(&preds, &labels)
            .expect("one label per prediction");
    }
    let (preds, labels) = acc.drain_to_host();
    println!(
        "eval: {} samples accumulated on device, {} host transfer(s)",
        preds.len(),
        acc.host_transfers()
    );
    let auc = auc_fast(&preds, &labels, 8);
    println!("AUC after training: {auc:.4} (random = 0.5)");
    assert!(auc > 0.65, "the toy model must learn: AUC={auc}");
}
