//! Property tests for the evaluation metrics.

use multipod_metrics::auc::{auc_bruteforce, auc_exact, auc_fast, auc_naive};
use proptest::prelude::*;

fn arb_scores_labels() -> impl Strategy<Value = (Vec<f32>, Vec<bool>)> {
    prop::collection::vec((0u32..100, any::<bool>()), 4..200).prop_map(|pairs| {
        let mut scores: Vec<f32> = pairs.iter().map(|&(s, _)| s as f32 / 100.0).collect();
        let mut labels: Vec<bool> = pairs.iter().map(|&(_, l)| l).collect();
        // Guarantee both classes.
        labels[0] = true;
        labels[1] = false;
        scores[0] = 0.55;
        scores[1] = 0.45;
        (scores, labels)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All four AUC implementations agree on arbitrary (tie-heavy) inputs.
    #[test]
    fn auc_implementations_agree((scores, labels) in arb_scores_labels(), threads in 1usize..9) {
        let brute = auc_bruteforce(&scores, &labels);
        prop_assert!((auc_exact(&scores, &labels) - brute).abs() < 1e-9);
        prop_assert!((auc_naive(&scores, &labels) - brute).abs() < 1e-9);
        prop_assert!((auc_fast(&scores, &labels, threads) - brute).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&brute));
    }

    /// AUC is invariant under any strictly monotone transform of scores.
    #[test]
    fn auc_is_rank_based((scores, labels) in arb_scores_labels()) {
        let base = auc_exact(&scores, &labels);
        let transformed: Vec<f32> = scores.iter().map(|&s| s * 3.0 + 1.0).collect();
        prop_assert!((auc_exact(&transformed, &labels) - base).abs() < 1e-9);
    }
}
