//! AUC (ROC) at DLRM scale (§4.6).
//!
//! "The evaluation metric is AUC (ROC) on a dataset composed of 90M
//! samples. Popular python libraries scale poorly to this size, requiring
//! 60 seconds per metric computation … We write a custom C++
//! CLIF-wrapped implementation that relies on multithreaded sorting and
//! loop fusion to compute the metric in 2 seconds per call."
//!
//! Three implementations of the same Mann-Whitney statistic:
//!
//! * [`auc_exact`] — the clean single-threaded reference (sort + one
//!   fused pass, with proper tie handling);
//! * [`auc_naive`] — an interpreter-style baseline: boxed per-element
//!   records, multiple materialized passes — the "popular python
//!   library" stand-in;
//! * [`auc_fast`] — the paper's recipe: chunked multithreaded sort
//!   (`std::thread::scope` threads) + k-way merge + a single fused
//!   accumulation pass.

/// Exact AUC by sorting scores ascending and summing positive ranks
/// (Mann-Whitney U), with average ranks for ties.
///
/// # Panics
///
/// Panics when inputs are empty, lengths differ, or a class is missing.
pub fn auc_exact(scores: &[f32], labels: &[bool]) -> f64 {
    validate(scores, labels);
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    idx.sort_unstable_by(|&a, &b| scores[a as usize].total_cmp(&scores[b as usize]));
    auc_from_sorted(&idx, scores, labels)
}

/// AUC via an allocation-heavy multi-pass pipeline (the slow baseline).
///
/// Boxes every record, sorts through the indirection, and materializes
/// each intermediate (ranks, tie groups, positive ranks) as its own
/// vector — the access pattern of a dynamic-language implementation.
///
/// # Panics
///
/// Panics on invalid inputs (see [`auc_exact`]).
pub fn auc_naive(scores: &[f32], labels: &[bool]) -> f64 {
    validate(scores, labels);
    // Pass 1: build boxed records.
    #[allow(clippy::vec_box)]
    let mut records: Vec<Box<(f32, bool)>> = scores
        .iter()
        .zip(labels)
        .map(|(&s, &l)| Box::new((s, l)))
        .collect();
    // Pass 2: sort through the boxes.
    records.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Pass 3: materialize ranks.
    let ranks: Vec<f64> = average_ranks(&records.iter().map(|r| r.0).collect::<Vec<_>>());
    // Pass 4: collect positive ranks.
    let positive_ranks: Vec<f64> = records
        .iter()
        .zip(&ranks)
        .filter(|(r, _)| r.1)
        .map(|(_, &rank)| rank)
        .collect();
    // Pass 5: the statistic.
    let pos = positive_ranks.len() as f64;
    let neg = records.len() as f64 - pos;
    let rank_sum: f64 = positive_ranks.iter().sum();
    (rank_sum - pos * (pos + 1.0) / 2.0) / (pos * neg)
}

/// AUC via multithreaded chunk sort + k-way merge + one fused pass.
///
/// `threads` scoped worker threads sort disjoint chunks; the merged order
/// is consumed in a single pass that accumulates tie groups and the rank
/// sum without materializing intermediates (the paper's "multithreaded
/// sorting and loop fusion").
///
/// # Panics
///
/// Panics on invalid inputs or `threads == 0`.
pub fn auc_fast(scores: &[f32], labels: &[bool], threads: usize) -> f64 {
    validate(scores, labels);
    assert!(threads > 0, "need at least one thread");
    let n = scores.len();
    let chunk = n.div_ceil(threads);
    // Sort chunk index slices in parallel.
    let mut chunks: Vec<Vec<u32>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                scope.spawn(move || {
                    let mut idx: Vec<u32> = (lo as u32..hi as u32).collect();
                    idx.sort_unstable_by(|&a, &b| {
                        scores[a as usize].total_cmp(&scores[b as usize])
                    });
                    idx
                })
            })
            .collect();
        for h in handles {
            let sorted = h.join().expect("sorter thread");
            if !sorted.is_empty() {
                chunks.push(sorted);
            }
        }
    });

    // Parallel pairwise merging: log2(threads) rounds, each merging
    // chunk pairs in scoped threads.
    while chunks.len() > 1 {
        let mut next: Vec<Vec<u32>> = Vec::with_capacity(chunks.len().div_ceil(2));
        let mut pairs = chunks.into_iter();
        let mut work: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        while let Some(a) = pairs.next() {
            match pairs.next() {
                Some(b) => work.push((a, b)),
                None => next.push(a),
            }
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .into_iter()
                .map(|(a, b)| scope.spawn(move || merge_sorted(&a, &b, scores)))
                .collect();
            for h in handles {
                next.push(h.join().expect("merge thread"));
            }
        });
        chunks = next;
    }
    let merged = chunks.pop().unwrap_or_default();
    auc_from_sorted(&merged, scores, labels)
}

/// Merges two score-sorted index runs.
fn merge_sorted(a: &[u32], b: &[u32], scores: &[f32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if scores[a[i] as usize] <= scores[b[j] as usize] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Single fused pass over an ascending-score index order: accumulates
/// tie groups and the positive rank sum without intermediates.
fn auc_from_sorted(order: &[u32], scores: &[f32], labels: &[bool]) -> f64 {
    let mut pos = 0.0f64;
    let mut neg = 0.0f64;
    let mut rank_sum = 0.0f64;
    let mut i = 0usize;
    while i < order.len() {
        // Tie group [i, j).
        let mut j = i + 1;
        while j < order.len() && scores[order[j] as usize] == scores[order[i] as usize] {
            j += 1;
        }
        let avg_rank = (i + 1 + j) as f64 / 2.0; // mean of ranks i+1..=j
        for &k in &order[i..j] {
            if labels[k as usize] {
                pos += 1.0;
                rank_sum += avg_rank;
            } else {
                neg += 1.0;
            }
        }
        i = j;
    }
    (rank_sum - pos * (pos + 1.0) / 2.0) / (pos * neg)
}

fn average_ranks(sorted_scores: &[f32]) -> Vec<f64> {
    let n = sorted_scores.len();
    let mut ranks = vec![0.0f64; n];
    let mut i = 0usize;
    while i < n {
        let mut j = i + 1;
        while j < n && sorted_scores[j] == sorted_scores[i] {
            j += 1;
        }
        let avg = (i + 1 + j) as f64 / 2.0;
        for r in ranks.iter_mut().take(j).skip(i) {
            *r = avg;
        }
        i = j;
    }
    ranks
}

fn validate(scores: &[f32], labels: &[bool]) {
    assert!(!scores.is_empty(), "empty input");
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    assert!(labels.iter().any(|&l| l), "need at least one positive");
    assert!(labels.iter().any(|&l| !l), "need at least one negative");
}

/// Brute-force pairwise AUC for testing: P(score₊ > score₋) + ½P(=).
pub fn auc_bruteforce(scores: &[f32], labels: &[bool]) -> f64 {
    validate(scores, labels);
    let mut wins = 0.0f64;
    let mut pairs = 0.0f64;
    for (i, &li) in labels.iter().enumerate() {
        if !li {
            continue;
        }
        for (j, &lj) in labels.iter().enumerate() {
            if lj {
                continue;
            }
            pairs += 1.0;
            if scores[i] > scores[j] {
                wins += 1.0;
            } else if scores[i] == scores[j] {
                wins += 0.5;
            }
        }
    }
    wins / pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn synthetic(n: usize, seed: u64) -> (Vec<f32>, Vec<bool>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut scores = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let label = rng.gen_range(0.0..1.0) < 0.25;
            // Positives score higher on average; quantized to force ties.
            let base: f32 = if label { 0.6 } else { 0.4 };
            let s = (base + rng.gen_range(-0.4..0.4f32) * 1.0).clamp(0.0, 1.0);
            scores.push((s * 100.0).round() / 100.0);
            labels.push(label);
        }
        // Ensure both classes exist.
        labels[0] = true;
        labels[1] = false;
        (scores, labels)
    }

    #[test]
    fn perfect_and_random_separability() {
        let scores = vec![0.1, 0.2, 0.8, 0.9];
        let labels = vec![false, false, true, true];
        assert_eq!(auc_exact(&scores, &labels), 1.0);
        let inverted = vec![true, true, false, false];
        assert_eq!(auc_exact(&scores, &inverted), 0.0);
    }

    #[test]
    fn ties_count_half() {
        let scores = vec![0.5, 0.5];
        let labels = vec![true, false];
        assert_eq!(auc_exact(&scores, &labels), 0.5);
    }

    #[test]
    fn all_implementations_agree_with_bruteforce() {
        for seed in 0..5 {
            let (scores, labels) = synthetic(500, seed);
            let brute = auc_bruteforce(&scores, &labels);
            assert!(
                (auc_exact(&scores, &labels) - brute).abs() < 1e-9,
                "seed {seed}"
            );
            assert!(
                (auc_naive(&scores, &labels) - brute).abs() < 1e-9,
                "seed {seed}"
            );
            for threads in [1, 2, 4, 7] {
                assert!(
                    (auc_fast(&scores, &labels, threads) - brute).abs() < 1e-9,
                    "seed {seed}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn fast_handles_more_threads_than_elements() {
        let scores = vec![0.1, 0.9, 0.5];
        let labels = vec![false, true, true];
        let expect = auc_exact(&scores, &labels);
        assert_eq!(auc_fast(&scores, &labels, 16), expect);
    }

    #[test]
    fn large_input_smoke() {
        let (scores, labels) = synthetic(200_000, 9);
        let fast = auc_fast(&scores, &labels, 8);
        let exact = auc_exact(&scores, &labels);
        assert!((fast - exact).abs() < 1e-9);
        assert!(fast > 0.6 && fast < 0.9, "separable synthetic data: {fast}");
    }

    #[test]
    #[should_panic(expected = "at least one positive")]
    fn rejects_single_class() {
        auc_exact(&[0.1, 0.2], &[false, false]);
    }
}
