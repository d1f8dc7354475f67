//! Feature and label synthesis for the dataset analogs.

use e2gcl_linalg::{Matrix, SeedRng};

/// Draws class labels with mildly imbalanced class sizes (Zipf-ish weights),
/// mirroring the class imbalance the paper's §III-A discusses.
pub fn imbalanced_labels(n: usize, num_classes: usize, rng: &mut SeedRng) -> Vec<usize> {
    assert!(num_classes >= 1);
    let weights: Vec<f32> = (0..num_classes)
        .map(|c| 1.0 / (1.0 + c as f32).powf(0.6))
        .collect();
    let total = SeedRng::weight_total(&weights);
    let mut labels: Vec<usize> = (0..n)
        .map(|_| rng.weighted_index_with_total(&weights, total))
        .collect();
    // Guarantee every class is inhabited so downstream stratification works.
    for (c, label) in labels.iter_mut().enumerate().take(num_classes.min(n)) {
        *label = c;
    }
    rng.shuffle(&mut labels);
    labels
}

/// Generates sparse binary class-correlated features.
///
/// The feature space is partitioned into one anchor block per class plus a
/// shared background. A node turns each bit of an anchor block on with
/// probability `signal`, and any other bit on with probability `noise`.
/// This mimics bag-of-words citation features: class-specific vocabulary on
/// a noisy common base, and gives the view generator's feature-importance
/// score (§IV-C2) something real to detect.
///
/// `mismatch` is the fraction of nodes whose anchor block is drawn from a
/// *random other class*. Real-world features are informative but far from
/// linearly separable (the paper's MLP scores ~57% on Cora while GCN scores
/// ~82%); mismatched nodes are exactly the ones only neighbourhood
/// aggregation can fix, which reproduces that gap.
pub fn class_features(
    labels: &[usize],
    num_classes: usize,
    dim: usize,
    signal: f32,
    noise: f32,
    mismatch: f32,
    rng: &mut SeedRng,
) -> Matrix {
    assert!(dim >= num_classes, "need at least one anchor dim per class");
    // The last block is pure background; anchor_block() derives the layout.
    let mut x = Matrix::zeros(labels.len(), dim);
    for (v, &c) in labels.iter().enumerate() {
        let anchor_class = if num_classes > 2 && rng.bernoulli(mismatch) {
            // Mismatches go to ring-adjacent classes (consistent with the
            // structural confusion of the DC-SBM generator).
            if rng.bernoulli(0.5) {
                (c + 1) % num_classes
            } else {
                (c + num_classes - 1) % num_classes
            }
        } else if num_classes == 2 && rng.bernoulli(mismatch) {
            1 - c
        } else {
            c
        };
        let (lo, hi) = anchor_block(num_classes, dim, anchor_class);
        let row = x.row_mut(v);
        for (i, cell) in row.iter_mut().enumerate() {
            let p = if i >= lo && i < hi { signal } else { noise };
            if rng.bernoulli(p) {
                *cell = 1.0;
            }
        }
    }
    x
}

/// Anchor block of a class in the feature layout produced by
/// [`class_features`]: the half-open dim range `[lo, hi)`.
pub fn anchor_block(num_classes: usize, dim: usize, class: usize) -> (usize, usize) {
    let block = dim / (num_classes + 1);
    (class * block, class * block + block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_cover_all_classes() {
        let mut rng = SeedRng::new(1);
        let labels = imbalanced_labels(100, 7, &mut rng);
        assert_eq!(labels.len(), 100);
        for c in 0..7 {
            assert!(labels.contains(&c), "class {c} missing");
        }
    }

    #[test]
    fn labels_are_imbalanced() {
        let mut rng = SeedRng::new(2);
        let labels = imbalanced_labels(5000, 5, &mut rng);
        let mut counts = vec![0usize; 5];
        for &c in &labels {
            counts[c] += 1;
        }
        assert!(counts[0] > counts[4], "class 0 should dominate: {counts:?}");
    }

    #[test]
    fn features_binary_and_class_correlated() {
        let mut rng = SeedRng::new(3);
        let labels: Vec<usize> = (0..200).map(|v| v % 4).collect();
        let x = class_features(&labels, 4, 100, 0.5, 0.01, 0.0, &mut rng);
        assert!(x.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
        // Anchor-block density must far exceed background density.
        let (lo, hi) = anchor_block(4, 100, 0);
        let mut on_anchor = 0.0;
        let mut on_other = 0.0;
        let mut n_anchor = 0.0;
        let mut n_other = 0.0;
        for (v, &c) in labels.iter().enumerate() {
            if c != 0 {
                continue;
            }
            for (i, &f) in x.row(v).iter().enumerate() {
                if i >= lo && i < hi {
                    on_anchor += f;
                    n_anchor += 1.0;
                } else {
                    on_other += f;
                    n_other += 1.0;
                }
            }
        }
        let anchor_density = on_anchor / n_anchor;
        let other_density = on_other / n_other;
        assert!(
            anchor_density > 10.0 * other_density,
            "{anchor_density} vs {other_density}"
        );
    }

    #[test]
    fn anchor_blocks_disjoint() {
        let k = 6;
        let dim = 120;
        for c1 in 0..k {
            for c2 in (c1 + 1)..k {
                let (a_lo, a_hi) = anchor_block(k, dim, c1);
                let (b_lo, b_hi) = anchor_block(k, dim, c2);
                assert!(a_hi <= b_lo || b_hi <= a_lo);
            }
        }
    }
}
