//! Evaluation decoders (`q_φ` in Alg. 1, line 6).
//!
//! * [`LinearProbe`] — the `l2`-regularised multinomial logistic regression
//!   the paper trains on frozen embeddings for node / graph classification;
//! * [`LinkDecoder`] — logistic scorer over the Hadamard product
//!   `h_v ⊙ h_u` for link prediction.

use crate::loss;
use crate::mlp::Linear;
use e2gcl_linalg::{ops, Matrix, SeedRng};

/// Configuration for probe training.
#[derive(Clone, Debug)]
pub struct ProbeConfig {
    /// Full-batch gradient steps.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 regularisation strength.
    pub weight_decay: f32,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            epochs: 300,
            lr: 0.5,
            weight_decay: 1e-4,
        }
    }
}

/// An `l2`-regularised linear classifier trained on frozen embeddings.
#[derive(Clone, Debug)]
pub struct LinearProbe {
    layer: Linear,
}

impl LinearProbe {
    /// Trains a probe on `(embeddings[train], labels[train])`.
    pub fn fit(
        embeddings: &Matrix,
        labels: &[usize],
        train: &[usize],
        num_classes: usize,
        config: &ProbeConfig,
        rng: &mut SeedRng,
    ) -> LinearProbe {
        assert_eq!(embeddings.rows(), labels.len());
        let x = standardized(embeddings);
        let x_train = x.select_rows(train);
        let y_train: Vec<usize> = train.iter().map(|&v| labels[v]).collect();
        let mut layer = Linear::new(x.cols(), num_classes, rng);
        for _ in 0..config.epochs {
            let (logits, cache) = layer.forward(&x_train);
            let (_, dlogits) = loss::softmax_cross_entropy(&logits, &y_train);
            let grads = layer.backward(&cache, &dlogits);
            layer.step(&grads, config.lr, config.weight_decay);
        }
        LinearProbe { layer }
    }

    /// Predicted class per row of `embeddings`.
    pub fn predict(&self, embeddings: &Matrix) -> Vec<usize> {
        let logits = self.layer.apply(&standardized(embeddings));
        (0..logits.rows())
            .map(|r| ops::argmax(logits.row(r)).unwrap_or(0))
            .collect()
    }

    /// Predicted class per row, standardising with *reference* statistics
    /// from [`standard_stats`] instead of the query matrix's own column
    /// stats. [`Self::predict`] is fine for full-matrix evaluation, but a
    /// serving query of one or a few rows has degenerate column statistics
    /// (a single row standardises to all-zeros); passing the store's stats
    /// reproduces the training-time feature scaling exactly.
    pub fn predict_with_stats(
        &self,
        embeddings: &Matrix,
        means: &[f32],
        stds: &[f32],
    ) -> Vec<usize> {
        let mut x = embeddings.clone();
        for r in 0..x.rows() {
            let row = x.row_mut(r);
            for ((v, &m), &s) in row.iter_mut().zip(means).zip(stds) {
                *v = (*v - m) / s;
            }
        }
        let logits = self.layer.apply(&x);
        (0..logits.rows())
            .map(|r| ops::argmax(logits.row(r)).unwrap_or(0))
            .collect()
    }

    /// Accuracy over the index subset `eval`.
    pub fn accuracy(&self, embeddings: &Matrix, labels: &[usize], eval: &[usize]) -> f32 {
        if eval.is_empty() {
            return 0.0;
        }
        let preds = self.predict(embeddings);
        let correct = eval.iter().filter(|&&v| preds[v] == labels[v]).count();
        correct as f32 / eval.len() as f32
    }
}

/// Per-column `(means, stds)` of `h` as used by the probe's
/// standardisation (population variance, std floored at `1e-6`). Capture
/// these once from the embedding store so serving-time queries can be
/// standardised identically via [`LinearProbe::predict_with_stats`].
pub fn standard_stats(h: &Matrix) -> (Vec<f32>, Vec<f32>) {
    let means = h.col_means();
    let mut vars = vec![0.0f32; h.cols()];
    for r in 0..h.rows() {
        for (v, (&m, x)) in vars.iter_mut().zip(means.iter().zip(h.row(r))) {
            let d = x - m;
            *v += d * d;
        }
    }
    let n = h.rows().max(1) as f32;
    let stds: Vec<f32> = vars.iter().map(|v| (v / n).sqrt().max(1e-6)).collect();
    (means, stds)
}

/// Column-standardises embeddings (zero mean, unit scale) — makes the probe
/// robust to the wildly different embedding scales the models produce.
fn standardized(h: &Matrix) -> Matrix {
    let (means, stds) = standard_stats(h);
    let mut out = h.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        for ((x, &m), &s) in row.iter_mut().zip(&means).zip(&stds) {
            *x = (*x - m) / s;
        }
    }
    out
}

/// Logistic link scorer: `p(u,v) = σ(w · (h_u ⊙ h_v) + b)`.
#[derive(Clone, Debug)]
pub struct LinkDecoder {
    layer: Linear,
}

impl LinkDecoder {
    /// Trains on positive pairs + sampled negative pairs.
    pub fn fit(
        embeddings: &Matrix,
        pos: &[(usize, usize)],
        neg: &[(usize, usize)],
        config: &ProbeConfig,
        rng: &mut SeedRng,
    ) -> LinkDecoder {
        let x = pair_features(embeddings, pos, neg);
        let mut targets = vec![1.0f32; pos.len()];
        targets.extend(std::iter::repeat_n(0.0, neg.len()));
        let mut layer = Linear::new(embeddings.cols(), 1, rng);
        for _ in 0..config.epochs {
            let (logits, cache) = layer.forward(&x);
            let (_, dl) = loss::bce_with_logits(logits.as_slice(), &targets);
            let dlogits = Matrix::from_vec(logits.rows(), 1, dl);
            let grads = layer.backward(&cache, &dlogits);
            layer.step(&grads, config.lr, config.weight_decay);
        }
        LinkDecoder { layer }
    }

    /// Link logits for the given pairs.
    pub fn score(&self, embeddings: &Matrix, pairs: &[(usize, usize)]) -> Vec<f32> {
        let x = pair_features(embeddings, pairs, &[]);
        self.layer.apply(&x).into_vec()
    }

    /// Classification accuracy at threshold 0 (balanced pos/neg).
    pub fn accuracy(
        &self,
        embeddings: &Matrix,
        pos: &[(usize, usize)],
        neg: &[(usize, usize)],
    ) -> f32 {
        let ps = self.score(embeddings, pos);
        let ns = self.score(embeddings, neg);
        let correct =
            ps.iter().filter(|&&s| s > 0.0).count() + ns.iter().filter(|&&s| s <= 0.0).count();
        let total = ps.len() + ns.len();
        if total == 0 {
            0.0
        } else {
            correct as f32 / total as f32
        }
    }
}

/// Hadamard-product pair features, positives first.
fn pair_features(h: &Matrix, pos: &[(usize, usize)], neg: &[(usize, usize)]) -> Matrix {
    let d = h.cols();
    let mut out = Matrix::zeros(pos.len() + neg.len(), d);
    for (i, &(u, v)) in pos.iter().chain(neg).enumerate() {
        let row = out.row_mut(i);
        for ((o, &a), &b) in row.iter_mut().zip(h.row(u)).zip(h.row(v)) {
            *o = a * b;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian blobs are linearly separable.
    #[test]
    fn probe_separates_blobs() {
        let mut rng = SeedRng::new(0);
        let n = 100;
        let mut h = Matrix::zeros(n, 4);
        let mut labels = vec![0usize; n];
        for (v, label) in labels.iter_mut().enumerate() {
            let c = v % 2;
            *label = c;
            let center = if c == 0 { 2.0 } else { -2.0 };
            for x in h.row_mut(v) {
                *x = center + 0.3 * rng.normal();
            }
        }
        let train: Vec<usize> = (0..50).collect();
        let test: Vec<usize> = (50..100).collect();
        let probe = LinearProbe::fit(&h, &labels, &train, 2, &ProbeConfig::default(), &mut rng);
        let acc = probe.accuracy(&h, &labels, &test);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn probe_chance_level_on_random_labels() {
        let mut rng = SeedRng::new(1);
        let n = 200;
        let mut h = Matrix::zeros(n, 4);
        for x in h.as_mut_slice() {
            *x = rng.normal();
        }
        let labels: Vec<usize> = (0..n).map(|_| rng.below(4)).collect();
        let train: Vec<usize> = (0..100).collect();
        let test: Vec<usize> = (100..200).collect();
        let probe = LinearProbe::fit(&h, &labels, &train, 4, &ProbeConfig::default(), &mut rng);
        let acc = probe.accuracy(&h, &labels, &test);
        assert!(acc < 0.5, "random labels should not be learnable: {acc}");
    }

    /// Serving path: one-row queries standardised with the store's stats
    /// must agree with the full-matrix `predict` — per-query stats would be
    /// degenerate (a single row standardises to all-zeros).
    #[test]
    fn predict_with_stats_matches_full_matrix_predict() {
        let mut rng = SeedRng::new(3);
        let n = 60;
        let mut h = Matrix::zeros(n, 4);
        let mut labels = vec![0usize; n];
        for (v, label) in labels.iter_mut().enumerate() {
            let c = v % 3;
            *label = c;
            for (i, x) in h.row_mut(v).iter_mut().enumerate() {
                *x = if i == c { 3.0 } else { 0.0 };
                *x += 0.2 * rng.normal();
            }
        }
        let train: Vec<usize> = (0..n).collect();
        let probe = LinearProbe::fit(&h, &labels, &train, 3, &ProbeConfig::default(), &mut rng);
        let full = probe.predict(&h);
        let (means, stds) = standard_stats(&h);
        for (v, &expected) in full.iter().enumerate() {
            let one = Matrix::from_vec(1, 4, h.row(v).to_vec());
            assert_eq!(
                probe.predict_with_stats(&one, &means, &stds),
                vec![expected]
            );
        }
    }

    #[test]
    fn link_decoder_learns_blocky_embeddings() {
        // Nodes in the same block share embeddings; edges exist in-block.
        let mut rng = SeedRng::new(2);
        let n = 40;
        let mut h = Matrix::zeros(n, 8);
        for v in 0..n {
            let block = v / 20;
            for (i, x) in h.row_mut(v).iter_mut().enumerate() {
                *x = if (i / 4) == block { 1.0 } else { 0.0 };
                *x += 0.1 * rng.normal();
            }
        }
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for i in 0..20 {
            pos.push((i, (i + 1) % 20)); // in block 0
            pos.push((20 + i, 20 + (i + 1) % 20)); // in block 1
            neg.push((i, 20 + i)); // cross-block
            neg.push(((i + 5) % 20, 20 + (i + 9) % 20));
        }
        let dec = LinkDecoder::fit(&h, &pos, &neg, &ProbeConfig::default(), &mut rng);
        assert!(dec.accuracy(&h, &pos, &neg) > 0.8);
    }
}
