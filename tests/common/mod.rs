//! Fingerprint helpers shared by the determinism suites.
//!
//! A suite may use only part of this module (`loss_strategy_determinism`
//! keeps its own checkpoint-free `fingerprint`), so unused items are not
//! warnings here.
#![allow(dead_code)]

use e2gcl::durable::Fnv1a64;
use e2gcl::prelude::*;

/// FNV-1a (the shared [`Fnv1a64`] hasher) over a matrix's shape and the bit
/// patterns of its entries.
pub fn hash_matrix(h: &mut Fnv1a64, m: &Matrix) {
    h.write_u64(m.rows() as u64);
    h.write_u64(m.cols() as u64);
    for &v in m.as_slice() {
        h.write_f32(v);
    }
}

/// One u64 over everything numerically meaningful in a [`PretrainResult`]:
/// the loss curve, the final embeddings and every checkpoint's embeddings.
/// Wall-clock fields (timings, checkpoint timestamps) are skipped.
pub fn fingerprint(r: &PretrainResult) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_u64(r.loss_curve.len() as u64);
    for &l in &r.loss_curve {
        h.write_f32(l);
    }
    hash_matrix(&mut h, &r.embeddings);
    h.write_u64(r.checkpoints.len() as u64);
    for (_, m) in &r.checkpoints {
        hash_matrix(&mut h, m);
    }
    h.finish()
}
