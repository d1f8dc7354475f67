//! Durable, resumable training checkpoints.
//!
//! A [`TrainCheckpoint`] is everything the [`crate::engine::EpochDriver`]
//! needs to continue an interrupted run **bitwise identically**: the next
//! epoch to execute, the guard's numeric state, the recorded loss curve and
//! embedding snapshots, and the model step's mutable cross-epoch state
//! ([`StepState`]: parameter/optimiser matrices plus exact RNG stream
//! positions). Everything *immutable* over epochs — the dataset, the node
//! selection, the view generator, the initial weights — is deliberately
//! not stored: it is reconstructed deterministically by re-running the
//! model's setup under the same master seed, then overwritten from the
//! checkpoint. That keeps checkpoints small (optimiser state + weights,
//! not the whole training context) and makes config drift detectable.
//!
//! # On-disk layout (version 1)
//!
//! A [`crate::durable`] container with magic `b"E2GCLCKP"` (frame layout in
//! DESIGN.md, "One durable container"). Payload, in order (integers LE,
//! floats as IEEE-754 bit patterns): `next_epoch` u64 · config fingerprint
//! u64 · guard state · loss curve · embedding snapshots · step state.
//! Files are written through [`crate::durable::atomic_write`], so a crash
//! never leaves a torn checkpoint at the destination path; a corrupt file
//! found on load is quarantined (renamed `*.corrupt`) with a typed
//! [`TrainError::Checkpoint`].

use crate::config::TrainConfig;
use crate::durable::{self, fnv1a64, put_matrix, DurableError, Reader};
use crate::guard::GuardState;
use e2gcl_linalg::rng::RngState;
use e2gcl_linalg::{Matrix, SeedRng, TrainError};
use e2gcl_nn::Adam;
use std::path::Path;

/// Leading 8 bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"E2GCLCKP";
/// Current checkpoint format version.
pub const VERSION: u32 = 1;

/// A model step's mutable cross-epoch state, as generic containers.
///
/// Each model defines its own layout (the order of `matrices`, the meaning
/// of `scalars`) — a checkpoint is only ever restored into the same model
/// under the same config, which the config fingerprint enforces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepState {
    /// Parameter and optimiser-moment matrices.
    pub matrices: Vec<Matrix>,
    /// Exact RNG stream positions (e.g. the training RNG).
    pub rngs: Vec<RngState>,
    /// Scalar state (step counts, layout markers), as f64.
    pub scalars: Vec<f64>,
}

/// The canonical layout of [`StepState`] for an encoder trainer: encoder
/// parameters, optional extra parameter matrices (e.g. a projection head),
/// Adam state and the training RNG — unpacked back into typed pieces.
#[derive(Debug)]
pub struct TrainerState {
    /// Primary (Adam-trained) parameter matrices.
    pub params: Vec<Matrix>,
    /// Extra parameter matrices outside the Adam group.
    pub extra: Vec<Matrix>,
    /// Adam step count.
    pub adam_t: u32,
    /// Adam first moments (empty before the first step).
    pub adam_m: Vec<Matrix>,
    /// Adam second moments (paired with `adam_m`).
    pub adam_v: Vec<Matrix>,
    /// Restored training RNG, positioned exactly where the producing run's
    /// was.
    pub rng: SeedRng,
}

impl StepState {
    /// Packs the canonical encoder-trainer layout (see [`TrainerState`]).
    pub fn pack_trainer(
        params: &[Matrix],
        extra: &[Matrix],
        opt: &Adam,
        rng: &SeedRng,
    ) -> StepState {
        let (t, m, v) = opt.state();
        let mut matrices = Vec::with_capacity(params.len() + extra.len() + m.len() + v.len());
        matrices.extend(params.iter().cloned());
        matrices.extend(extra.iter().cloned());
        matrices.extend(m.iter().cloned());
        matrices.extend(v.iter().cloned());
        StepState {
            matrices,
            rngs: vec![rng.state()],
            scalars: vec![
                f64::from(t),
                params.len() as f64,
                extra.len() as f64,
                m.len() as f64,
            ],
        }
    }

    /// Inverse of [`StepState::pack_trainer`]. `n_params` / `n_extra` are
    /// the counts the restoring model expects; any mismatch (a checkpoint
    /// from a different architecture) is a typed error, not a panic.
    pub fn unpack_trainer(
        &self,
        n_params: usize,
        n_extra: usize,
    ) -> Result<TrainerState, TrainError> {
        let fail = |msg: String| Err(TrainError::Checkpoint(msg));
        if self.scalars.len() != 4 || self.rngs.len() != 1 {
            return fail(format!(
                "trainer state expects 4 scalars and 1 rng, found {} and {}",
                self.scalars.len(),
                self.rngs.len()
            ));
        }
        let t = self.scalars[0] as u32;
        let (sp, se, sm) = (
            self.scalars[1] as usize,
            self.scalars[2] as usize,
            self.scalars[3] as usize,
        );
        if sp != n_params || se != n_extra {
            return fail(format!(
                "trainer state has {sp} params / {se} extra, model expects {n_params} / {n_extra}"
            ));
        }
        if self.matrices.len() != n_params + n_extra + 2 * sm {
            return fail(format!(
                "trainer state has {} matrices, layout requires {}",
                self.matrices.len(),
                n_params + n_extra + 2 * sm
            ));
        }
        if !(sm == 0 || sm == n_params) {
            return fail(format!(
                "adam moments cover {sm} matrices for {n_params} params"
            ));
        }
        let mut it = self.matrices.iter().cloned();
        let params: Vec<Matrix> = it.by_ref().take(n_params).collect();
        let extra: Vec<Matrix> = it.by_ref().take(n_extra).collect();
        let adam_m: Vec<Matrix> = it.by_ref().take(sm).collect();
        let adam_v: Vec<Matrix> = it.collect();
        Ok(TrainerState {
            params,
            extra,
            adam_t: t,
            adam_m,
            adam_v,
            rng: SeedRng::from_state(&self.rngs[0]),
        })
    }
}

/// Copies restored parameter matrices over live ones, shape-checked.
pub fn restore_params(live: &mut [Matrix], saved: &[Matrix]) -> Result<(), TrainError> {
    if live.len() != saved.len() {
        return Err(TrainError::Checkpoint(format!(
            "checkpoint has {} parameter matrices, model has {}",
            saved.len(),
            live.len()
        )));
    }
    for (p, src) in live.iter_mut().zip(saved) {
        if (p.rows(), p.cols()) != (src.rows(), src.cols()) {
            return Err(TrainError::Checkpoint(format!(
                "parameter shape mismatch: checkpoint {}x{}, model {}x{}",
                src.rows(),
                src.cols(),
                p.rows(),
                p.cols()
            )));
        }
        *p = src.clone();
    }
    Ok(())
}

/// One resumable training checkpoint (see module docs for the format).
#[derive(Clone, Debug, PartialEq)]
pub struct TrainCheckpoint {
    /// The next epoch the driver should execute.
    pub next_epoch: usize,
    /// [`config_fingerprint`] of the producing run's `TrainConfig`.
    pub cfg_hash: u64,
    /// Numeric-guard state at the checkpoint.
    pub guard: GuardState,
    /// Loss curve recorded so far.
    pub loss_curve: Vec<f32>,
    /// `(seconds, embeddings)` snapshots recorded so far.
    pub snapshots: Vec<(f64, Matrix)>,
    /// The model step's mutable state.
    pub step: StepState,
}

/// Fingerprint of the parts of a `TrainConfig` that must match between the
/// producing and resuming run. Two blocks are excluded on purpose: the
/// `durable` block (the resuming run flips `resume`, and may relocate the
/// file, without changing the trajectory) and the `fault` plan (crash-safety
/// tests interrupt a run *with* an injected fault and resume it without
/// one — the already-trained epochs are identical either way).
pub fn config_fingerprint(cfg: &TrainConfig) -> u64 {
    let mut stripped = cfg.clone();
    stripped.durable = None;
    stripped.fault = None;
    let json = serde_json::to_string(&stripped).unwrap_or_default();
    fnv1a64(json.as_bytes())
}

impl TrainCheckpoint {
    /// Serialises to the version-1 byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        p.extend_from_slice(&(self.next_epoch as u64).to_le_bytes());
        p.extend_from_slice(&self.cfg_hash.to_le_bytes());
        // Guard state.
        p.push(self.guard.baseline.is_some() as u8);
        p.extend_from_slice(&self.guard.baseline.unwrap_or(0.0).to_bits().to_le_bytes());
        p.extend_from_slice(&(self.guard.consecutive_failures as u64).to_le_bytes());
        p.extend_from_slice(&self.guard.lr_scale.to_bits().to_le_bytes());
        p.extend_from_slice(&(self.guard.skipped_epochs.len() as u32).to_le_bytes());
        for &e in &self.guard.skipped_epochs {
            p.extend_from_slice(&(e as u64).to_le_bytes());
        }
        // Loss curve.
        p.extend_from_slice(&(self.loss_curve.len() as u32).to_le_bytes());
        for &l in &self.loss_curve {
            p.extend_from_slice(&l.to_bits().to_le_bytes());
        }
        // Embedding snapshots.
        p.extend_from_slice(&(self.snapshots.len() as u32).to_le_bytes());
        for (secs, m) in &self.snapshots {
            p.extend_from_slice(&secs.to_bits().to_le_bytes());
            put_matrix(&mut p, m);
        }
        // Step state.
        p.extend_from_slice(&(self.step.matrices.len() as u32).to_le_bytes());
        for m in &self.step.matrices {
            put_matrix(&mut p, m);
        }
        p.extend_from_slice(&(self.step.rngs.len() as u32).to_le_bytes());
        for r in &self.step.rngs {
            p.extend_from_slice(&r.to_bytes());
        }
        p.extend_from_slice(&(self.step.scalars.len() as u32).to_le_bytes());
        for &s in &self.step.scalars {
            p.extend_from_slice(&s.to_bits().to_le_bytes());
        }
        durable::seal(MAGIC, VERSION, &p)
    }

    /// Parses a checkpoint, verifying magic, version, length and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainCheckpoint, DurableError> {
        let mut cur = Reader::new(durable::open(bytes, MAGIC, VERSION)?);
        let next_epoch = cur.take_u64()? as usize;
        let cfg_hash = cur.take_u64()?;
        let has_baseline = cur.take_u8()? != 0;
        let baseline_bits = cur.take_u32()?;
        let guard = GuardState {
            baseline: has_baseline.then(|| f32::from_bits(baseline_bits)),
            consecutive_failures: cur.take_u64()? as usize,
            lr_scale: f32::from_bits(cur.take_u32()?),
            skipped_epochs: cur.take_list(8, |r| Ok(r.take_u64()? as usize))?,
        };
        let loss_curve = cur.take_list(4, |r| Ok(f32::from_bits(r.take_u32()?)))?;
        let snapshots = cur.take_list(16, |r| {
            Ok((f64::from_bits(r.take_u64()?), r.take_matrix()?))
        })?;
        let matrices = cur.take_list(8, Reader::take_matrix)?;
        let rngs = cur.take_list(44, |r| {
            RngState::from_bytes(r.take(44)?)
                .ok_or_else(|| DurableError::Corrupt("malformed rng state".into()))
        })?;
        let scalars = cur.take_list(8, |r| Ok(f64::from_bits(r.take_u64()?)))?;
        cur.finish()?;
        Ok(TrainCheckpoint {
            next_epoch,
            cfg_hash,
            guard,
            loss_curve,
            snapshots,
            step: StepState {
                matrices,
                rngs,
                scalars,
            },
        })
    }

    /// Writes the checkpoint durably ([`durable::atomic_write`]): the path
    /// never holds a torn file, even across a crash mid-save.
    pub fn save_durable(&self, path: &Path) -> Result<(), TrainError> {
        durable::save(path, &self.to_bytes()).map_err(|e| TrainError::Checkpoint(e.to_string()))
    }

    /// Reads and parses a checkpoint through [`durable::load`]: a file that
    /// exists but fails to parse is quarantined (renamed `*.corrupt`) and
    /// the returned error names both the cause and the quarantine location.
    pub fn load_durable(path: &Path) -> Result<TrainCheckpoint, TrainError> {
        durable::load(path, Self::from_bytes)
            .map_err(|e| TrainError::Checkpoint(format!("{}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_linalg::SeedRng;

    fn sample() -> TrainCheckpoint {
        let mut rng = SeedRng::new(5);
        rng.uniform();
        let mut m = Matrix::zeros(3, 2);
        for v in m.as_mut_slice() {
            *v = rng.normal();
        }
        TrainCheckpoint {
            next_epoch: 7,
            cfg_hash: config_fingerprint(&TrainConfig::default()),
            guard: GuardState {
                baseline: Some(1.25),
                consecutive_failures: 1,
                lr_scale: 0.5,
                skipped_epochs: vec![2, 4],
            },
            loss_curve: vec![1.5, 1.2, f32::NAN, 0.9],
            snapshots: vec![(0.25, m.clone())],
            step: StepState {
                matrices: vec![m, Matrix::filled(2, 2, -0.5)],
                rngs: vec![rng.state()],
                scalars: vec![3.0, 2.0],
            },
        }
    }

    #[test]
    fn round_trips_bitwise() {
        let a = sample();
        let bytes = a.to_bytes();
        let b = TrainCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(a.next_epoch, b.next_epoch);
        assert_eq!(a.cfg_hash, b.cfg_hash);
        assert_eq!(a.guard.skipped_epochs, b.guard.skipped_epochs);
        assert_eq!(a.step.rngs, b.step.rngs);
        assert_eq!(a.step.matrices, b.step.matrices);
        // NaN losses survive as the same bit pattern.
        assert_eq!(a.loss_curve[2].to_bits(), b.loss_curve[2].to_bits());
        assert_eq!(bytes, b.to_bytes());
    }

    #[test]
    fn save_load_durable_round_trips() {
        let path = std::env::temp_dir().join("e2gcl_ckpt_unit.bin");
        let a = sample();
        a.save_durable(&path).unwrap();
        let b = TrainCheckpoint::load_durable(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn torn_checkpoint_is_quarantined_on_load() {
        let path = std::env::temp_dir().join("e2gcl_ckpt_torn.bin");
        let bytes = sample().to_bytes();
        crate::durable::write_torn(&path, &bytes, bytes.len() / 2).unwrap();
        let err = TrainCheckpoint::load_durable(&path).unwrap_err();
        assert!(matches!(err, TrainError::Checkpoint(_)));
        assert!(err.to_string().contains("quarantined"), "{err}");
        assert!(!path.exists(), "torn file must be moved aside");
        let q = std::env::temp_dir().join("e2gcl_ckpt_torn.bin.corrupt");
        assert!(q.exists());
        let _ = std::fs::remove_file(&q);
    }

    #[test]
    fn missing_checkpoint_is_a_typed_error() {
        let err = TrainCheckpoint::load_durable(Path::new("/nonexistent/ckpt.bin")).unwrap_err();
        assert!(matches!(err, TrainError::Checkpoint(_)));
    }

    #[test]
    fn config_fingerprint_ignores_durable_block() {
        use crate::config::DurableConfig;
        let base = TrainConfig::default();
        let mut with_durable = base.clone();
        with_durable.durable = Some(DurableConfig {
            path: "/tmp/ckpt.bin".into(),
            every_epochs: 2,
            resume: true,
        });
        assert_eq!(config_fingerprint(&base), config_fingerprint(&with_durable));
        let mut other = base.clone();
        other.epochs += 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other));
    }
}
