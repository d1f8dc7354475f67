//! Versioned, checksummed binary artifacts for trained models.
//!
//! An artifact is everything a serving process needs to answer queries
//! without retraining: run metadata (model/dataset/scale/seed), the exact
//! [`TrainConfig`], the frozen encoder weights, and the final embedding
//! matrix. Save → load round-trips **bitwise**: every `f32` is written as
//! its IEEE-754 bit pattern (little-endian), and the `TrainConfig` travels
//! as JSON through the workspace's shortest-round-trip float formatter.
//!
//! # On-disk layout (version 1)
//!
//! A [`durable`] container with magic `b"E2GCLART"` (frame layout in
//! DESIGN.md, "One durable container"). Payload, in order (all integers
//! LE, strings/bytes length-prefixed u32): `model` str · `dataset` str ·
//! `scale` f64-bits · `seed` u64 · config JSON bytes · encoder section ·
//! embeddings matrix. The encoder section is a kind tag (u8: 0 GCN, 1 SGC,
//! 2 SAGE), an aux u32 (layer count for GCN/SAGE, propagation depth `L`
//! for SGC), a matrix count u32, then each weight matrix as u32 rows · u32
//! cols · row-major f32 bits ([`durable::put_matrix`]). The embedding
//! matrix uses the same encoding.
//!
//! Every decode failure is a typed [`ArtifactError`] — corrupted, truncated
//! or wrong-version files never panic (property-tested in
//! `tests/proptests.rs`, corruption-swept in `tests/corruption.rs`).

use e2gcl::config::TrainConfig;
use e2gcl_linalg::durable::{self, put_bytes, put_matrix, Reader};
use e2gcl_linalg::Matrix;
use e2gcl_nn::{FrozenEncoder, GcnEncoder, SageEncoder, SgcEncoder};
use std::path::Path;

/// Leading 8 bytes of every artifact file.
pub const MAGIC: [u8; 8] = *b"E2GCLART";
/// Current format version.
pub const VERSION: u32 = 1;

/// Typed artifact failure — the workspace's one durable-file error.
pub use e2gcl_linalg::durable::DurableError as ArtifactError;

/// FNV-1a 64-bit hash — the container checksum artifacts are sealed with.
pub use e2gcl_linalg::durable::fnv1a64;

/// Provenance of the run that produced an artifact — enough to regenerate
/// the (deterministic, synthetic) dataset the embeddings were trained on.
#[derive(Clone, Debug, PartialEq)]
pub struct ArtifactMeta {
    /// Model name as given to the trainer (e.g. `e2gcl`, `grace`).
    pub model: String,
    /// Dataset name (e.g. `cora-sim`).
    pub dataset: String,
    /// Dataset scale factor.
    pub scale: f64,
    /// Master seed of the run.
    pub seed: u64,
}

/// A trained model, packaged for serving.
#[derive(Clone, Debug)]
pub struct Artifact {
    /// Run provenance.
    pub meta: ArtifactMeta,
    /// The exact training configuration (round-trips through JSON).
    pub config: TrainConfig,
    /// Frozen encoder weights.
    pub encoder: FrozenEncoder,
    /// Final full-graph embeddings (`n x d`).
    pub embeddings: Matrix,
}

/// Largest SGC propagation depth `L` an artifact may declare. Each hop is
/// one SpMM per inductive query over an `L`-hop ego subgraph; trained
/// models use 2, and the bound keeps a re-sealed file from asking for
/// billions.
pub const MAX_SGC_HOPS: usize = 16;

const KIND_GCN: u8 = 0;
const KIND_SGC: u8 = 1;
const KIND_SAGE: u8 = 2;

impl Artifact {
    /// Serialises to the version-1 byte format described in the module docs.
    pub fn to_bytes(&self) -> Result<Vec<u8>, ArtifactError> {
        let mut payload = Vec::new();
        put_bytes(&mut payload, self.meta.model.as_bytes());
        put_bytes(&mut payload, self.meta.dataset.as_bytes());
        payload.extend_from_slice(&self.meta.scale.to_bits().to_le_bytes());
        payload.extend_from_slice(&self.meta.seed.to_le_bytes());
        let config_json = serde_json::to_string(&self.config)
            .map_err(|e| ArtifactError::Corrupt(format!("config does not serialise: {e}")))?;
        put_bytes(&mut payload, config_json.as_bytes());
        let (kind, aux) = match &self.encoder {
            FrozenEncoder::Gcn(e) => (KIND_GCN, e.num_layers() as u32),
            FrozenEncoder::Sgc(e) => (KIND_SGC, e.layers as u32),
            FrozenEncoder::Sage(e) => (KIND_SAGE, e.num_layers() as u32),
        };
        payload.push(kind);
        payload.extend_from_slice(&aux.to_le_bytes());
        let params = self.encoder.params();
        payload.extend_from_slice(&(params.len() as u32).to_le_bytes());
        for m in params {
            put_matrix(&mut payload, m);
        }
        put_matrix(&mut payload, &self.embeddings);
        Ok(durable::seal(MAGIC, VERSION, &payload))
    }

    /// Parses an artifact, verifying magic, version, length and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
        let mut cur = Reader::new(durable::open(bytes, MAGIC, VERSION)?);
        let model = cur.take_str()?;
        let dataset = cur.take_str()?;
        let scale = f64::from_bits(cur.take_u64()?);
        let seed = cur.take_u64()?;
        let config_bytes = cur.take_bytes()?;
        let config_json = std::str::from_utf8(config_bytes)
            .map_err(|_| ArtifactError::Corrupt("config is not UTF-8".into()))?;
        let config: TrainConfig = serde_json::from_str(config_json)
            .map_err(|e| ArtifactError::Corrupt(format!("config does not parse: {e}")))?;
        let kind = cur.take_u8()?;
        let aux = cur.take_u32()? as usize;
        let params = cur.take_list(8, Reader::take_matrix)?;
        let encoder = decode_encoder(kind, aux, params)?;
        let embeddings = cur.take_matrix()?;
        cur.finish()?;
        if embeddings.cols() != encoder.output_dim() {
            return Err(ArtifactError::Corrupt(format!(
                "embedding dim {} does not match encoder output dim {}",
                embeddings.cols(),
                encoder.output_dim()
            )));
        }
        Ok(Artifact {
            meta: ArtifactMeta {
                model,
                dataset,
                scale,
                seed,
            },
            config,
            encoder,
            embeddings,
        })
    }

    /// Writes the artifact to `path` **crash-safely**
    /// ([`durable::atomic_write`]): a crash at any point leaves either the
    /// old artifact or the new one — never a torn mixture.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        durable::save(path, &self.to_bytes()?)
    }

    /// Fault-injection hook: writes only the first `keep` bytes of the
    /// serialised artifact, *non*-atomically — the on-disk state a crash
    /// mid-way through a naive `fs::write` save would leave behind. Lets
    /// crash-safety tests (and the CLI's `--fault-torn-write` flag) produce
    /// a deterministic torn artifact without actually killing a process.
    pub fn save_torn(&self, path: &Path, keep: usize) -> Result<(), ArtifactError> {
        let bytes = self.to_bytes()?;
        durable::write_torn(path, &bytes, keep)
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and parses an artifact from `path` through [`durable::load`]:
    /// a file that *reads* fine but fails to decode (torn write, bit rot,
    /// foreign bytes) is renamed to `<path>.corrupt` and reported as
    /// [`ArtifactError::Quarantined`]; pure I/O failures (missing file,
    /// permissions) stay [`ArtifactError::Io`] and move nothing.
    pub fn load(path: &Path) -> Result<Artifact, ArtifactError> {
        durable::load(path, Self::from_bytes)
    }
}

/// Rebuilds the typed encoder, validating structure first so the `nn`
/// constructors' assertions can never fire on untrusted bytes.
fn decode_encoder(
    kind: u8,
    aux: usize,
    params: Vec<Matrix>,
) -> Result<FrozenEncoder, ArtifactError> {
    match kind {
        KIND_GCN => {
            if params.is_empty() || params.len() != aux {
                return Err(ArtifactError::Corrupt(format!(
                    "gcn encoder: {} weight matrices for {aux} layers",
                    params.len()
                )));
            }
            if params.windows(2).any(|p| p[0].cols() != p[1].rows()) {
                return Err(ArtifactError::Corrupt(
                    "gcn layer shapes do not chain".into(),
                ));
            }
            Ok(FrozenEncoder::Gcn(GcnEncoder::from_weights(params)))
        }
        KIND_SGC => {
            if params.len() != 1 {
                return Err(ArtifactError::Corrupt(format!(
                    "sgc encoder: expected 1 weight matrix, got {}",
                    params.len()
                )));
            }
            if !(1..=MAX_SGC_HOPS).contains(&aux) {
                return Err(ArtifactError::Corrupt(format!(
                    "sgc encoder: depth {aux} outside 1..={MAX_SGC_HOPS}"
                )));
            }
            let mut params = params;
            let w = params.remove(0);
            Ok(FrozenEncoder::Sgc(SgcEncoder::from_parts(w, aux)))
        }
        KIND_SAGE => {
            if aux == 0 || params.len() != 2 * aux {
                return Err(ArtifactError::Corrupt(format!(
                    "sage encoder: {} weight matrices for {aux} layers",
                    params.len()
                )));
            }
            // Per layer: W_self and W_neigh share a shape, and each layer's
            // input rows are the previous layer's output cols.
            let chained = params.chunks_exact(2).enumerate().all(|(l, pair)| {
                pair[0].shape() == pair[1].shape()
                    && (l == 0 || params[2 * l - 1].cols() == pair[0].rows())
            });
            if !chained {
                return Err(ArtifactError::Corrupt(
                    "sage layer shapes do not chain".into(),
                ));
            }
            Ok(FrozenEncoder::Sage(SageEncoder::from_params(params, aux)))
        }
        other => Err(ArtifactError::Corrupt(format!(
            "unknown encoder kind tag {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2gcl_linalg::SeedRng;

    pub(crate) fn sample(kind: u8) -> Artifact {
        let mut rng = SeedRng::new(9);
        let encoder = match kind {
            KIND_GCN => FrozenEncoder::Gcn(GcnEncoder::new(&[4, 6, 3], &mut rng)),
            KIND_SGC => FrozenEncoder::Sgc(SgcEncoder::new(4, 3, 2, &mut rng)),
            _ => FrozenEncoder::Sage(SageEncoder::new(&[4, 6, 3], &mut rng)),
        };
        let mut embeddings = Matrix::zeros(7, 3);
        for v in embeddings.as_mut_slice() {
            *v = rng.normal();
        }
        Artifact {
            meta: ArtifactMeta {
                model: "e2gcl".into(),
                dataset: "cora-sim".into(),
                scale: 0.25,
                seed: 42,
            },
            config: TrainConfig::default(),
            encoder,
            embeddings,
        }
    }

    #[test]
    fn round_trip_all_encoder_kinds() {
        for kind in [KIND_GCN, KIND_SGC, KIND_SAGE] {
            let a = sample(kind);
            let bytes = a.to_bytes().unwrap();
            let b = Artifact::from_bytes(&bytes).unwrap();
            assert_eq!(a.meta, b.meta);
            assert_eq!(a.embeddings, b.embeddings);
            assert_eq!(a.encoder.params(), b.encoder.params());
            assert_eq!(a.encoder.kind(), b.encoder.kind());
            assert_eq!(a.encoder.receptive_hops(), b.encoder.receptive_hops());
            // Second serialisation is byte-identical.
            assert_eq!(bytes, b.to_bytes().unwrap());
        }
    }

    #[test]
    fn sgc_depth_is_bounded() {
        // A re-sealed SGC artifact could declare any u32 depth, and the
        // inductive path would then run that many SpMMs per query.
        let w = sample(KIND_SGC).encoder.params()[0].clone();
        for depth in [0, MAX_SGC_HOPS + 1, u32::MAX as usize] {
            let mut a = sample(KIND_SGC);
            a.encoder = FrozenEncoder::Sgc(SgcEncoder::from_parts(w.clone(), depth));
            let err = Artifact::from_bytes(&a.to_bytes().unwrap()).unwrap_err();
            assert!(matches!(err, ArtifactError::Corrupt(_)), "{depth}: {err}");
        }
        let mut a = sample(KIND_SGC);
        a.encoder = FrozenEncoder::Sgc(SgcEncoder::from_parts(w, MAX_SGC_HOPS));
        assert!(Artifact::from_bytes(&a.to_bytes().unwrap()).is_ok());
    }

    #[test]
    fn sage_layer_shapes_must_chain() {
        // A [4, 6, 3] SAGE whose layer-2 weights no longer take 6 inputs
        // used to load fine and then panic in the first matmul.
        let mut a = sample(KIND_SAGE);
        let mut params = a.encoder.params().to_vec();
        params[2] = Matrix::zeros(5, 3);
        params[3] = Matrix::zeros(5, 3);
        a.encoder = FrozenEncoder::Sage(SageEncoder::from_params(params.clone(), 2));
        let err = Artifact::from_bytes(&a.to_bytes().unwrap()).unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt(_)), "{err}");
        // Self and neighbour weights of one layer must agree in shape.
        params[2] = Matrix::zeros(6, 3);
        params[3] = Matrix::zeros(6, 2);
        a.encoder = FrozenEncoder::Sage(SageEncoder::from_params(params, 2));
        let err = Artifact::from_bytes(&a.to_bytes().unwrap()).unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt(_)), "{err}");
    }

    #[test]
    fn save_load_round_trip_on_disk() {
        let a = sample(KIND_GCN);
        let path = std::env::temp_dir().join("e2gcl_artifact_unit_test.bin");
        a.save(&path).unwrap();
        let b = Artifact::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(a.embeddings, b.embeddings);
        assert_eq!(a.to_bytes().unwrap(), b.to_bytes().unwrap());
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Artifact::load(Path::new("/nonexistent/definitely/missing.bin")).unwrap_err();
        assert!(matches!(err, ArtifactError::Io(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn save_leaves_no_temp_sibling_behind() {
        let a = sample(KIND_SGC);
        let dir = std::env::temp_dir();
        let path = dir.join("e2gcl_artifact_atomic_test.bin");
        a.save(&path).unwrap();
        let tmp = dir.join("e2gcl_artifact_atomic_test.bin.tmp");
        assert!(!tmp.exists(), "atomic save leaked its temp file");
        assert!(Artifact::load(&path).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_is_quarantined_on_load() {
        let a = sample(KIND_GCN);
        let dir = std::env::temp_dir();
        let path = dir.join("e2gcl_artifact_torn_test.bin");
        let quarantined = dir.join("e2gcl_artifact_torn_test.bin.corrupt");
        let _ = std::fs::remove_file(&quarantined);
        let full = a.to_bytes().unwrap().len();
        a.save_torn(&path, full / 2).unwrap();

        let err = Artifact::load(&path).unwrap_err();
        match &err {
            ArtifactError::Quarantined {
                quarantined_to,
                cause,
            } => {
                assert_eq!(quarantined_to, &quarantined.display().to_string());
                assert!(
                    matches!(**cause, ArtifactError::Truncated { .. }),
                    "{cause}"
                );
            }
            other => panic!("expected Quarantined, got {other}"),
        }
        // The bad file was moved aside: the original path is gone, and the
        // next load fails fast as a plain missing-file Io error.
        assert!(!path.exists());
        assert!(quarantined.exists());
        assert!(matches!(Artifact::load(&path), Err(ArtifactError::Io(_))));
        let _ = std::fs::remove_file(&quarantined);
    }
}
