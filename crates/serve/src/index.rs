//! Deterministic IVF (inverted-file) approximate-NN index over an
//! [`EmbeddingStore`].
//!
//! Brute-force cosine top-k scans every stored row, so query latency grows
//! linearly with corpus size — fine at Cora scale, hopeless at the
//! million-row tier PR 7 made trainable. An IVF index makes latency scale
//! with `nprobe / nlist` of the corpus instead: a k-means **coarse
//! quantizer** partitions the rows into `nlist` inverted lists, a query
//! scores only the `nprobe` closest lists, and the surviving candidates
//! are re-ranked with the **exact** cosine kernel ([`EmbeddingStore::
//! top_k_among`]). Approximation lives solely in which lists are probed;
//! scores and tie-breaking are identical to brute force, so recall@k is
//! the only quality axis (measured, not assumed — see [`IvfIndex::
//! measure_recall`] and the ci.sh recall gate).
//!
//! # Determinism contract
//!
//! Construction is **bitwise reproducible** across runs and
//! `RAYON_NUM_THREADS` settings, extending the PR 4 kernel contract
//! (DESIGN.md §11) to index builds:
//!
//! * all randomness flows from one [`SeedRng`] seeded by
//!   [`IvfConfig::seed`], consumed in a fixed sequential order;
//! * cluster assignment uses the blocked [`Matrix::matmul_transpose`]
//!   kernel, which is bitwise thread-invariant, followed by a sequential
//!   strict-`>` argmax (ties → lowest list id);
//! * centroid updates, empty-list reseeding and inverted-list layout are
//!   sequential; node ids are ascending within every list by construction.
//!
//! `tests/index_determinism.rs` re-executes the build in subprocesses
//! under different thread counts and compares [`IvfIndex::to_bytes`]
//! fingerprints.
//!
//! # On-disk layout (version 1)
//!
//! A [`durable`] container with magic `b"E2GCLIVF"`, like model artifacts
//! (frame layout in DESIGN.md, "One durable container"). Loading a corrupt
//! file quarantines it to `<path>.corrupt`, exactly like [`crate::Artifact`].
//!
//! Payload, in order (integers LE): `store_rows` u64 · `dim` u32 ·
//! `store_checksum` u64 · `nlist` u32 · `nprobe` u32 · `train_sample` u64
//! · `kmeans_iters` u32 · `seed` u64 · centroid matrix (u32 rows · u32
//! cols · row-major f32 bits) · `nlist + 1` list offsets u64 ·
//! `store_rows` node ids u32.
//!
//! The `store_checksum` binds the index to the exact embedding matrix it
//! was built over; [`IvfIndex::matches`] rejects a drifted store before
//! it can silently serve wrong neighbours.

use crate::store::{cosine_from_dot, EmbeddingStore, Hit, TopKCollector};
use crate::{ArtifactError, ServeError};
use e2gcl_linalg::dispatch;
use e2gcl_linalg::durable::{self, Reader};
use e2gcl_linalg::{Matrix, SeedRng};
use serde::Serialize;
use std::path::Path;

/// Leading 8 bytes of every index file.
pub const INDEX_MAGIC: [u8; 8] = *b"E2GCLIVF";
/// Current index format version.
pub const INDEX_VERSION: u32 = 1;

/// Rows scored per blocked-GEMM assignment chunk. Bounds the `chunk x
/// nlist` score buffer (8192 x 2048 f32 = 64 MB worst case) without
/// affecting results: each output element's accumulation order depends
/// only on the inner dimension, never on how rows are chunked.
const ASSIGN_CHUNK: usize = 8192;

/// Build/search parameters of an IVF index. Serialized into the index
/// file, so a loaded index knows exactly how it was built.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct IvfConfig {
    /// Number of inverted lists (k-means centroids). Clamped to
    /// `[1, store_rows]` at build time.
    pub nlist: usize,
    /// Lists scanned per query. Clamped to `[1, nlist]`. Higher → better
    /// recall, linearly more re-rank work.
    pub nprobe: usize,
    /// Rows sampled (without replacement) to train the quantizer. Clamped
    /// to `[nlist, store_rows]`.
    pub train_sample: usize,
    /// Lloyd iterations of spherical k-means.
    pub kmeans_iters: usize,
    /// Master seed for sampling, initialisation and reseeding.
    pub seed: u64,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            nlist: 256,
            nprobe: 8,
            train_sample: 32_768,
            kmeans_iters: 6,
            seed: 0,
        }
    }
}

impl IvfConfig {
    /// A config scaled to a store of `rows` rows: `nlist ≈ sqrt(rows)`
    /// (clamped to `[16, 2048]`), defaults elsewhere.
    pub fn for_rows(rows: usize) -> Self {
        let nlist = ((rows as f64).sqrt() as usize)
            .clamp(16, 2048)
            .min(rows.max(1));
        Self {
            nlist,
            ..Self::default()
        }
    }
}

/// Contiguous per-list copies of the store's rows and norms, in `node_ids`
/// order, so scanning a probed list streams sequential memory instead of
/// gathering rows scattered across the store matrix (the difference
/// between ~100 µs and ~500 µs per query at a million rows). Pure
/// acceleration state: rebuilt by [`IvfIndex::pack`], never serialized,
/// and byte-for-byte the store's own row data — scores cannot differ.
#[derive(Clone, Debug)]
struct PackedRows {
    /// `node_ids.len() x dim`, row `i` is the store row `node_ids[i]`.
    rows: Vec<f32>,
    /// `node_ids.len()`, the matching precomputed L2 norms.
    norms: Vec<f32>,
}

/// A deterministically-built IVF index bound to one exact
/// [`EmbeddingStore`] snapshot.
#[derive(Clone, Debug)]
pub struct IvfIndex {
    config: IvfConfig,
    dim: usize,
    store_rows: usize,
    store_checksum: u64,
    /// `nlist x dim`, each row L2-normalised (spherical k-means).
    centroids: Matrix,
    /// `nlist + 1` prefix offsets into `node_ids`.
    list_offsets: Vec<u64>,
    /// All store rows, grouped by list, ascending node id within a list.
    node_ids: Vec<u32>,
    /// List-ordered row copies ([`PackedRows`]); `None` until packed.
    packed: Option<PackedRows>,
}

impl IvfIndex {
    /// Builds the index over `store` with `config` (clamped to the store's
    /// size — the effective values are recorded in [`Self::config`]).
    ///
    /// Deterministic: same store + same config → bitwise-identical index,
    /// independent of `RAYON_NUM_THREADS` (module docs).
    pub fn build(store: &EmbeddingStore, config: IvfConfig) -> Result<IvfIndex, ServeError> {
        let rows = store.len();
        let dim = store.dim();
        if rows == 0 || dim == 0 {
            return Err(ServeError::IndexMismatch {
                reason: "cannot build an IVF index over an empty store".into(),
            });
        }
        if rows > u32::MAX as usize {
            return Err(ServeError::IndexMismatch {
                reason: format!("store has {rows} rows; the index format caps node ids at u32"),
            });
        }
        let mut cfg = config;
        cfg.nlist = cfg.nlist.clamp(1, rows);
        cfg.nprobe = cfg.nprobe.clamp(1, cfg.nlist);
        cfg.kmeans_iters = cfg.kmeans_iters.max(1);
        cfg.train_sample = cfg.train_sample.clamp(cfg.nlist, rows);

        let mut rng = SeedRng::new(cfg.seed);

        // Training sample, ascending so the gather below is sequential.
        let sample_ids: Vec<usize> = if cfg.train_sample >= rows {
            (0..rows).collect()
        } else {
            let mut ids = rng
                .fork("ivf-sample")
                .sample_without_replacement(rows, cfg.train_sample);
            ids.sort_unstable();
            ids
        };
        let m = sample_ids.len();

        // L2-normalised training rows: spherical k-means clusters by
        // direction, matching the cosine metric the store serves.
        let mut train = Matrix::zeros(m, dim);
        for (i, &id) in sample_ids.iter().enumerate() {
            let norm = store.norms()[id];
            if norm > 0.0 {
                let dst = train.row_mut(i);
                for (d, &v) in dst.iter_mut().zip(store.embeddings().row(id)) {
                    *d = v / norm;
                }
            }
        }

        // Initial centroids: distinct training rows, picked once.
        let mut picks = rng
            .fork("ivf-init")
            .sample_without_replacement(m, cfg.nlist);
        picks.sort_unstable();
        let mut centroids = train.select_rows(&picks);
        for l in 0..cfg.nlist {
            normalize(centroids.row_mut(l));
        }

        // Lloyd iterations: thread-invariant GEMM assignment, sequential
        // accumulation and reseeding.
        let mut assign = vec![0u32; m];
        for it in 0..cfg.kmeans_iters {
            assign_chunked(&train, &centroids, &mut assign);
            let mut sums = Matrix::zeros(cfg.nlist, dim);
            let mut counts = vec![0u64; cfg.nlist];
            for (i, &a) in assign.iter().enumerate() {
                counts[a as usize] += 1;
                for (s, &v) in sums.row_mut(a as usize).iter_mut().zip(train.row(i)) {
                    *s += v;
                }
            }
            let mut reseed = rng.fork(&format!("ivf-reseed-{it}"));
            for (l, &count) in counts.iter().enumerate() {
                if count == 0 {
                    // Empty list: restart it on a random training row so no
                    // list stays dead (deterministic — sequential draws).
                    let pick = reseed.below(m);
                    let src: Vec<f32> = train.row(pick).to_vec();
                    centroids.row_mut(l).copy_from_slice(&src);
                } else {
                    let inv = 1.0 / count as f32;
                    for (c, &s) in centroids.row_mut(l).iter_mut().zip(sums.row(l)) {
                        *c = s * inv;
                    }
                }
                normalize(centroids.row_mut(l));
            }
        }

        // Final assignment over *all* rows. Raw rows are fine here: the
        // argmax of `dot(row, centroid)` over lists is invariant to the
        // row's (positive) norm, and zero rows land in list 0.
        let mut full_assign = vec![0u32; rows];
        assign_chunked(store.embeddings(), &centroids, &mut full_assign);

        // Counting-sort into inverted lists. Iterating nodes in ascending
        // order makes ids ascending within every list by construction.
        let mut list_offsets = vec![0u64; cfg.nlist + 1];
        for &a in &full_assign {
            list_offsets[a as usize + 1] += 1;
        }
        for l in 0..cfg.nlist {
            list_offsets[l + 1] += list_offsets[l];
        }
        let mut cursor: Vec<u64> = list_offsets[..cfg.nlist].to_vec();
        let mut node_ids = vec![0u32; rows];
        for (node, &a) in full_assign.iter().enumerate() {
            let c = &mut cursor[a as usize];
            node_ids[*c as usize] = node as u32;
            *c += 1;
        }

        let mut index = IvfIndex {
            config: cfg,
            dim,
            store_rows: rows,
            store_checksum: store.checksum(),
            centroids,
            list_offsets,
            node_ids,
            packed: None,
        };
        // The builder had the store in hand, so pack straight away; the
        // checksum was computed from this exact store, so this can't fail.
        index.pack(store)?;
        Ok(index)
    }

    /// The effective (clamped) build/search configuration.
    pub fn config(&self) -> IvfConfig {
        self.config
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.centroids.rows()
    }

    /// Lists scanned per query.
    pub fn nprobe(&self) -> usize {
        self.config.nprobe
    }

    /// Embedding dimensionality the index was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows in the store the index was built over.
    pub fn store_rows(&self) -> usize {
        self.store_rows
    }

    /// Re-tunes the recall/latency trade-off without rebuilding (clamped
    /// to `[1, nlist]`).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.config.nprobe = nprobe.clamp(1, self.nlist());
    }

    /// Checks that `store` is byte-for-byte the store this index was built
    /// over (row count, dimensionality, content checksum). Full-content
    /// check — call once at attach/load time, not per query.
    pub fn matches(&self, store: &EmbeddingStore) -> Result<(), ServeError> {
        if store.len() != self.store_rows || store.dim() != self.dim {
            return Err(ServeError::IndexMismatch {
                reason: format!(
                    "index built over {}x{}, store is {}x{}",
                    self.store_rows,
                    self.dim,
                    store.len(),
                    store.dim()
                ),
            });
        }
        let actual = store.checksum();
        if actual != self.store_checksum {
            return Err(ServeError::IndexMismatch {
                reason: format!(
                    "store content checksum {actual:#018x} does not match the \
                     {:#018x} the index was built over",
                    self.store_checksum
                ),
            });
        }
        Ok(())
    }

    /// Builds the `PackedRows` scan acceleration from `store` (validated
    /// with [`Self::matches`] first). [`Self::build`] packs automatically;
    /// call this after [`Self::load`]/[`Self::from_bytes`], which cannot —
    /// the file holds only list structure, not row data. Unpacked indexes
    /// still serve correctly, just slower (scattered store gathers).
    pub fn pack(&mut self, store: &EmbeddingStore) -> Result<(), ServeError> {
        self.matches(store)?;
        let mut rows = vec![0.0f32; self.node_ids.len() * self.dim];
        let mut norms = vec![0.0f32; self.node_ids.len()];
        for (i, &id) in self.node_ids.iter().enumerate() {
            let id = id as usize;
            rows[i * self.dim..(i + 1) * self.dim].copy_from_slice(store.embeddings().row(id));
            norms[i] = store.norms()[id];
        }
        self.packed = Some(PackedRows { rows, norms });
        Ok(())
    }

    /// The `nprobe` list ids closest to `query` (by dot product with the
    /// normalised centroids, which for any non-degenerate query orders
    /// exactly like cosine). Ties break toward the lower list id.
    pub fn probe_lists(&self, query: &[f32]) -> Vec<usize> {
        let mut top = TopKCollector::new(self.config.nprobe.min(self.nlist()));
        // Register-tiled sweep: four centroid rows per step, remainder one
        // at a time, through the dispatched lane kernel
        // ([`e2gcl_linalg::dispatch`]). On either dispatch path `lane_dot4`
        // is element-wise bit-identical to that path's `lane_dot`, so the
        // tiling cannot change which lists win.
        let kpath = dispatch::current_path();
        let n = self.nlist();
        let cm = self.centroids.as_slice();
        let d = self.dim;
        let quads = n / 4;
        for q in 0..quads {
            let base = 4 * q * d;
            let dots = kpath.lane_dot4(
                query,
                &cm[base..base + d],
                &cm[base + d..base + 2 * d],
                &cm[base + 2 * d..base + 3 * d],
                &cm[base + 3 * d..base + 4 * d],
            );
            for (j, &dot) in dots.iter().enumerate() {
                // Canonicalise -0.0 → +0.0 so sign-of-zero can't break ties.
                top.offer(4 * q + j, dot + 0.0);
            }
        }
        for l in 4 * quads..n {
            top.offer(l, kpath.lane_dot(self.centroids.row(l), query) + 0.0);
        }
        top.into_hits().into_iter().map(|(l, _)| l).collect()
    }

    /// Approximate top-`k`: probes the closest `nprobe` lists, then
    /// re-ranks every candidate with the exact cosine kernel. Scores and
    /// tie-breaking are identical to [`EmbeddingStore::top_k`]; only
    /// candidate coverage is approximate.
    pub fn search(
        &self,
        store: &EmbeddingStore,
        query: &[f32],
        k: usize,
    ) -> Result<Vec<Hit>, ServeError> {
        if store.len() != self.store_rows || store.dim() != self.dim {
            return Err(ServeError::IndexMismatch {
                reason: format!(
                    "index built over {}x{}, store is {}x{}",
                    self.store_rows,
                    self.dim,
                    store.len(),
                    store.dim()
                ),
            });
        }
        if query.len() != self.dim {
            return Err(ServeError::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        let lists = self.probe_lists(query);
        let Some(packed) = &self.packed else {
            // Unpacked (e.g. freshly loaded): gather rows from the store.
            let candidates = lists.iter().flat_map(|&l| {
                let lo = self.list_offsets[l] as usize;
                let hi = self.list_offsets[l + 1] as usize;
                self.node_ids[lo..hi].iter().map(|&id| id as usize)
            });
            return store.top_k_among(candidates, query, k);
        };
        // Packed scan: the same scoring expression and collector as
        // `top_k_among`, over contiguous copies of the same row bytes —
        // bitwise-identical hits, sequential memory, four rows per step.
        let qnorm = query.iter().map(|v| v * v).sum::<f32>().sqrt();
        let d = self.dim;
        let kpath = dispatch::current_path();
        let mut top = TopKCollector::new(k);
        for &l in &lists {
            let lo = self.list_offsets[l] as usize;
            let hi = self.list_offsets[l + 1] as usize;
            let mut i = lo;
            while i + 4 <= hi {
                let base = i * d;
                let dots = kpath.lane_dot4(
                    query,
                    &packed.rows[base..base + d],
                    &packed.rows[base + d..base + 2 * d],
                    &packed.rows[base + 2 * d..base + 3 * d],
                    &packed.rows[base + 3 * d..base + 4 * d],
                );
                for (j, &dot) in dots.iter().enumerate() {
                    let score = cosine_from_dot(dot, packed.norms[i + j], qnorm);
                    top.offer(self.node_ids[i + j] as usize, score);
                }
                i += 4;
            }
            for i in i..hi {
                let row = &packed.rows[i * d..(i + 1) * d];
                let score = cosine_from_dot(kpath.lane_dot(row, query), packed.norms[i], qnorm);
                top.offer(self.node_ids[i] as usize, score);
            }
        }
        Ok(top.into_hits())
    }

    /// Mean recall@`k` of [`Self::search`] against brute-force
    /// [`EmbeddingStore::top_k`], using the stored rows named by
    /// `query_nodes` as queries. Vacuously `1.0` for no queries.
    pub fn measure_recall(
        &self,
        store: &EmbeddingStore,
        query_nodes: &[usize],
        k: usize,
    ) -> Result<f64, ServeError> {
        if query_nodes.is_empty() || k == 0 {
            return Ok(1.0);
        }
        let mut total = 0.0f64;
        for &node in query_nodes {
            let q = store.embedding(node)?.to_vec();
            let exact = store.top_k(&q, k)?;
            let approx = self.search(store, &q, k)?;
            if exact.is_empty() {
                total += 1.0;
                continue;
            }
            let got: std::collections::HashSet<usize> = approx.iter().map(|&(n, _)| n).collect();
            let hit = exact.iter().filter(|&&(n, _)| got.contains(&n)).count();
            total += hit as f64 / exact.len() as f64;
        }
        Ok(total / query_nodes.len() as f64)
    }

    /// Serialises to the version-1 byte format (module docs). The bytes
    /// are a pure function of the build inputs — the ci.sh determinism
    /// gate compares them across independent builds.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(self.store_rows as u64).to_le_bytes());
        payload.extend_from_slice(&(self.dim as u32).to_le_bytes());
        payload.extend_from_slice(&self.store_checksum.to_le_bytes());
        payload.extend_from_slice(&(self.config.nlist as u32).to_le_bytes());
        payload.extend_from_slice(&(self.config.nprobe as u32).to_le_bytes());
        payload.extend_from_slice(&(self.config.train_sample as u64).to_le_bytes());
        payload.extend_from_slice(&(self.config.kmeans_iters as u32).to_le_bytes());
        payload.extend_from_slice(&self.config.seed.to_le_bytes());
        durable::put_matrix(&mut payload, &self.centroids);
        for &off in &self.list_offsets {
            payload.extend_from_slice(&off.to_le_bytes());
        }
        for &id in &self.node_ids {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        durable::seal(INDEX_MAGIC, INDEX_VERSION, &payload)
    }

    /// Parses an index, verifying framing, checksum and every structural
    /// invariant (offset monotonicity, node-id bounds, in-list ordering).
    pub fn from_bytes(bytes: &[u8]) -> Result<IvfIndex, ArtifactError> {
        let mut cur = Reader::new(durable::open(bytes, INDEX_MAGIC, INDEX_VERSION)?);
        let store_rows = cur.take_u64()? as usize;
        let dim = cur.take_u32()? as usize;
        let store_checksum = cur.take_u64()?;
        let nlist = cur.take_u32()? as usize;
        let nprobe = cur.take_u32()? as usize;
        let train_sample = cur.take_u64()? as usize;
        let kmeans_iters = cur.take_u32()? as usize;
        let seed = cur.take_u64()?;
        let centroids = cur.take_matrix()?;
        if nlist == 0 || nprobe == 0 || nprobe > nlist {
            return Err(ArtifactError::Corrupt(format!(
                "invalid list geometry: nlist {nlist}, nprobe {nprobe}"
            )));
        }
        if centroids.rows() != nlist || centroids.cols() != dim {
            return Err(ArtifactError::Corrupt(format!(
                "centroid matrix is {}x{}, expected {nlist}x{dim}",
                centroids.rows(),
                centroids.cols()
            )));
        }
        let list_offsets = cur.take_u64s(nlist + 1)?;
        if list_offsets[0] != 0
            || list_offsets.windows(2).any(|w| w[0] > w[1])
            || list_offsets[nlist] != store_rows as u64
        {
            return Err(ArtifactError::Corrupt(
                "list offsets are not a monotone cover of the store".into(),
            ));
        }
        let node_ids = cur.take_u32s(store_rows)?;
        cur.finish()?;
        if dim == 0 {
            // `build` rejects a zero-width store, so no writer emits this.
            return Err(ArtifactError::Corrupt("index dimension is zero".into()));
        }
        for w in 0..nlist {
            let lo = list_offsets[w] as usize;
            let hi = list_offsets[w + 1] as usize;
            let list = &node_ids[lo..hi];
            if list.windows(2).any(|p| p[0] >= p[1]) {
                return Err(ArtifactError::Corrupt(format!(
                    "list {w} node ids are not strictly ascending"
                )));
            }
            if list.iter().any(|&id| id as usize >= store_rows) {
                return Err(ArtifactError::Corrupt(format!(
                    "list {w} references a node beyond the store"
                )));
            }
        }
        Ok(IvfIndex {
            config: IvfConfig {
                nlist,
                nprobe,
                train_sample,
                kmeans_iters,
                seed,
            },
            dim,
            store_rows,
            store_checksum,
            centroids,
            list_offsets,
            node_ids,
            packed: None,
        })
    }

    /// Writes the index crash-safely ([`durable::atomic_write`]), like
    /// [`crate::Artifact::save`].
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        durable::save(path, &self.to_bytes())
    }

    /// Reads and parses an index from `path` through [`durable::load`]: a
    /// file that reads fine but fails to decode is quarantined to
    /// `<path>.corrupt`, exactly like [`crate::Artifact::load`].
    pub fn load(path: &Path) -> Result<IvfIndex, ArtifactError> {
        durable::load(path, Self::from_bytes)
    }
}

/// L2-normalises `v` in place (zero vectors stay zero).
fn normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Writes each data row's closest-centroid list id into `out`, chunking
/// rows through the blocked (bitwise thread-invariant) GEMM kernel.
/// Argmax is a sequential strict-`>` scan: ties go to the lowest list id.
fn assign_chunked(data: &Matrix, centroids: &Matrix, out: &mut [u32]) {
    let dim = data.cols();
    let mut start = 0;
    while start < data.rows() {
        let end = (start + ASSIGN_CHUNK).min(data.rows());
        let chunk = Matrix::from_vec(
            end - start,
            dim,
            data.as_slice()[start * dim..end * dim].to_vec(),
        );
        let scores = chunk.matmul_transpose(centroids);
        for i in 0..(end - start) {
            let row = scores.row(i);
            let mut best = 0usize;
            let mut best_score = row[0];
            for (l, &s) in row.iter().enumerate().skip(1) {
                if s > best_score {
                    best = l;
                    best_score = s;
                }
            }
            out[start + i] = best as u32;
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rows` rows in `clusters` well-separated directions plus noise —
    /// the community-structured shape real embeddings have, where IVF
    /// recall is meaningful (uniform random data has no cluster structure
    /// for the quantizer to exploit).
    fn clustered_store(rows: usize, dim: usize, clusters: usize, seed: u64) -> EmbeddingStore {
        let mut rng = SeedRng::new(seed);
        let mut centers = Matrix::zeros(clusters, dim);
        for v in centers.as_mut_slice() {
            *v = rng.normal();
        }
        let mut m = Matrix::zeros(rows, dim);
        for r in 0..rows {
            let c = rng.below(clusters);
            for (d, x) in m.row_mut(r).iter_mut().enumerate() {
                *x = centers.get(c, d) + 0.15 * rng.normal();
            }
        }
        EmbeddingStore::new(m)
    }

    fn small_index(store: &EmbeddingStore) -> IvfIndex {
        IvfIndex::build(
            store,
            IvfConfig {
                nlist: 16,
                nprobe: 4,
                train_sample: 1024,
                kmeans_iters: 5,
                seed: 7,
            },
        )
        .unwrap()
    }

    #[test]
    fn full_probe_matches_brute_force_exactly() {
        let store = clustered_store(400, 8, 10, 1);
        let mut index = small_index(&store);
        index.set_nprobe(index.nlist()); // probe everything → exact
        for node in [0usize, 17, 399] {
            let q = store.embedding(node).unwrap().to_vec();
            let exact = store.top_k(&q, 10).unwrap();
            let approx = index.search(&store, &q, 10).unwrap();
            assert_eq!(exact, approx, "node {node}");
        }
    }

    #[test]
    fn recall_on_clustered_data_meets_contract() {
        let store = clustered_store(2000, 8, 16, 2);
        let index = small_index(&store);
        let queries: Vec<usize> = (0..100).map(|i| i * 19 % store.len()).collect();
        let recall = index.measure_recall(&store, &queries, 10).unwrap();
        assert!(recall >= 0.95, "recall@10 {recall} below the 0.95 contract");
    }

    #[test]
    fn build_is_deterministic_within_process() {
        let store = clustered_store(600, 8, 8, 3);
        let a = small_index(&store).to_bytes();
        let b = small_index(&store).to_bytes();
        assert_eq!(a, b, "two builds over the same store must be bitwise equal");
    }

    #[test]
    fn lists_cover_store_with_ascending_ids() {
        let store = clustered_store(500, 8, 8, 4);
        let index = small_index(&store);
        assert_eq!(index.list_offsets[0], 0);
        assert_eq!(*index.list_offsets.last().unwrap(), 500);
        let mut seen = vec![false; 500];
        for l in 0..index.nlist() {
            let lo = index.list_offsets[l] as usize;
            let hi = index.list_offsets[l + 1] as usize;
            let list = &index.node_ids[lo..hi];
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "list {l} not ascending"
            );
            for &id in list {
                assert!(!seen[id as usize], "node {id} in two lists");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some node is in no list");
    }

    #[test]
    fn bytes_round_trip_and_search_agrees() {
        let store = clustered_store(300, 8, 6, 5);
        let index = small_index(&store);
        let bytes = index.to_bytes();
        let loaded = IvfIndex::from_bytes(&bytes).unwrap();
        assert_eq!(bytes, loaded.to_bytes());
        assert_eq!(index.config(), loaded.config());
        let q = store.embedding(42).unwrap().to_vec();
        assert_eq!(
            index.search(&store, &q, 10).unwrap(),
            loaded.search(&store, &q, 10).unwrap()
        );
    }

    #[test]
    fn packed_scan_matches_unpacked_gather_exactly() {
        let store = clustered_store(800, 12, 8, 11);
        let packed = small_index(&store);
        assert!(packed.packed.is_some(), "build() must pack");
        let unpacked = IvfIndex::from_bytes(&packed.to_bytes()).unwrap();
        assert!(unpacked.packed.is_none(), "from_bytes() must not pack");
        for q in 0..40 {
            let query = store.embedding(q * 20).unwrap().to_vec();
            assert_eq!(
                packed.search(&store, &query, 10).unwrap(),
                unpacked.search(&store, &query, 10).unwrap(),
                "packed and gather paths diverged on query {q}"
            );
        }
    }

    #[test]
    fn corrupt_file_is_quarantined_on_load() {
        let store = clustered_store(150, 8, 4, 7);
        let index = small_index(&store);
        let dir = std::env::temp_dir();
        let path = dir.join("e2gcl_ivf_quarantine_test.ivf");
        let quarantined = dir.join("e2gcl_ivf_quarantine_test.ivf.corrupt");
        let _ = std::fs::remove_file(&quarantined);
        let mut bytes = index.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        durable::atomic_write(&path, &bytes).unwrap();

        let err = IvfIndex::load(&path).unwrap_err();
        assert!(matches!(err, ArtifactError::Quarantined { .. }), "{err}");
        assert!(!path.exists());
        assert!(quarantined.exists());
        assert!(matches!(IvfIndex::load(&path), Err(ArtifactError::Io(_))));
        let _ = std::fs::remove_file(&quarantined);
    }

    #[test]
    fn save_load_round_trip_on_disk() {
        let store = clustered_store(120, 8, 4, 8);
        let index = small_index(&store);
        let path = std::env::temp_dir().join("e2gcl_ivf_roundtrip_test.ivf");
        index.save(&path).unwrap();
        let loaded = IvfIndex::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(index.to_bytes(), loaded.to_bytes());
        assert!(loaded.matches(&store).is_ok());
    }

    #[test]
    fn mismatched_store_is_rejected() {
        let store = clustered_store(100, 8, 4, 9);
        let index = small_index(&store);
        assert!(index.matches(&store).is_ok());

        // Same shape, different content.
        let other = clustered_store(100, 8, 4, 10);
        let err = index.matches(&other).unwrap_err();
        assert!(matches!(err, ServeError::IndexMismatch { .. }), "{err}");

        // Different shape fails fast in search too.
        let small = clustered_store(50, 8, 4, 11);
        let q = vec![0.0f32; 8];
        assert!(matches!(
            index.search(&small, &q, 5),
            Err(ServeError::IndexMismatch { .. })
        ));
    }

    #[test]
    fn duplicated_rows_rank_identically_to_brute_force() {
        // Duplicate every row: ANN re-rank and brute force must emit the
        // same ascending-node-id tie order for the equal-score pairs.
        let base = clustered_store(100, 8, 4, 12);
        let mut data = Matrix::zeros(200, 8);
        for r in 0..100 {
            data.set_row(r, base.embedding(r).unwrap());
            data.set_row(r + 100, base.embedding(r).unwrap());
        }
        let store = EmbeddingStore::new(data);
        let mut index = small_index(&store);
        index.set_nprobe(index.nlist());
        for node in [0usize, 55, 199] {
            let q = store.embedding(node).unwrap().to_vec();
            assert_eq!(
                store.top_k(&q, 20).unwrap(),
                index.search(&store, &q, 20).unwrap(),
                "node {node}"
            );
        }
    }

    #[test]
    fn degenerate_configs_are_clamped() {
        let store = clustered_store(10, 4, 2, 13);
        let index = IvfIndex::build(
            &store,
            IvfConfig {
                nlist: 1000,  // > rows
                nprobe: 5000, // > nlist
                train_sample: 0,
                kmeans_iters: 0,
                seed: 0,
            },
        )
        .unwrap();
        let cfg = index.config();
        assert!(cfg.nlist <= 10 && cfg.nlist >= 1);
        assert!(cfg.nprobe <= cfg.nlist);
        assert!(cfg.kmeans_iters >= 1);
        let q = store.embedding(0).unwrap().to_vec();
        assert_eq!(
            index.search(&store, &q, 10).unwrap(),
            store.top_k(&q, 10).unwrap()
        );
    }

    #[test]
    fn zero_dimension_is_corrupt() {
        // A re-sealed file claiming dim = 0 (with a matching nlist x 0
        // centroid block) used to load as an index no query can match.
        let store = clustered_store(64, 4, 4, 5);
        let mut idx = small_index(&store);
        idx.dim = 0;
        idx.centroids = Matrix::zeros(idx.centroids.rows(), 0);
        let err = IvfIndex::from_bytes(&idx.to_bytes()).unwrap_err();
        assert!(matches!(err, ArtifactError::Corrupt(_)), "{err}");
    }

    #[test]
    fn empty_store_is_rejected() {
        let store = EmbeddingStore::new(Matrix::zeros(0, 4));
        assert!(matches!(
            IvfIndex::build(&store, IvfConfig::default()),
            Err(ServeError::IndexMismatch { .. })
        ));
    }

    #[test]
    fn k_zero_returns_empty() {
        let store = clustered_store(50, 8, 4, 14);
        let index = small_index(&store);
        let q = store.embedding(0).unwrap().to_vec();
        assert!(index.search(&store, &q, 0).unwrap().is_empty());
    }
}
