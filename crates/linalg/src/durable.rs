//! The workspace's one durable container: framing, payload codec, crash-safe
//! writes and load-with-quarantine for every file it persists.
//!
//! Training checkpoints (`E2GCLCKP`), model artifacts (`E2GCLART`) and IVF
//! indexes (`E2GCLIVF`) share one frame, written by [`seal`] and checked
//! by [`open`]:
//!
//! ```text
//! offset  size  field
//! 0       8     magic (names the format)
//! 8       4     format version, u32 LE
//! 12      8     payload length in bytes, u64 LE
//! 20      8     FNV-1a 64-bit checksum of the payload, u64 LE
//! 28      ...   payload (exactly `payload length` bytes, nothing after)
//! ```
//!
//! Payloads are decoded through one bounded [`Reader`]: every
//! count-prefixed read checks `count × element size` against the bytes
//! left *before* it allocates, so a file with a valid checksum but lying
//! counts fails with a typed [`DurableError`] instead of a huge
//! allocation. Matrices travel as u32 rows · u32 cols · row-major f32 bit
//! patterns ([`put_matrix`] / [`Reader::take_matrix`]).
//!
//! On disk, [`atomic_write`] (write-to-temp → fsync → rename) means a path
//! only ever holds a complete file, and [`load`] moves a file that reads
//! but fails to decode to `<name>.corrupt` ([`quarantine`]) so the path is
//! reusable and the evidence survives. [`write_torn`] is the matching
//! deterministic fault hook: it leaves exactly the torn prefix a mid-write
//! crash would. The JSON kernel-tune file (`crate::tune`) uses the same
//! write and load policy without the binary frame.

use crate::matrix::Matrix;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit hash — the frame checksum (defined in [`crate::hash`]).
pub use crate::hash::{fnv1a64, Fnv1a64};

/// Size of the frame header (magic + version + payload length + checksum).
const HEADER_LEN: usize = 28;

/// Typed durable-file failure — the only way a save or load can go wrong.
#[derive(Debug)]
pub enum DurableError {
    /// Filesystem error while reading/writing (message carries the cause).
    Io(String),
    /// The first 8 bytes are not the expected magic — a different format.
    BadMagic([u8; 8]),
    /// The file's format version is one this build does not read.
    UnsupportedVersion(u32),
    /// Payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The file ends before a field does.
    Truncated {
        /// Bytes the current field still needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// Structurally invalid content (bad tag, shapes that don't chain,
    /// trailing bytes, unparsable config …).
    Corrupt(String),
    /// [`load`] found a file that failed to decode and moved it aside to
    /// `<path>.corrupt`, so the next load fails fast with a missing-file
    /// error instead of re-parsing known-bad bytes.
    Quarantined {
        /// Where the bad file now lives.
        quarantined_to: String,
        /// Why decoding failed.
        cause: Box<DurableError>,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "io error: {e}"),
            DurableError::BadMagic(m) => write!(f, "wrong file type (magic {m:02x?})"),
            DurableError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            DurableError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            DurableError::Truncated { needed, available } => write!(
                f,
                "truncated: field needs {needed} more bytes, {available} left"
            ),
            DurableError::Corrupt(why) => write!(f, "corrupt: {why}"),
            DurableError::Quarantined {
                quarantined_to,
                cause,
            } => write!(f, "quarantined to {quarantined_to}: {cause}"),
        }
    }
}

impl std::error::Error for DurableError {}

/// Frames `payload` as a `magic`/`version` file (layout in the module docs).
pub fn seal(magic: [u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Checks the frame of `bytes` — magic, version, exact length, checksum —
/// and returns the payload it seals.
pub fn open(bytes: &[u8], magic: [u8; 8], version: u32) -> Result<&[u8], DurableError> {
    if bytes.len() < HEADER_LEN {
        return Err(DurableError::Truncated {
            needed: HEADER_LEN - bytes.len(),
            available: bytes.len(),
        });
    }
    let (mut header, body) = (Reader::new(&bytes[..HEADER_LEN]), &bytes[HEADER_LEN..]);
    let found = header.take_array()?;
    if found != magic {
        return Err(DurableError::BadMagic(found));
    }
    let found_version = header.take_u32()?;
    if found_version != version {
        return Err(DurableError::UnsupportedVersion(found_version));
    }
    let (payload_len, expected) = (header.take_u64()?, header.take_u64()?);
    let present = body.len() as u64;
    if present < payload_len {
        return Err(DurableError::Truncated {
            needed: (payload_len - present) as usize,
            available: body.len(),
        });
    }
    if present > payload_len {
        return Err(DurableError::Corrupt(format!(
            "{} trailing bytes after payload",
            present - payload_len
        )));
    }
    let actual = fnv1a64(body);
    if actual != expected {
        return Err(DurableError::ChecksumMismatch { expected, actual });
    }
    Ok(body)
}

/// Appends `b` with a u32 length prefix (strings, embedded JSON).
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

/// Appends `m` as u32 rows · u32 cols · row-major f32 bit patterns.
pub fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    for &v in m.as_slice() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Bounds-checked sequential reader over a payload. No read allocates
/// more than the bytes it has already proven are present.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DurableError> {
        let available = self.remaining();
        if available < n {
            return Err(DurableError::Truncated {
                needed: n - available,
                available,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DurableError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    pub fn take_u8(&mut self) -> Result<u8, DurableError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian u32.
    pub fn take_u32(&mut self) -> Result<u32, DurableError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// A little-endian u64.
    pub fn take_u64(&mut self) -> Result<u64, DurableError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// The next `n × elem` bytes, checked for overflow and presence.
    fn take_elems(&mut self, n: usize, elem: usize) -> Result<&'a [u8], DurableError> {
        let len = n.checked_mul(elem).ok_or_else(|| {
            DurableError::Corrupt(format!("{n} elements of {elem} bytes overflow"))
        })?;
        self.take(len)
    }

    /// `n` little-endian u32s.
    pub fn take_u32s(&mut self, n: usize) -> Result<Vec<u32>, DurableError> {
        let b = self.take_elems(n, 4)?;
        Ok(b.chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// `n` little-endian u64s.
    pub fn take_u64s(&mut self, n: usize) -> Result<Vec<u64>, DurableError> {
        let b = self.take_elems(n, 8)?;
        Ok(b.chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// A u32-length-prefixed byte string ([`put_bytes`]).
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DurableError> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// A u32-length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, DurableError> {
        std::str::from_utf8(self.take_bytes()?)
            .map(str::to_string)
            .map_err(|_| DurableError::Corrupt("string field is not UTF-8".into()))
    }

    /// A matrix written by [`put_matrix`].
    pub fn take_matrix(&mut self) -> Result<Matrix, DurableError> {
        let rows = self.take_u32()? as usize;
        let cols = self.take_u32()? as usize;
        let count = rows.checked_mul(cols).ok_or_else(|| {
            DurableError::Corrupt(format!("matrix shape {rows}x{cols} overflows"))
        })?;
        let data = self
            .take_u32s(count)?
            .into_iter()
            .map(f32::from_bits)
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// A u32-count-prefixed list whose elements each occupy at least
    /// `min_elem` payload bytes, decoded one by one with `item`. The count
    /// is checked against the bytes left before anything is allocated.
    pub fn take_list<T>(
        &mut self,
        min_elem: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DurableError>,
    ) -> Result<Vec<T>, DurableError> {
        let n = self.take_u32()? as usize;
        let need = n.saturating_mul(min_elem);
        if need > self.remaining() {
            return Err(DurableError::Truncated {
                needed: need - self.remaining(),
                available: self.remaining(),
            });
        }
        let mut out = Vec::with_capacity(n.min(self.remaining() / std::mem::size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Checks the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), DurableError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(DurableError::Corrupt(format!(
                "{left} unread bytes inside payload"
            ))),
        }
    }
}

/// Durably replaces `path` with `bytes`: writes a sibling temp file, fsyncs
/// it, renames it over `path`, then best-effort fsyncs the parent directory
/// so the rename itself survives a crash.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = sibling(path, ".tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = path.parent() {
        // Directory fsync makes the rename durable; failure here (e.g. on
        // filesystems that refuse to open directories) does not affect
        // atomicity, only the crash window, so it is deliberately ignored.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// [`atomic_write`] with the failure typed as [`DurableError::Io`].
pub fn save(path: &Path, bytes: &[u8]) -> Result<(), DurableError> {
    atomic_write(path, bytes).map_err(|e| DurableError::Io(format!("{}: {e}", path.display())))
}

/// Deterministic torn-write fault: writes only the first `keep` bytes of
/// `bytes` straight to `path` (no temp file, no fsync) — the exact on-disk
/// state a crash midway through a naive `fs::write` leaves behind.
pub fn write_torn(path: &Path, bytes: &[u8], keep: usize) -> std::io::Result<()> {
    std::fs::write(path, &bytes[..keep.min(bytes.len())])
}

/// Reads `path` and decodes it with `decode`. Read failures stay
/// [`DurableError::Io`] and move nothing; a file that reads but fails to
/// decode is [`quarantine`]d and reported as [`DurableError::Quarantined`]
/// carrying the decode failure (or as the bare decode failure when the
/// best-effort rename itself fails).
pub fn load<T>(
    path: &Path,
    decode: impl FnOnce(&[u8]) -> Result<T, DurableError>,
) -> Result<T, DurableError> {
    let bytes =
        std::fs::read(path).map_err(|e| DurableError::Io(format!("{}: {e}", path.display())))?;
    decode(&bytes).map_err(|cause| match quarantine(path) {
        Ok(q) => DurableError::Quarantined {
            quarantined_to: q.display().to_string(),
            cause: Box::new(cause),
        },
        Err(_) => cause,
    })
}

/// Moves a corrupt file out of the way, renaming it to `<name>.corrupt`
/// next to the original. Returns the quarantine path.
pub fn quarantine(path: &Path) -> std::io::Result<PathBuf> {
    let dst = sibling(path, ".corrupt");
    std::fs::rename(path, &dst)?;
    Ok(dst)
}

/// `path` with `suffix` appended to its file name, in the same directory
/// (same filesystem, so `rename` stays atomic).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    #[test]
    fn atomic_write_round_trips_and_cleans_temp() {
        let path = tmp_path("e2gcl_durable_atomic.bin");
        atomic_write(&path, b"hello durable").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello durable");
        assert!(
            !sibling(&path, ".tmp").exists(),
            "temp file must not linger"
        );
        // Overwrite is also atomic (rename over an existing file).
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_leaves_a_prefix() {
        let path = tmp_path("e2gcl_durable_torn.bin");
        write_torn(&path, b"0123456789", 4).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"0123");
        // keep beyond len is clamped, not a panic.
        write_torn(&path, b"ab", 100).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"ab");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_renames_next_to_original() {
        let path = tmp_path("e2gcl_durable_bad.bin");
        std::fs::write(&path, b"garbage").unwrap();
        let q = quarantine(&path).unwrap();
        assert!(!path.exists());
        assert_eq!(q, tmp_path("e2gcl_durable_bad.bin.corrupt"));
        assert_eq!(std::fs::read(&q).unwrap(), b"garbage");
        let _ = std::fs::remove_file(&q);
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a("") is the offset basis; "a" is a published test vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn lying_counts_fail_before_allocating() {
        // A count of u32::MAX elements with four bytes behind it.
        let mut p = Vec::new();
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        p.extend_from_slice(&[0u8; 4]);
        let err = Reader::new(&p).take_list(8, Reader::take_u64).unwrap_err();
        assert!(matches!(err, DurableError::Truncated { .. }), "{err}");
        assert!(matches!(
            Reader::new(&p).take_u64s(1 << 60),
            Err(DurableError::Truncated { .. })
        ));
        assert!(matches!(
            Reader::new(&p).take_u32s(usize::MAX),
            Err(DurableError::Corrupt(_))
        ));
        // A u32::MAX x u32::MAX matrix header.
        let mut m = Vec::new();
        m.extend_from_slice(&u32::MAX.to_le_bytes());
        m.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Reader::new(&m).take_matrix().is_err());
    }
}
