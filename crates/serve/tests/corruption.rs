//! One corruption harness over every durable container format.
//!
//! `tests/fixtures/` holds small files written by the format code before
//! the three formats were merged onto `e2gcl_linalg::durable`: one training
//! checkpoint, one artifact per encoder kind and one IVF index. Every
//! fixture must decode and re-encode to identical bytes, and every mutation
//! below must come back as a typed [`DurableError`] (or, for a re-sealed
//! payload that happens to stay well-formed, a successful decode) — never a
//! panic, and never an allocation larger than the input plus 4 KiB:
//!
//! * truncation at every offset and one trailing byte;
//! * every single-bit flip, raw (caught by the frame) and with the
//!   checksum re-sealed, so the flip reaches the payload decoder;
//! * every 4- and 8-byte payload window overwritten with 0, 1 and all
//!   ones, re-sealed (length and count fields that lie);
//! * format versions 0, 2 and `u32::MAX`.
//!
//! A counting `#[global_allocator]` records the largest single allocation
//! made on the decoding thread.

use e2gcl::TrainCheckpoint;
use e2gcl_linalg::durable::{self, DurableError};
use e2gcl_serve::{artifact, index, Artifact, IvfIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Passes every request to [`System`], recording the largest size asked
/// for on the current thread.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown are not recorded.
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` guarantees are exactly `System`'s; `note`
// only touches a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Decodes `bytes` and re-encodes what it got.
type Codec = fn(&[u8]) -> Result<Vec<u8>, DurableError>;

struct Fixture {
    name: &'static str,
    bytes: &'static [u8],
    magic: [u8; 8],
    version: u32,
    codec: Codec,
}

fn decode_checkpoint(b: &[u8]) -> Result<Vec<u8>, DurableError> {
    TrainCheckpoint::from_bytes(b).map(|c| c.to_bytes())
}

fn decode_artifact(b: &[u8]) -> Result<Vec<u8>, DurableError> {
    Artifact::from_bytes(b)?.to_bytes()
}

fn decode_index(b: &[u8]) -> Result<Vec<u8>, DurableError> {
    IvfIndex::from_bytes(b).map(|i| i.to_bytes())
}

fn fixtures() -> Vec<Fixture> {
    let art = |name, bytes| Fixture {
        name,
        bytes,
        magic: artifact::MAGIC,
        version: artifact::VERSION,
        codec: decode_artifact,
    };
    vec![
        Fixture {
            name: "checkpoint.ckpt",
            bytes: include_bytes!("fixtures/checkpoint.ckpt"),
            magic: e2gcl::checkpoint::MAGIC,
            version: e2gcl::checkpoint::VERSION,
            codec: decode_checkpoint,
        },
        art(
            "artifact_gcn.art",
            include_bytes!("fixtures/artifact_gcn.art"),
        ),
        art(
            "artifact_sgc.art",
            include_bytes!("fixtures/artifact_sgc.art"),
        ),
        art(
            "artifact_sage.art",
            include_bytes!("fixtures/artifact_sage.art"),
        ),
        Fixture {
            name: "index.ivf",
            bytes: include_bytes!("fixtures/index.ivf"),
            magic: index::INDEX_MAGIC,
            version: index::INDEX_VERSION,
            codec: decode_index,
        },
    ]
}

/// Runs `codec` on `bytes` without letting a panic escape, and checks the
/// largest single allocation it made.
fn run(codec: Codec, bytes: &[u8], case: &str) -> Result<Vec<u8>, DurableError> {
    PEAK.with(|p| p.set(0));
    let out = catch_unwind(AssertUnwindSafe(|| codec(bytes)))
        .unwrap_or_else(|_| panic!("{case}: decoder panicked"));
    let peak = PEAK.with(Cell::get);
    assert!(
        peak <= bytes.len() + 4096,
        "{case}: allocated {peak} bytes at once for a {}-byte input",
        bytes.len()
    );
    out
}

/// Runs a case that must fail, returning its error.
fn must_fail(codec: Codec, bytes: &[u8], case: &str) -> DurableError {
    match run(codec, bytes, case) {
        Ok(_) => panic!("{case}: corrupt input decoded"),
        Err(e) => e,
    }
}

#[test]
fn fixtures_reencode_byte_identically() {
    for f in fixtures() {
        let again = run(f.codec, f.bytes, f.name).unwrap_or_else(|e| panic!("{}: {e}", f.name));
        assert!(
            again == f.bytes,
            "{}: re-encoding changed the bytes",
            f.name
        );
        // The frame itself is the shared container's.
        let payload = durable::open(f.bytes, f.magic, f.version).unwrap();
        assert_eq!(durable::seal(f.magic, f.version, payload), f.bytes);
    }
}

#[test]
fn truncations_and_trailing_bytes_are_typed() {
    for f in fixtures() {
        for cut in 0..f.bytes.len() {
            let case = format!("{} cut at {cut}", f.name);
            let err = must_fail(f.codec, &f.bytes[..cut], &case);
            assert!(
                matches!(err, DurableError::Truncated { .. }),
                "{case}: {err}"
            );
        }
        let mut long = f.bytes.to_vec();
        long.push(0);
        let case = format!("{} + 1 trailing byte", f.name);
        let err = must_fail(f.codec, &long, &case);
        assert!(matches!(err, DurableError::Corrupt(_)), "{case}: {err}");
    }
}

#[test]
fn raw_bit_flips_are_caught_by_the_frame() {
    for f in fixtures() {
        for pos in 0..f.bytes.len() {
            for bit in 0..8 {
                let mut bad = f.bytes.to_vec();
                bad[pos] ^= 1 << bit;
                let case = format!("{} flip byte {pos} bit {bit}", f.name);
                let err = must_fail(f.codec, &bad, &case);
                let expected = match pos {
                    0..=7 => matches!(err, DurableError::BadMagic(_)),
                    8..=11 => matches!(err, DurableError::UnsupportedVersion(_)),
                    12..=19 => matches!(
                        err,
                        DurableError::Truncated { .. } | DurableError::Corrupt(_)
                    ),
                    _ => matches!(err, DurableError::ChecksumMismatch { .. }),
                };
                assert!(expected, "{case}: {err}");
            }
        }
    }
}

#[test]
fn resealed_bit_flips_reach_the_payload_decoder_safely() {
    for f in fixtures() {
        let payload = durable::open(f.bytes, f.magic, f.version).unwrap();
        for pos in 0..payload.len() {
            for bit in 0..8 {
                let mut p = payload.to_vec();
                p[pos] ^= 1 << bit;
                let bytes = durable::seal(f.magic, f.version, &p);
                let _ = run(
                    f.codec,
                    &bytes,
                    &format!("{} resealed flip payload byte {pos} bit {bit}", f.name),
                );
            }
        }
    }
}

#[test]
fn resealed_lying_fields_are_typed() {
    for f in fixtures() {
        let payload = durable::open(f.bytes, f.magic, f.version).unwrap();
        for width in [4usize, 8] {
            let fills: [(&str, Vec<u8>); 3] = [
                ("0", vec![0; width]),
                ("1", {
                    let mut one = vec![0; width];
                    one[0] = 1;
                    one
                }),
                ("all-ones", vec![0xff; width]),
            ];
            for start in 0..=payload.len().saturating_sub(width) {
                for (label, fill) in &fills {
                    let mut p = payload.to_vec();
                    p[start..start + width].copy_from_slice(fill);
                    let bytes = durable::seal(f.magic, f.version, &p);
                    let _ = run(
                        f.codec,
                        &bytes,
                        &format!("{} payload[{start}..+{width}] = {label}", f.name),
                    );
                }
            }
        }
    }
}

#[test]
fn other_versions_are_unsupported() {
    for f in fixtures() {
        for v in [0, 2, u32::MAX] {
            let mut bad = f.bytes.to_vec();
            bad[8..12].copy_from_slice(&v.to_le_bytes());
            let case = format!("{} version {v}", f.name);
            let err = must_fail(f.codec, &bad, &case);
            assert!(
                matches!(err, DurableError::UnsupportedVersion(got) if got == v),
                "{case}: {err}"
            );
        }
    }
}

/// A 100-byte index with a valid checksum whose header claims `store_rows`
/// node ids: `dim` 0, one list probed once, a 1x0 centroid matrix and list
/// offsets `[0, store_rows]`. The decoder used to size the node-id vector
/// from that count before reading it.
fn lying_index(store_rows: u64) -> Vec<u8> {
    let mut p = Vec::new();
    p.extend_from_slice(&store_rows.to_le_bytes()); // store_rows
    p.extend_from_slice(&0u32.to_le_bytes()); // dim
    p.extend_from_slice(&0u64.to_le_bytes()); // store_checksum
    p.extend_from_slice(&1u32.to_le_bytes()); // nlist
    p.extend_from_slice(&1u32.to_le_bytes()); // nprobe
    p.extend_from_slice(&0u64.to_le_bytes()); // train_sample
    p.extend_from_slice(&0u32.to_le_bytes()); // kmeans_iters
    p.extend_from_slice(&0u64.to_le_bytes()); // seed
    p.extend_from_slice(&1u32.to_le_bytes()); // centroid rows
    p.extend_from_slice(&0u32.to_le_bytes()); // centroid cols
    p.extend_from_slice(&0u64.to_le_bytes()); // offsets[0]
    p.extend_from_slice(&store_rows.to_le_bytes()); // offsets[1]
    durable::seal(index::INDEX_MAGIC, index::INDEX_VERSION, &p)
}

#[test]
fn index_with_lying_row_count_is_typed() {
    for store_rows in [1u64 << 61, 1 << 40] {
        let bytes = lying_index(store_rows);
        assert_eq!(bytes.len(), 100);
        let case = format!("index claiming {store_rows} rows");
        let err = must_fail(decode_index, &bytes, &case);
        assert!(
            matches!(err, DurableError::Truncated { .. }),
            "{case}: {err}"
        );
    }
}
