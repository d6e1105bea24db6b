//! Compact binary on-disk format for datasets.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   : [u8; 4] = b"AIDS"   (AIrchitect DataSet)
//! version : u32     = 2
//! rows    : u64
//! dim     : u32
//! classes : u32
//! features: rows * dim * f32
//! labels  : rows * u32
//! crc32   : u32                 (IEEE, over all preceding bytes; v2 only)
//! ```
//!
//! Version-1 files (no checksum footer) still load, reported as
//! [`Integrity::UnverifiedLegacy`]. Writers always emit version 2 and go
//! through [`crate::integrity::atomic_write`], so a crash mid-save can
//! never leave a torn dataset behind.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes};

use crate::integrity::{append_crc_footer, atomic_write, crc32, split_crc_footer, Integrity};
use crate::{DataError, Dataset};

const MAGIC: &[u8; 4] = b"AIDS";
const VERSION: u32 = 2;
const LEGACY_VERSION: u32 = 1;

/// A 4-byte value that artifact formats store as little-endian arrays:
/// the `f32` and `u32` payloads of every codec in the workspace (`AIDS`
/// here; `AINN`, `AIMS` and `AIQN` in `airchitect-nn`).
pub trait LeWord: Copy {
    /// Decodes one value from its little-endian bytes.
    fn from_le(bytes: [u8; 4]) -> Self;
    /// Encodes one value as little-endian bytes.
    fn to_le(self) -> [u8; 4];
}

impl LeWord for f32 {
    fn from_le(bytes: [u8; 4]) -> Self {
        f32::from_le_bytes(bytes)
    }
    fn to_le(self) -> [u8; 4] {
        self.to_le_bytes()
    }
}

impl LeWord for u32 {
    fn from_le(bytes: [u8; 4]) -> Self {
        u32::from_le_bytes(bytes)
    }
    fn to_le(self) -> [u8; 4] {
        self.to_le_bytes()
    }
}

/// Reads `n` little-endian words off the front of `buf` and advances it
/// past them. Returns `None`, leaving `buf` untouched, when fewer than
/// `4 n` bytes remain (or `4 n` overflows).
///
/// One bounds check for the whole array instead of one per value, so the
/// decode loop compiles to a straight copy.
pub fn get_le_array<T: LeWord>(buf: &mut &[u8], n: usize) -> Option<Vec<T>> {
    let (head, tail) = buf.split_at_checked(n.checked_mul(4)?)?;
    *buf = tail;
    Some(
        head.chunks_exact(4)
            .map(|c| T::from_le([c[0], c[1], c[2], c[3]]))
            .collect(),
    )
}

/// Appends `values` to `buf` as little-endian words (the inverse of
/// [`get_le_array`]).
pub fn put_le_array<T: LeWord>(buf: &mut Vec<u8>, values: &[T]) {
    let start = buf.len();
    buf.resize(start + 4 * values.len(), 0);
    for (dst, &v) in buf[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le());
    }
}

/// Serializes a dataset to an in-memory buffer (version 2, checksummed).
pub fn to_bytes(dataset: &Dataset) -> Bytes {
    let mut buf = Vec::with_capacity(28 + dataset.len() * (dataset.feature_dim() * 4 + 4));
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(dataset.len() as u64);
    buf.put_u32_le(dataset.feature_dim() as u32);
    buf.put_u32_le(dataset.num_classes());
    put_le_array(&mut buf, dataset.features());
    put_le_array(&mut buf, dataset.labels());
    append_crc_footer(&mut buf);
    Bytes::from(buf)
}

/// Deserializes a dataset from a buffer produced by [`to_bytes`],
/// reporting whether its checksum was verified.
///
/// Version-2 buffers have their CRC32 footer checked before any payload
/// parsing; version-1 buffers (pre-checksum) parse structurally and come
/// back as [`Integrity::UnverifiedLegacy`].
///
/// # Errors
///
/// Returns [`DataError::Corrupt`] on any malformed input and
/// [`DataError::ChecksumMismatch`] when a v2 footer disagrees with the
/// body.
pub fn from_bytes_integrity(buf: &[u8]) -> Result<(Dataset, Integrity), DataError> {
    // Header: 4 magic + 4 version + 8 rows + 4 dim + 4 classes = 24 bytes.
    if buf.len() < 24 {
        return Err(DataError::Corrupt {
            what: "truncated header",
        });
    }
    if &buf[..4] != MAGIC {
        return Err(DataError::Corrupt { what: "bad magic" });
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let (body, integrity) = match version {
        LEGACY_VERSION => (buf, Integrity::UnverifiedLegacy),
        VERSION => {
            let (body, stored) = split_crc_footer(buf).ok_or(DataError::Corrupt {
                what: "truncated header",
            })?;
            let computed = crc32(body);
            if computed != stored {
                return Err(DataError::ChecksumMismatch { stored, computed });
            }
            (body, Integrity::Verified)
        }
        _ => {
            return Err(DataError::Corrupt {
                what: "unsupported version",
            })
        }
    };
    parse_body(body).map(|ds| (ds, integrity))
}

/// Deserializes a dataset from a buffer produced by [`to_bytes`].
///
/// Convenience wrapper over [`from_bytes_integrity`] that discards the
/// integrity flag.
///
/// # Errors
///
/// Returns [`DataError::Corrupt`] or [`DataError::ChecksumMismatch`] on
/// any malformed input.
pub fn from_bytes(buf: &[u8]) -> Result<Dataset, DataError> {
    from_bytes_integrity(buf).map(|(ds, _)| ds)
}

/// Parses the checksum-free body (header + payload) shared by v1 and v2.
fn parse_body(mut buf: &[u8]) -> Result<Dataset, DataError> {
    if buf.remaining() < 24 {
        return Err(DataError::Corrupt {
            what: "truncated header",
        });
    }
    buf.advance(8); // magic + version, validated by the caller
    let rows = buf.get_u64_le() as usize;
    let dim = buf.get_u32_le() as usize;
    let classes = buf.get_u32_le();
    let need = rows
        .checked_mul(dim)
        .and_then(|cells| cells.checked_add(rows))
        .and_then(|words| words.checked_mul(4))
        .ok_or(DataError::Corrupt {
            what: "size overflow",
        })?;
    if buf.remaining() != need {
        return Err(DataError::Corrupt {
            what: "payload size mismatch",
        });
    }
    if dim == 0 || classes == 0 {
        return Err(DataError::Corrupt {
            what: "zero dim or classes",
        });
    }
    // Both reads fit: the payload is exactly `need` bytes.
    let features = get_le_array(&mut buf, rows * dim).expect("payload size checked");
    let labels: Vec<u32> = get_le_array(&mut buf, rows).expect("payload size checked");
    if labels.iter().any(|&l| l >= classes) {
        return Err(DataError::Corrupt {
            what: "label out of range",
        });
    }
    Ok(Dataset::from_parts(features, labels, dim, classes))
}

/// Writes a dataset to a file atomically (temp file + fsync + rename).
///
/// # Errors
///
/// Returns [`DataError::Io`] on filesystem errors.
pub fn save(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), DataError> {
    atomic_write(path, &to_bytes(dataset))?;
    Ok(())
}

/// Reads a dataset from a file written by [`save`], with its integrity
/// status.
///
/// # Errors
///
/// Returns [`DataError::Io`] on filesystem errors,
/// [`DataError::Corrupt`] on malformed content, and
/// [`DataError::ChecksumMismatch`] when the stored CRC32 disagrees.
pub fn load_integrity(path: impl AsRef<Path>) -> Result<(Dataset, Integrity), DataError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    from_bytes_integrity(&buf)
}

/// Reads a dataset from a file written by [`save`].
///
/// # Errors
///
/// Returns [`DataError::Io`] on filesystem errors and
/// [`DataError::Corrupt`] / [`DataError::ChecksumMismatch`] on malformed
/// content.
pub fn load(path: impl AsRef<Path>) -> Result<Dataset, DataError> {
    load_integrity(path).map(|(ds, _)| ds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut ds = Dataset::new(3, 5).unwrap();
        ds.push(&[1.5, -2.0, 3.25], 4).unwrap();
        ds.push(&[0.0, 0.5, -0.5], 0).unwrap();
        ds
    }

    /// Strips the v2 footer and patches the version field back to 1,
    /// producing the byte stream a legacy writer would have emitted.
    fn downgrade_to_v1(bytes: &[u8]) -> Vec<u8> {
        let (body, _) = split_crc_footer(bytes).unwrap();
        let mut v1 = body.to_vec();
        v1[4..8].copy_from_slice(&LEGACY_VERSION.to_le_bytes());
        v1
    }

    #[test]
    fn roundtrip_in_memory() {
        let ds = toy();
        let bytes = to_bytes(&ds);
        let (back, integrity) = from_bytes_integrity(&bytes).unwrap();
        assert_eq!(ds, back);
        assert_eq!(integrity, Integrity::Verified);
    }

    #[test]
    fn roundtrip_empty_dataset() {
        let ds = Dataset::new(4, 9).unwrap();
        let back = from_bytes(&to_bytes(&ds)).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.feature_dim(), 4);
        assert_eq!(back.num_classes(), 9);
    }

    #[test]
    fn legacy_v1_loads_unverified() {
        let ds = toy();
        let v1 = downgrade_to_v1(&to_bytes(&ds));
        let (back, integrity) = from_bytes_integrity(&v1).unwrap();
        assert_eq!(ds, back);
        assert_eq!(integrity, Integrity::UnverifiedLegacy);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = to_bytes(&toy()).to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes(&bytes),
            Err(DataError::Corrupt { what: "bad magic" })
        ));
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let bytes = to_bytes(&toy()).to_vec();
        // Flip one bit in the payload (past the header).
        let mut bad = bytes.clone();
        bad[30] ^= 0x01;
        assert!(matches!(
            from_bytes(&bad),
            Err(DataError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = to_bytes(&toy());
        assert!(from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(from_bytes(&bytes[..10]).is_err());
        assert!(from_bytes(&[]).is_err());
    }

    #[test]
    fn rejects_out_of_range_label() {
        let ds = toy();
        let v1 = {
            // Use a v1 buffer so the patched label is not masked by the
            // checksum check — the structural validation must catch it.
            let mut v1 = downgrade_to_v1(&to_bytes(&ds));
            let label_off = 24 + ds.len() * ds.feature_dim() * 4;
            v1[label_off..label_off + 4].copy_from_slice(&99u32.to_le_bytes());
            v1
        };
        assert!(matches!(
            from_bytes(&v1),
            Err(DataError::Corrupt {
                what: "label out of range"
            })
        ));
    }

    #[test]
    fn le_arrays_roundtrip_and_reject_short_input() {
        let values = [1.5f32, -0.0, f32::NAN, f32::MIN_POSITIVE / 2.0, 3e38];
        let mut buf = vec![0xAB];
        put_le_array(&mut buf, &values);
        assert_eq!(buf.len(), 1 + 4 * values.len());
        for (chunk, v) in buf[1..].chunks_exact(4).zip(&values) {
            assert_eq!(chunk, v.to_le_bytes(), "same bytes as put_f32_le");
        }
        let mut cursor = &buf[1..];
        let back: Vec<f32> = get_le_array(&mut cursor, values.len()).unwrap();
        assert!(cursor.is_empty());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values), "bit-exact, NaN included");

        let mut short = &buf[1..buf.len() - 1];
        assert!(get_le_array::<u32>(&mut short, values.len()).is_none());
        assert_eq!(
            short.len(),
            buf.len() - 2,
            "a failed read leaves the cursor"
        );
        let mut huge = &buf[..];
        assert!(get_le_array::<u32>(&mut huge, usize::MAX / 2).is_none());
    }

    /// Regression: a header whose row count makes the payload
    /// size overflow must be reported as corrupt, not overflow `rows * 4`
    /// (a panic in debug builds).
    #[test]
    fn rejects_row_count_that_overflows_the_payload_size() {
        let mut bytes = Vec::new();
        bytes.put_slice(MAGIC);
        bytes.put_u32_le(VERSION);
        bytes.put_u64_le(1 << 62);
        bytes.put_u32_le(0);
        bytes.put_u32_le(1);
        append_crc_footer(&mut bytes);
        assert!(matches!(
            from_bytes(&bytes),
            Err(DataError::Corrupt {
                what: "size overflow"
            })
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("airchitect-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.aids");
        let ds = toy();
        save(&ds, &path).unwrap();
        let (back, integrity) = load_integrity(&path).unwrap();
        assert_eq!(ds, back);
        assert_eq!(integrity, Integrity::Verified);
        std::fs::remove_file(&path).ok();
    }
}
