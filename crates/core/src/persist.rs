//! Save/load for trained [`AirchitectModel`]s: the feature quantizer and the
//! network travel together, so a loaded model answers queries identically.
//!
//! Format: magic `AIRM`, version 2, case-study tag, quantizer columns, the
//! embedded `airchitect-nn` network blob, then a CRC32 footer over all
//! preceding bytes. Version-1 files (no footer) still load and are flagged
//! [`Integrity::UnverifiedLegacy`]. Saves are atomic (temp file + fsync +
//! rename), so a crash mid-save never leaves a torn model behind.

use std::fs::File;
use std::io::Read;
use std::path::Path;

use bytes::{Buf, BufMut, Bytes};

use airchitect_data::integrity::{
    append_crc_footer, atomic_write, crc32, split_crc_footer, Integrity,
};
use airchitect_nn::serialize as nn_serialize;

use crate::model::{AirchitectModel, CaseStudy, ColumnQuantizer, FeatureQuantizer};

const MAGIC: &[u8; 4] = b"AIRM";
const VERSION: u32 = 2;
const LEGACY_VERSION: u32 = 1;

/// Error produced by the model persistence codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Malformed buffer.
    Corrupt(&'static str),
    /// A version-2 file's CRC32 footer did not match its contents.
    ChecksumMismatch {
        /// CRC stored in the file footer.
        stored: u32,
        /// CRC computed over the file body.
        computed: u32,
    },
    /// Error inside the embedded network blob.
    Network(String),
    /// Filesystem error, stringified.
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Corrupt(what) => write!(f, "corrupt model file: {what}"),
            PersistError::ChecksumMismatch { stored, computed } => write!(
                f,
                "model checksum mismatch: file says {stored:#010x}, contents hash to {computed:#010x}"
            ),
            PersistError::Network(e) => write!(f, "network blob: {e}"),
            PersistError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

fn case_tag(case: CaseStudy) -> u8 {
    match case {
        CaseStudy::ArrayDataflow => 0,
        CaseStudy::BufferSizing => 1,
        CaseStudy::MultiArrayScheduling => 2,
    }
}

fn case_from_tag(tag: u8) -> Option<CaseStudy> {
    match tag {
        0 => Some(CaseStudy::ArrayDataflow),
        1 => Some(CaseStudy::BufferSizing),
        2 => Some(CaseStudy::MultiArrayScheduling),
        _ => None,
    }
}

/// Serializes a model (trained or not) to bytes (version 2, checksummed).
pub fn to_bytes(model: &AirchitectModel) -> Bytes {
    let net = nn_serialize::to_bytes(model.network());
    let mut buf = Vec::with_capacity(32 + 5 * model.quantizer().num_columns() + net.len());
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u8(case_tag(model.case_study()));
    buf.put_u8(model.is_trained() as u8);

    let q = model.quantizer();
    buf.put_u32_le(q.vocab());
    buf.put_u32_le(q.num_columns() as u32);
    for col in q.columns() {
        match col {
            ColumnQuantizer::Direct => buf.put_u8(0),
            ColumnQuantizer::Log2 { bins_per_octave } => {
                buf.put_u8(1);
                buf.put_u32_le(*bins_per_octave);
            }
            ColumnQuantizer::Scaled { step } => {
                buf.put_u8(2);
                buf.put_f32_le(*step);
            }
        }
    }

    buf.put_u64_le(net.len() as u64);
    buf.put_slice(&net);
    append_crc_footer(&mut buf);
    Bytes::from(buf)
}

/// Deserializes a model from bytes produced by [`to_bytes`], reporting
/// whether its checksum was verified.
///
/// Version-2 buffers have their CRC32 footer checked before any payload
/// parsing; version-1 buffers (pre-checksum) parse structurally and come
/// back as [`Integrity::UnverifiedLegacy`].
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] on malformed input and
/// [`PersistError::ChecksumMismatch`] when a v2 footer disagrees with the
/// body.
pub fn from_bytes_integrity(buf: &[u8]) -> Result<(AirchitectModel, Integrity), PersistError> {
    if buf.len() < 10 {
        return Err(PersistError::Corrupt("truncated header"));
    }
    if &buf[..4] != MAGIC {
        return Err(PersistError::Corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let (body, integrity) = match version {
        LEGACY_VERSION => (buf, Integrity::UnverifiedLegacy),
        VERSION => {
            let (body, stored) =
                split_crc_footer(buf).ok_or(PersistError::Corrupt("truncated header"))?;
            let computed = crc32(body);
            if computed != stored {
                return Err(PersistError::ChecksumMismatch { stored, computed });
            }
            (body, Integrity::Verified)
        }
        _ => return Err(PersistError::Corrupt("unsupported version")),
    };
    parse_body(body).map(|m| (m, integrity))
}

/// Deserializes a model from bytes produced by [`to_bytes`].
///
/// Convenience wrapper over [`from_bytes_integrity`] that discards the
/// integrity flag.
///
/// # Errors
///
/// Returns [`PersistError`] on malformed input.
pub fn from_bytes(buf: &[u8]) -> Result<AirchitectModel, PersistError> {
    from_bytes_integrity(buf).map(|(m, _)| m)
}

/// Parses the checksum-free body (header + payload) shared by v1 and v2.
fn parse_body(mut buf: &[u8]) -> Result<AirchitectModel, PersistError> {
    if buf.remaining() < 10 {
        return Err(PersistError::Corrupt("truncated header"));
    }
    buf.advance(8); // magic + version, validated by the caller
    let case = case_from_tag(buf.get_u8()).ok_or(PersistError::Corrupt("unknown case study"))?;
    let trained = buf.get_u8() != 0;

    if buf.remaining() < 8 {
        return Err(PersistError::Corrupt("truncated quantizer header"));
    }
    let vocab = buf.get_u32_le();
    let n_cols = buf.get_u32_le() as usize;
    if vocab == 0 || n_cols == 0 || n_cols > 4096 {
        return Err(PersistError::Corrupt("bad quantizer dimensions"));
    }
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        if buf.remaining() < 1 {
            return Err(PersistError::Corrupt("truncated quantizer column"));
        }
        columns.push(match buf.get_u8() {
            0 => ColumnQuantizer::Direct,
            1 => {
                if buf.remaining() < 4 {
                    return Err(PersistError::Corrupt("truncated log2 column"));
                }
                ColumnQuantizer::Log2 {
                    bins_per_octave: buf.get_u32_le(),
                }
            }
            2 => {
                if buf.remaining() < 4 {
                    return Err(PersistError::Corrupt("truncated scaled column"));
                }
                ColumnQuantizer::Scaled {
                    step: buf.get_f32_le(),
                }
            }
            _ => return Err(PersistError::Corrupt("unknown column tag")),
        });
    }
    let quantizer = FeatureQuantizer::new(columns, vocab);

    if buf.remaining() < 8 {
        return Err(PersistError::Corrupt("truncated network length"));
    }
    let net_len = buf.get_u64_le() as usize;
    if buf.remaining() != net_len {
        return Err(PersistError::Corrupt("network blob size mismatch"));
    }
    let network =
        nn_serialize::from_bytes(buf).map_err(|e| PersistError::Network(e.to_string()))?;
    if quantizer.num_columns() != network.in_dim() {
        return Err(PersistError::Corrupt(
            "quantizer width does not match the network input",
        ));
    }
    Ok(AirchitectModel::from_parts(
        case, quantizer, network, trained,
    ))
}

/// Saves a model to a file atomically (temp file + fsync + rename).
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem errors.
pub fn save(model: &AirchitectModel, path: impl AsRef<Path>) -> Result<(), PersistError> {
    airchitect_chaos::fail_point!("persist.write", |e: std::io::Error| Err(
        PersistError::Io(e.to_string())
    ));
    atomic_write(path, &to_bytes(model))?;
    Ok(())
}

/// Transient read errors retried before the load fails for real.
const READ_RETRIES: u32 = 4;

/// One open-and-read attempt (the `persist.read` failpoint injects here).
fn try_read(path: &Path) -> std::io::Result<Vec<u8>> {
    airchitect_chaos::fail_point!("persist.read", Err);
    let mut f = File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    Ok(buf)
}

/// Reads a whole file, retrying transient `Interrupted`/`WouldBlock`
/// errors with bounded exponential backoff (1/2/4/8 ms). Anything else —
/// including every corrupt-content error downstream — stays fail-fast.
fn read_with_retry(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut backoff_ms = 1u64;
    for _ in 0..READ_RETRIES {
        match try_read(path) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
                ) =>
            {
                airchitect_telemetry::metrics::PERSIST_READ_RETRIES.inc();
                std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                backoff_ms *= 2;
            }
            other => return other,
        }
    }
    try_read(path)
}

/// Loads a model from a file written by [`save`], with its integrity
/// status. Transient `Interrupted`/`WouldBlock` read errors are retried
/// with bounded backoff; corrupt contents fail fast.
///
/// # Errors
///
/// Returns [`PersistError`] on filesystem or parse errors.
pub fn load_integrity(
    path: impl AsRef<Path>,
) -> Result<(AirchitectModel, Integrity), PersistError> {
    let buf = read_with_retry(path.as_ref())?;
    from_bytes_integrity(&buf)
}

/// Loads a model from a file written by [`save`].
///
/// # Errors
///
/// Returns [`PersistError`] on filesystem or parse errors.
pub fn load(path: impl AsRef<Path>) -> Result<AirchitectModel, PersistError> {
    load_integrity(path).map(|(m, _)| m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AirchitectConfig;
    use airchitect_data::Dataset;
    use airchitect_nn::train::TrainConfig;

    /// Serializes every test that saves or loads a file: the `persist.*`
    /// failpoints the chaos tests arm are process-global.
    static CHAOS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn small_trained_model() -> AirchitectModel {
        let mut ds = Dataset::new(4, 3).unwrap();
        for i in 0..120 {
            let m = [8.0, 256.0, 8192.0][i % 3];
            ds.push(&[10.0, m, 64.0, 64.0], (i % 3) as u32).unwrap();
        }
        let mut model = AirchitectModel::new(
            CaseStudy::ArrayDataflow,
            &AirchitectConfig {
                num_classes: 3,
                train: TrainConfig {
                    epochs: 5,
                    batch_size: 32,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        model.train(&ds).unwrap();
        model
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let model = small_trained_model();
        let (back, integrity) = from_bytes_integrity(&to_bytes(&model)).unwrap();
        assert_eq!(back.case_study(), CaseStudy::ArrayDataflow);
        assert!(back.is_trained());
        assert_eq!(integrity, Integrity::Verified);
        for m in [4.0f32, 100.0, 5000.0] {
            let row = [10.0, m, 64.0, 64.0];
            assert_eq!(model.predict_row(&row), back.predict_row(&row));
        }
    }

    #[test]
    fn legacy_v1_loads_unverified() {
        let model = small_trained_model();
        let bytes = to_bytes(&model);
        // Strip the footer and patch the version back to 1, reproducing a
        // legacy writer's byte stream.
        let (body, _) = split_crc_footer(&bytes).unwrap();
        let mut v1 = body.to_vec();
        v1[4..8].copy_from_slice(&LEGACY_VERSION.to_le_bytes());
        let (back, integrity) = from_bytes_integrity(&v1).unwrap();
        assert_eq!(integrity, Integrity::UnverifiedLegacy);
        let row = [10.0, 256.0, 64.0, 64.0];
        assert_eq!(model.predict_row(&row), back.predict_row(&row));
    }

    #[test]
    fn rejects_corruption() {
        let model = small_trained_model();
        let mut bytes = to_bytes(&model).to_vec();
        bytes[0] = b'Z';
        assert!(matches!(
            from_bytes(&bytes),
            Err(PersistError::Corrupt("bad magic"))
        ));
        let bytes = to_bytes(&model);
        assert!(from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    /// Rewrites a v2 artifact's body with `patch` and recomputes its CRC
    /// footer, so only the structural checks can catch the damage.
    fn patched(bytes: &[u8], patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let (body, _) = split_crc_footer(bytes).unwrap();
        let mut body = body.to_vec();
        patch(&mut body);
        append_crc_footer(&mut body);
        body
    }

    /// Offset of the embedded network blob's header.
    fn ainn_offset(bytes: &[u8]) -> usize {
        bytes.windows(4).position(|w| w == b"AINN").unwrap()
    }

    /// Regression: a CRC-valid model whose network header claims
    /// one input more than the quantizer feeds used to panic in
    /// `AirchitectModel::from_parts`; it is a corrupt file.
    #[test]
    fn header_input_width_mismatch_is_corrupt_not_a_panic() {
        let bytes = to_bytes(&small_trained_model());
        let at = ainn_offset(&bytes) + 8;
        let bad = patched(&bytes, |b| {
            b[at..at + 4].copy_from_slice(&5u32.to_le_bytes())
        });
        let err = from_bytes(&bad).unwrap_err();
        assert!(matches!(err, PersistError::Network(_)), "{err}");
        assert!(err.to_string().contains("do not chain"), "{err}");
    }

    /// Regression: a network header claiming more classes than
    /// its classifier head emits used to load and report them.
    #[test]
    fn header_class_count_mismatch_is_corrupt() {
        let bytes = to_bytes(&small_trained_model());
        let at = ainn_offset(&bytes) + 12;
        let bad = patched(&bytes, |b| {
            b[at..at + 4].copy_from_slice(&500u32.to_le_bytes())
        });
        let err = from_bytes(&bad).unwrap_err();
        assert!(matches!(err, PersistError::Network(_)), "{err}");
        assert!(err.to_string().contains("output width"), "{err}");
    }

    /// A quantizer with one column more than the network takes is corrupt
    /// even when the network blob itself is consistent.
    #[test]
    fn quantizer_wider_than_the_network_is_corrupt() {
        let bytes = to_bytes(&small_trained_model());
        // Header: magic, version, case, trained, vocab, then the column
        // count at byte 14 and the columns from byte 18.
        let bad = patched(&bytes, |b| {
            let cols = u32::from_le_bytes(b[14..18].try_into().unwrap());
            b[14..18].copy_from_slice(&(cols + 1).to_le_bytes());
            b.insert(18, 0); // one extra `Direct` column
        });
        assert_eq!(
            from_bytes(&bad).unwrap_err(),
            PersistError::Corrupt("quantizer width does not match the network input")
        );
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let model = small_trained_model();
        let mut bytes = to_bytes(&model).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        assert!(matches!(
            from_bytes(&bytes),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    /// Only meaningful when the failpoint framework is compiled in
    /// (`cargo test -p airchitect --features chaos`).
    #[cfg(feature = "chaos")]
    mod chaos {
        use super::*;

        fn saved_model(name: &str) -> std::path::PathBuf {
            let dir = std::env::temp_dir().join("airchitect-core-chaos");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(name);
            save(&small_trained_model(), &path).unwrap();
            path
        }

        #[test]
        fn transient_read_errors_are_retried_to_success() {
            let _guard = CHAOS.lock().unwrap();
            let path = saved_model("transient.airm");
            let fired_before = airchitect_chaos::fired("persist.read");
            // Two injected EINTRs, then the real read goes through.
            airchitect_chaos::configure_str("persist.read=err(interrupted):1:2").unwrap();
            let (_, integrity) = load_integrity(&path).unwrap();
            airchitect_chaos::remove("persist.read");
            assert_eq!(integrity, Integrity::Verified);
            assert_eq!(airchitect_chaos::fired("persist.read") - fired_before, 2);
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn persistent_transient_errors_exhaust_the_retry_budget() {
            let _guard = CHAOS.lock().unwrap();
            let path = saved_model("exhaust.airm");
            airchitect_chaos::configure_str("persist.read=err(wouldblock)").unwrap();
            let err = load_integrity(&path).unwrap_err();
            airchitect_chaos::remove("persist.read");
            assert!(matches!(err, PersistError::Io(_)), "{err}");
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn non_transient_read_errors_fail_fast() {
            let _guard = CHAOS.lock().unwrap();
            let path = saved_model("failfast.airm");
            let fired_before = airchitect_chaos::fired("persist.read");
            airchitect_chaos::configure_str("persist.read=err(other):1:5").unwrap();
            assert!(matches!(
                load_integrity(&path),
                Err(PersistError::Io(_))
            ));
            airchitect_chaos::remove("persist.read");
            assert_eq!(
                airchitect_chaos::fired("persist.read") - fired_before,
                1,
                "a non-transient error must not be retried"
            );
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn injected_write_errors_surface_as_io() {
            let _guard = CHAOS.lock().unwrap();
            airchitect_chaos::configure_str("persist.write=err(other):1:1").unwrap();
            let path = std::env::temp_dir().join("airchitect-core-chaos-w.airm");
            let err = save(&small_trained_model(), &path).unwrap_err();
            airchitect_chaos::remove("persist.write");
            assert!(matches!(err, PersistError::Io(_)), "{err}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let _guard = CHAOS.lock().unwrap();
        let dir = std::env::temp_dir().join("airchitect-core-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.airm");
        let model = small_trained_model();
        save(&model, &path).unwrap();
        let (back, integrity) = load_integrity(&path).unwrap();
        assert_eq!(integrity, Integrity::Verified);
        let row = [9.0, 300.0, 64.0, 64.0];
        assert_eq!(model.predict_row(&row), back.predict_row(&row));
        std::fs::remove_file(&path).ok();
    }
}
