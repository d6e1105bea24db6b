//! Crash-safe training checkpoints for resumable runs.
//!
//! A checkpoint captures everything needed to continue training exactly
//! where a killed process stopped: the model (quantizer + network values),
//! the optimizer (including Adam's step counter), the per-parameter moment
//! buffers, and how many epochs completed. Because the trainer's shuffle
//! stream is a pure function of the seed and the epoch index, restoring
//! this state and fast-forwarding the RNG reproduces an uninterrupted run
//! bit for bit (see [`airchitect_nn::train::fit_resumable`]).
//!
//! Format: magic `AIRC`, version 1, epochs-done counter, a
//! [`RunFingerprint`] pinning the training spec and dataset, the optimizer,
//! the embedded AIRM model blob, the AIMS optimizer-state blob, then a
//! CRC32 footer over all preceding bytes. Writes are atomic (temp file +
//! fsync + rename), so the previous checkpoint survives a crash mid-save.

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes};

use airchitect_data::integrity::{append_crc_footer, atomic_write, crc32, split_crc_footer};
use airchitect_data::{codec, Dataset};
use airchitect_nn::optim::Optimizer;
use airchitect_nn::serialize as nn_serialize;
use airchitect_nn::train::{ResumePoint, TrainConfig};

use crate::model::AirchitectModel;
use crate::persist::{self, PersistError};

const MAGIC: &[u8; 4] = b"AIRC";
const VERSION: u32 = 1;

/// File name of the training checkpoint inside a checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.airc";

/// Error produced by the checkpoint codec.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Malformed checkpoint buffer.
    Corrupt(&'static str),
    /// The checkpoint's CRC32 footer did not match its contents.
    ChecksumMismatch {
        /// CRC stored in the file footer.
        stored: u32,
        /// CRC computed over the file body.
        computed: u32,
    },
    /// The checkpoint belongs to a different run (which field disagreed).
    Mismatch(&'static str),
    /// Error inside the embedded model or optimizer-state blob.
    Persist(PersistError),
    /// Filesystem error, stringified.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: file says {stored:#010x}, contents hash to {computed:#010x}"
            ),
            CheckpointError::Mismatch(field) => {
                write!(f, "checkpoint is from a different run: {field} differs")
            }
            CheckpointError::Persist(e) => write!(f, "checkpoint payload: {e}"),
            CheckpointError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<PersistError> for CheckpointError {
    fn from(e: PersistError) -> Self {
        CheckpointError::Persist(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// Identifies the run a checkpoint belongs to: the training schedule plus a
/// CRC over the serialized training dataset. Resuming refuses checkpoints
/// whose fingerprint disagrees with the current invocation, so a stale
/// checkpoint directory can never silently corrupt a new run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunFingerprint {
    /// Shuffling seed of the run.
    pub seed: u64,
    /// Total epochs in the schedule.
    pub epochs: u32,
    /// Minibatch size.
    pub batch_size: u32,
    /// Per-epoch learning-rate decay factor.
    pub lr_decay: f32,
    /// Rows in the training dataset.
    pub data_rows: u64,
    /// Feature width of the training dataset.
    pub data_dim: u32,
    /// Number of label classes.
    pub data_classes: u32,
    /// CRC32 of the serialized training dataset.
    pub data_crc: u32,
}

impl RunFingerprint {
    /// Fingerprints a training invocation: schedule from `train`, identity
    /// of `data` via shape plus a CRC over its canonical serialization.
    pub fn new(train: &TrainConfig, data: &Dataset) -> Self {
        Self {
            seed: train.seed,
            epochs: train.epochs as u32,
            batch_size: train.batch_size as u32,
            lr_decay: train.lr_decay,
            data_rows: data.len() as u64,
            data_dim: data.feature_dim() as u32,
            data_classes: data.num_classes(),
            data_crc: crc32(&codec::to_bytes(data)),
        }
    }

    /// Which field (if any) disagrees with `other`.
    fn diff(&self, other: &RunFingerprint) -> Option<&'static str> {
        if self.seed != other.seed {
            Some("seed")
        } else if self.epochs != other.epochs {
            Some("epoch schedule")
        } else if self.batch_size != other.batch_size {
            Some("batch size")
        } else if self.lr_decay.to_bits() != other.lr_decay.to_bits() {
            Some("learning-rate decay")
        } else if self.data_rows != other.data_rows
            || self.data_dim != other.data_dim
            || self.data_classes != other.data_classes
            || self.data_crc != other.data_crc
        {
            Some("training dataset")
        } else {
            None
        }
    }
}

/// A decoded training checkpoint: the state needed to continue a run.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Number of epochs already completed.
    pub epochs_done: u32,
    /// Fingerprint of the run that produced the checkpoint.
    pub fingerprint: RunFingerprint,
    /// Model as of the last completed epoch (moment buffers restored).
    pub model: AirchitectModel,
    /// Optimizer as of the last completed epoch (decay already applied).
    pub optimizer: Optimizer,
}

impl TrainCheckpoint {
    /// The trainer-facing resume point for this checkpoint.
    pub fn resume_point(&self) -> ResumePoint {
        ResumePoint {
            next_epoch: self.epochs_done as usize,
            optimizer: self.optimizer,
        }
    }
}

/// Path of the checkpoint file inside `dir`.
pub fn checkpoint_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(CHECKPOINT_FILE)
}

fn put_optimizer(buf: &mut Vec<u8>, opt: &Optimizer) {
    match *opt {
        Optimizer::Sgd { lr, momentum } => {
            buf.put_u8(0);
            buf.put_f32_le(lr);
            buf.put_f32_le(momentum);
        }
        Optimizer::Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
        } => {
            buf.put_u8(1);
            buf.put_f32_le(lr);
            buf.put_f32_le(beta1);
            buf.put_f32_le(beta2);
            buf.put_f32_le(eps);
            buf.put_u64_le(t);
        }
    }
}

fn get_optimizer(buf: &mut &[u8]) -> Result<Optimizer, CheckpointError> {
    if buf.remaining() < 1 {
        return Err(CheckpointError::Corrupt("truncated optimizer"));
    }
    match buf.get_u8() {
        0 => {
            if buf.remaining() < 8 {
                return Err(CheckpointError::Corrupt("truncated sgd state"));
            }
            Ok(Optimizer::Sgd {
                lr: buf.get_f32_le(),
                momentum: buf.get_f32_le(),
            })
        }
        1 => {
            if buf.remaining() < 24 {
                return Err(CheckpointError::Corrupt("truncated adam state"));
            }
            Ok(Optimizer::Adam {
                lr: buf.get_f32_le(),
                beta1: buf.get_f32_le(),
                beta2: buf.get_f32_le(),
                eps: buf.get_f32_le(),
                t: buf.get_u64_le(),
            })
        }
        _ => Err(CheckpointError::Corrupt("unknown optimizer tag")),
    }
}

/// Serializes a checkpoint to bytes (version 1, checksummed).
pub fn to_bytes(
    model: &AirchitectModel,
    optimizer: &Optimizer,
    epochs_done: u32,
    fingerprint: &RunFingerprint,
) -> Bytes {
    let mut buf = Vec::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(epochs_done);

    buf.put_u64_le(fingerprint.seed);
    buf.put_u32_le(fingerprint.epochs);
    buf.put_u32_le(fingerprint.batch_size);
    buf.put_f32_le(fingerprint.lr_decay);
    buf.put_u64_le(fingerprint.data_rows);
    buf.put_u32_le(fingerprint.data_dim);
    buf.put_u32_le(fingerprint.data_classes);
    buf.put_u32_le(fingerprint.data_crc);

    put_optimizer(&mut buf, optimizer);

    let model_blob = persist::to_bytes(model);
    buf.put_u64_le(model_blob.len() as u64);
    buf.put_slice(&model_blob);

    let state_blob = nn_serialize::state_to_bytes(model.network());
    buf.put_u64_le(state_blob.len() as u64);
    buf.put_slice(&state_blob);

    append_crc_footer(&mut buf);
    Bytes::from(buf)
}

/// Deserializes a checkpoint produced by [`to_bytes`], verifying the CRC
/// and (when given) the run fingerprint.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] / [`CheckpointError::ChecksumMismatch`] on
/// damaged files, [`CheckpointError::Mismatch`] when the checkpoint belongs
/// to a different `(config, dataset)` than `expected`.
pub fn from_bytes(
    buf: &[u8],
    expected: Option<&RunFingerprint>,
) -> Result<TrainCheckpoint, CheckpointError> {
    if buf.len() < 12 {
        return Err(CheckpointError::Corrupt("truncated header"));
    }
    if &buf[..4] != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(CheckpointError::Corrupt("unsupported version"));
    }
    let (body, stored) =
        split_crc_footer(buf).ok_or(CheckpointError::Corrupt("truncated header"))?;
    let computed = crc32(body);
    if computed != stored {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }

    let mut buf = &body[8..]; // magic + version, validated above
    if buf.remaining() < 4 + 40 {
        return Err(CheckpointError::Corrupt("truncated run header"));
    }
    let epochs_done = buf.get_u32_le();
    let fingerprint = RunFingerprint {
        seed: buf.get_u64_le(),
        epochs: buf.get_u32_le(),
        batch_size: buf.get_u32_le(),
        lr_decay: buf.get_f32_le(),
        data_rows: buf.get_u64_le(),
        data_dim: buf.get_u32_le(),
        data_classes: buf.get_u32_le(),
        data_crc: buf.get_u32_le(),
    };
    if epochs_done > fingerprint.epochs {
        return Err(CheckpointError::Corrupt("epochs done exceeds schedule"));
    }
    if let Some(want) = expected {
        if let Some(field) = fingerprint.diff(want) {
            return Err(CheckpointError::Mismatch(field));
        }
    }
    let optimizer = get_optimizer(&mut buf)?;

    if buf.remaining() < 8 {
        return Err(CheckpointError::Corrupt("truncated model length"));
    }
    let model_len = buf.get_u64_le() as usize;
    if buf.remaining() < model_len {
        return Err(CheckpointError::Corrupt("model blob size mismatch"));
    }
    let mut model = persist::from_bytes(&buf[..model_len])?;
    buf.advance(model_len);

    if buf.remaining() < 8 {
        return Err(CheckpointError::Corrupt("truncated state length"));
    }
    let state_len = buf.get_u64_le() as usize;
    if buf.remaining() != state_len {
        return Err(CheckpointError::Corrupt("state blob size mismatch"));
    }
    nn_serialize::apply_state(model.network_mut(), buf)
        .map_err(|e| CheckpointError::Persist(PersistError::Network(e.to_string())))?;

    Ok(TrainCheckpoint {
        epochs_done,
        fingerprint,
        model,
        optimizer,
    })
}

/// Atomically writes a checkpoint into `dir` (creating it if absent) and
/// returns the checkpoint file's path.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on filesystem errors.
pub fn save(
    dir: impl AsRef<Path>,
    model: &AirchitectModel,
    optimizer: &Optimizer,
    epochs_done: u32,
    fingerprint: &RunFingerprint,
) -> Result<PathBuf, CheckpointError> {
    let dir = dir.as_ref();
    let mut span = airchitect_telemetry::span::Span::enter("checkpoint.save");
    span.field_u64("epochs_done", u64::from(epochs_done));
    let _save_timer = airchitect_telemetry::metrics::CHECKPOINT_SAVE_US.start_timer();
    airchitect_telemetry::metrics::CHECKPOINT_SAVES.inc();
    std::fs::create_dir_all(dir)?;
    let path = checkpoint_path(dir);
    atomic_write(&path, &to_bytes(model, optimizer, epochs_done, fingerprint))?;
    Ok(path)
}

/// Loads the checkpoint from `dir`, verifying checksum and (when given)
/// that it belongs to the `expected` run.
///
/// # Errors
///
/// [`CheckpointError::Io`] when the file is unreadable, otherwise as
/// [`from_bytes`].
pub fn load(
    dir: impl AsRef<Path>,
    expected: Option<&RunFingerprint>,
) -> Result<TrainCheckpoint, CheckpointError> {
    let path = checkpoint_path(dir);
    let mut buf = Vec::new();
    File::open(&path)?.read_to_end(&mut buf)?;
    from_bytes(&buf, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AirchitectConfig, CaseStudy};

    fn small_setup() -> (AirchitectModel, Dataset, TrainConfig) {
        let mut ds = Dataset::new(4, 3).unwrap();
        for i in 0..90 {
            let m = [8.0, 256.0, 8192.0][i % 3];
            ds.push(&[10.0, m, 64.0, 64.0], (i % 3) as u32).unwrap();
        }
        let train = TrainConfig {
            epochs: 4,
            batch_size: 16,
            ..Default::default()
        };
        let model = AirchitectModel::new(
            CaseStudy::ArrayDataflow,
            &AirchitectConfig {
                num_classes: 3,
                train,
                ..Default::default()
            },
        );
        (model, ds, train)
    }

    #[test]
    fn roundtrip_restores_model_state_and_optimizer() {
        let (mut model, ds, train) = small_setup();
        model.train(&ds).unwrap();
        let fp = RunFingerprint::new(&train, &ds);
        let opt = Optimizer::Adam {
            lr: 5e-4,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 42,
        };
        let bytes = to_bytes(&model, &opt, 3, &fp);
        let ckpt = from_bytes(&bytes, Some(&fp)).unwrap();
        assert_eq!(ckpt.epochs_done, 3);
        assert_eq!(ckpt.optimizer, opt);
        assert_eq!(ckpt.fingerprint, fp);
        // Parameter values and moment buffers round-trip exactly. (Direct
        // PartialEq on Sequential would also compare transient forward-pass
        // caches, which checkpoints deliberately do not carry.)
        assert_eq!(
            nn_serialize::to_bytes(ckpt.model.network()),
            nn_serialize::to_bytes(model.network())
        );
        assert_eq!(
            nn_serialize::state_to_bytes(ckpt.model.network()),
            nn_serialize::state_to_bytes(model.network())
        );
        assert_eq!(ckpt.resume_point().next_epoch, 3);
    }

    #[test]
    fn save_load_via_directory() {
        let (model, ds, train) = small_setup();
        let fp = RunFingerprint::new(&train, &ds);
        let dir = std::env::temp_dir().join(format!("airc-ckpt-{}", std::process::id()));
        let path = save(&dir, &model, &Optimizer::sgd(0.1), 1, &fp).unwrap();
        assert!(path.ends_with(CHECKPOINT_FILE));
        let ckpt = load(&dir, Some(&fp)).unwrap();
        assert_eq!(ckpt.epochs_done, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_typed() {
        let (model, ds, train) = small_setup();
        let fp = RunFingerprint::new(&train, &ds);
        let bytes = to_bytes(&model, &Optimizer::sgd(0.1), 2, &fp);

        let other = TrainConfig {
            seed: train.seed + 1,
            ..train
        };
        let want = RunFingerprint::new(&other, &ds);
        assert_eq!(
            from_bytes(&bytes, Some(&want)).unwrap_err(),
            CheckpointError::Mismatch("seed"),
        );

        let mut ds2 = Dataset::new(4, 3).unwrap();
        ds2.push(&[10.0, 8.0, 64.0, 64.0], 0).unwrap();
        let want = RunFingerprint::new(&train, &ds2);
        assert_eq!(
            from_bytes(&bytes, Some(&want)).unwrap_err(),
            CheckpointError::Mismatch("training dataset"),
        );
    }

    #[test]
    fn corruption_yields_typed_errors_never_panics() {
        let (model, ds, train) = small_setup();
        let fp = RunFingerprint::new(&train, &ds);
        let bytes = to_bytes(&model, &Optimizer::adam(1e-3), 2, &fp).to_vec();

        // Zero-length, truncations at every prefix step, and a bit flip.
        assert!(matches!(
            from_bytes(&[], None),
            Err(CheckpointError::Corrupt(_))
        ));
        for cut in [1, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut], None).is_err(), "cut at {cut}");
        }
        let mut flipped = bytes.clone();
        flipped[40] ^= 0x10;
        assert!(matches!(
            from_bytes(&flipped, None),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            from_bytes(&wrong_magic, None).unwrap_err(),
            CheckpointError::Corrupt("bad magic"),
        );
    }

    #[test]
    fn missing_checkpoint_is_an_io_error() {
        let err = load("/nonexistent-airc-dir", None).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
