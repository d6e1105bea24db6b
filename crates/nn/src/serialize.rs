//! Binary save/load for trained networks.
//!
//! A small hand-rolled codec (magic `AINN`, version 1) keeps the dependency
//! set within the approved offline list — no serde data-format crate is
//! needed. Only values are stored; a loaded model has no gradient or moment
//! buffers until training allocates them zeroed (a loaded model is for
//! inference or fresh fine-tuning).

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use airchitect_data::codec::{get_le_array, put_le_array};
use bytes::{Buf, BufMut, Bytes};

use crate::layer::{Dense, Dropout, Embedding, Layer, Relu};
use crate::network::Sequential;
use crate::Param;

const MAGIC: &[u8; 4] = b"AINN";
const VERSION: u32 = 1;

const TAG_DENSE: u8 = 0;
const TAG_RELU: u8 = 1;
const TAG_EMBEDDING: u8 = 2;
const TAG_DROPOUT: u8 = 3;

/// Error produced by the model codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCodecError {
    /// Malformed buffer.
    Corrupt(&'static str),
    /// Filesystem error, stringified.
    Io(String),
}

impl std::fmt::Display for ModelCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelCodecError::Corrupt(what) => write!(f, "corrupt model buffer: {what}"),
            ModelCodecError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ModelCodecError {}

impl From<std::io::Error> for ModelCodecError {
    fn from(e: std::io::Error) -> Self {
        ModelCodecError::Io(e.to_string())
    }
}

/// Appends a length-prefixed `f32` array (shared with the `AIQN` codec).
pub(crate) fn put_values(buf: &mut Vec<u8>, values: &[f32]) {
    buf.put_u64_le(values.len() as u64);
    put_le_array(buf, values);
}

/// Reads a length-prefixed `f32` array written by [`put_values`].
pub(crate) fn get_values(buf: &mut &[u8]) -> Result<Vec<f32>, ModelCodecError> {
    if buf.remaining() < 8 {
        return Err(ModelCodecError::Corrupt("truncated length"));
    }
    // Checked before allocating: a corrupted length must not trigger a
    // huge or overflowing allocation.
    let n = usize::try_from(buf.get_u64_le())
        .map_err(|_| ModelCodecError::Corrupt("length overflow"))?;
    get_le_array(buf, n).ok_or(ModelCodecError::Corrupt("truncated values"))
}

/// Serializes a network to bytes.
pub fn to_bytes(network: &Sequential) -> Bytes {
    let mut buf = Vec::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(network.in_dim() as u32);
    buf.put_u32_le(network.out_dim() as u32);
    buf.put_u32_le(network.layers().len() as u32);
    for layer in network.layers() {
        match layer {
            Layer::Dense(d) => {
                buf.put_u8(TAG_DENSE);
                buf.put_u32_le(d.in_dim() as u32);
                buf.put_u32_le(d.out_dim() as u32);
                put_values(&mut buf, &d.weights().value);
                put_values(&mut buf, &d.bias().value);
            }
            Layer::Relu(_) => buf.put_u8(TAG_RELU),
            Layer::Dropout(d) => {
                buf.put_u8(TAG_DROPOUT);
                buf.put_f32_le(d.rate());
            }
            Layer::Embedding(e) => {
                buf.put_u8(TAG_EMBEDDING);
                buf.put_u32_le(e.num_features() as u32);
                buf.put_u32_le(e.vocab() as u32);
                buf.put_u32_le(e.embed_dim() as u32);
                put_values(&mut buf, &e.table().value);
            }
        }
    }
    Bytes::from(buf)
}

/// Deserializes a network from bytes produced by [`to_bytes`].
///
/// Besides every length, the layer widths must chain from the header's
/// input width to its output width, so a header that disagrees with its
/// layers is rejected here instead of panicking (or misreporting its class
/// count) in whatever consumes the network.
///
/// # Errors
///
/// Returns [`ModelCodecError::Corrupt`] on malformed input.
pub fn from_bytes(mut buf: &[u8]) -> Result<Sequential, ModelCodecError> {
    if buf.remaining() < 20 {
        return Err(ModelCodecError::Corrupt("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ModelCodecError::Corrupt("bad magic"));
    }
    if buf.get_u32_le() != VERSION {
        return Err(ModelCodecError::Corrupt("unsupported version"));
    }
    let in_dim = buf.get_u32_le() as usize;
    let out_dim = buf.get_u32_le() as usize;
    let n_layers = buf.get_u32_le() as usize;
    let mut layers = Vec::with_capacity(n_layers.min(64));
    // Width of the activations flowing into the next layer.
    let mut width = in_dim;
    for _ in 0..n_layers {
        if buf.remaining() < 1 {
            return Err(ModelCodecError::Corrupt("truncated layer tag"));
        }
        match buf.get_u8() {
            TAG_DENSE => {
                if buf.remaining() < 8 {
                    return Err(ModelCodecError::Corrupt("truncated dense dims"));
                }
                let din = buf.get_u32_le() as usize;
                let dout = buf.get_u32_le() as usize;
                let w = get_values(&mut buf)?;
                let b = get_values(&mut buf)?;
                if w.len() != din * dout || b.len() != dout || din == 0 || dout == 0 {
                    return Err(ModelCodecError::Corrupt("dense size mismatch"));
                }
                if din != width {
                    return Err(ModelCodecError::Corrupt("layer dimensions do not chain"));
                }
                width = dout;
                layers.push(Layer::Dense(Dense::from_params(
                    din,
                    dout,
                    Param::from_values(w),
                    Param::from_values(b),
                )));
            }
            TAG_RELU => layers.push(Layer::Relu(Relu::new())),
            TAG_DROPOUT => {
                if buf.remaining() < 4 {
                    return Err(ModelCodecError::Corrupt("truncated dropout rate"));
                }
                let rate = buf.get_f32_le();
                if !(0.0..1.0).contains(&rate) {
                    return Err(ModelCodecError::Corrupt("dropout rate out of range"));
                }
                layers.push(Layer::Dropout(Dropout::new(rate, 0)));
            }
            TAG_EMBEDDING => {
                if buf.remaining() < 12 {
                    return Err(ModelCodecError::Corrupt("truncated embedding dims"));
                }
                let nf = buf.get_u32_le() as usize;
                let vocab = buf.get_u32_le() as usize;
                let dim = buf.get_u32_le() as usize;
                let table = get_values(&mut buf)?;
                let cells = nf.checked_mul(vocab).and_then(|n| n.checked_mul(dim));
                if cells != Some(table.len()) || nf == 0 || vocab == 0 || dim == 0 {
                    return Err(ModelCodecError::Corrupt("embedding size mismatch"));
                }
                if nf != width {
                    return Err(ModelCodecError::Corrupt("layer dimensions do not chain"));
                }
                width = nf * dim;
                layers.push(Layer::Embedding(Embedding::from_params(
                    nf,
                    vocab,
                    dim,
                    Param::from_values(table),
                )));
            }
            _ => return Err(ModelCodecError::Corrupt("unknown layer tag")),
        }
    }
    if buf.has_remaining() {
        return Err(ModelCodecError::Corrupt("trailing bytes"));
    }
    if layers.is_empty() {
        return Err(ModelCodecError::Corrupt("no layers"));
    }
    if width != out_dim {
        return Err(ModelCodecError::Corrupt(
            "output width does not match the last layer",
        ));
    }
    Ok(Sequential::from_layers(layers, in_dim, out_dim))
}

const STATE_MAGIC: &[u8; 4] = b"AIMS";
const STATE_VERSION: u32 = 1;

/// Serializes the per-parameter optimizer state (momentum / Adam moment
/// buffers) of `network` to bytes (magic `AIMS`).
///
/// [`to_bytes`] deliberately stores values only — inference artifacts stay
/// compact and a loaded model fine-tunes from fresh moments. Training
/// checkpoints pair the value blob with this state blob so a resumed run
/// continues bit-for-bit where it stopped.
pub fn state_to_bytes(network: &Sequential) -> Bytes {
    let params = network.params();
    let mut buf = Vec::new();
    buf.put_slice(STATE_MAGIC);
    buf.put_u32_le(STATE_VERSION);
    buf.put_u32_le(params.len() as u32);
    for p in params {
        let (m, v) = p.moments();
        if m.is_empty() && !p.is_empty() {
            // Never trained since it was decoded: its moments are zero.
            let zeros = vec![0.0; p.len()];
            put_values(&mut buf, &zeros);
            put_values(&mut buf, &zeros);
        } else {
            put_values(&mut buf, m);
            put_values(&mut buf, v);
        }
    }
    Bytes::from(buf)
}

/// Restores optimizer state produced by [`state_to_bytes`] into `network`.
///
/// # Errors
///
/// Returns [`ModelCodecError::Corrupt`] on malformed input or when the
/// state does not match the network's parameter shapes.
pub fn apply_state(network: &mut Sequential, mut buf: &[u8]) -> Result<(), ModelCodecError> {
    if buf.remaining() < 12 {
        return Err(ModelCodecError::Corrupt("truncated state header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != STATE_MAGIC {
        return Err(ModelCodecError::Corrupt("bad state magic"));
    }
    if buf.get_u32_le() != STATE_VERSION {
        return Err(ModelCodecError::Corrupt("unsupported state version"));
    }
    let n = buf.get_u32_le() as usize;
    if n != network.params().len() {
        return Err(ModelCodecError::Corrupt("state parameter count mismatch"));
    }
    // Parse fully before touching the network, so a corrupt buffer cannot
    // leave it half-restored.
    let mut moments = Vec::with_capacity(n);
    for _ in 0..n {
        let m = get_values(&mut buf)?;
        let v = get_values(&mut buf)?;
        moments.push((m, v));
    }
    if buf.has_remaining() {
        return Err(ModelCodecError::Corrupt("trailing state bytes"));
    }
    for (p, (m, v)) in network.params().iter().zip(&moments) {
        if m.len() != p.len() || v.len() != p.len() {
            return Err(ModelCodecError::Corrupt("state moment size mismatch"));
        }
    }
    for (p, (m, v)) in network.params_mut().into_iter().zip(moments) {
        p.set_moments(m, v);
    }
    Ok(())
}

/// Saves a network to a file.
///
/// # Errors
///
/// Returns [`ModelCodecError::Io`] on filesystem errors.
pub fn save(network: &Sequential, path: impl AsRef<Path>) -> Result<(), ModelCodecError> {
    let mut f = File::create(path)?;
    f.write_all(&to_bytes(network))?;
    Ok(())
}

/// Loads a network from a file written by [`save`].
///
/// # Errors
///
/// Returns [`ModelCodecError`] on filesystem or parse errors.
pub fn load(path: impl AsRef<Path>) -> Result<Sequential, ModelCodecError> {
    let mut f = File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    from_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use airchitect_tensor::Matrix;

    #[test]
    fn roundtrip_mlp() {
        let mut net = Sequential::mlp(3, &[8], 4, 42);
        let bytes = to_bytes(&net);
        let mut back = from_bytes(&bytes).unwrap();
        let x = Matrix::from_rows(&[&[0.1, -0.5, 2.0]]);
        assert_eq!(net.forward(&x, false), back.forward(&x, false));
    }

    #[test]
    fn roundtrip_embedding_mlp() {
        let mut net = Sequential::embedding_mlp(4, 16, 8, 32, 10, 7);
        let mut back = from_bytes(&to_bytes(&net)).unwrap();
        let x = Matrix::from_rows(&[&[0.0, 3.0, 15.0, 7.0]]);
        assert_eq!(net.forward(&x, false), back.forward(&x, false));
    }

    #[test]
    fn rejects_corruption() {
        let net = Sequential::mlp(2, &[4], 2, 1);
        let mut bytes = to_bytes(&net).to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes(&bytes),
            Err(ModelCodecError::Corrupt("bad magic"))
        ));
        let bytes = to_bytes(&net);
        assert!(from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let net = Sequential::mlp(2, &[4], 2, 1);
        let mut bytes = to_bytes(&net).to_vec();
        bytes.push(0);
        assert!(matches!(
            from_bytes(&bytes),
            Err(ModelCodecError::Corrupt("trailing bytes"))
        ));
    }

    /// Overwrites a header field: `in_dim` (byte 8), `out_dim` (12) or
    /// the layer count (16).
    fn patch_header(bytes: &[u8], offset: usize, value: u32) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        out
    }

    /// Regression: an input width the first layer does not take
    /// is corrupt (it used to load and panic in the model wrapper).
    #[test]
    fn rejects_input_width_the_first_layer_does_not_take() {
        let bytes = to_bytes(&Sequential::embedding_mlp(4, 16, 8, 32, 10, 7));
        assert!(from_bytes(&patch_header(&bytes, 8, 4)).is_ok());
        assert_eq!(
            from_bytes(&patch_header(&bytes, 8, 5)).unwrap_err(),
            ModelCodecError::Corrupt("layer dimensions do not chain")
        );
    }

    /// Regression: an output width the last layer does not emit
    /// is corrupt (it used to load and report that many classes).
    #[test]
    fn rejects_output_width_the_last_layer_does_not_emit() {
        let bytes = to_bytes(&Sequential::embedding_mlp(4, 16, 8, 32, 10, 7));
        assert_eq!(
            from_bytes(&patch_header(&bytes, 12, 500)).unwrap_err(),
            ModelCodecError::Corrupt("output width does not match the last layer")
        );
    }

    /// A corrupt layer count must not size an allocation: `u32::MAX`
    /// layers used to be reserved up front.
    #[test]
    fn huge_layer_count_fails_without_reserving_for_it() {
        let bytes = to_bytes(&Sequential::mlp(2, &[4], 3, 1));
        assert_eq!(
            from_bytes(&patch_header(&bytes, 16, u32::MAX)).unwrap_err(),
            ModelCodecError::Corrupt("truncated layer tag")
        );
    }

    /// Embedding dimensions whose product overflows are corrupt, not an
    /// arithmetic overflow (a panic in debug builds).
    #[test]
    fn rejects_embedding_dimensions_whose_product_overflows() {
        let mut bytes = to_bytes(&Sequential::embedding_mlp(2, 4, 2, 4, 3, 1)).to_vec();
        // The embedding's dims follow the header (20 bytes) and its tag.
        for at in [21, 25, 29] {
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        assert_eq!(
            from_bytes(&bytes).unwrap_err(),
            ModelCodecError::Corrupt("embedding size mismatch")
        );
    }

    /// Regression: dense layers whose widths do not chain are
    /// corrupt even when each layer's own buffers are consistent.
    #[test]
    fn rejects_dense_layers_that_do_not_chain() {
        let dense = |din: usize, dout: usize| {
            Layer::Dense(Dense::from_params(
                din,
                dout,
                Param::new(vec![0.5; din * dout]),
                Param::new(vec![0.0; dout]),
            ))
        };
        let chained = Sequential::from_layers(vec![dense(2, 4), dense(4, 3)], 2, 3);
        assert!(from_bytes(&to_bytes(&chained)).is_ok());
        let broken = Sequential::from_layers(vec![dense(2, 4), dense(5, 3)], 2, 3);
        assert_eq!(
            from_bytes(&to_bytes(&broken)).unwrap_err(),
            ModelCodecError::Corrupt("layer dimensions do not chain")
        );
    }

    #[test]
    fn state_roundtrip_restores_moments() {
        use crate::optim::Optimizer;
        // Take some optimizer steps so the moment buffers are non-trivial.
        let mut net = Sequential::mlp(2, &[4], 2, 3);
        let mut opt = Optimizer::adam(1e-2);
        let x = Matrix::from_rows(&[&[1.0, -1.0]]);
        for _ in 0..3 {
            let y = net.forward(&x, true);
            net.backward(&y);
            opt.step(net.params_mut());
        }
        let values = to_bytes(&net);
        let state = state_to_bytes(&net);
        let mut back = from_bytes(&values).unwrap();
        assert_ne!(back, net, "values blob alone drops the moments");
        apply_state(&mut back, &state).unwrap();
        assert_eq!(
            back, net,
            "values + state must reproduce the network exactly"
        );
    }

    /// Decoded parameters carry values only, and training a decoded
    /// network is bit-identical to training the network it was encoded
    /// from, optimizer state blob included.
    #[test]
    fn decoded_networks_allocate_training_buffers_on_first_use() {
        use crate::optim::Optimizer;
        let mut fresh = Sequential::embedding_mlp(3, 8, 4, 16, 5, 9);
        let mut decoded = from_bytes(&to_bytes(&fresh)).unwrap();
        assert!(decoded.params().iter().all(|p| p.grad.is_empty()));
        assert_eq!(state_to_bytes(&decoded), state_to_bytes(&fresh));
        let x = Matrix::from_rows(&[&[1.0, 7.0, 3.0], &[0.0, 2.0, 5.0]]);
        let (mut opt_a, mut opt_b) = (Optimizer::adam(1e-2), Optimizer::adam(1e-2));
        for _ in 0..3 {
            let y = fresh.forward(&x, true);
            fresh.backward(&y);
            opt_a.step(fresh.params_mut());
            let y = decoded.forward(&x, true);
            decoded.backward(&y);
            opt_b.step(decoded.params_mut());
        }
        assert_eq!(decoded, fresh);
        assert_eq!(state_to_bytes(&decoded), state_to_bytes(&fresh));
    }

    #[test]
    fn state_rejects_mismatch_and_corruption() {
        let net = Sequential::mlp(2, &[4], 2, 3);
        let state = state_to_bytes(&net);
        // Wrong network shape.
        let mut other = Sequential::mlp(2, &[5], 2, 3);
        assert!(apply_state(&mut other, &state).is_err());
        // Truncation and bad magic.
        let mut same = Sequential::mlp(2, &[4], 2, 3);
        assert!(apply_state(&mut same, &state[..state.len() - 3]).is_err());
        let mut bad = state.to_vec();
        bad[0] = b'X';
        assert!(apply_state(&mut same, &bad).is_err());
        assert!(apply_state(&mut same, &[]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("airchitect-nn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ainn");
        let mut net = Sequential::mlp(2, &[4], 3, 5);
        save(&net, &path).unwrap();
        let mut back = load(&path).unwrap();
        let x = Matrix::from_rows(&[&[1.0, -1.0]]);
        assert_eq!(net.forward(&x, false), back.forward(&x, false));
        std::fs::remove_file(&path).ok();
    }
}
