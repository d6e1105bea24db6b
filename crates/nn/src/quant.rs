//! Int8-quantized single-query inference: a compiled, batch-free hot path.
//!
//! [`QuantizedNetwork::from_network`] compiles a trained f32
//! [`Sequential`] offline into an int8 artifact:
//!
//! * **Weights** are quantized per output channel with a symmetric
//!   scheme (`scale = max|w_row| / 127`, zero-point 0) and stored
//!   **transposed** (`out_dim × in_dim`), so a 1-row inference is
//!   contiguous int8 dot products on [`airchitect_tensor::qgemm`].
//!   Per-row scales cost one extra f32 multiply per output element and
//!   buy most of the accuracy gap back from per-tensor quantization.
//! * **The embedding table** is statically quantized per feature, and the
//!   per-feature scales are **folded into the first dense layer's f32
//!   weights before those are quantized** — each feature keeps the full
//!   int8 resolution and the fused pass still runs with a single unit
//!   input scale. The embedding-lookup → concat step emits an int8-valued
//!   row directly and the first dense layer runs in pure int8.
//!   (Activation rows are stored pre-widened to `i16` — the layout
//!   [`airchitect_tensor::qgemm`] wants — but every value stays in the
//!   `i8` range.)
//! * **Hidden activations** are requantized dynamically per query
//!   (`scale = max|h| / 127` after the fused ReLU), which keeps accuracy
//!   without any calibration pass.
//! * **ReLU is fused** into the producing dense layer; `Dropout` is the
//!   identity at inference and is dropped at compile time.
//! * **Top-K f32 rescore**: the artifact keeps the final classifier's
//!   f32 weights alongside the int8 copy. The int8 pass screens the
//!   label space; the best [`RESCORE_K`] candidate logits are then
//!   recomputed exactly from the f32 hidden activations (a few thousand
//!   flops), eliminating last-layer quantization noise precisely where
//!   argmax flips happen. Wide classifiers keep f32-level top-1 accuracy
//!   at int8 speed.
//!
//! A query executes as **one fused pass** over a caller-owned
//! [`QuantArena`] — preallocated buffers plus a direct-mapped
//! embedding-concat memo keyed on the packed input bin tuple
//! ([`airchitect_data::quantize::pack_bins`]). After the arena has warmed
//! up, a query performs **zero heap allocations** (proven by the
//! counting-allocator test in `tests/zero_alloc.rs`).
//!
//! Memo entries are stamped with the owning network's process-unique id,
//! so swapping in a new `QuantizedNetwork` (a serve hot-reload) makes
//! every cached row miss without the arena ever being told — invalidation
//! is free and race-proof.

use std::sync::atomic::{AtomicU64, Ordering};

use airchitect_data::quantize::{pack_bins, MAX_PACKED_BINS};
use airchitect_telemetry::metrics;
use airchitect_tensor::qgemm;
use bytes::{Buf, BufMut, Bytes};

use crate::layer::Layer;
use crate::network::Sequential;
use crate::serialize::{get_values, put_values, ModelCodecError};

const MAGIC: &[u8; 4] = b"AIQN";
const VERSION: u32 = 1;

/// Direct-mapped embedding-concat memo slots per arena.
const MEMO_SLOTS: usize = 512;

/// How many of the int8 pass's best candidates get their logits
/// recomputed in f32. Disagreements between the quantized and f32 argmax
/// are near-tie flips, and the true top-1 is essentially always inside
/// the quantized top-8.
const RESCORE_K: usize = 8;

/// Why a trained network could not be compiled to the int8 path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantError {
    /// The layer stack has a shape the fused kernel does not support.
    Unsupported(&'static str),
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::Unsupported(why) => write!(f, "cannot quantize network: {why}"),
        }
    }
}

impl std::error::Error for QuantError {}

/// Statically-quantized embedding table (one scale per feature; the
/// scales live in [`QuantizedNetwork::emb_scales`] and are folded into
/// the first dense layer at compile time).
#[derive(Debug, Clone, PartialEq, Eq)]
struct QuantEmbedding {
    num_features: usize,
    vocab: usize,
    embed_dim: usize,
    table: Vec<i8>,
}

/// One dense layer: transposed int8 weights, per-output-row f32 scales,
/// f32 bias, and an optional fused ReLU.
#[derive(Debug, Clone, PartialEq)]
struct QuantDense {
    in_dim: usize,
    out_dim: usize,
    /// One symmetric scale per output row (`len == out_dim`).
    scales: Vec<f32>,
    relu: bool,
    /// `out_dim × in_dim` row-major (transposed vs the f32 layer).
    w: Vec<i8>,
    bias: Vec<f32>,
}

/// A compiled int8 inference artifact built offline from a trained f32
/// [`Sequential`] — see the module docs for the scheme.
///
/// Cloning preserves the id: clones hold bit-identical weights, so memo
/// rows written by one are valid for the other.
#[derive(Debug, Clone)]
pub struct QuantizedNetwork {
    /// Process-unique identity used to stamp (and thereby invalidate)
    /// memo entries. Never serialized: a reloaded artifact is a new
    /// identity by design.
    id: u64,
    /// Per-feature embedding scales. Inference never reads these — they
    /// are pre-folded into the first dense layer's quantized weights —
    /// but they document the scheme and keep the codec self-describing.
    emb_scales: Vec<f32>,
    embedding: QuantEmbedding,
    layers: Vec<QuantDense>,
    /// The final layer's f32 weights, transposed (`out_dim × in_dim`),
    /// for the top-K rescore. Empty when the network has a single dense
    /// layer (no f32 hidden vector exists to rescore from).
    last_w_f32: Vec<f32>,
    max_dim: usize,
}

fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Symmetric int8 quantization of `src` into `dst`: `scale = max|v| / 127`,
/// values rounded half away from zero and clamped to `[-127, 127]` (the
/// full `-128` is left unused to keep the scheme symmetric). Returns the
/// scale.
fn quantize_into(src: &[f32], dst: &mut [i8]) -> f32 {
    let max = max_abs(src);
    let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
    let inv = 1.0 / scale;
    for (q, &v) in dst.iter_mut().zip(src) {
        *q = round_to_i8(v * inv);
    }
    scale
}

/// `max |v|` over `values`, NaNs ignored (0 for an empty or all-NaN
/// slice). Eight lane-wise maxima break the serial dependency chain so the
/// scan vectorizes; `max` is exact, so the lane order cannot change the
/// result.
fn max_abs(values: &[f32]) -> f32 {
    let mut lanes = [0f32; 8];
    let mut chunks = values.chunks_exact(8);
    for c in chunks.by_ref() {
        for (lane, &v) in lanes.iter_mut().zip(c) {
            *lane = lane.max(v.abs());
        }
    }
    let tail = chunks.remainder().iter().fold(0f32, |m, v| m.max(v.abs()));
    lanes.iter().fold(tail, |m, &v| m.max(v))
}

/// Exactly `x.round().clamp(-127.0, 127.0) as i8` for every `f32` (NaN
/// gives 0), built from a truncating cast and the fraction it drops so the
/// loop vectorizes: `f32::round` is a libm call per value on x86-64.
///
/// After the clamp `|c| <= 127`, so `c as i32` and `t as f32` are exact
/// and `c - t` is the exact fractional part; stepping one away from zero
/// when it reaches ±0.5 is round-half-away-from-zero. Clamping first is
/// equivalent because rounding is monotone and ±127 are integers.
#[inline]
fn round_to_i8(x: f32) -> i8 {
    let c = x.clamp(-127.0, 127.0);
    let t = c as i32;
    let frac = c - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i8
}

/// Side of the square tiles [`transpose_scaled`] copies through.
const TRANSPOSE_BLOCK: usize = 32;

/// `dst[o * rows + k] = src[k * cols + o] * fold(k)`: transposes a
/// `rows × cols` row-major matrix tile by tile, so both the reads and the
/// strided writes stay within a few cache lines per tile.
fn transpose_scaled(
    src: &[f32],
    rows: usize,
    cols: usize,
    fold: impl Fn(usize) -> f32,
    dst: &mut [f32],
) {
    for k0 in (0..rows).step_by(TRANSPOSE_BLOCK) {
        let k1 = (k0 + TRANSPOSE_BLOCK).min(rows);
        for o0 in (0..cols).step_by(TRANSPOSE_BLOCK) {
            let o1 = (o0 + TRANSPOSE_BLOCK).min(cols);
            for k in k0..k1 {
                let f = fold(k);
                for (o, &w) in (o0..o1).zip(&src[k * cols + o0..k * cols + o1]) {
                    dst[o * rows + k] = w * f;
                }
            }
        }
    }
}

impl QuantizedNetwork {
    /// Compiles a trained f32 network into the int8 representation.
    ///
    /// Supported stacks: an [`Embedding`](crate::layer::Embedding) first,
    /// then any sequence of `Dense` / `Relu` / `Dropout` where every
    /// `Relu` directly follows a `Dense`. This covers both
    /// [`Sequential::embedding_mlp`] and
    /// [`Sequential::embedding_mlp_dropout`].
    ///
    /// # Errors
    ///
    /// [`QuantError::Unsupported`] when the stack deviates from that
    /// shape.
    pub fn from_network(net: &Sequential) -> Result<Self, QuantError> {
        let mut iter = net.layers().iter();
        let (embedding, emb_scales) = match iter.next() {
            Some(Layer::Embedding(e)) => {
                let (nf, vocab, ed) = (e.num_features(), e.vocab(), e.embed_dim());
                let block = vocab * ed;
                let mut table = vec![0i8; e.table().value.len()];
                let scales: Vec<f32> = e
                    .table()
                    .value
                    .chunks_exact(block)
                    .zip(table.chunks_exact_mut(block))
                    .map(|(src, dst)| quantize_into(src, dst))
                    .collect();
                (
                    QuantEmbedding {
                        num_features: nf,
                        vocab,
                        embed_dim: ed,
                        table,
                    },
                    scales,
                )
            }
            _ => {
                return Err(QuantError::Unsupported(
                    "network must start with an embedding layer",
                ))
            }
        };
        let mut layers: Vec<QuantDense> = Vec::new();
        let mut last_transposed: Vec<f32> = Vec::new();
        for layer in iter {
            match layer {
                Layer::Dense(d) => {
                    let (in_dim, out_dim) = (d.in_dim(), d.out_dim());
                    let wv = &d.weights().value; // in_dim × out_dim
                    let mut transposed = vec![0f32; wv.len()];
                    // The first dense layer absorbs the per-feature
                    // embedding scales: its input is the raw int8
                    // embedding row, so the dequantization factor folds
                    // into the weight column ahead of weight quantization.
                    let first = layers.is_empty();
                    let fold = |k: usize| {
                        if first {
                            emb_scales[k / embedding.embed_dim]
                        } else {
                            1.0
                        }
                    };
                    transpose_scaled(wv, in_dim, out_dim, fold, &mut transposed);
                    let mut w = vec![0i8; transposed.len()];
                    let scales = transposed
                        .chunks_exact(in_dim)
                        .zip(w.chunks_exact_mut(in_dim))
                        .map(|(src, dst)| quantize_into(src, dst))
                        .collect();
                    last_transposed = transposed;
                    layers.push(QuantDense {
                        in_dim,
                        out_dim,
                        scales,
                        relu: false,
                        w,
                        bias: d.bias().value.clone(),
                    });
                }
                Layer::Relu(_) => match layers.last_mut() {
                    Some(last) if !last.relu => last.relu = true,
                    _ => {
                        return Err(QuantError::Unsupported(
                            "ReLU must directly follow a dense layer",
                        ))
                    }
                },
                Layer::Dropout(_) => {} // identity at inference
                Layer::Embedding(_) => {
                    return Err(QuantError::Unsupported(
                        "embedding is only supported as the first layer",
                    ))
                }
            }
        }
        if layers.is_empty() {
            return Err(QuantError::Unsupported("need at least one dense layer"));
        }
        let mut prev = embedding.num_features * embedding.embed_dim;
        for layer in &layers {
            if layer.in_dim != prev {
                return Err(QuantError::Unsupported("layer dimensions do not chain"));
            }
            prev = layer.out_dim;
        }
        let max_dim = layers.iter().map(|l| l.out_dim).max().unwrap_or(0);
        // Rescoring needs the f32 hidden vector feeding the final layer;
        // a single-layer network has none (its input is the int8
        // embedding row), so it runs pure int8.
        let last_w_f32 = if layers.len() >= 2 {
            last_transposed
        } else {
            Vec::new()
        };
        Ok(Self {
            id: next_id(),
            emb_scales,
            embedding,
            layers,
            last_w_f32,
            max_dim,
        })
    }

    /// Number of input features (= length of the bin tuple a query takes).
    pub fn num_features(&self) -> usize {
        self.embedding.num_features
    }

    /// Embedding vocabulary size (bin indices are clamped below it).
    pub fn vocab(&self) -> usize {
        self.embedding.vocab
    }

    /// Number of output classes (logit count).
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_dim)
    }

    fn row_len(&self) -> usize {
        self.embedding.num_features * self.embedding.embed_dim
    }

    fn gather(&self, bins: &[u8], out: &mut [i16]) {
        let ed = self.embedding.embed_dim;
        for (feature, &bin) in bins.iter().enumerate() {
            let bin = usize::from(bin).min(self.embedding.vocab - 1);
            let src = &self.embedding.table[(feature * self.embedding.vocab + bin) * ed..][..ed];
            for (dst, &v) in out[feature * ed..][..ed].iter_mut().zip(src) {
                *dst = i16::from(v);
            }
        }
    }

    /// Runs one fused single-query pass: embedding-lookup → concat → int8
    /// MLP. The logits land in the arena ([`QuantArena::logits`],
    /// [`QuantArena::top1`], [`QuantArena::ranked`]).
    ///
    /// `bins` is the quantized input tuple, one bin index per feature
    /// (indices ≥ vocab are clamped, matching the f32 embedding layer).
    /// Allocation-free once the arena has seen this network's shape.
    ///
    /// # Panics
    ///
    /// Panics if `bins.len() != self.num_features()`.
    pub fn infer(&self, bins: &[u8], arena: &mut QuantArena) {
        assert_eq!(
            bins.len(),
            self.embedding.num_features,
            "bin tuple width must match the embedding's feature count"
        );
        arena.ensure(self);
        let row_len = self.row_len();
        // Locate (or build) the i8 embedding-concat row. The memo is the
        // row storage itself, so a hit skips both the gather and any copy.
        let memo_off = if self.embedding.num_features <= MAX_PACKED_BINS {
            let key = pack_bins(bins);
            let slot = memo_slot(key);
            let off = slot * arena.memo_row_len;
            if arena.memo_ids[slot] == self.id && arena.memo_keys[slot] == key {
                metrics::QUANT_MEMO_HITS.inc();
            } else {
                metrics::QUANT_MEMO_MISSES.inc();
                self.gather(bins, &mut arena.memo_rows[off..off + row_len]);
                arena.memo_ids[slot] = self.id;
                arena.memo_keys[slot] = key;
            }
            Some(off)
        } else {
            self.gather(bins, &mut arena.concat[..row_len]);
            None
        };
        let QuantArena {
            acc,
            act_q,
            act_u8,
            f,
            hidden,
            memo_rows,
            concat,
            logits_len,
            topk_cache,
            topk_len,
            ..
        } = arena;
        let row: &[i16] = match memo_off {
            Some(off) => &memo_rows[off..off + row_len],
            None => &concat[..row_len],
        };
        let mut prev_relu = false;
        for (li, layer) in self.layers.iter().enumerate() {
            let in_scale = if li == 0 {
                // Unit scale: the per-feature embedding scales were
                // folded into this layer's weights at compile time.
                qgemm::gemv_i8(row, &layer.w, &mut acc[..layer.out_dim]);
                1.0
            } else {
                let n = layer.in_dim;
                // The rescore pass needs the f32 activations feeding the
                // final layer; `f` is about to be overwritten by its
                // logits, so stash them.
                if li + 1 == self.layers.len() && !self.last_w_f32.is_empty() {
                    hidden[..n].copy_from_slice(&f[..n]);
                }
                // Dynamic requantization of the previous activations.
                let maxabs = max_abs(&f[..n]);
                let s = if maxabs > 0.0 { maxabs / 127.0 } else { 1.0 };
                let inv = 1.0 / s;
                // Ties-to-even below: unlike `round`, it lowers to a
                // single vectorizable rounding instruction, and the
                // half-ulp difference on exact .5 ties is noise at int8
                // precision.
                if prev_relu {
                    // Post-ReLU activations are non-negative, unlocking
                    // the wider unsigned kernel.
                    for (q, &v) in act_u8[..n].iter_mut().zip(&f[..n]) {
                        *q = (v * inv).round_ties_even() as u8;
                    }
                    qgemm::gemv_u8_i8(&act_u8[..n], &layer.w, &mut acc[..layer.out_dim]);
                } else {
                    for (q, &v) in act_q[..n].iter_mut().zip(&f[..n]) {
                        *q = (v * inv).round_ties_even() as i16;
                    }
                    qgemm::gemv_i8(&act_q[..n], &layer.w, &mut acc[..layer.out_dim]);
                }
                s
            };
            prev_relu = layer.relu;
            for (dst, ((&a, &b), &s)) in f[..layer.out_dim].iter_mut().zip(
                acc[..layer.out_dim]
                    .iter()
                    .zip(&layer.bias)
                    .zip(&layer.scales),
            ) {
                let v = a as f32 * (in_scale * s) + b;
                *dst = if layer.relu { v.max(0.0) } else { v };
            }
        }
        // Top-K f32 rescore: the int8 pass screened the label space;
        // recompute the best candidates' logits exactly from the stashed
        // f32 hidden vector, so near-tie argmax flips vanish.
        *topk_len = 0;
        if !self.last_w_f32.is_empty() {
            let last = self.layers.last().expect("validated non-empty");
            let n = last.in_dim;
            // Track one extra candidate: every logit outside the rescored
            // set keeps its quantized value, so the (K+1)-th best bounds
            // them all and tells us how much of the rescored ordering is
            // globally valid (servable from the cache without a rescan).
            let mut top = [0u32; RESCORE_K + 1];
            let k = top_k_into(&f[..last.out_dim], &mut top);
            let rescore_n = k.min(RESCORE_K);
            let bound = if k > RESCORE_K {
                f[top[RESCORE_K] as usize]
            } else {
                f32::NEG_INFINITY
            };
            for &o in &top[..rescore_n] {
                let o = o as usize;
                let v = dot_f32(&hidden[..n], &self.last_w_f32[o * n..][..n]) + last.bias[o];
                f[o] = if last.relu { v.max(0.0) } else { v };
            }
            let cand = &mut top[..rescore_n];
            cand.sort_unstable_by(|&a, &b| {
                f[b as usize].total_cmp(&f[a as usize]).then(a.cmp(&b))
            });
            // Cache the prefix that provably outranks every non-rescored
            // logit; `top1`/`top_k` serve from it scan-free.
            let mut valid = 0;
            while valid < rescore_n && f[cand[valid] as usize] > bound {
                valid += 1;
            }
            topk_cache[..valid].copy_from_slice(&cand[..valid]);
            *topk_len = valid;
        }
        *logits_len = self.out_dim();
    }

    /// Serializes to the `AIQN` codec. Deterministic: the same network
    /// always produces the same bytes, and
    /// `to_bytes(from_bytes(b)) == b`.
    pub fn to_bytes(&self) -> Bytes {
        fn put_i8s(buf: &mut Vec<u8>, values: &[i8]) {
            buf.put_u64_le(values.len() as u64);
            buf.extend(values.iter().map(|&v| v as u8));
        }
        let mut buf = Vec::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(self.embedding.num_features as u64);
        buf.put_u64_le(self.embedding.vocab as u64);
        buf.put_u64_le(self.embedding.embed_dim as u64);
        put_values(&mut buf, &self.emb_scales);
        put_i8s(&mut buf, &self.embedding.table);
        buf.put_u64_le(self.layers.len() as u64);
        for layer in &self.layers {
            buf.put_u64_le(layer.in_dim as u64);
            buf.put_u64_le(layer.out_dim as u64);
            put_values(&mut buf, &layer.scales);
            buf.put_u8(u8::from(layer.relu));
            put_i8s(&mut buf, &layer.w);
            put_values(&mut buf, &layer.bias);
        }
        put_values(&mut buf, &self.last_w_f32);
        Bytes::from(buf)
    }

    /// Deserializes an `AIQN` artifact, validating every length and the
    /// layer dimension chain before accepting it.
    ///
    /// # Errors
    ///
    /// [`ModelCodecError::Corrupt`] on any structural violation,
    /// including trailing bytes.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self, ModelCodecError> {
        let buf = &mut buf;
        if buf.len() < 4 || &buf[..4] != MAGIC {
            return Err(ModelCodecError::Corrupt("bad magic (want AIQN)"));
        }
        buf.advance(4);
        if get_u32(buf)? != VERSION {
            return Err(ModelCodecError::Corrupt("unsupported AIQN version"));
        }
        let num_features = get_dim(buf)?;
        let vocab = get_dim(buf)?;
        let embed_dim = get_dim(buf)?;
        let emb_scales = get_values(buf)?;
        if emb_scales.len() != num_features {
            return Err(ModelCodecError::Corrupt("embedding scale count mismatch"));
        }
        let table = get_i8_values(buf)?;
        let expect = num_features
            .checked_mul(vocab)
            .and_then(|n| n.checked_mul(embed_dim))
            .ok_or(ModelCodecError::Corrupt("embedding size overflows"))?;
        if table.len() != expect {
            return Err(ModelCodecError::Corrupt("embedding table size mismatch"));
        }
        let n_layers = get_u64(buf)?;
        if n_layers == 0 || n_layers > 64 {
            return Err(ModelCodecError::Corrupt("implausible layer count"));
        }
        let mut layers = Vec::with_capacity(n_layers as usize);
        let mut prev = num_features * embed_dim;
        for _ in 0..n_layers {
            let in_dim = get_dim(buf)?;
            let out_dim = get_dim(buf)?;
            let scales = get_values(buf)?;
            if scales.len() != out_dim {
                return Err(ModelCodecError::Corrupt("scale count mismatch"));
            }
            let relu = match get_u8(buf)? {
                0 => false,
                1 => true,
                _ => return Err(ModelCodecError::Corrupt("bad relu flag")),
            };
            let w = get_i8_values(buf)?;
            let expect = in_dim
                .checked_mul(out_dim)
                .ok_or(ModelCodecError::Corrupt("weight size overflows"))?;
            if w.len() != expect {
                return Err(ModelCodecError::Corrupt("weight buffer size mismatch"));
            }
            let bias = get_values(buf)?;
            if bias.len() != out_dim {
                return Err(ModelCodecError::Corrupt("bias size mismatch"));
            }
            if in_dim != prev {
                return Err(ModelCodecError::Corrupt("layer dimensions do not chain"));
            }
            prev = out_dim;
            layers.push(QuantDense {
                in_dim,
                out_dim,
                scales,
                relu,
                w,
                bias,
            });
        }
        let last_w_f32 = get_values(buf)?;
        let last = layers.last().expect("layer count validated above");
        if !last_w_f32.is_empty() && last_w_f32.len() != last.in_dim * last.out_dim {
            return Err(ModelCodecError::Corrupt("rescore weight size mismatch"));
        }
        if buf.has_remaining() {
            return Err(ModelCodecError::Corrupt("trailing bytes after network"));
        }
        let max_dim = layers.iter().map(|l| l.out_dim).max().unwrap_or(0);
        Ok(Self {
            id: next_id(),
            emb_scales,
            embedding: QuantEmbedding {
                num_features,
                vocab,
                embed_dim,
                table,
            },
            layers,
            last_w_f32,
            max_dim,
        })
    }
}

/// Dot product with eight independent accumulators: the reassociation
/// breaks the serial FP dependency chain so LLVM vectorizes it, which
/// keeps the per-candidate rescore cost far below a microsecond.
#[inline]
fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let mut accs = [0f32; 8];
    let mut ai = a.chunks_exact(8);
    let mut bi = b.chunks_exact(8);
    for (ca, cb) in ai.by_ref().zip(bi.by_ref()) {
        for j in 0..8 {
            accs[j] += ca[j] * cb[j];
        }
    }
    let mut dot: f32 = accs.iter().sum();
    for (&x, &y) in ai.remainder().iter().zip(bi.remainder()) {
        dot += x * y;
    }
    dot
}

/// Fills `top` with the indices of the `top.len()` highest values in
/// `v`, best first (ties resolve to the lowest index, matching
/// [`QuantArena::top_k`]); returns how many slots were written.
fn top_k_into(v: &[f32], top: &mut [u32]) -> usize {
    let cap = top.len();
    let mut len = 0usize;
    for (i, x) in v.iter().enumerate() {
        if len == cap {
            if x.total_cmp(&v[top[len - 1] as usize]) != std::cmp::Ordering::Greater {
                continue;
            }
            len -= 1;
        }
        let mut pos = len;
        while pos > 0 && v[top[pos - 1] as usize].total_cmp(x).is_lt() {
            top[pos] = top[pos - 1];
            pos -= 1;
        }
        top[pos] = i as u32;
        len += 1;
    }
    len
}

#[inline]
fn memo_slot(key: u128) -> usize {
    // splitmix64 over the folded key: cheap, and good enough dispersion
    // for a direct-mapped cache.
    let mut x = (key as u64) ^ ((key >> 64) as u64);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((x ^ (x >> 31)) as usize) % MEMO_SLOTS
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, ModelCodecError> {
    if buf.is_empty() {
        return Err(ModelCodecError::Corrupt("truncated byte"));
    }
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, ModelCodecError> {
    if buf.len() < 4 {
        return Err(ModelCodecError::Corrupt("truncated u32"));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, ModelCodecError> {
    if buf.len() < 8 {
        return Err(ModelCodecError::Corrupt("truncated u64"));
    }
    Ok(buf.get_u64_le())
}

fn get_dim(buf: &mut &[u8]) -> Result<usize, ModelCodecError> {
    let v = get_u64(buf)?;
    let dim: usize = v
        .try_into()
        .map_err(|_| ModelCodecError::Corrupt("dimension overflows usize"))?;
    if dim == 0 {
        return Err(ModelCodecError::Corrupt("zero dimension"));
    }
    Ok(dim)
}

fn get_i8_values(buf: &mut &[u8]) -> Result<Vec<i8>, ModelCodecError> {
    let n: usize = get_u64(buf)?
        .try_into()
        .map_err(|_| ModelCodecError::Corrupt("value count overflows usize"))?;
    if buf.len() < n {
        return Err(ModelCodecError::Corrupt("truncated i8 values"));
    }
    let out = buf[..n].iter().map(|&b| b as i8).collect();
    buf.advance(n);
    Ok(out)
}

/// Per-worker scratch state for the fused pass: preallocated compute
/// buffers plus the direct-mapped embedding-concat memo.
///
/// Create one per thread (or borrow one from a thread-local) and reuse it
/// across queries; after the first query against a given network shape,
/// subsequent queries allocate nothing. One arena may serve several
/// networks — memo entries are stamped with the owning network's id, so
/// models never read each other's rows.
#[derive(Debug)]
pub struct QuantArena {
    acc: Vec<i32>,
    /// Requantized activations: int8-valued, pre-widened to `i16` (the
    /// layout [`qgemm::gemv_i8`] wants).
    act_q: Vec<i16>,
    /// Requantized post-ReLU activations (`0..=127`) for the unsigned
    /// kernel [`qgemm::gemv_u8_i8`].
    act_u8: Vec<u8>,
    f: Vec<f32>,
    /// Stash of the f32 activations feeding the final layer, kept alive
    /// for the top-K rescore after `f` is overwritten with logits.
    hidden: Vec<f32>,
    /// Rescore byproduct: the best labels of the most recent query, best
    /// first, valid for the first `topk_len` entries. Lets `top1` and
    /// small `top_k` calls skip their full-logit scan.
    topk_cache: [u32; RESCORE_K],
    topk_len: usize,
    logits_len: usize,
    ranked: Vec<u32>,
    /// Fallback concat staging for networks too wide for the packed key.
    concat: Vec<i16>,
    memo_keys: Vec<u128>,
    /// Owning network id per slot; 0 = empty.
    memo_ids: Vec<u64>,
    memo_rows: Vec<i16>,
    memo_row_len: usize,
}

impl QuantArena {
    /// Creates an empty arena; buffers are sized lazily by the first
    /// [`QuantizedNetwork::infer`] call (the "warmup" allocation).
    pub fn new() -> Self {
        Self {
            acc: Vec::new(),
            act_q: Vec::new(),
            act_u8: Vec::new(),
            f: Vec::new(),
            hidden: Vec::new(),
            topk_cache: [0; RESCORE_K],
            topk_len: 0,
            logits_len: 0,
            ranked: Vec::new(),
            concat: Vec::new(),
            memo_keys: vec![0; MEMO_SLOTS],
            memo_ids: vec![0; MEMO_SLOTS],
            memo_rows: Vec::new(),
            memo_row_len: 0,
        }
    }

    fn ensure(&mut self, net: &QuantizedNetwork) {
        let dim = net.max_dim;
        if self.acc.len() < dim {
            self.acc.resize(dim, 0);
            self.act_q.resize(dim, 0);
            self.act_u8.resize(dim, 0);
            self.f.resize(dim, 0.0);
            self.hidden.resize(dim, 0.0);
        }
        if self.ranked.capacity() < dim {
            self.ranked.reserve(dim - self.ranked.len());
        }
        let row_len = net.row_len();
        if self.concat.len() < row_len {
            self.concat.resize(row_len, 0);
        }
        if self.memo_row_len < row_len {
            // Slot offsets change with the row stride: drop every entry.
            self.memo_row_len = row_len;
            self.memo_rows.clear();
            self.memo_rows.resize(MEMO_SLOTS * row_len, 0);
            self.memo_ids.fill(0);
        }
    }

    /// The logits of the most recent [`QuantizedNetwork::infer`] call.
    ///
    /// # Panics
    ///
    /// Panics if no query has run yet.
    pub fn logits(&self) -> &[f32] {
        assert!(self.logits_len > 0, "no query has run in this arena");
        &self.f[..self.logits_len]
    }

    /// Argmax label of the most recent query. Ties resolve to the lowest
    /// index, matching the f32 path's stable ranking.
    ///
    /// # Panics
    ///
    /// Panics if no query has run yet.
    pub fn top1(&self) -> u32 {
        let logits = self.logits();
        if self.topk_len > 0 {
            return self.topk_cache[0];
        }
        let mut best = 0usize;
        for (i, v) in logits.iter().enumerate().skip(1) {
            if v.total_cmp(&logits[best]) == std::cmp::Ordering::Greater {
                best = i;
            }
        }
        best as u32
    }

    /// The `k` highest-logit labels of the most recent query, best first,
    /// via one linear scan with a bounded insertion buffer — much cheaper
    /// than the full sort behind [`QuantArena::ranked`] when the caller
    /// only walks a few candidates (the feasibility check in the fast
    /// recommend paths almost always succeeds within the first handful).
    /// Ties resolve to the lowest index, exactly like `ranked`, so the
    /// result is always a prefix of it. Clobbers the same scratch buffer
    /// as `ranked`; allocation-free after warmup.
    ///
    /// # Panics
    ///
    /// Panics if no query has run yet.
    pub fn top_k(&mut self, k: usize) -> &[u32] {
        assert!(self.logits_len > 0, "no query has run in this arena");
        self.ranked.clear();
        if k == 0 {
            return &self.ranked;
        }
        if k <= self.topk_len {
            self.ranked.extend_from_slice(&self.topk_cache[..k]);
            return &self.ranked;
        }
        let logits = &self.f[..self.logits_len];
        for (i, v) in logits.iter().enumerate() {
            if self.ranked.len() == k {
                let tail = logits[self.ranked[k - 1] as usize];
                if v.total_cmp(&tail) != std::cmp::Ordering::Greater {
                    continue;
                }
                self.ranked.pop();
            }
            // Insert keeping descending order; stopping at equal values
            // leaves earlier (lower) indices first, matching `ranked`.
            let mut pos = self.ranked.len();
            while pos > 0 && logits[self.ranked[pos - 1] as usize].total_cmp(v).is_lt() {
                pos -= 1;
            }
            self.ranked.insert(pos, i as u32);
        }
        &self.ranked
    }

    /// All labels of the most recent query, best first. Ties resolve to
    /// the lowest index (same order a stable descending sort of the f32
    /// path produces). Allocation-free after warmup.
    ///
    /// # Panics
    ///
    /// Panics if no query has run yet.
    pub fn ranked(&mut self) -> &[u32] {
        assert!(self.logits_len > 0, "no query has run in this arena");
        let n = self.logits_len;
        self.ranked.clear();
        self.ranked.extend(0..n as u32);
        let logits = &self.f;
        self.ranked.sort_unstable_by(|&a, &b| {
            logits[b as usize]
                .total_cmp(&logits[a as usize])
                .then(a.cmp(&b))
        });
        &self.ranked[..n]
    }
}

impl Default for QuantArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airchitect_tensor::Matrix;

    fn logits_f32(net: &Sequential, bins: &[u8]) -> Vec<f32> {
        let row: Vec<f32> = bins.iter().map(|&b| f32::from(b)).collect();
        let x = Matrix::from_vec(1, row.len(), row);
        net.infer(&x).row(0).to_vec()
    }

    #[test]
    fn quantized_logits_track_the_f32_network() {
        let net = Sequential::embedding_mlp(4, 16, 8, 32, 10, 42);
        let quant = QuantizedNetwork::from_network(&net).unwrap();
        let mut arena = QuantArena::new();
        for seed in 0u8..20 {
            let bins = [seed % 16, (seed * 3) % 16, (seed * 7) % 16, (seed * 11) % 16];
            quant.infer(&bins, &mut arena);
            let expect = logits_f32(&net, &bins);
            let maxabs = expect.iter().fold(0f32, |m, v| m.max(v.abs()));
            let tol = 0.1 * maxabs.max(1.0);
            for (q, e) in arena.logits().iter().zip(&expect) {
                assert!(
                    (q - e).abs() <= tol,
                    "logit drift {q} vs {e} (tol {tol}, seed {seed})"
                );
            }
        }
    }

    /// The rounding `from_network` used before the vectorized compile.
    fn round_oracle(x: f32) -> i8 {
        x.round().clamp(-127.0, 127.0) as i8
    }

    /// The per-row quantizer `from_network` used before the vectorized
    /// compile: a serial max fold and `f32::round`.
    fn quantize_oracle(values: &[f32]) -> (Vec<i8>, f32) {
        let max = values.iter().fold(0f32, |m, v| m.max(v.abs()));
        let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
        let inv = 1.0 / scale;
        (
            values.iter().map(|&v| round_oracle(v * inv)).collect(),
            scale,
        )
    }

    /// `x` and the four floats on either side of it.
    fn with_neighbours(x: f32) -> impl Iterator<Item = f32> {
        let mut below = x;
        let mut above = x;
        let mut out = vec![x];
        for _ in 0..4 {
            below = below.next_down();
            above = above.next_up();
            out.extend([below, above]);
        }
        out.into_iter()
    }

    #[test]
    fn rounding_matches_round_half_away_from_zero_then_clamp() {
        let mut inputs = vec![
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            -f32::from_bits(0x007F_FFFF),
            f32::MAX,
            f32::MIN,
            1e9,
            -3e9,
            8_388_608.5,
        ];
        for edge in [0.5f32, 1.5, 2.5, 63.5, 126.5, 127.0, 127.5, 128.0] {
            inputs.extend(with_neighbours(edge));
            inputs.extend(with_neighbours(-edge));
        }
        for x in inputs {
            assert_eq!(
                round_to_i8(x),
                round_oracle(x),
                "x = {x:e} ({:#010x})",
                x.to_bits()
            );
        }
        // Every float in [-130, 130] at a 1/64 step, and the ties between.
        for i in -130 * 128..=130 * 128 {
            let x = i as f32 / 128.0;
            assert_eq!(round_to_i8(x), round_oracle(x), "x = {x}");
        }
    }

    #[test]
    fn quantize_into_matches_the_serial_oracle() {
        let scaled = |v: &[f32], by: f32| v.iter().map(|x| x * by).collect::<Vec<_>>();
        let ramp: Vec<f32> = (0..37).map(|i| (i as f32 - 18.3) * 0.731).collect();
        let mut rows = vec![
            vec![],
            vec![0.0; 16],
            vec![-0.0; 11],
            vec![f32::NAN; 9],
            vec![f32::from_bits(3), -f32::from_bits(7), 0.0],
            // ±127 after scaling, and exact ties at ±0.5 and ±126.5.
            vec![127.0, -127.0, 0.5, -0.5, 126.5, -126.5, 1.5, -1.5],
            vec![1.0, f32::NAN, -2.0, 3.0, f32::NAN, 0.25, -0.75, 9.0, 1.0],
            ramp.clone(),
            scaled(&ramp, 1e-30),
            scaled(&ramp, 3e30),
        ];
        // Max-abs in the tail past the last multiple of eight.
        for len in [9usize, 13, 15, 17, 23, 31] {
            let mut row: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            row[len - 1] = -5.0;
            rows.push(row);
        }
        for row in rows {
            let (want_q, want_scale) = quantize_oracle(&row);
            let mut got_q = vec![0i8; row.len()];
            let got_scale = quantize_into(&row, &mut got_q);
            assert_eq!(
                got_scale.to_bits(),
                want_scale.to_bits(),
                "scale of {row:?}"
            );
            assert_eq!(got_q, want_q, "values of {row:?}");
        }
    }

    #[test]
    fn transpose_scaled_matches_the_strided_loop() {
        for (rows, cols) in [(1, 1), (3, 70), (64, 33), (65, 97), (96, 32)] {
            let src: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 0.5 - 7.0).collect();
            let fold = |k: usize| 1.0 + k as f32 / 8.0;
            let mut want = vec![0f32; src.len()];
            for k in 0..rows {
                for o in 0..cols {
                    want[o * rows + k] = src[k * cols + o] * fold(k);
                }
            }
            let mut got = vec![0f32; src.len()];
            transpose_scaled(&src, rows, cols, fold, &mut got);
            assert_eq!(got, want, "{rows}×{cols}");
        }
    }

    #[test]
    fn dropout_variant_quantizes_to_the_same_artifact() {
        // Dropout is identity at inference; with matching seeds the dense
        // parameters are identical, so the compiled artifacts match too.
        let plain = Sequential::embedding_mlp(3, 8, 4, 16, 5, 7);
        let dropped = Sequential::embedding_mlp_dropout(3, 8, 4, 16, 5, 0.4, 7);
        let a = QuantizedNetwork::from_network(&plain).unwrap();
        let b = QuantizedNetwork::from_network(&dropped).unwrap();
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn unsupported_stacks_are_rejected() {
        let mlp = Sequential::mlp(4, &[8], 3, 1);
        assert_eq!(
            QuantizedNetwork::from_network(&mlp).unwrap_err(),
            QuantError::Unsupported("network must start with an embedding layer")
        );
    }

    #[test]
    fn memo_entries_are_stamped_per_network() {
        let net_a = Sequential::embedding_mlp(2, 8, 4, 8, 6, 1);
        let net_b = Sequential::embedding_mlp(2, 8, 4, 8, 6, 2);
        let qa = QuantizedNetwork::from_network(&net_a).unwrap();
        let qb = QuantizedNetwork::from_network(&net_b).unwrap();
        let mut arena = QuantArena::new();
        let bins = [3u8, 5];
        qa.infer(&bins, &mut arena);
        let first: Vec<f32> = arena.logits().to_vec();
        // Same bins on a different network: the memo slot must not leak
        // network A's embedding row into network B's pass.
        qb.infer(&bins, &mut arena);
        let other: Vec<f32> = arena.logits().to_vec();
        assert_ne!(first, other, "two differently-seeded nets must disagree");
        // Back to A: the (possibly evicted, then rebuilt) row reproduces
        // the original logits bit for bit.
        qa.infer(&bins, &mut arena);
        assert_eq!(first, arena.logits());
        // And a hot repeat is stable too.
        qa.infer(&bins, &mut arena);
        assert_eq!(first, arena.logits());
    }

    #[test]
    fn out_of_vocab_bins_clamp_like_the_f32_embedding() {
        let net = Sequential::embedding_mlp(2, 8, 4, 8, 5, 3);
        let quant = QuantizedNetwork::from_network(&net).unwrap();
        let mut arena = QuantArena::new();
        quant.infer(&[200, 7], &mut arena);
        let clamped: Vec<f32> = arena.logits().to_vec();
        quant.infer(&[7, 7], &mut arena);
        assert_eq!(clamped, arena.logits(), "bin 200 must clamp to vocab-1 (7)");
    }

    #[test]
    fn ranked_is_a_permutation_with_top1_first() {
        let net = Sequential::embedding_mlp(3, 8, 4, 16, 9, 11);
        let quant = QuantizedNetwork::from_network(&net).unwrap();
        let mut arena = QuantArena::new();
        quant.infer(&[1, 2, 3], &mut arena);
        let top = arena.top1();
        let ranked = arena.ranked().to_vec();
        assert_eq!(ranked.len(), 9);
        assert_eq!(ranked[0], top);
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn top_k_is_a_prefix_of_ranked() {
        let net = Sequential::embedding_mlp(3, 8, 4, 16, 9, 11);
        let quant = QuantizedNetwork::from_network(&net).unwrap();
        let mut arena = QuantArena::new();
        quant.infer(&[1, 2, 3], &mut arena);
        let full = arena.ranked().to_vec();
        for k in [0usize, 1, 3, 8, 9, 20] {
            let top = arena.top_k(k).to_vec();
            assert_eq!(top, full[..k.min(full.len())], "k={k}");
        }
    }

    #[test]
    fn roundtrip_is_byte_identical_and_behavior_preserving() {
        let net = Sequential::embedding_mlp(4, 16, 8, 32, 10, 99);
        let quant = QuantizedNetwork::from_network(&net).unwrap();
        let bytes = quant.to_bytes();
        let loaded = QuantizedNetwork::from_bytes(&bytes).unwrap();
        assert_eq!(bytes, loaded.to_bytes(), "codec must be deterministic");
        let mut a = QuantArena::new();
        let mut b = QuantArena::new();
        for bins in [[0u8, 1, 2, 3], [15, 15, 15, 15], [7, 0, 9, 2]] {
            quant.infer(&bins, &mut a);
            loaded.infer(&bins, &mut b);
            assert_eq!(a.logits(), b.logits(), "loaded artifact must infer identically");
        }
    }

    #[test]
    fn corrupt_artifacts_are_rejected() {
        let net = Sequential::embedding_mlp(2, 4, 2, 4, 3, 5);
        let bytes = QuantizedNetwork::from_network(&net).unwrap().to_bytes();
        // Truncations at every boundary must error, never panic.
        for cut in [0, 3, 4, 8, 20, bytes.len() - 1] {
            assert!(QuantizedNetwork::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected.
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(QuantizedNetwork::from_bytes(&extended).is_err());
        // A wrong magic is rejected.
        let mut wrong = bytes.to_vec();
        wrong[0] = b'X';
        assert!(QuantizedNetwork::from_bytes(&wrong).is_err());
    }
}
