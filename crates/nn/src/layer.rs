//! Network layers: dense, ReLU, and the per-feature embedding front-end.

use airchitect_tensor::{gemm, init, ops, Matrix};
use serde::{Deserialize, Serialize};

use crate::Param;

/// Copies `src` into an optional cache slot, reusing the slot's existing
/// allocation; only the very first call allocates.
fn cache_assign(slot: &mut Option<Matrix>, src: &Matrix) {
    match slot {
        Some(m) => m.copy_from(src),
        None => *slot = Some(src.clone()),
    }
}

/// A fully-connected layer: `y = x · W + b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Param,
    b: Param,
    #[serde(skip)]
    cache_input: Option<Matrix>,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dense dims must be positive");
        Self {
            in_dim,
            out_dim,
            w: Param::new(
                init::xavier_uniform(in_dim, out_dim, seed)
                    .as_slice()
                    .to_vec(),
            ),
            b: Param::new(vec![0.0; out_dim]),
            cache_input: None,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass; caches the input when `training` for backprop.
    pub fn forward(&mut self, x: &Matrix, training: bool) -> Matrix {
        let mut y = Matrix::zeros(x.rows(), self.out_dim);
        self.forward_into(x, &mut y, training, gemm::num_threads());
        y
    }

    /// [`Dense::forward`] into a caller-owned buffer; allocation-free
    /// after warm-up (the training cache reuses its buffer too).
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix, training: bool, threads: usize) {
        if training {
            cache_assign(&mut self.cache_input, x);
        }
        self.infer_into(x, out, threads);
    }

    /// Inference-only forward pass (no cache, no mutation).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(x.rows(), self.out_dim);
        self.infer_into(x, &mut y, gemm::num_threads());
        y
    }

    /// [`Dense::infer`] into a caller-owned buffer.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix, threads: usize) {
        debug_assert_eq!(x.cols(), self.in_dim, "dense input width mismatch");
        out.resize(x.rows(), self.out_dim);
        gemm::gemm_nn(
            x.rows(),
            self.in_dim,
            self.out_dim,
            x.as_slice(),
            &self.w.value,
            out.as_mut_slice(),
            false,
            threads,
        );
        out.add_row_broadcast(&self.b.value);
    }

    /// Backward pass: accumulates `dW`, `db` and returns `dX`.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward.
    pub fn backward(&mut self, grad: &Matrix) -> Matrix {
        assert!(
            self.cache_input.is_some(),
            "backward without training forward"
        );
        let mut dx = Matrix::zeros(grad.rows(), self.in_dim);
        self.backward_into(grad, &mut dx, true, gemm::num_threads());
        self.cache_input = None;
        dx
    }

    /// [`Dense::backward`] into a caller-owned `dX` buffer.
    ///
    /// `dW` is accumulated straight into the parameter gradient (no
    /// temporary), `dX` is skipped entirely when `need_dx` is false
    /// (first trainable layer), and — unlike [`Dense::backward`] — the
    /// input cache is retained for reuse by the next forward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward.
    pub fn backward_into(&mut self, grad: &Matrix, dx: &mut Matrix, need_dx: bool, threads: usize) {
        self.w.ensure_training_buffers();
        self.b.ensure_training_buffers();
        let x = self
            .cache_input
            .as_ref()
            .expect("backward without training forward");
        debug_assert_eq!(grad.cols(), self.out_dim, "dense grad width mismatch");
        debug_assert_eq!(grad.rows(), x.rows(), "dense grad batch mismatch");
        gemm::gemm_tn(
            self.in_dim,
            x.rows(),
            self.out_dim,
            x.as_slice(),
            grad.as_slice(),
            &mut self.w.grad,
            true,
            threads,
        );
        for r in 0..grad.rows() {
            for (g, &d) in self.b.grad.iter_mut().zip(grad.row(r)) {
                *g += d;
            }
        }
        if need_dx {
            dx.resize(grad.rows(), self.in_dim);
            gemm::gemm_nt(
                grad.rows(),
                self.out_dim,
                self.in_dim,
                grad.as_slice(),
                &self.w.value,
                dx.as_mut_slice(),
                false,
                threads,
            );
        }
    }

    /// The layer's parameters (weights, then bias).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    /// The weight parameter (`in_dim x out_dim`, row-major).
    pub fn weights(&self) -> &Param {
        &self.w
    }

    /// The bias parameter (`out_dim`).
    pub fn bias(&self) -> &Param {
        &self.b
    }

    /// Rebuilds a dense layer from explicit parameters (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if parameter sizes mismatch the dimensions.
    pub fn from_params(in_dim: usize, out_dim: usize, w: Param, b: Param) -> Self {
        assert_eq!(w.len(), in_dim * out_dim, "weight size mismatch");
        assert_eq!(b.len(), out_dim, "bias size mismatch");
        Self {
            in_dim,
            out_dim,
            w,
            b,
            cache_input: None,
        }
    }
}

/// An elementwise ReLU activation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Relu {
    #[serde(skip)]
    cache_pre: Option<Matrix>,
}

impl Relu {
    /// Creates the activation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward pass; caches the pre-activation when `training`.
    pub fn forward(&mut self, x: &Matrix, training: bool) -> Matrix {
        if training {
            cache_assign(&mut self.cache_pre, x);
        }
        self.infer(x)
    }

    /// [`Relu::forward`] into a caller-owned buffer; allocation-free
    /// after warm-up.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix, training: bool) {
        if training {
            cache_assign(&mut self.cache_pre, x);
        }
        ops::relu_into(x, out);
    }

    /// Inference-only forward pass (no cache, no mutation).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        ops::relu(x)
    }

    /// Backward pass: masks the gradient by the activation pattern.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward.
    pub fn backward(&mut self, grad: &Matrix) -> Matrix {
        assert!(
            self.cache_pre.is_some(),
            "backward without training forward"
        );
        let mut dx = Matrix::zeros(grad.rows(), grad.cols());
        self.backward_into(grad, &mut dx);
        self.cache_pre = None;
        dx
    }

    /// [`Relu::backward`] into a caller-owned buffer, retaining the
    /// cache for the next forward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward.
    pub fn backward_into(&mut self, grad: &Matrix, dx: &mut Matrix) {
        let pre = self
            .cache_pre
            .as_ref()
            .expect("backward without training forward");
        ops::relu_backward_into(grad, pre, dx);
    }
}

/// The AIrchitect embedding front-end (paper Fig. 2): each input feature is
/// an integer bin index with its own embedding table; the looked-up vectors
/// are concatenated.
///
/// Input: a `batch x num_features` matrix whose entries are bin indices
/// (stored as `f32`, produced by `airchitect_data::quantize::Log2Binner`).
/// Output: `batch x (num_features · embed_dim)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding {
    num_features: usize,
    vocab: usize,
    embed_dim: usize,
    /// One table per feature, stored contiguously:
    /// `table[f][bin][d] = value[(f · vocab + bin) · embed_dim + d]`.
    table: Param,
    #[serde(skip)]
    cache_bins: Vec<usize>,
    #[serde(skip)]
    cache_batch: usize,
}

impl Embedding {
    /// Creates the embedding front-end.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(num_features: usize, vocab: usize, embed_dim: usize, seed: u64) -> Self {
        assert!(
            num_features > 0 && vocab > 0 && embed_dim > 0,
            "embedding dims must be positive"
        );
        let init = init::uniform(num_features * vocab, embed_dim, -0.05, 0.05, seed);
        Self {
            num_features,
            vocab,
            embed_dim,
            table: Param::new(init.as_slice().to_vec()),
            cache_bins: Vec::new(),
            cache_batch: 0,
        }
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Vocabulary size per feature.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width per feature.
    pub fn embed_dim(&self) -> usize {
        self.embed_dim
    }

    /// Output width: `num_features · embed_dim`.
    pub fn out_dim(&self) -> usize {
        self.num_features * self.embed_dim
    }

    /// Forward pass: table lookups plus concatenation.
    ///
    /// Out-of-range bins are clamped to the last vocabulary entry.
    pub fn forward(&mut self, x: &Matrix, training: bool) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.out_dim());
        self.forward_into(x, &mut out, training);
        out
    }

    /// [`Embedding::forward`] into a caller-owned buffer; the bin cache
    /// is recycled too, so steady state allocates nothing.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix, training: bool) {
        if !training {
            self.infer_into(x, out);
            return;
        }
        debug_assert_eq!(x.cols(), self.num_features, "embedding width mismatch");
        let batch = x.rows();
        out.resize(batch, self.num_features * self.embed_dim);
        self.cache_bins.clear();
        for r in 0..batch {
            let row = x.row(r);
            let out_row = out.row_mut(r);
            for (f, &raw) in row.iter().enumerate() {
                let bin = (raw.max(0.0) as usize).min(self.vocab - 1);
                self.cache_bins.push(bin);
                let src = (f * self.vocab + bin) * self.embed_dim;
                out_row[f * self.embed_dim..(f + 1) * self.embed_dim]
                    .copy_from_slice(&self.table.value[src..src + self.embed_dim]);
            }
        }
        self.cache_batch = batch;
    }

    /// Inference-only forward pass (no cache, no mutation).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.out_dim());
        self.infer_into(x, &mut out);
        out
    }

    /// [`Embedding::infer`] into a caller-owned buffer.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(x.cols(), self.num_features, "embedding width mismatch");
        let batch = x.rows();
        out.resize(batch, self.out_dim());
        for r in 0..batch {
            let row = x.row(r);
            let out_row = out.row_mut(r);
            for (f, &raw) in row.iter().enumerate() {
                let bin = (raw.max(0.0) as usize).min(self.vocab - 1);
                let src = (f * self.vocab + bin) * self.embed_dim;
                out_row[f * self.embed_dim..(f + 1) * self.embed_dim]
                    .copy_from_slice(&self.table.value[src..src + self.embed_dim]);
            }
        }
    }

    /// Backward pass: scatters the gradient into the looked-up rows. Returns
    /// a zero matrix (the embedding is always the first layer).
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward.
    pub fn backward(&mut self, grad: &Matrix) -> Matrix {
        self.backward_scatter(grad);
        let batch = self.cache_batch;
        self.cache_bins.clear();
        Matrix::zeros(batch, self.num_features)
    }

    /// [`Embedding::backward`] without materializing the (always zero)
    /// input gradient; retains the bin cache for the next forward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward.
    pub fn backward_scatter(&mut self, grad: &Matrix) {
        assert!(
            !self.cache_bins.is_empty(),
            "backward without training forward"
        );
        self.table.ensure_training_buffers();
        let batch = self.cache_batch;
        for r in 0..batch {
            let grow = grad.row(r);
            for f in 0..self.num_features {
                let bin = self.cache_bins[r * self.num_features + f];
                let dst = (f * self.vocab + bin) * self.embed_dim;
                for (g, &d) in self.table.grad[dst..dst + self.embed_dim]
                    .iter_mut()
                    .zip(&grow[f * self.embed_dim..(f + 1) * self.embed_dim])
                {
                    *g += d;
                }
            }
        }
    }

    /// The layer's parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.table]
    }

    /// The embedding table parameter.
    pub fn table(&self) -> &Param {
        &self.table
    }

    /// Rebuilds an embedding layer from an explicit table (deserialization).
    ///
    /// # Panics
    ///
    /// Panics if the table size mismatches the dimensions.
    pub fn from_params(num_features: usize, vocab: usize, embed_dim: usize, table: Param) -> Self {
        assert_eq!(
            table.len(),
            num_features * vocab * embed_dim,
            "table size mismatch"
        );
        Self {
            num_features,
            vocab,
            embed_dim,
            table,
            cache_bins: Vec::new(),
            cache_batch: 0,
        }
    }
}

/// Inverted dropout: during training each activation is zeroed with
/// probability `rate` and survivors are scaled by `1/(1-rate)`; inference is
/// the identity.
///
/// The paper observes its CS2 model "starting to overfit" after ~22 epochs;
/// dropout is the standard Keras-era regularizer for that, included here for
/// the regularization ablations.
///
/// Masks are drawn from an internal counter-seeded RNG, so training runs
/// remain bit-reproducible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dropout {
    rate: f32,
    seed: u64,
    #[serde(skip)]
    step: u64,
    #[serde(skip)]
    cache_mask: Option<Matrix>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1`.
    pub fn new(rate: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "rate must be in [0, 1)");
        Self {
            rate,
            seed,
            step: 0,
            cache_mask: None,
        }
    }

    /// The drop probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }

    /// Forward pass; samples and caches a fresh mask when `training`.
    pub fn forward(&mut self, x: &Matrix, training: bool) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        self.forward_into(x, &mut out, training);
        out
    }

    /// [`Dropout::forward`] into a caller-owned buffer; the mask cache is
    /// recycled, so steady state allocates nothing.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix, training: bool) {
        if !training || self.rate == 0.0 {
            out.copy_from(x);
            return;
        }
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.step.wrapping_mul(0x9E37_79B9));
        self.step += 1;
        let keep = 1.0 - self.rate;
        let scale = 1.0 / keep;
        let mask = self
            .cache_mask
            .get_or_insert_with(|| Matrix::zeros(x.rows(), x.cols()));
        mask.resize(x.rows(), x.cols());
        for v in mask.as_mut_slice() {
            *v = if rng.random::<f32>() < keep {
                scale
            } else {
                0.0
            };
        }
        out.resize(x.rows(), x.cols());
        for ((o, &v), &m) in out
            .as_mut_slice()
            .iter_mut()
            .zip(x.as_slice())
            .zip(mask.as_slice())
        {
            *o = v * m;
        }
    }

    /// Inference-only forward pass: the identity.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        x.clone()
    }

    /// Backward pass: re-applies the cached mask.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward.
    pub fn backward(&mut self, grad: &Matrix) -> Matrix {
        assert!(
            self.cache_mask.is_some(),
            "backward without training forward"
        );
        let mut dx = Matrix::zeros(grad.rows(), grad.cols());
        self.backward_into(grad, &mut dx);
        self.cache_mask = None;
        dx
    }

    /// [`Dropout::backward`] into a caller-owned buffer, retaining the
    /// cached mask allocation for the next forward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward.
    pub fn backward_into(&mut self, grad: &Matrix, dx: &mut Matrix) {
        let mask = self
            .cache_mask
            .as_ref()
            .expect("backward without training forward");
        dx.resize(grad.rows(), grad.cols());
        for ((o, &g), &m) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(grad.as_slice())
            .zip(mask.as_slice())
        {
            *o = g * m;
        }
    }
}

/// Any layer of a [`crate::network::Sequential`] network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(Dense),
    /// ReLU activation.
    Relu(Relu),
    /// Per-feature embedding front-end.
    Embedding(Embedding),
    /// Inverted dropout regularizer.
    Dropout(Dropout),
}

impl Layer {
    /// Dispatches the forward pass.
    pub fn forward(&mut self, x: &Matrix, training: bool) -> Matrix {
        match self {
            Layer::Dense(l) => l.forward(x, training),
            Layer::Relu(l) => l.forward(x, training),
            Layer::Embedding(l) => l.forward(x, training),
            Layer::Dropout(l) => l.forward(x, training),
        }
    }

    /// Dispatches the buffer-reusing forward pass. Allocation-free after
    /// warm-up: output, caches, and scratch all recycle their buffers.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix, training: bool, threads: usize) {
        match self {
            Layer::Dense(l) => l.forward_into(x, out, training, threads),
            Layer::Relu(l) => l.forward_into(x, out, training),
            Layer::Embedding(l) => l.forward_into(x, out, training),
            Layer::Dropout(l) => l.forward_into(x, out, training),
        }
    }

    /// Dispatches the inference-only forward pass.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        match self {
            Layer::Dense(l) => l.infer(x),
            Layer::Relu(l) => l.infer(x),
            Layer::Embedding(l) => l.infer(x),
            Layer::Dropout(l) => l.infer(x),
        }
    }

    /// Dispatches the buffer-reusing inference-only forward pass.
    pub fn infer_into(&self, x: &Matrix, out: &mut Matrix, threads: usize) {
        match self {
            Layer::Dense(l) => l.infer_into(x, out, threads),
            Layer::Relu(_) => ops::relu_into(x, out),
            Layer::Embedding(l) => l.infer_into(x, out),
            Layer::Dropout(_) => out.copy_from(x),
        }
    }

    /// Dispatches the backward pass.
    pub fn backward(&mut self, grad: &Matrix) -> Matrix {
        match self {
            Layer::Dense(l) => l.backward(grad),
            Layer::Relu(l) => l.backward(grad),
            Layer::Embedding(l) => l.backward(grad),
            Layer::Dropout(l) => l.backward(grad),
        }
    }

    /// Dispatches the buffer-reusing backward pass.
    ///
    /// Parameter gradients always accumulate; `dx` is only written when
    /// `need_dx` (the first trainable layer can skip it). Unlike
    /// [`Layer::backward`], layer caches survive the call so their
    /// buffers can be recycled by the next forward pass.
    pub fn backward_into(&mut self, grad: &Matrix, dx: &mut Matrix, need_dx: bool, threads: usize) {
        match self {
            Layer::Dense(l) => l.backward_into(grad, dx, need_dx, threads),
            Layer::Relu(l) => l.backward_into(grad, dx),
            Layer::Embedding(l) => {
                l.backward_scatter(grad);
                if need_dx {
                    dx.resize(grad.rows(), l.num_features());
                    dx.fill(0.0);
                }
            }
            Layer::Dropout(l) => l.backward_into(grad, dx),
        }
    }

    /// Visits every trainable parameter without allocating.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Layer::Dense(l) => {
                f(&mut l.w);
                f(&mut l.b);
            }
            Layer::Relu(_) | Layer::Dropout(_) => {}
            Layer::Embedding(l) => f(&mut l.table),
        }
    }

    /// The layer's trainable parameters (possibly empty).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Layer::Dense(l) => l.params_mut(),
            Layer::Relu(_) | Layer::Dropout(_) => Vec::new(),
            Layer::Embedding(l) => l.params_mut(),
        }
    }

    /// The layer's trainable parameters, read-only (possibly empty).
    pub fn params(&self) -> Vec<&Param> {
        match self {
            Layer::Dense(l) => vec![l.weights(), l.bias()],
            Layer::Relu(_) | Layer::Dropout(_) => Vec::new(),
            Layer::Embedding(l) => vec![l.table()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut d = Dense::new(3, 2, 1);
        // Zero the weights so output equals the bias.
        for v in &mut d.w.value {
            *v = 0.0;
        }
        d.b.value = vec![0.5, -0.5];
        let x = Matrix::zeros(4, 3);
        let y = d.forward(&x, false);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        assert_eq!(y.row(0), &[0.5, -0.5]);
    }

    #[test]
    fn dense_backward_accumulates_grads() {
        let mut d = Dense::new(2, 2, 1);
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let _ = d.forward(&x, true);
        let g = Matrix::from_rows(&[&[1.0, 1.0]]);
        let dx = d.backward(&g);
        assert_eq!((dx.rows(), dx.cols()), (1, 2));
        // dW = xᵀ·g = [[1,1],[2,2]].
        assert_eq!(d.w.grad, vec![1.0, 1.0, 2.0, 2.0]);
        assert_eq!(d.b.grad, vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "backward without training forward")]
    fn dense_backward_requires_training_forward() {
        let mut d = Dense::new(2, 2, 1);
        let x = Matrix::zeros(1, 2);
        let _ = d.forward(&x, false);
        let _ = d.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn relu_roundtrip() {
        let mut r = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let y = r.forward(&x, true);
        assert_eq!(y.row(0), &[0.0, 2.0]);
        let dx = r.backward(&Matrix::from_rows(&[&[5.0, 5.0]]));
        assert_eq!(dx.row(0), &[0.0, 5.0]);
    }

    #[test]
    fn embedding_lookup_concatenates() {
        let mut e = Embedding::new(2, 4, 3, 1);
        let x = Matrix::from_rows(&[&[0.0, 3.0]]);
        let y = e.forward(&x, false);
        assert_eq!((y.rows(), y.cols()), (1, 6));
        // First half = table[feature 0][bin 0], second = table[feature 1][bin 3].
        assert_eq!(&y.row(0)[..3], &e.table.value[0..3]);
        let src = (4 + 3) * 3;
        assert_eq!(&y.row(0)[3..], &e.table.value[src..src + 3]);
    }

    #[test]
    fn embedding_clamps_out_of_range_bins() {
        let mut e = Embedding::new(1, 4, 2, 1);
        let hi = e.forward(&Matrix::from_rows(&[&[99.0]]), false);
        let last = e.forward(&Matrix::from_rows(&[&[3.0]]), false);
        assert_eq!(hi, last);
        let neg = e.forward(&Matrix::from_rows(&[&[-7.0]]), false);
        let first = e.forward(&Matrix::from_rows(&[&[0.0]]), false);
        assert_eq!(neg, first);
    }

    #[test]
    fn embedding_backward_scatters_into_used_rows_only() {
        let mut e = Embedding::new(1, 4, 2, 1);
        let x = Matrix::from_rows(&[&[2.0]]);
        let _ = e.forward(&x, true);
        let g = Matrix::from_rows(&[&[1.0, -1.0]]);
        let _ = e.backward(&g);
        // Only bin 2's two entries receive gradient.
        let expect_zero: Vec<usize> = (0..8).filter(|i| !(4..6).contains(i)).collect();
        for i in expect_zero {
            assert_eq!(e.table.grad[i], 0.0, "grad leaked into entry {i}");
        }
        assert_eq!(&e.table.grad[4..6], &[1.0, -1.0]);
    }

    #[test]
    fn dropout_identity_at_inference() {
        let mut d = Dropout::new(0.5, 1);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        assert_eq!(d.forward(&x, false), x);
        assert_eq!(d.infer(&x), x);
    }

    #[test]
    fn dropout_masks_and_scales_in_training() {
        let mut d = Dropout::new(0.5, 7);
        let x = Matrix::from_vec(1, 1000, vec![1.0; 1000]);
        let y = d.forward(&x, true);
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let kept: Vec<f32> = y.as_slice().iter().cloned().filter(|&v| v != 0.0).collect();
        // Roughly half dropped, survivors scaled by 1/keep = 2.
        assert!((350..=650).contains(&zeros), "dropped {zeros}/1000");
        assert!(kept.iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn dropout_backward_uses_the_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Matrix::from_vec(1, 100, vec![1.0; 100]);
        let y = d.forward(&x, true);
        let g = Matrix::from_vec(1, 100, vec![1.0; 100]);
        let dx = d.backward(&g);
        for (fw, bw) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(fw, bw, "gradient mask must match forward mask");
        }
    }

    #[test]
    fn dropout_masks_differ_across_steps_but_replay_per_seed() {
        let x = Matrix::from_vec(1, 200, vec![1.0; 200]);
        let mut a = Dropout::new(0.3, 9);
        let first = a.forward(&x, true);
        let second = a.forward(&x, true);
        assert_ne!(first, second, "each step samples a fresh mask");
        let mut b = Dropout::new(0.3, 9);
        assert_eq!(b.forward(&x, true), first, "same seed replays the run");
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1)")]
    fn dropout_rejects_rate_one() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    fn layer_enum_dispatch() {
        let mut l = Layer::Dense(Dense::new(2, 3, 5));
        let y = l.forward(&Matrix::zeros(1, 2), false);
        assert_eq!(y.cols(), 3);
        assert_eq!(l.params_mut().len(), 2);
        assert!(Layer::Relu(Relu::new()).params_mut().is_empty());
    }
}
