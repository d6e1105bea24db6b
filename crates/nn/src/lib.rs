//! From-scratch neural-network stack for the AIrchitect reproduction.
//!
//! The paper implements its models "in TensorFlow's Keras"; this crate is the
//! Rust substrate that replaces it. It provides exactly the pieces the paper
//! needs — nothing more:
//!
//! * [`layer`] — [`layer::Dense`], [`layer::Relu`], and the per-feature
//!   [`layer::Embedding`] front-end that defines AIrchitect (paper Fig. 2),
//! * [`network`] — a [`network::Sequential`] container with forward/backward,
//! * [`loss`] — fused softmax + categorical cross-entropy,
//! * [`optim`] — SGD and Adam,
//! * [`train`] — seeded minibatch trainer returning per-epoch accuracy
//!   curves (paper Fig. 10a-c),
//! * [`metrics`] — accuracy and the geometric mean used for the
//!   misprediction-penalty analysis (paper Fig. 10g-h),
//! * [`quant`] — offline int8 compilation of a trained network into the
//!   fused single-query hot path ([`quant::QuantizedNetwork`]),
//! * [`serialize`] — binary save/load of trained networks.
//!
//! # Example: learn XOR
//!
//! ```
//! use airchitect_data::Dataset;
//! use airchitect_nn::network::Sequential;
//! use airchitect_nn::train::{fit, TrainConfig};
//!
//! let mut ds = Dataset::new(2, 2)?;
//! for _ in 0..50 {
//!     ds.push(&[0.0, 0.0], 0)?;
//!     ds.push(&[0.0, 1.0], 1)?;
//!     ds.push(&[1.0, 0.0], 1)?;
//!     ds.push(&[1.0, 1.0], 0)?;
//! }
//! let mut net = Sequential::mlp(2, &[16], 2, 7);
//! let history = fit(&mut net, &ds, None, &TrainConfig { epochs: 200, ..Default::default() })?;
//! assert!(history.final_train_accuracy() > 0.9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod layer;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod optim;
pub mod quant;
pub mod serialize;
pub mod train;

/// A trainable parameter tensor: values, accumulated gradients, and the
/// Adam moment buffers.
///
/// A decoded parameter ([`Param::from_values`]) starts with empty
/// gradient and moment buffers; they are allocated, zeroed, when training
/// first touches them, so a model loaded for inference holds one copy of
/// its weights instead of four.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Param {
    /// Parameter values (layout owned by the layer).
    pub value: Vec<f32>,
    /// Gradient accumulator, same layout as `value`.
    pub grad: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Param {
    /// Wraps initial values into a parameter with zeroed gradients/moments.
    pub fn new(value: Vec<f32>) -> Self {
        let n = value.len();
        Self {
            value,
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Wraps decoded values with no gradient or moment buffers yet (see the
    /// type docs); training behaves exactly as after [`Param::new`].
    pub fn from_values(value: Vec<f32>) -> Self {
        Self {
            value,
            grad: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Allocates the zeroed gradient and moment buffers a
    /// [`Param::from_values`] parameter lacks; a no-op once they exist.
    pub(crate) fn ensure_training_buffers(&mut self) {
        let n = self.value.len();
        for buf in [&mut self.grad, &mut self.m, &mut self.v] {
            if buf.is_empty() {
                *buf = vec![0.0; n];
            }
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&mut self) {
        for g in &mut self.grad {
            *g = 0.0;
        }
    }

    /// The optimizer moment buffers `(m, v)` — SGD momentum lives in `m`,
    /// Adam uses both. Exposed for training checkpoints. Both are empty
    /// for a [`Param::from_values`] parameter that has not trained, whose
    /// moments are zero.
    pub fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }

    /// Replaces the optimizer moment buffers (restoring a checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if either buffer's length differs from the parameter's.
    pub fn set_moments(&mut self, m: Vec<f32>, v: Vec<f32>) {
        assert_eq!(m.len(), self.value.len(), "moment m length mismatch");
        assert_eq!(v.len(), self.value.len(), "moment v length mismatch");
        self.m = m;
        self.v = v;
        self.ensure_training_buffers();
    }
}
