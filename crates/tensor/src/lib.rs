//! Minimal dense `f32` linear algebra for the AIrchitect ML stack.
//!
//! The paper trains its models with TensorFlow/Keras; this crate is the
//! from-scratch substrate that replaces it: a row-major [`Matrix`] with the
//! handful of operations a small MLP stack needs — packed matrix products
//! (including transposed variants for backprop), broadcast row ops, and
//! seeded initializers.
//!
//! # Example
//!
//! ```
//! use airchitect_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
//! let c = a.matmul(&b);
//! assert_eq!(c.get(0, 0), 19.0);
//! assert_eq!(c.get(1, 1), 50.0);
//! ```

#![warn(missing_docs)]

mod matrix;

pub mod gemm;
pub mod init;
pub mod ops;
pub mod pool;
pub mod qgemm;

pub use matrix::Matrix;
