//! # winofuse-conv — numeric convolution substrate
//!
//! Reference and fast implementations of the two convolution algorithms
//! the framework of Xiao et al., *"Exploring Heterogeneous Algorithms for
//! Accelerating Deep Convolutional Neural Networks on FPGAs"* (DAC 2017)
//! explores:
//!
//! * [`direct`] — the conventional algorithm (Eq. 1 of the paper), with a
//!   fast path that lowers rows to matrix multiplication on the fly,
//! * [`winograd`] — Winograd minimal-filtering convolution `F(m×m, r×r)`,
//!   with transform matrices generated for arbitrary `(m, r)` by the
//!   Cook–Toom construction in [`cook_toom`],
//! * [`sparse`] — sparse Winograd's transform-domain pruning pass, which
//!   zeroes the dropped coefficients of a batched Winograd bank.
//!
//! The paper's §1 also names FFT convolution; the algorithm ablation
//! (`exp_ablation_algos`) keeps its multiply count, which shows why the
//! framework leaves it out.
//!
//! Supporting pieces: a 4-D NCHW [`tensor::Tensor`], a saturating 16-bit
//! fixed-point type [`fixed::Fix16`] matching the paper's data type, exact
//! [`rational::Rational`] arithmetic for transform generation, and the
//! non-convolution CNN operators (pooling, ReLU, LRN, fully connected,
//! softmax) in [`ops`].
//!
//! ## Example
//!
//! ```
//! use winofuse_conv::{cook_toom::f43, direct, winograd, tensor::Tensor, ConvGeometry};
//!
//! # fn main() -> Result<(), winofuse_conv::ConvError> {
//! let geom = ConvGeometry::new(8, 8, 3, 1, 1)?; // 8×8 input, 3×3 kernel, stride 1, pad 1
//! let input = Tensor::filled(1, 4, 8, 8, 0.5f32);
//! let kernels = Tensor::filled(2, 4, 3, 3, 0.25f32);
//! let y_direct = direct::conv2d(&input, &kernels, geom)?;
//! let y_wino = winograd::conv2d_with(&input, &kernels, geom, &f43())?;
//! assert!(y_direct.approx_eq(&y_wino, 1e-3));
//! # Ok(())
//! # }
//! ```

pub mod cook_toom;
pub mod direct;
pub mod fixed;
pub mod gemm;
pub mod matrix;
pub mod microkernel;
pub mod ops;
pub mod rational;
pub mod sparse;
pub mod tensor;
pub mod winograd;

mod error;
mod geometry;

pub use error::ConvError;
pub use geometry::ConvGeometry;
