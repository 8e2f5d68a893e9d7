//! # winofuse-model — CNN network description substrate
//!
//! The paper's tool-flow (§3) "takes Caffe configuration file and
//! specification of the target FPGA as inputs". This crate provides the
//! Caffe side of that contract:
//!
//! * [`layer`] — typed layer descriptions (convolution, pooling, LRN, ReLU,
//!   fully connected, softmax),
//! * [`network`] — a sequential network with shape inference, operation
//!   counting and transfer-size accounting,
//! * [`zoo`] — the networks evaluated in the paper (AlexNet, VGG-16,
//!   VGGNet-E) plus small test networks,
//! * [`prototxt`] — a parser and printer for a Caffe-prototxt-style text
//!   format,
//! * [`runtime`] — the naive reference and the fast executor, which run
//!   a network numerically (layer by layer, no fusion) using the
//!   algorithms in `winofuse-conv`; the fused runner is validated against
//!   them.
//!
//! ## Example
//!
//! ```
//! use winofuse_model::zoo;
//!
//! let net = zoo::alexnet();
//! assert_eq!(net.conv_layer_indices().len(), 5);
//! let body = net.conv_body().unwrap(); // drop the FC head, as §7.3 does
//! let out = body.output_shape().unwrap();
//! assert_eq!((out.channels, out.height, out.width), (256, 6, 6));
//! ```

pub mod layer;
pub mod network;
pub mod prototxt;
pub mod runtime;
pub mod shape;
pub mod zoo;

mod error;

pub use error::ModelError;
pub use layer::{ConvParams, FcParams, Layer, LayerKind, LrnParams, PoolParams};
pub use network::{ModularNetwork, Network};
pub use shape::{DataType, FmShape};
