//! # winofuse
//!
//! A from-scratch Rust reproduction of **"Exploring Heterogeneous
//! Algorithms for Accelerating Deep Convolutional Neural Networks on
//! FPGAs"** (Xiao, Liang, Lu, Yan, Tai — DAC 2017).
//!
//! The paper's insight: the conventional convolution algorithm is
//! DSP-bound while the Winograd minimal-filtering algorithm is
//! bandwidth-bound, so a *heterogeneous* assignment — chosen per layer,
//! inside a line-buffer-based layer-fusion architecture, by a dynamic
//! program over the feature-map transfer budget — beats any homogeneous
//! design. This crate re-exports the whole reproduction:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`conv`] | `winofuse-conv` | direct / Winograd convolution, Cook–Toom transform generation, 16-bit fixed point |
//! | [`model`] | `winofuse-model` | CNN descriptions, AlexNet/VGG zoo, prototxt parser, reference executor |
//! | [`fpga`] | `winofuse-fpga` | device catalog, resource vectors, roofline, engine cost models, energy |
//! | [`fusion`] | `winofuse-fusion` | pyramid math, line buffers, pipeline timing, timing simulator, fused runner, Alwani (MICRO'16) baseline |
//! | [`core`] | `winofuse-core` | strategy triples, branch-and-bound (Alg. 2), transfer-budget DP (Alg. 1), framework driver |
//! | [`codegen`] | `winofuse-codegen` | Vivado-HLS-style source emission + pragma consistency checks |
//! | [`telemetry`] | `winofuse-telemetry` | counters, spans, Chrome-trace / JSON-lines export, run summaries |
//!
//! ## Quickstart
//!
//! ```
//! use winofuse::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A network (from the zoo, or parse a Caffe-style prototxt).
//! let net = winofuse::model::zoo::vgg_e_fused_prefix();
//!
//! // 2. A device (the paper's ZC706) and the framework.
//! let fw = Framework::new(FpgaDevice::zc706());
//!
//! // 3. Optimize under a 2 MB feature-map transfer budget (Table 1).
//! let design = fw.optimize(&net, 2 * 1024 * 1024)?;
//! assert!(design.partition.strategy.is_heterogeneous());
//!
//! // 4. Emit the Vivado HLS project.
//! let project = HlsProject::generate(&net, &design)?;
//! assert!(project.file("build.tcl").is_some());
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod serve;

pub use error::TaskError;
pub use serve::{ServeConfig, ServeEngine, Ticket};
pub use winofuse_codegen as codegen;
pub use winofuse_conv as conv;
pub use winofuse_core as core;
pub use winofuse_fpga as fpga;
pub use winofuse_fusion as fusion;
pub use winofuse_model as model;
pub use winofuse_runtime as runtime;
pub use winofuse_telemetry as telemetry;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use winofuse_codegen::HlsProject;
    pub use winofuse_core::bnb::{AlgoPolicy, GroupPlanner};
    pub use winofuse_core::framework::{Framework, OptimizedDesign};
    pub use winofuse_core::{LayerStrategy, Strategy};
    pub use winofuse_fpga::device::FpgaDevice;
    pub use winofuse_fpga::engine::Algorithm;
    pub use winofuse_fpga::ResourceVec;
    pub use winofuse_model::{ConvParams, DataType, FmShape, Layer, LayerKind, Network};
    pub use winofuse_telemetry::{RunTelemetry, Telemetry};
}
