//! # winofuse-codegen — HLS source generation from optimized strategies
//!
//! The last stage of the paper's tool-flow (§6, Fig. 4): "Given the
//! optimal strategy, the code generator generates HLS source code using
//! templates. \[...\] For the layers to be fused in a group, we wrap them
//! with a top function \[and\] add DATAFLOW directive to the top function.
//! \[...\] The FIFO channels are used. The templates carefully partition
//! line buffers to fully exploit PIPELINE directives. DATAPACK
//! directives are also used to maximize the bandwidth utilization."
//!
//! Because this reproduction has no Vivado back end (DESIGN.md §2), the
//! flow stops at source emission plus a consistency pass:
//!
//! * [`template`] — per-layer Vivado-HLS-style C++ templates
//!   (conventional convolution, Winograd convolution with exact
//!   Cook–Toom constants, pooling, LRN),
//! * [`top`] — the fusion-group top function with `DATAFLOW` and
//!   `hls::stream` channels,
//! * [`project`] — a complete emitted project (sources, header, build
//!   script) for an [`OptimizedDesign`],
//! * [`testbench`] — C testbenches whose golden vectors come from the
//!   layer-by-layer reference (the csim stand-in),
//! * [`check`] — re-parses the emitted pragmas and cross-checks them
//!   against the strategy (unroll factors = parallelism, one DATAFLOW per
//!   group, one stream per fused boundary) — the stand-in for C/RTL
//!   co-simulation.
//!
//! [`OptimizedDesign`]: winofuse_core::framework::OptimizedDesign

pub mod check;
pub mod project;
pub mod template;
pub mod testbench;
pub mod top;

mod error;

pub use error::CodegenError;
pub use project::HlsProject;
