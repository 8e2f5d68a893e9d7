//! # winofuse-fusion — the fusion architecture, its timing simulator and its runner
//!
//! The paper's §4 architecture, reproduced as executable models:
//!
//! * [`pyramid`] — the dependency-pyramid geometry of Fig. 2(a): how large
//!   an input region one output element (or tile) of a fused stack needs,
//!   and how much recomputation tile-based fusion (Alwani et al. \[1\])
//!   incurs,
//! * [`line_buffer`] — the circular `K + S`-row line buffer of §4.2 /
//!   Fig. 2(b), as a row-residency model,
//! * [`pipeline`] — the two-level (intra-layer + inter-layer) pipeline
//!   latency model of §4.3 / Fig. 2(c)(d), including DRAM bandwidth
//!   contention,
//! * [`simulator`] — a cycle-approximate, row-synchronous timing
//!   simulator of a fused group: cycles, backpressure and per-stage
//!   activity, with the line buffers tracked as row counters,
//! * [`runner`] — a plan-faithful fused *executor*, the source of every
//!   fused value: streams rows through per-stage windows driving the fast
//!   `winofuse-conv` kernels (honoring the BnB's per-layer algorithm
//!   choice), matches the layer-by-layer executor on the same
//!   preparation, and reconciles measured DRAM traffic against the DP's
//!   analytic transfer budget,
//! * [`baseline`] — an analytical model of the tile-based fused-layer
//!   accelerator of Alwani et al. (MICRO 2016), the paper's comparison
//!   target,
//! * [`vcd`] — Value Change Dump export of a simulation run (one busy
//!   wire per fused layer, viewable in GTKWave).

pub mod baseline;
pub mod line_buffer;
pub mod pipeline;
pub mod pyramid;
pub mod runner;
pub mod simulator;
pub mod vcd;

mod error;

pub use error::FusionError;
