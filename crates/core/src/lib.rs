//! # winofuse-core — heterogeneous-algorithm strategy optimization
//!
//! The primary contribution of Xiao et al. (DAC 2017): given a CNN and an
//! FPGA, find the strategy `S = {⟨group, algorithm, parallelism⟩ per
//! layer}` that minimizes end-to-end latency subject to a feature-map
//! transfer constraint `T` and the device resource constraint `R`
//! (Problem 1, §5).
//!
//! * [`strategy`] — the strategy triples and validated partitions,
//! * [`bnb`] — the depth-first branch-and-bound that implements one
//!   fusion group, choosing algorithm + parallelism per layer and
//!   balancing the inter-layer pipeline (Algorithm 2),
//! * [`dp`] — the dynamic program over (layer range, transfer budget)
//!   that partitions the network into fusion groups (Algorithm 1), plus
//!   an exact Pareto-frontier formulation that avoids discretizing the
//!   budget,
//! * [`exhaustive`] — a brute-force partition enumerator used to verify
//!   the DP's optimality on small networks,
//! * [`parallel`] — multi-threaded construction of the `fusion[i][j]`
//!   plan table (every cell is an independent branch-and-bound), with
//!   bit-identical results at any thread count,
//! * [`framework`] — the end-to-end driver ("Caffe model + FPGA spec in,
//!   strategy + report out", §3), including homogeneous-algorithm
//!   restrictions for ablations, and the one lowering of a solved
//!   strategy onto the CPU: a plan-shaped preparation and the
//!   plan-faithful fused runner on it, with per-group DRAM
//!   reconciliation,
//! * [`cache`] — the serving plan: a design, its preparation and its
//!   runner, built once per served model,
//! * [`report`] — machine-readable (JSON/CSV) export of designs.
//!
//! ## Example
//!
//! ```
//! use winofuse_core::framework::Framework;
//! use winofuse_fpga::device::FpgaDevice;
//! use winofuse_model::zoo;
//!
//! # fn main() -> Result<(), winofuse_core::CoreError> {
//! let net = zoo::small_test_net();
//! let fw = Framework::new(FpgaDevice::zc706());
//! let design = fw.optimize(&net, 4 * 1024 * 1024)?;
//! assert!(design.timing.latency > 0);
//! # Ok(())
//! # }
//! ```

pub mod bnb;
pub mod cache;
pub mod dp;
pub mod exhaustive;
pub mod framework;
pub mod parallel;
pub mod report;
pub mod strategy;

mod error;

pub use error::CoreError;
pub use strategy::{LayerStrategy, Strategy};

/// The paper caps fusion groups at 8 layers "due to memory ports
/// limitation" (§7.1).
pub const MAX_FUSION_LAYERS: usize = 8;

/// The paper's transfer-constraint granularity: "we define the unit of
/// transfer constraint as 10 KB" (§7.1).
pub const TRANSFER_UNIT_BYTES: u64 = 10 * 1024;
