//! The CLI-facing error taxonomy: one source-chained type wrapping every
//! substrate crate's errors, with a documented exit code per class.
//!
//! # Exit codes
//!
//! | code | class | examples |
//! |---|---|---|
//! | 0 | success | |
//! | 1 | generic failure | I/O, unclassified messages |
//! | 2 | usage error | unknown flag, malformed `--inject` spec |
//! | 3 | model / configuration | prototxt parse, shape inference |
//! | 4 | convolution numeric | bad geometry, unsupported transform |
//! | 5 | planning / resource | infeasible budget, FPGA or codegen model |
//! | 6 | DRAM reconciliation | strict-mode [`FusionError::DramMismatch`] |
//! | 7 | kernel fault | caught panic, pool fault, strict group fault |
//! | 9 | serve admission | queue overloaded, engine shutting down |
//!
//! The DRAM-reconciliation and kernel-fault classes are the
//! fault-tolerance machinery's strict-mode surface (see `DESIGN.md`
//! §12); everything else is the pre-existing error space, now chained
//! via [`std::error::Error::source`] so `caused by:` trails print from
//! any layer.

use std::error::Error;
use std::fmt;

use winofuse_codegen::CodegenError;
use winofuse_conv::ConvError;
use winofuse_core::CoreError;
use winofuse_fpga::FpgaError;
use winofuse_fusion::FusionError;
use winofuse_model::ModelError;
use winofuse_runtime::serve::ServeError;
use winofuse_runtime::PoolError;

/// One top-level error for everything a `winofuse` task can fail with.
///
/// Each variant wraps the originating crate's typed error (preserved as
/// [`Error::source`]) except [`TaskError::Usage`] and
/// [`TaskError::Other`], which carry plain messages.
#[derive(Debug)]
#[non_exhaustive]
pub enum TaskError {
    /// Command-line misuse: unknown flag, missing argument, malformed
    /// `--inject` spec.
    Usage(String),
    /// Network description or configuration problem.
    Model(ModelError),
    /// Numeric convolution substrate failure.
    Conv(ConvError),
    /// Strategy search / planning failure.
    Core(CoreError),
    /// FPGA cost-model failure.
    Fpga(FpgaError),
    /// HLS emission failure.
    Codegen(CodegenError),
    /// Fused-execution failure (including strict-mode DRAM mismatches
    /// and group faults).
    Fusion(FusionError),
    /// Worker-pool fault that escaped every fallback rung.
    Pool(PoolError),
    /// Serving admission failure: queue at capacity or engine draining.
    Serve(ServeError),
    /// Anything else (I/O, free-form messages).
    Other(String),
}

impl TaskError {
    /// A usage error (exit code 2).
    pub fn usage(msg: impl Into<String>) -> Self {
        TaskError::Usage(msg.into())
    }

    /// The documented process exit code for this error's class (see the
    /// [module docs](self)).
    pub fn exit_code(&self) -> u8 {
        match self {
            TaskError::Usage(_) => 2,
            TaskError::Model(ModelError::KernelFault { .. }) => 7,
            TaskError::Model(_) => 3,
            TaskError::Conv(ConvError::KernelFault { .. }) => 7,
            TaskError::Conv(_) => 4,
            TaskError::Core(_) | TaskError::Fpga(_) | TaskError::Codegen(_) => 5,
            TaskError::Fusion(FusionError::DramMismatch { .. }) => 6,
            TaskError::Fusion(FusionError::GroupFault { .. })
            | TaskError::Fusion(FusionError::KernelFault { .. }) => 7,
            TaskError::Fusion(_) => 3,
            TaskError::Pool(_) => 7,
            TaskError::Serve(_) => 9,
            TaskError::Other(_) => 1,
        }
    }
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Usage(m) => write!(f, "usage error: {m}"),
            TaskError::Model(_) => write!(f, "model error"),
            TaskError::Conv(_) => write!(f, "convolution error"),
            TaskError::Core(_) => write!(f, "planning error"),
            TaskError::Fpga(_) => write!(f, "fpga model error"),
            TaskError::Codegen(_) => write!(f, "codegen error"),
            TaskError::Fusion(_) => write!(f, "fused execution error"),
            TaskError::Pool(_) => write!(f, "worker pool error"),
            TaskError::Serve(_) => write!(f, "serve admission error"),
            TaskError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl Error for TaskError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TaskError::Usage(_) | TaskError::Other(_) => None,
            TaskError::Model(e) => Some(e),
            TaskError::Conv(e) => Some(e),
            TaskError::Core(e) => Some(e),
            TaskError::Fpga(e) => Some(e),
            TaskError::Codegen(e) => Some(e),
            TaskError::Fusion(e) => Some(e),
            TaskError::Pool(e) => Some(e),
            TaskError::Serve(e) => Some(e),
        }
    }
}

impl From<ModelError> for TaskError {
    fn from(e: ModelError) -> Self {
        TaskError::Model(e)
    }
}

impl From<ConvError> for TaskError {
    fn from(e: ConvError) -> Self {
        TaskError::Conv(e)
    }
}

impl From<CoreError> for TaskError {
    fn from(e: CoreError) -> Self {
        TaskError::Core(e)
    }
}

impl From<FpgaError> for TaskError {
    fn from(e: FpgaError) -> Self {
        TaskError::Fpga(e)
    }
}

impl From<CodegenError> for TaskError {
    fn from(e: CodegenError) -> Self {
        TaskError::Codegen(e)
    }
}

impl From<FusionError> for TaskError {
    fn from(e: FusionError) -> Self {
        TaskError::Fusion(e)
    }
}

impl From<PoolError> for TaskError {
    fn from(e: PoolError) -> Self {
        TaskError::Pool(e)
    }
}

impl From<ServeError> for TaskError {
    fn from(e: ServeError) -> Self {
        TaskError::Serve(e)
    }
}

impl From<std::io::Error> for TaskError {
    fn from(e: std::io::Error) -> Self {
        TaskError::Other(format!("i/o error: {e}"))
    }
}

impl From<String> for TaskError {
    fn from(m: String) -> Self {
        TaskError::Other(m)
    }
}

/// Renders the full `caused by:` chain of any error, one line per layer.
pub fn render_chain(e: &dyn Error) -> String {
    let mut out = e.to_string();
    let mut cur = e.source();
    while let Some(c) = cur {
        out.push_str("\n  caused by: ");
        out.push_str(&c.to_string());
        cur = c.source();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_follow_the_documented_map() {
        assert_eq!(TaskError::usage("bad flag").exit_code(), 2);
        assert_eq!(
            TaskError::from(ModelError::InvalidNetwork("empty".into())).exit_code(),
            3
        );
        assert_eq!(TaskError::from(ConvError::RationalOverflow).exit_code(), 4);
        assert_eq!(
            TaskError::from(CoreError::Infeasible("budget".into())).exit_code(),
            5
        );
        assert_eq!(
            TaskError::from(FusionError::DramMismatch {
                start: 0,
                measured: 1,
                analytic: 2
            })
            .exit_code(),
            6
        );
        assert_eq!(
            TaskError::from(ModelError::KernelFault {
                layer: "conv2".into(),
                reason: "boom".into()
            })
            .exit_code(),
            7
        );
        assert_eq!(
            TaskError::from(FusionError::GroupFault {
                start: 0,
                reason: "boom".into()
            })
            .exit_code(),
            7
        );
        assert_eq!(
            TaskError::from(ServeError::Overloaded {
                depth: 64,
                capacity: 64
            })
            .exit_code(),
            9
        );
        assert_eq!(TaskError::from(String::from("misc")).exit_code(), 1);
    }

    #[test]
    fn source_chain_renders_every_layer() {
        let e = TaskError::from(ModelError::KernelFault {
            layer: "conv2".into(),
            reason: "2 of 14 jobs panicked".into(),
        });
        let chain = render_chain(&e);
        assert!(chain.contains("model error"));
        assert!(chain.contains("caused by: kernel fault at layer `conv2`"));
    }
}
