use std::error::Error;
use std::fmt;

/// Errors produced by the convolution substrate.
///
/// Every fallible public function in this crate returns
/// `Result<_, ConvError>`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConvError {
    /// Tensor shapes are incompatible with the requested operation.
    ShapeMismatch {
        /// Human-readable description of what was expected.
        expected: String,
        /// Human-readable description of what was found.
        found: String,
    },
    /// A convolution geometry parameter is invalid (zero dimension, kernel
    /// larger than the padded input, zero stride, ...).
    InvalidGeometry(String),
    /// The Cook–Toom generator cannot produce a transform for the request
    /// (e.g. `m == 0`, `r == 0`, or more interpolation points needed than
    /// the built-in point sequence supplies).
    UnsupportedTransform(String),
    /// The Winograd path only supports stride-1 convolutions; the paper's
    /// framework falls back to the conventional algorithm otherwise.
    StrideUnsupported {
        /// The offending stride.
        stride: usize,
    },
    /// Exact rational arithmetic overflowed `i128` during transform
    /// generation (only possible for very large tile sizes).
    RationalOverflow,
    /// A kernel's worker-pool jobs panicked: the panic-isolated pool
    /// caught the fault and the kernel surfaced it as a typed error
    /// instead of unwinding. Recoverable by
    /// re-running the layer on a different algorithm path — see the
    /// executor's degradation ladder.
    KernelFault {
        /// The pool label the fault surfaced under (e.g. `conv2/wino.gemm`).
        site: String,
        /// One-line fault summary from [`winofuse_runtime::PoolError`].
        detail: String,
    },
}

impl From<winofuse_runtime::PoolError> for ConvError {
    fn from(e: winofuse_runtime::PoolError) -> Self {
        let winofuse_runtime::PoolError::JobsPanicked { label, .. } = &e;
        ConvError::KernelFault {
            site: label.clone(),
            detail: e.to_string(),
        }
    }
}

impl fmt::Display for ConvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            ConvError::InvalidGeometry(msg) => write!(f, "invalid convolution geometry: {msg}"),
            ConvError::UnsupportedTransform(msg) => {
                write!(f, "unsupported winograd transform: {msg}")
            }
            ConvError::StrideUnsupported { stride } => {
                write!(f, "winograd convolution requires stride 1, got {stride}")
            }
            ConvError::RationalOverflow => {
                write!(
                    f,
                    "rational arithmetic overflow during transform generation"
                )
            }
            ConvError::KernelFault { site, detail } => {
                write!(f, "kernel fault at `{site}`: {detail}")
            }
        }
    }
}

impl Error for ConvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = ConvError::StrideUnsupported { stride: 4 };
        let msg = e.to_string();
        assert!(msg.contains("stride 1"));
        assert!(msg.contains('4'));
        assert!(msg.chars().next().map(char::is_lowercase).unwrap_or(false));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConvError>();
    }
}
