use crate::ConvError;

/// Spatial geometry of a 2-D convolution: input size, kernel size, stride
/// and zero padding.
///
/// The geometry is square in both the feature-map and kernel dimensions,
/// matching the layers of AlexNet/VGG evaluated in the paper (rectangular
/// inputs are supported via [`ConvGeometry::rect`]).
///
/// # Examples
///
/// ```
/// use winofuse_conv::ConvGeometry;
///
/// # fn main() -> Result<(), winofuse_conv::ConvError> {
/// let g = ConvGeometry::new(224, 224, 3, 1, 1)?; // VGG conv layer
/// assert_eq!(g.output_height(), 224);
/// assert_eq!(g.output_width(), 224);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    height: usize,
    width: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl ConvGeometry {
    /// Creates a geometry for a `height × width` input convolved with a
    /// `kernel × kernel` filter at the given `stride` with symmetric zero
    /// `pad`.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::InvalidGeometry`] when any dimension or the
    /// stride is zero, or when the kernel does not fit in the padded input.
    pub fn new(
        height: usize,
        width: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, ConvError> {
        Self::rect(height, width, kernel, stride, pad)
    }

    /// Creates a geometry for a possibly non-square input.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ConvGeometry::new`].
    pub fn rect(
        height: usize,
        width: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, ConvError> {
        if height == 0 || width == 0 {
            return Err(ConvError::InvalidGeometry(format!(
                "input dimensions must be nonzero, got {height}x{width}"
            )));
        }
        if kernel == 0 {
            return Err(ConvError::InvalidGeometry(
                "kernel size must be nonzero".into(),
            ));
        }
        if stride == 0 {
            return Err(ConvError::InvalidGeometry("stride must be nonzero".into()));
        }
        if kernel > height + 2 * pad || kernel > width + 2 * pad {
            return Err(ConvError::InvalidGeometry(format!(
                "kernel {kernel} larger than padded input {}x{}",
                height + 2 * pad,
                width + 2 * pad
            )));
        }
        Ok(Self {
            height,
            width,
            kernel,
            stride,
            pad,
        })
    }

    /// Input feature-map height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Input feature-map width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Kernel (filter) side length `K`.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Sliding stride `S`.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Symmetric zero padding on each border.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Number of output rows: `(H + 2·pad − K)/S + 1`.
    pub fn output_height(&self) -> usize {
        (self.height + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Number of output columns: `(W + 2·pad − K)/S + 1`.
    pub fn output_width(&self) -> usize {
        (self.width + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Multiply–accumulate operations per input channel per output channel
    /// (one output plane sweep): `outH · outW · K²`.
    pub fn macs_per_channel_pair(&self) -> u64 {
        self.output_height() as u64 * self.output_width() as u64 * (self.kernel as u64).pow(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg_layer_preserves_size() {
        let g = ConvGeometry::new(224, 224, 3, 1, 1).unwrap();
        assert_eq!(g.output_height(), 224);
        assert_eq!(g.output_width(), 224);
    }

    #[test]
    fn alexnet_conv1_shape() {
        // AlexNet conv1: 227x227 input, 11x11 kernel, stride 4, no pad -> 55x55.
        let g = ConvGeometry::new(227, 227, 11, 4, 0).unwrap();
        assert_eq!(g.output_height(), 55);
        assert_eq!(g.output_width(), 55);
    }

    #[test]
    fn rejects_zero_stride() {
        assert!(matches!(
            ConvGeometry::new(8, 8, 3, 0, 0),
            Err(ConvError::InvalidGeometry(_))
        ));
    }

    #[test]
    fn rejects_oversized_kernel() {
        assert!(ConvGeometry::new(4, 4, 7, 1, 1).is_err());
        // ... but padding can make it fit.
        assert!(ConvGeometry::new(4, 4, 7, 1, 2).is_ok());
    }

    #[test]
    fn rejects_zero_dims() {
        assert!(ConvGeometry::new(0, 8, 3, 1, 1).is_err());
        assert!(ConvGeometry::new(8, 0, 3, 1, 1).is_err());
        assert!(ConvGeometry::new(8, 8, 0, 1, 1).is_err());
    }

    #[test]
    fn macs_count() {
        let g = ConvGeometry::new(4, 4, 3, 1, 0).unwrap();
        // 2x2 outputs, 9 MACs each.
        assert_eq!(g.macs_per_channel_pair(), 36);
    }

    #[test]
    fn rect_geometry() {
        let g = ConvGeometry::rect(6, 10, 3, 1, 0).unwrap();
        assert_eq!(g.output_height(), 4);
        assert_eq!(g.output_width(), 8);
    }
}
