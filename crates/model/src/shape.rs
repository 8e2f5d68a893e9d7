//! Feature-map shapes and data-type sizing.

use std::fmt;

/// Numeric precision of feature maps and weights.
///
/// The paper's designs use [`DataType::Fixed16`] throughout (§7.1: "use
/// 16-bit fixed data type").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataType {
    /// 16-bit fixed point (the paper's choice).
    #[default]
    Fixed16,
    /// 32-bit IEEE float (for reference computation / comparisons).
    Float32,
}

impl DataType {
    /// Size of one element in bytes.
    pub fn bytes(self) -> usize {
        match self {
            DataType::Fixed16 => 2,
            DataType::Float32 => 4,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Fixed16 => write!(f, "fixed16"),
            DataType::Float32 => write!(f, "float32"),
        }
    }
}

/// Shape of a stack of feature maps: `channels × height × width`
/// (batch is always 1 for the paper's inference setting).
///
/// # Examples
///
/// ```
/// use winofuse_model::{DataType, FmShape};
///
/// let s = FmShape::new(64, 224, 224);
/// assert_eq!(s.elements(), 64 * 224 * 224);
/// assert_eq!(s.bytes(DataType::Fixed16), 64 * 224 * 224 * 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FmShape {
    /// Number of channels (feature maps).
    pub channels: usize,
    /// Feature-map height.
    pub height: usize,
    /// Feature-map width.
    pub width: usize,
}

impl FmShape {
    /// Creates a shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        FmShape {
            channels,
            height,
            width,
        }
    }

    /// Total number of elements.
    pub fn elements(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Size in bytes at the given precision.
    pub fn bytes(&self, dtype: DataType) -> usize {
        self.elements() * dtype.bytes()
    }

    /// [`FmShape::bytes`], or `None` when the element count or the byte
    /// count overflows `usize`.
    pub fn checked_bytes(&self, dtype: DataType) -> Option<usize> {
        self.channels
            .checked_mul(self.height)?
            .checked_mul(self.width)?
            .checked_mul(dtype.bytes())
    }

    /// Bytes of one spatial row across all channels (the granularity the
    /// line-buffer architecture loads at).
    pub fn row_bytes(&self, dtype: DataType) -> usize {
        self.channels * self.width * dtype.bytes()
    }
}

impl fmt::Display for FmShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.channels, self.height, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_and_byte_counts() {
        let s = FmShape::new(3, 227, 227);
        assert_eq!(s.elements(), 3 * 227 * 227);
        assert_eq!(s.bytes(DataType::Fixed16), s.elements() * 2);
        assert_eq!(s.bytes(DataType::Float32), s.elements() * 4);
    }

    #[test]
    fn checked_bytes_reports_overflow() {
        let s = FmShape::new(3, 227, 227);
        assert_eq!(
            s.checked_bytes(DataType::Float32),
            Some(s.bytes(DataType::Float32))
        );
        let huge = FmShape::new(4_294_967_295, 4_294_967_295, 4_294_967_295);
        assert_eq!(huge.checked_bytes(DataType::Fixed16), None);
        // 2⁶² elements: their Q8.8 bytes fit in usize, their f32 bytes do not.
        let wide = FmShape::new(1 << 22, 1 << 20, 1 << 20);
        assert_eq!(wide.checked_bytes(DataType::Fixed16), Some(1 << 63));
        assert_eq!(wide.checked_bytes(DataType::Float32), None);
        assert_eq!(
            FmShape::new(1 << 21, 1 << 20, 1 << 20).checked_bytes(DataType::Fixed16),
            Some(1 << 62)
        );
    }

    #[test]
    fn row_bytes() {
        let s = FmShape::new(64, 224, 224);
        assert_eq!(s.row_bytes(DataType::Fixed16), 64 * 224 * 2);
    }

    #[test]
    fn display() {
        assert_eq!(FmShape::new(3, 4, 5).to_string(), "3x4x5");
        assert_eq!(DataType::Fixed16.to_string(), "fixed16");
    }

    #[test]
    fn default_dtype_is_paper_choice() {
        assert_eq!(DataType::default(), DataType::Fixed16);
    }
}
