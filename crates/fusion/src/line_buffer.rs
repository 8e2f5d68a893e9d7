//! The circular line buffer of §4.2 / Fig. 2(b), as a functional data
//! structure.
//!
//! "In our design, the whole input line buffer consists of K + S lines.
//! Initially, the first K rows of input feature maps are loaded into line
//! [1, K]. After this, kernels slide through these lines to perform
//! convolutions and produce the first row of corresponding output feature
//! maps. Meanwhile, the next S rows are being transferred into line
//! [K + 1, K + S]." (§4.2)
//!
//! The simulator drives this structure row by row; eviction is checked so
//! any access pattern the real hardware could not satisfy panics loudly in
//! tests instead of silently reading stale data.

use winofuse_conv::tensor::Scalar;

use crate::FusionError;

/// A circular buffer holding the most recent `depth` rows of a
/// `channels × width` feature-map stack.
///
/// Rows are addressed by their **absolute row index** in the feature map,
/// so client code reads naturally ("give me input row 17") and the buffer
/// enforces the hardware's retention window.
///
/// # Examples
///
/// ```
/// use winofuse_fusion::line_buffer::LineBuffer;
///
/// let mut lb = LineBuffer::<f32>::new(2, 4, 3); // 2 channels, width 4, 3 rows retained
/// lb.push_row(&[0.0; 8]).unwrap();
/// lb.push_row(&[1.0; 8]).unwrap();
/// assert_eq!(lb.rows_buffered(), 2);
/// assert_eq!(lb.get(1, 1, 3).unwrap(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct LineBuffer<T> {
    channels: usize,
    width: usize,
    depth: usize,
    /// `depth` rows, each `channels·width` (channel-major within a row).
    rows: Vec<Vec<T>>,
    /// Absolute index of the next row to be pushed.
    next_row: usize,
}

impl<T: Scalar> LineBuffer<T> {
    /// Creates an empty buffer retaining `depth` rows.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(channels: usize, width: usize, depth: usize) -> Self {
        assert!(
            channels > 0 && width > 0 && depth > 0,
            "line buffer dimensions must be nonzero"
        );
        LineBuffer {
            channels,
            width,
            depth,
            rows: vec![vec![T::zero(); channels * width]; depth],
            next_row: 0,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Row width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Retention depth in rows (`K + S` in the paper's design).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total rows pushed so far (= absolute index of the next row).
    pub fn rows_pushed(&self) -> usize {
        self.next_row
    }

    /// Rows currently retained (saturates at `depth`).
    pub fn rows_buffered(&self) -> usize {
        self.next_row.min(self.depth)
    }

    /// Absolute index of the oldest retained row.
    pub fn oldest_row(&self) -> usize {
        self.next_row.saturating_sub(self.depth)
    }

    /// Pushes the next row (channel-major: `channels · width` values),
    /// evicting the oldest retained row once full — the circular update
    /// of Fig. 2(b).
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Simulation`] when the slice length is wrong.
    pub fn push_row(&mut self, row: &[T]) -> Result<(), FusionError> {
        if row.len() != self.channels * self.width {
            return Err(FusionError::Simulation(format!(
                "pushed row has {} values, expected {}",
                row.len(),
                self.channels * self.width
            )));
        }
        let slot = self.next_row % self.depth;
        self.rows[slot].copy_from_slice(row);
        self.next_row += 1;
        Ok(())
    }

    /// Whether absolute row `row` is currently readable.
    pub fn contains_row(&self, row: usize) -> bool {
        row < self.next_row && row >= self.oldest_row()
    }

    /// Reads absolute row `row`: `channels · width` values, channel-major.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Simulation`] when the row was evicted or not
    /// yet pushed — i.e. the access pattern is infeasible for the hardware
    /// buffer.
    pub fn row(&self, row: usize) -> Result<&[T], FusionError> {
        if !self.contains_row(row) {
            return Err(FusionError::Simulation(format!(
                "row {row} not in buffer (retained: {}..{})",
                self.oldest_row(),
                self.next_row
            )));
        }
        Ok(&self.rows[row % self.depth])
    }

    /// Reads element `(channel, absolute row, column)`.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Simulation`] when the row was evicted or not
    /// yet pushed, or the channel/column is out of range — i.e. the access
    /// pattern is infeasible for the hardware buffer.
    pub fn get(&self, channel: usize, row: usize, col: usize) -> Result<T, FusionError> {
        if channel >= self.channels || col >= self.width {
            return Err(FusionError::Simulation(format!(
                "line buffer access ({channel}, {row}, {col}) out of {}x{} bounds",
                self.channels, self.width
            )));
        }
        Ok(self.row(row)?[channel * self.width + col])
    }

    /// Reads with implicit zero padding: negative or beyond-edge columns
    /// return zero; rows must still be resident (vertical padding is the
    /// caller's business since it knows the feature-map height).
    ///
    /// # Errors
    ///
    /// Same row-residency conditions as [`LineBuffer::get`].
    pub fn get_padded_col(&self, channel: usize, row: usize, col: isize) -> Result<T, FusionError> {
        if col < 0 || col as usize >= self.width {
            return Ok(T::zero());
        }
        self.get(channel, row, col as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_of(v: f32, len: usize) -> Vec<f32> {
        vec![v; len]
    }

    #[test]
    fn push_and_read_back() {
        let mut lb = LineBuffer::<f32>::new(2, 3, 4);
        for i in 0..3 {
            lb.push_row(&row_of(i as f32, 6)).unwrap();
        }
        assert_eq!(lb.get(0, 0, 0).unwrap(), 0.0);
        assert_eq!(lb.get(1, 2, 2).unwrap(), 2.0);
        assert_eq!(lb.rows_buffered(), 3);
    }

    #[test]
    fn eviction_follows_circular_order() {
        let mut lb = LineBuffer::<f32>::new(1, 2, 3);
        for i in 0..5 {
            lb.push_row(&row_of(i as f32, 2)).unwrap();
        }
        // Rows 0 and 1 evicted; 2, 3, 4 retained.
        assert!(!lb.contains_row(0));
        assert!(!lb.contains_row(1));
        for r in 2..5 {
            assert_eq!(lb.get(0, r, 0).unwrap(), r as f32);
        }
        assert_eq!(lb.oldest_row(), 2);
        assert!(lb.get(0, 1, 0).is_err());
        assert!(lb.get(0, 5, 0).is_err());
    }

    #[test]
    fn kplus_s_window_always_available() {
        // The §4.2 invariant: with depth K+S, while computing output row i
        // (needing input rows [i·S, i·S+K)), rows [i·S+K, i·S+K+S) stream
        // in concurrently — no access in that schedule ever misses.
        let (k, s) = (3usize, 2usize);
        let mut lb = LineBuffer::<f32>::new(1, 4, k + s);
        let total_rows = 20;
        let mut pushed = 0;
        let out_rows = (total_rows - k) / s + 1;
        for i in 0..out_rows {
            // Load phase for iteration i: ensure rows up to i*s + k + s - 1
            // (compute window + next S prefetch) are pushed.
            let need = ((i * s + k) + s).min(total_rows);
            while pushed < need {
                lb.push_row(&row_of(pushed as f32, 4)).unwrap();
                pushed += 1;
            }
            // Compute phase reads rows [i*s, i*s+k).
            for r in i * s..i * s + k {
                assert_eq!(lb.get(0, r, 0).unwrap(), r as f32, "output row {i}");
            }
        }
    }

    #[test]
    fn whole_rows_are_residency_checked() {
        let mut lb = LineBuffer::<f32>::new(2, 2, 2);
        for i in 0..3 {
            lb.push_row(&[i as f32, 1.0, 2.0, 3.0]).unwrap();
        }
        assert_eq!(lb.row(2).unwrap(), &[2.0, 1.0, 2.0, 3.0]);
        assert_eq!(lb.row(1).unwrap()[0], 1.0);
        assert!(lb.row(0).is_err(), "evicted");
        assert!(lb.row(3).is_err(), "not yet pushed");
    }

    #[test]
    fn wrong_row_length_rejected() {
        let mut lb = LineBuffer::<f32>::new(2, 3, 2);
        assert!(lb.push_row(&row_of(0.0, 5)).is_err());
    }

    #[test]
    fn out_of_bounds_channel_and_column() {
        let mut lb = LineBuffer::<f32>::new(1, 2, 2);
        lb.push_row(&row_of(1.0, 2)).unwrap();
        assert!(lb.get(1, 0, 0).is_err());
        assert!(lb.get(0, 0, 2).is_err());
    }

    #[test]
    fn padded_column_access() {
        let mut lb = LineBuffer::<f32>::new(1, 2, 2);
        lb.push_row(&row_of(7.0, 2)).unwrap();
        assert_eq!(lb.get_padded_col(0, 0, -1).unwrap(), 0.0);
        assert_eq!(lb.get_padded_col(0, 0, 2).unwrap(), 0.0);
        assert_eq!(lb.get_padded_col(0, 0, 1).unwrap(), 7.0);
        // Row residency still enforced.
        assert!(lb.get_padded_col(0, 5, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = LineBuffer::<f32>::new(0, 1, 1);
    }
}
