//! The circular line buffer of §4.2 / Fig. 2(b), as a residency model.
//!
//! "In our design, the whole input line buffer consists of K + S lines.
//! Initially, the first K rows of input feature maps are loaded into line
//! [1, K]. After this, kernels slide through these lines to perform
//! convolutions and produce the first row of corresponding output feature
//! maps. Meanwhile, the next S rows are being transferred into line
//! [K + 1, K + S]." (§4.2)
//!
//! The simulator only needs *which* rows the buffer holds, not their
//! values: it pushes rows as they arrive, checks that every window row is
//! still resident before a stage produces, and refuses a push that would
//! evict a row its consumer still needs (backpressure). The values of a
//! fused group come from the fused runner.

/// The retention window of a circular buffer holding the most recent
/// `depth` rows of a feature-map stack.
///
/// Rows are addressed by their **absolute row index** in the feature map,
/// so client code asks naturally ("is input row 17 resident?") and the
/// buffer enforces the hardware's retention window.
///
/// # Examples
///
/// ```
/// use winofuse_fusion::line_buffer::LineBuffer;
///
/// let mut lb = LineBuffer::new(3); // 3 rows retained
/// for _ in 0..4 {
///     lb.push();
/// }
/// assert_eq!(lb.rows_buffered(), 3);
/// assert!(!lb.contains_row(0), "evicted by row 3");
/// assert!(lb.contains_row(1) && lb.contains_row(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineBuffer {
    depth: usize,
    /// Absolute index of the next row to be pushed.
    next_row: usize,
}

impl LineBuffer {
    /// Creates an empty buffer retaining `depth` rows.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "line buffer depth must be nonzero");
        LineBuffer { depth, next_row: 0 }
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

    /// Pushes the next row, evicting the oldest retained row once full —
    /// the circular update of Fig. 2(b).
    pub fn push(&mut self) {
        self.next_row += 1;
    }

    /// Whether absolute row `row` is currently readable.
    pub fn contains_row(&self, row: usize) -> bool {
        row < self.next_row && row >= self.oldest_row()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_fills_then_saturates() {
        let mut lb = LineBuffer::new(4);
        for _ in 0..3 {
            lb.push();
        }
        assert_eq!(lb.rows_buffered(), 3);
        assert_eq!(lb.rows_pushed(), 3);
        assert!((0..3).all(|r| lb.contains_row(r)));
        assert!(!lb.contains_row(3), "not yet pushed");
    }

    #[test]
    fn eviction_follows_circular_order() {
        let mut lb = LineBuffer::new(3);
        for _ in 0..5 {
            lb.push();
        }
        // Rows 0 and 1 evicted; 2, 3, 4 retained.
        assert!(!lb.contains_row(0));
        assert!(!lb.contains_row(1));
        assert!((2..5).all(|r| lb.contains_row(r)));
        assert_eq!(lb.oldest_row(), 2);
        assert_eq!(lb.rows_buffered(), 3);
        assert!(!lb.contains_row(5));
    }

    #[test]
    fn kplus_s_window_always_available() {
        // The §4.2 invariant: with depth K+S, while computing output row i
        // (needing input rows [i·S, i·S+K)), rows [i·S+K, i·S+K+S) stream
        // in concurrently — no access in that schedule ever misses.
        let (k, s) = (3usize, 2usize);
        let mut lb = LineBuffer::new(k + s);
        let total_rows = 20;
        let out_rows = (total_rows - k) / s + 1;
        for i in 0..out_rows {
            // Load phase for iteration i: ensure rows up to i*s + k + s - 1
            // (compute window + next S prefetch) are pushed.
            let need = ((i * s + k) + s).min(total_rows);
            while lb.rows_pushed() < need {
                lb.push();
            }
            // Compute phase reads rows [i*s, i*s+k).
            for r in i * s..i * s + k {
                assert!(lb.contains_row(r), "row {r} missing at output row {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = LineBuffer::new(0);
    }
}
