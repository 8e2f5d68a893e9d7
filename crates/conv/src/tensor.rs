//! A minimal owned 4-D tensor in NCHW layout.
//!
//! The tensor is deliberately simple: dense, row-major, generic over the
//! element type. It exists so that every convolution algorithm in this crate
//! shares one data structure and can be cross-validated element by element.

use std::fmt;
use std::ops::{Add, Mul};

use crate::ConvError;

/// Element trait for tensors: the minimal arithmetic the convolution
/// algorithms need.
///
/// Implemented for `f32`, `f64` and [`crate::fixed::Fix16`].
pub trait Scalar:
    Copy + Clone + PartialEq + fmt::Debug + Add<Output = Self> + Mul<Output = Self> + Default
{
    /// Additive identity.
    fn zero() -> Self;
    /// Conversion from `f32` (possibly lossy, e.g. fixed point).
    fn from_f32(v: f32) -> Self;
    /// Conversion to `f32` (possibly lossy).
    fn to_f32(self) -> f32;
}

impl Scalar for f32 {
    fn zero() -> Self {
        0.0
    }
    fn from_f32(v: f32) -> Self {
        v
    }
    fn to_f32(self) -> f32 {
        self
    }
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn from_f32(v: f32) -> Self {
        v as f64
    }
    fn to_f32(self) -> f32 {
        self as f32
    }
}

/// A dense 4-D tensor in NCHW layout (`n` outermost, `w` innermost).
///
/// For feature maps, `n` is the batch (usually 1 in the paper's inference
/// setting), `c` the channel count, `h`/`w` the spatial size. For
/// convolution kernels the same type is reused with `n` = output channels
/// and `c` = input channels.
///
/// # Examples
///
/// ```
/// use winofuse_conv::tensor::Tensor;
///
/// let mut t = Tensor::zeros(1, 2, 3, 3);
/// t.set(0, 1, 2, 2, 7.0f32);
/// assert_eq!(t.get(0, 1, 2, 2), 7.0);
/// assert_eq!(t.len(), 18);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T = f32> {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    data: Vec<T>,
}

impl<T: Scalar> Tensor<T> {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the total element count overflows `usize`.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Self::filled(n, c, h, w, T::zero())
    }

    /// Creates a tensor of the given shape filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if the total element count overflows `usize`.
    pub fn filled(n: usize, c: usize, h: usize, w: usize, value: T) -> Self {
        let len = n
            .checked_mul(c)
            .and_then(|x| x.checked_mul(h))
            .and_then(|x| x.checked_mul(w))
            .expect("tensor size overflow");
        Self {
            n,
            c,
            h,
            w,
            data: vec![value; len],
        }
    }

    /// Creates a tensor from an existing flat buffer in NCHW order.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::ShapeMismatch`] when `data.len() != n·c·h·w`.
    pub fn from_vec(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        data: Vec<T>,
    ) -> Result<Self, ConvError> {
        let expected = n * c * h * w;
        if data.len() != expected {
            return Err(ConvError::ShapeMismatch {
                expected: format!("{expected} elements for shape {n}x{c}x{h}x{w}"),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Self { n, c, h, w, data })
    }

    /// Creates a tensor by evaluating `f(n, c, h, w)` at every coordinate.
    pub fn from_fn<F: FnMut(usize, usize, usize, usize) -> T>(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        mut f: F,
    ) -> Self {
        let mut t = Self::zeros(n, c, h, w);
        for in_ in 0..n {
            for ic in 0..c {
                for ih in 0..h {
                    for iw in 0..w {
                        let v = f(in_, ic, ih, iw);
                        t.set(in_, ic, ih, iw, v);
                    }
                }
            }
        }
        t
    }

    /// Shape as `(n, c, h, w)`.
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Batch dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Channel dimension.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Height.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Width.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Reads the element at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn get(&self, n: usize, c: usize, h: usize, w: usize) -> T {
        self.data[self.index(n, c, h, w)]
    }

    /// Reads the element at `(n, c, h, w)`, returning zero for coordinates
    /// that fall outside the tensor (implicit zero padding). `h` and `w`
    /// are signed so callers can probe the padding border directly.
    #[inline]
    pub fn get_padded(&self, n: usize, c: usize, h: isize, w: isize) -> T {
        if h < 0 || w < 0 || h as usize >= self.h || w as usize >= self.w {
            T::zero()
        } else {
            self.get(n, c, h as usize, w as usize)
        }
    }

    /// Writes the element at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, value: T) {
        let idx = self.index(n, c, h, w);
        self.data[idx] = value;
    }

    /// Flat view of the underlying NCHW buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat view of the underlying NCHW buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat NCHW buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Copies channels `[start, end)` into a new tensor (used for
    /// grouped convolution, where each kernel group sees only its slice).
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or empty.
    pub fn slice_channels(&self, start: usize, end: usize) -> Tensor<T> {
        assert!(
            start < end && end <= self.c,
            "invalid channel slice {start}..{end}"
        );
        Tensor::from_fn(self.n, end - start, self.h, self.w, |n, c, h, w| {
            self.get(n, start + c, h, w)
        })
    }

    /// Copies batch/output-channel entries `[start, end)` along the `n`
    /// dimension (for kernel tensors, `n` is the output channel, so this
    /// selects a group's kernels).
    ///
    /// # Panics
    ///
    /// Panics when the range is out of bounds or empty.
    pub fn slice_channels_n(&self, start: usize, end: usize) -> Tensor<T> {
        assert!(
            start < end && end <= self.n,
            "invalid n slice {start}..{end}"
        );
        Tensor::from_fn(end - start, self.c, self.h, self.w, |n, c, h, w| {
            self.get(start + n, c, h, w)
        })
    }

    /// Writes `src` into channels `[start, start + src.c())` of `self`
    /// (inverse of [`Tensor::slice_channels`]).
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch.
    pub fn write_channels(&mut self, start: usize, src: &Tensor<T>) {
        assert!(start + src.c() <= self.c, "channel write out of bounds");
        assert!(
            src.n() == self.n && src.h() == self.h && src.w() == self.w,
            "shape mismatch in write_channels"
        );
        for n in 0..src.n() {
            for c in 0..src.c() {
                for h in 0..src.h() {
                    for w in 0..src.w() {
                        self.set(n, start + c, h, w, src.get(n, c, h, w));
                    }
                }
            }
        }
    }

    /// Copies one batch entry into a new `1×c×h×w` tensor. NCHW is
    /// `n`-outermost, so this is a single contiguous copy — the cheap
    /// direction for splitting a served batch back into per-request
    /// frames.
    ///
    /// # Panics
    ///
    /// Panics when `b` is out of bounds.
    pub fn frame(&self, b: usize) -> Tensor<T> {
        assert!(b < self.n, "frame {b} out of bounds for batch {}", self.n);
        let stride = self.c * self.h * self.w;
        Tensor {
            n: 1,
            c: self.c,
            h: self.h,
            w: self.w,
            data: self.data[b * stride..(b + 1) * stride].to_vec(),
        }
    }

    /// Writes a `1×c×h×w` frame into batch entry `b` (inverse of
    /// [`Tensor::frame`]).
    ///
    /// # Panics
    ///
    /// Panics when `b` is out of bounds or `src` does not have this
    /// tensor's per-frame shape with `n == 1`.
    pub fn write_frame(&mut self, b: usize, src: &Tensor<T>) {
        assert!(b < self.n, "frame {b} out of bounds for batch {}", self.n);
        assert!(
            src.n == 1 && src.c == self.c && src.h == self.h && src.w == self.w,
            "frame shape {}x{}x{}x{} does not match batch entry 1x{}x{}x{}",
            src.n,
            src.c,
            src.h,
            src.w,
            self.c,
            self.h,
            self.w
        );
        let stride = self.c * self.h * self.w;
        self.data[b * stride..(b + 1) * stride].copy_from_slice(&src.data);
    }

    /// Stacks single-frame tensors along the batch dimension — how the
    /// dynamic batcher coalesces queued requests into one `n = B`
    /// invocation.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::ShapeMismatch`] when `frames` is empty, any
    /// frame has `n != 1`, or the per-frame shapes disagree.
    pub fn concat_frames(frames: &[Tensor<T>]) -> Result<Tensor<T>, ConvError> {
        let first = frames.first().ok_or_else(|| ConvError::ShapeMismatch {
            expected: "at least one frame".to_string(),
            found: "empty frame list".to_string(),
        })?;
        let mut data = Vec::with_capacity(frames.len() * first.data.len());
        for f in frames {
            if f.n != 1 || (f.c, f.h, f.w) != (first.c, first.h, first.w) {
                return Err(ConvError::ShapeMismatch {
                    expected: format!("1x{}x{}x{} frame", first.c, first.h, first.w),
                    found: format!("{}x{}x{}x{}", f.n, f.c, f.h, f.w),
                });
            }
            data.extend_from_slice(&f.data);
        }
        Ok(Tensor {
            n: frames.len(),
            c: first.c,
            h: first.h,
            w: first.w,
            data,
        })
    }

    /// Replicates this single-frame tensor `copies` times along the batch
    /// dimension (`winofuse run --batch N`'s synthetic batch).
    ///
    /// # Panics
    ///
    /// Panics when `self.n != 1` or `copies == 0`.
    pub fn repeat_frames(&self, copies: usize) -> Tensor<T> {
        assert_eq!(self.n, 1, "repeat_frames requires a single-frame tensor");
        assert!(copies > 0, "cannot build an empty batch");
        let mut data = Vec::with_capacity(copies * self.data.len());
        for _ in 0..copies {
            data.extend_from_slice(&self.data);
        }
        Tensor {
            n: copies,
            c: self.c,
            h: self.h,
            w: self.w,
            data,
        }
    }

    /// Converts every element to a different scalar type.
    pub fn cast<U: Scalar>(&self) -> Tensor<U> {
        Tensor {
            n: self.n,
            c: self.c,
            h: self.h,
            w: self.w,
            data: self.data.iter().map(|v| U::from_f32(v.to_f32())).collect(),
        }
    }

    /// Maximum absolute difference against another tensor of the same
    /// shape, in `f32`. A NaN on exactly one side counts as an infinite
    /// difference; NaN on both sides, like equal values (equal infinities
    /// included), counts as zero.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::ShapeMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f32, ConvError> {
        if self.shape() != other.shape() {
            return Err(ConvError::ShapeMismatch {
                expected: format!("{:?}", self.shape()),
                found: format!("{:?}", other.shape()),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| match (a.to_f32(), b.to_f32()) {
                (a, b) if a == b || (a.is_nan() && b.is_nan()) => 0.0,
                (a, b) if a.is_nan() || b.is_nan() => f32::INFINITY,
                (a, b) => (a - b).abs(),
            })
            .fold(0.0f32, f32::max))
    }

    /// Whether all elements agree with `other` within `tol` (absolute, in
    /// `f32`). Returns `false` when shapes differ.
    pub fn approx_eq(&self, other: &Self, tol: f32) -> bool {
        self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }
}

impl<T: Scalar> fmt::Display for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}x{}x{}]", self.n, self.c, self.h, self.w)
    }
}

/// Builds a tensor with uniformly distributed pseudo-random values in
/// `[-1, 1)` from a deterministic seed (xorshift; no external RNG needed in
/// the library itself).
pub fn random_tensor(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    Tensor::from_fn(n, c, h, w, |_, _, _, _| {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        ((bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let t: Tensor<f32> = Tensor::zeros(2, 3, 4, 5);
        assert_eq!(t.len(), 120);
        assert_eq!(t.shape(), (2, 3, 4, 5));
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = Tensor::zeros(1, 2, 3, 3);
        t.set(0, 1, 2, 0, 42.0f32);
        assert_eq!(t.get(0, 1, 2, 0), 42.0);
        assert_eq!(t.get(0, 1, 0, 2), 0.0);
    }

    #[test]
    fn nchw_layout_is_w_innermost() {
        let t = Tensor::from_fn(1, 1, 2, 3, |_, _, h, w| (h * 3 + w) as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(1, 1, 2, 2, vec![0.0f32; 3]).is_err());
        assert!(Tensor::from_vec(1, 1, 2, 2, vec![0.0f32; 4]).is_ok());
    }

    #[test]
    fn max_abs_diff_sees_one_sided_nan() {
        let t = |v: Vec<f32>| Tensor::from_vec(1, 1, 1, v.len(), v).unwrap();
        let nan = f32::NAN;
        // NaN on exactly one side is an infinite difference.
        let (a, b) = (t(vec![nan, nan]), t(vec![1.0, 2.0]));
        assert_eq!(a.max_abs_diff(&b).unwrap(), f32::INFINITY);
        assert_eq!(b.max_abs_diff(&a).unwrap(), f32::INFINITY);
        assert!(!a.approx_eq(&b, 1e-6));
        // NaN on both sides, equal values and equal infinities are zero.
        let same = t(vec![nan, -0.0, 3.5, f32::INFINITY, f32::NEG_INFINITY]);
        let other = t(vec![nan, 0.0, 3.5, f32::INFINITY, f32::NEG_INFINITY]);
        assert_eq!(same.max_abs_diff(&other).unwrap(), 0.0);
        assert!(same.approx_eq(&other, 0.0));
        // Finite differences are unchanged.
        assert_eq!(
            t(vec![1.0, nan]).max_abs_diff(&t(vec![3.0, nan])).unwrap(),
            2.0
        );
    }

    #[test]
    fn padded_access_returns_zero_outside() {
        let t = Tensor::filled(1, 1, 2, 2, 5.0f32);
        assert_eq!(t.get_padded(0, 0, -1, 0), 0.0);
        assert_eq!(t.get_padded(0, 0, 0, 2), 0.0);
        assert_eq!(t.get_padded(0, 0, 1, 1), 5.0);
    }

    #[test]
    fn max_abs_diff_detects_mismatch() {
        let a = Tensor::filled(1, 1, 2, 2, 1.0f32);
        let mut b = a.clone();
        b.set(0, 0, 1, 1, 1.5);
        assert!((a.max_abs_diff(&b).unwrap() - 0.5).abs() < 1e-6);
        assert!(!a.approx_eq(&b, 0.1));
        assert!(a.approx_eq(&b, 0.6));
    }

    #[test]
    fn shape_mismatch_in_diff() {
        let a: Tensor<f32> = Tensor::zeros(1, 1, 2, 2);
        let b: Tensor<f32> = Tensor::zeros(1, 1, 2, 3);
        assert!(a.max_abs_diff(&b).is_err());
        assert!(!a.approx_eq(&b, 1.0));
    }

    #[test]
    fn random_tensor_is_deterministic_and_bounded() {
        let a = random_tensor(1, 2, 4, 4, 7);
        let b = random_tensor(1, 2, 4, 4, 7);
        let c = random_tensor(1, 2, 4, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn channel_slice_roundtrip() {
        let t = random_tensor(1, 6, 3, 3, 9);
        let a = t.slice_channels(0, 3);
        let b = t.slice_channels(3, 6);
        assert_eq!(a.shape(), (1, 3, 3, 3));
        assert_eq!(b.get(0, 0, 1, 1), t.get(0, 3, 1, 1));
        let mut back: Tensor<f32> = Tensor::zeros(1, 6, 3, 3);
        back.write_channels(0, &a);
        back.write_channels(3, &b);
        assert_eq!(back, t);
    }

    #[test]
    fn n_slice_selects_kernels() {
        let t = random_tensor(4, 2, 3, 3, 11);
        let k = t.slice_channels_n(2, 4);
        assert_eq!(k.shape(), (2, 2, 3, 3));
        assert_eq!(k.get(0, 1, 2, 2), t.get(2, 1, 2, 2));
        assert_eq!(k.get(1, 0, 0, 0), t.get(3, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "invalid channel slice")]
    fn channel_slice_bounds_checked() {
        let t = random_tensor(1, 2, 2, 2, 1);
        let _ = t.slice_channels(1, 3);
    }

    #[test]
    fn cast_roundtrip_f32_f64() {
        let a = random_tensor(1, 1, 3, 3, 3);
        let d: Tensor<f64> = a.cast();
        let back: Tensor<f32> = d.cast();
        assert!(a.approx_eq(&back, 0.0));
    }

    #[test]
    fn frames_concat_and_split_roundtrip() {
        let a = random_tensor(1, 2, 3, 3, 5);
        let b = random_tensor(1, 2, 3, 3, 6);
        let c = random_tensor(1, 2, 3, 3, 7);
        let batch = Tensor::concat_frames(&[a.clone(), b.clone(), c.clone()]).unwrap();
        assert_eq!(batch.shape(), (3, 2, 3, 3));
        assert_eq!(batch.frame(0), a);
        assert_eq!(batch.frame(1), b);
        assert_eq!(batch.frame(2), c);
    }

    #[test]
    fn write_frame_inverts_frame() {
        let batch = random_tensor(3, 2, 4, 4, 9);
        let mut rebuilt: Tensor<f32> = Tensor::zeros(3, 2, 4, 4);
        for i in 0..3 {
            rebuilt.write_frame(i, &batch.frame(i));
        }
        assert_eq!(rebuilt, batch);
    }

    #[test]
    fn concat_frames_rejects_mismatches() {
        let a = random_tensor(1, 2, 3, 3, 1);
        let b = random_tensor(1, 2, 4, 4, 2);
        assert!(Tensor::concat_frames(&[a.clone(), b]).is_err());
        let multi = random_tensor(2, 2, 3, 3, 3);
        assert!(Tensor::concat_frames(&[a, multi]).is_err());
        assert!(Tensor::<f32>::concat_frames(&[]).is_err());
    }

    #[test]
    fn repeat_frames_replicates_the_frame() {
        let a = random_tensor(1, 2, 3, 3, 4);
        let batch = a.repeat_frames(4);
        assert_eq!(batch.shape(), (4, 2, 3, 3));
        for i in 0..4 {
            assert_eq!(batch.frame(i), a);
        }
    }
}
