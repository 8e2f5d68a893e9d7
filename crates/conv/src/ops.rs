//! Non-convolution CNN operators: pooling, ReLU, LRN, fully connected and
//! softmax.
//!
//! These are the "other layers" of AlexNet/VGG the paper's code generator
//! has templates for (§6: "templates for various type of layers including
//! convolution, pooling, and local response normalization").
//!
//! [`pool`], [`lrn`] and [`relu`] are the element-by-element reference.
//! The executor, the fused runner and the simulator all run the slice
//! kernels [`pool_row`], [`lrn_block`] and [`relu_in_place`] instead,
//! which keep every element's scalar sequence, so both agree bit for bit.

use crate::tensor::{Scalar, Tensor};
use crate::{ConvError, ConvGeometry};

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window (AlexNet/VGG pooling layers).
    Max,
    /// Arithmetic mean over the window (only in-bounds elements count).
    Average,
}

/// Spatial pooling with the given window geometry (kernel/stride/pad taken
/// from `geom`; channel count is preserved).
///
/// # Errors
///
/// Returns [`ConvError::ShapeMismatch`] when `input` disagrees with `geom`.
///
/// # Examples
///
/// ```
/// use winofuse_conv::{ops, tensor::Tensor, ConvGeometry};
///
/// # fn main() -> Result<(), winofuse_conv::ConvError> {
/// let geom = ConvGeometry::new(4, 4, 2, 2, 0)?;
/// let x = Tensor::from_fn(1, 1, 4, 4, |_, _, h, w| (h * 4 + w) as f32);
/// let y = ops::pool(&x, geom, ops::PoolKind::Max)?;
/// assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
/// # Ok(())
/// # }
/// ```
pub fn pool<T: Scalar + PartialOrd>(
    input: &Tensor<T>,
    geom: ConvGeometry,
    kind: PoolKind,
) -> Result<Tensor<T>, ConvError> {
    if input.h() != geom.height() || input.w() != geom.width() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("input {}x{}", geom.height(), geom.width()),
            found: format!("{}x{}", input.h(), input.w()),
        });
    }
    let (k, s, pad) = (geom.kernel(), geom.stride(), geom.pad() as isize);
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let mut out = Tensor::zeros(input.n(), input.c(), oh, ow);
    for b in 0..input.n() {
        for c in 0..input.c() {
            for i in 0..oh {
                for j in 0..ow {
                    let mut best: Option<T> = None;
                    let mut sum = 0.0f32;
                    let mut count = 0usize;
                    for u in 0..k {
                        for v in 0..k {
                            let hh = (i * s + u) as isize - pad;
                            let ww = (j * s + v) as isize - pad;
                            if hh < 0
                                || ww < 0
                                || hh as usize >= input.h()
                                || ww as usize >= input.w()
                            {
                                continue; // padding excluded from pooling
                            }
                            let val = input.get(b, c, hh as usize, ww as usize);
                            match kind {
                                PoolKind::Max => {
                                    best = Some(match best {
                                        Some(cur) if cur >= val => cur,
                                        _ => val,
                                    });
                                }
                                PoolKind::Average => {
                                    sum += val.to_f32();
                                    count += 1;
                                }
                            }
                        }
                    }
                    let result = match kind {
                        PoolKind::Max => best.unwrap_or_else(T::zero),
                        PoolKind::Average => {
                            if count == 0 {
                                T::zero()
                            } else {
                                T::from_f32(sum / count as f32)
                            }
                        }
                    };
                    out.set(b, c, i, j, result);
                }
            }
        }
    }
    Ok(out)
}

/// Writes output row `o` of one channel's pooling into `dst`
/// (`geom.output_width()` values). `row(h)` returns in-bounds input row
/// `h` of that channel (`geom.width()` values); it is called per input
/// row and block of 64 outputs, never per element.
///
/// Every output element sees [`pool`]'s sequence: the in-bounds rows in
/// ascending order, and within each row the in-bounds columns in
/// ascending order. Max keeps the running value `cur` when `cur >= val`,
/// so `±0` ties and NaN resolve exactly as in [`pool`]; average sums
/// `to_f32` from `0.0` and divides by the in-bounds count. A window that
/// lies wholly in padding gives zero.
pub fn pool_row<'a, T: Scalar + PartialOrd + 'a>(
    dst: &mut [T],
    o: usize,
    geom: ConvGeometry,
    kind: PoolKind,
    row: impl Fn(usize) -> &'a [T],
) {
    let (k, s, pad, width) = (geom.kernel(), geom.stride(), geom.pad(), geom.width());
    // In-bounds cells `[lo, hi)` of window `i`, whose padded extent is
    // `[i·s, i·s + k)`, over `n` real cells; empty in the padding.
    let span = |i: usize, n: usize| {
        let hi = (i * s + k).min(n + pad).saturating_sub(pad);
        ((i * s).saturating_sub(pad).min(hi), hi)
    };
    let (h0, h1) = span(o, geom.height());
    // Average sums in `f32` on the stack, one block of outputs at a time.
    let mut sums = [0.0f32; 64];
    for (b, out) in dst.chunks_mut(sums.len()).enumerate() {
        let j0 = b * sums.len();
        sums.fill(0.0);
        // Max seeds each window with its first cell; folding that cell
        // again below keeps it bit for bit, NaN included.
        let first = (kind == PoolKind::Max && h0 < h1).then(|| row(h0));
        for (j, d) in (j0..).zip(out.iter_mut()) {
            let (c0, c1) = span(j, width);
            *d = first.filter(|_| c0 < c1).map_or(T::zero(), |r| r[c0]);
        }
        for h in h0..h1 {
            let r = row(h);
            // Tap `v` of window `j` reads column `j·s + v − pad`: the
            // windows `[lo, hi)` of this block where that is in bounds.
            for v in 0..k {
                let lo = pad.saturating_sub(v).div_ceil(s).max(j0);
                let hi = (width + pad).saturating_sub(v).div_ceil(s);
                let hi = hi.min(j0 + out.len());
                if lo >= hi {
                    continue;
                }
                let cells = r[lo * s + v - pad..].iter().step_by(s);
                let (a, z) = (lo - j0, hi - j0);
                match kind {
                    PoolKind::Max => {
                        for (d, &val) in out[a..z].iter_mut().zip(cells) {
                            *d = if *d >= val { *d } else { val };
                        }
                    }
                    PoolKind::Average => {
                        for (sum, val) in sums[a..z].iter_mut().zip(cells) {
                            *sum += val.to_f32();
                        }
                    }
                }
            }
        }
        if kind == PoolKind::Average {
            for ((j, d), sum) in (j0..).zip(out.iter_mut()).zip(sums) {
                let (c0, c1) = span(j, width);
                let count = (h1 - h0) * (c1 - c0);
                if count > 0 {
                    *d = T::from_f32(sum / count as f32);
                }
            }
        }
    }
}

/// Rectified linear unit applied element-wise: `max(x, 0)`.
///
/// The paper integrates ReLU into the preceding convolutional layer
/// (§7.2: "ReLU layers can be easily integrated into convolutional
/// layers"); it is exposed separately here for reference computation.
pub fn relu<T: Scalar + PartialOrd>(input: &Tensor<T>) -> Tensor<T> {
    let mut out = input.clone();
    relu_in_place(out.as_mut_slice());
    out
}

/// ReLU in place: every `v < 0` becomes zero; everything else, `-0.0`
/// and NaN included, is left as it is.
///
/// Every element is stored, as a select between `0` and itself, rather
/// than only the negative ones: a store that does not depend on the
/// comparison lets the loop vectorize without branches. The conv kernels
/// apply their folded ReLU with this same pass on the output they have
/// just written.
pub fn relu_in_place<T: Scalar + PartialOrd>(values: &mut [T]) {
    for v in values {
        *v = if *v < T::zero() { T::zero() } else { *v };
    }
}

/// Parameters of AlexNet-style cross-channel local response normalization:
///
/// ```text
/// b[c] = a[c] / (k + α/n · Σ_{c'∈window} a[c']²)^β
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrnParams {
    /// Window size `n` (channels, centered).
    pub local_size: usize,
    /// Scale `α`.
    pub alpha: f32,
    /// Exponent `β`.
    pub beta: f32,
    /// Bias `k`.
    pub k: f32,
}

impl Default for LrnParams {
    /// AlexNet's published constants: `n=5, α=1e−4, β=0.75, k=2`.
    fn default() -> Self {
        LrnParams {
            local_size: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 2.0,
        }
    }
}

/// Cross-channel local response normalization (computed in `f32`).
///
/// # Errors
///
/// Returns [`ConvError::InvalidGeometry`] when `local_size` is zero or
/// even (the window must have a center channel).
pub fn lrn<T: Scalar>(input: &Tensor<T>, params: LrnParams) -> Result<Tensor<T>, ConvError> {
    if params.local_size == 0 || params.local_size.is_multiple_of(2) {
        return Err(ConvError::InvalidGeometry(format!(
            "lrn local_size must be odd and nonzero, got {}",
            params.local_size
        )));
    }
    let half = (params.local_size / 2) as isize;
    let mut out = Tensor::zeros(input.n(), input.c(), input.h(), input.w());
    for b in 0..input.n() {
        for c in 0..input.c() {
            for h in 0..input.h() {
                for w in 0..input.w() {
                    let mut sum_sq = 0.0f32;
                    for dc in -half..=half {
                        let cc = c as isize + dc;
                        if cc < 0 || cc as usize >= input.c() {
                            continue;
                        }
                        let v = input.get(b, cc as usize, h, w).to_f32();
                        sum_sq += v * v;
                    }
                    let denom = (params.k + params.alpha / params.local_size as f32 * sum_sq)
                        .powf(params.beta);
                    let a = input.get(b, c, h, w).to_f32();
                    out.set(b, c, h, w, T::from_f32(a / denom));
                }
            }
        }
    }
    Ok(out)
}

/// Cross-channel LRN over one channel-major block: `src` and `dst` hold
/// `C × len` values, channel `c` at `[c·len, (c + 1)·len)` — one frame
/// with `len = H·W`, or one streamed row with `len = W`.
/// `params.local_size` must be odd, as [`lrn`] checks.
///
/// Every element sees [`lrn`]'s sequence: a sum from `0.0` of the squares
/// over the in-range window in ascending channel order, then
/// `(k + α/n · sum)^β`, then `T::from_f32(a / denom)`. The only extra
/// memory is one `len`-long `f32` row of sums.
pub fn lrn_block<T: Scalar>(dst: &mut [T], src: &[T], len: usize, params: LrnParams) {
    let channels = src.len().checked_div(len).unwrap_or(0);
    let half = params.local_size / 2;
    let scale = params.alpha / params.local_size as f32;
    let mut sums = vec![0.0f32; len];
    for c in 0..channels {
        sums.fill(0.0);
        let window = &src[c.saturating_sub(half) * len..(c + half + 1).min(channels) * len];
        for plane in window.chunks_exact(len) {
            for (sum, v) in sums.iter_mut().zip(plane) {
                let v = v.to_f32();
                *sum += v * v;
            }
        }
        let at = c * len..(c + 1) * len;
        for ((d, a), sum) in dst[at.clone()].iter_mut().zip(&src[at]).zip(&sums) {
            *d = T::from_f32(a.to_f32() / (params.k + scale * sum).powf(params.beta));
        }
    }
}

/// Fully connected layer: flattens the input (per batch element) and
/// multiplies by `weights` (`out_features × in_features`) plus `bias`.
///
/// # Errors
///
/// Returns [`ConvError::ShapeMismatch`] when `in_features != c·h·w` or the
/// bias length differs from `out_features`.
pub fn fully_connected<T: Scalar>(
    input: &Tensor<T>,
    weights: &[T],
    bias: &[T],
    out_features: usize,
) -> Result<Tensor<T>, ConvError> {
    let in_features = input.c() * input.h() * input.w();
    if weights.len() != out_features * in_features {
        return Err(ConvError::ShapeMismatch {
            expected: format!(
                "{} weights ({out_features}x{in_features})",
                out_features * in_features
            ),
            found: format!("{}", weights.len()),
        });
    }
    if bias.len() != out_features {
        return Err(ConvError::ShapeMismatch {
            expected: format!("{out_features} bias values"),
            found: format!("{}", bias.len()),
        });
    }
    let mut out = Tensor::zeros(input.n(), out_features, 1, 1);
    for b in 0..input.n() {
        let base = b * in_features;
        let flat = input.as_slice();
        for o in 0..out_features {
            let mut acc = bias[o];
            for i in 0..in_features {
                acc = acc + weights[o * in_features + i] * flat[base + i];
            }
            out.set(b, o, 0, 0, acc);
        }
    }
    Ok(out)
}

/// Numerically stable softmax over the channel dimension (computed in
/// `f32`; `h` and `w` must be 1, i.e. the output of a fully connected
/// layer).
///
/// # Errors
///
/// Returns [`ConvError::ShapeMismatch`] for spatially extended input.
pub fn softmax<T: Scalar>(input: &Tensor<T>) -> Result<Tensor<T>, ConvError> {
    if input.h() != 1 || input.w() != 1 {
        return Err(ConvError::ShapeMismatch {
            expected: "1x1 spatial extent".into(),
            found: format!("{}x{}", input.h(), input.w()),
        });
    }
    let mut out = Tensor::zeros(input.n(), input.c(), 1, 1);
    for b in 0..input.n() {
        let vals: Vec<f32> = (0..input.c())
            .map(|c| input.get(b, c, 0, 0).to_f32())
            .collect();
        let max = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = vals.iter().map(|v| (v - max).exp()).collect();
        let total: f32 = exps.iter().sum();
        for (c, e) in exps.iter().enumerate() {
            out.set(b, c, 0, 0, T::from_f32(e / total));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Fix16;
    use crate::tensor::random_tensor;

    #[test]
    fn max_pool_2x2() {
        let geom = ConvGeometry::new(4, 4, 2, 2, 0).unwrap();
        let x = Tensor::from_fn(1, 1, 4, 4, |_, _, h, w| (h * 4 + w) as f32);
        let y = pool(&x, geom, PoolKind::Max).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_2x2() {
        let geom = ConvGeometry::new(2, 2, 2, 2, 0).unwrap();
        let x = Tensor::from_vec(1, 1, 2, 2, vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
        let y = pool(&x, geom, PoolKind::Average).unwrap();
        assert_eq!(y.as_slice(), &[2.5]);
    }

    #[test]
    fn max_pool_handles_negative_values() {
        let geom = ConvGeometry::new(2, 2, 2, 2, 0).unwrap();
        let x = Tensor::from_vec(1, 1, 2, 2, vec![-5.0f32, -2.0, -9.0, -3.0]).unwrap();
        let y = pool(&x, geom, PoolKind::Max).unwrap();
        assert_eq!(y.as_slice(), &[-2.0]);
    }

    #[test]
    fn pool_padding_is_excluded_not_zero() {
        // With pad 1 and all-negative input, a zero-padding max pool would
        // wrongly return 0.
        let geom = ConvGeometry::new(2, 2, 3, 2, 1).unwrap();
        let x = Tensor::filled(1, 1, 2, 2, -1.0f32);
        let y = pool(&x, geom, PoolKind::Max).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == -1.0));
        // Average over a padded corner window counts only in-bounds cells.
        let ya = pool(&x, geom, PoolKind::Average).unwrap();
        assert!(ya.as_slice().iter().all(|&v| (v + 1.0).abs() < 1e-6));
    }

    #[test]
    fn overlapping_pool_alexnet_style() {
        // AlexNet uses 3x3 pooling with stride 2.
        let geom = ConvGeometry::new(5, 5, 3, 2, 0).unwrap();
        let x = Tensor::from_fn(1, 1, 5, 5, |_, _, h, w| (h * 5 + w) as f32);
        let y = pool(&x, geom, PoolKind::Max).unwrap();
        assert_eq!(y.shape(), (1, 1, 2, 2));
        assert_eq!(y.get(0, 0, 1, 1), 24.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(1, 1, 1, 4, vec![-1.0f32, 0.0, 0.5, -0.1]).unwrap();
        let y = relu(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 0.0]);
    }

    #[test]
    fn relu_select_keeps_signed_zeros_nan_and_infinities() {
        let x = [
            -1.0f32,
            -0.0,
            0.0,
            f32::NAN,
            -f32::NAN,
            f32::NEG_INFINITY,
            f32::INFINITY,
            -1e-45,
            2.5,
        ];
        let want = [
            0.0f32,
            -0.0,
            0.0,
            f32::NAN,
            -f32::NAN,
            0.0,
            f32::INFINITY,
            0.0,
            2.5,
        ];
        let mut y = x;
        relu_in_place(&mut y);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&want));
    }

    #[test]
    fn relu_works_on_fix16() {
        let x: Tensor<Fix16> = Tensor::from_vec(
            1,
            1,
            1,
            2,
            vec![Fix16::from_f32(-2.0), Fix16::from_f32(3.0)],
        )
        .unwrap();
        let y = relu(&x);
        assert_eq!(y.get(0, 0, 0, 0), Fix16::ZERO);
        assert_eq!(y.get(0, 0, 0, 1), Fix16::from_f32(3.0));
    }

    #[test]
    fn lrn_preserves_shape_and_shrinks_magnitudes() {
        let x = random_tensor(1, 8, 3, 3, 42);
        let y = lrn(&x, LrnParams::default()).unwrap();
        assert_eq!(y.shape(), x.shape());
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!(b.abs() <= a.abs() + 1e-6, "lrn must not amplify");
            assert_eq!(a.signum(), if *b == 0.0 { a.signum() } else { b.signum() });
        }
    }

    #[test]
    fn lrn_denominator_formula() {
        // Single channel, local_size 1: b = a / (k + α·a²)^β.
        let x = Tensor::filled(1, 1, 1, 1, 2.0f32);
        let p = LrnParams {
            local_size: 1,
            alpha: 0.5,
            beta: 1.0,
            k: 1.0,
        };
        let y = lrn(&x, p).unwrap();
        assert!((y.get(0, 0, 0, 0) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn lrn_rejects_even_window() {
        let x = random_tensor(1, 4, 2, 2, 1);
        let p = LrnParams {
            local_size: 4,
            ..LrnParams::default()
        };
        assert!(lrn(&x, p).is_err());
    }

    /// Bit patterns of `t`'s values (exact for `Fix16`, whose `to_f32` is
    /// exact).
    fn bits<T: Scalar>(t: &[T]) -> Vec<u32> {
        t.iter().map(|v| v.to_f32().to_bits()).collect()
    }

    /// Runs the slice kernels the way their callers do (pool per plane and
    /// output row, LRN per frame and per channel-major row, ReLU in place)
    /// and checks them against `pool`, `lrn` and `relu` by bit pattern.
    fn check_kernels<T: Scalar + PartialOrd>(x: &Tensor<T>, geom: ConvGeometry, lrn_p: LrnParams) {
        let (n, c, h, w) = x.shape();
        let (oh, ow) = (geom.output_height(), geom.output_width());
        for kind in [PoolKind::Max, PoolKind::Average] {
            let want = pool(x, geom, kind).unwrap();
            let mut got = vec![T::zero(); n * c * oh * ow];
            for (plane, out) in x
                .as_slice()
                .chunks_exact(h * w)
                .zip(got.chunks_exact_mut(oh * ow))
            {
                for (o, dst) in out.chunks_exact_mut(ow).enumerate() {
                    pool_row(dst, o, geom, kind, |r| &plane[r * w..][..w]);
                }
            }
            assert_eq!(bits(&got), bits(want.as_slice()), "{kind:?} {geom:?}");
        }

        let want = lrn(x, lrn_p).unwrap();
        let mut frames = vec![T::zero(); x.len()];
        for (dst, src) in frames
            .chunks_exact_mut(c * h * w)
            .zip(x.as_slice().chunks_exact(c * h * w))
        {
            lrn_block(dst, src, h * w, lrn_p);
        }
        assert_eq!(bits(&frames), bits(want.as_slice()), "lrn frames {lrn_p:?}");
        for b in 0..n {
            for r in 0..h {
                let row: Vec<T> = (0..c * w).map(|i| x.get(b, i / w, r, i % w)).collect();
                let mut out = vec![T::zero(); c * w];
                lrn_block(&mut out, &row, w, lrn_p);
                let want_row: Vec<T> = (0..c * w).map(|i| want.get(b, i / w, r, i % w)).collect();
                assert_eq!(bits(&out), bits(&want_row), "lrn row {r} {lrn_p:?}");
            }
        }

        let mut y = x.as_slice().to_vec();
        relu_in_place(&mut y);
        assert_eq!(bits(&y), bits(relu(x).as_slice()));
    }

    #[test]
    fn slice_kernels_match_the_reference_bit_for_bit() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let special = [0.0f32, -0.0, 1.0, -1.0, 0.5, f32::NAN];
        let mut cases = 0;
        while cases < 2000 {
            let (n, c) = (1 + next(2), 1 + next(9));
            let (h, w) = (1 + next(13), 1 + next(13));
            let (k, s) = (1 + next(4), 1 + next(3));
            let Ok(geom) = ConvGeometry::rect(h, w, k, s, next(k + 3)) else {
                continue;
            };
            let lrn_p = LrnParams {
                local_size: [1, 3, 5, 7][next(4)],
                ..LrnParams::default()
            };
            let noise = random_tensor(n, c, h, w, cases as u64);
            let x = Tensor::from_fn(n, c, h, w, |b, ch, r, col| match next(3) {
                0 => special[next(special.len())],
                _ => noise.get(b, ch, r, col) * 4.0,
            });
            check_kernels(&x, geom, lrn_p);
            check_kernels(&x.cast::<Fix16>(), geom, lrn_p);
            cases += 1;
        }
    }

    #[test]
    fn fully_connected_known_values() {
        let x = Tensor::from_vec(1, 1, 1, 3, vec![1.0f32, 2.0, 3.0]).unwrap();
        let w = vec![1.0f32, 0.0, -1.0, 0.5, 0.5, 0.5];
        let b = vec![10.0f32, 0.0];
        let y = fully_connected(&x, &w, &b, 2).unwrap();
        assert_eq!(y.get(0, 0, 0, 0), 8.0); // 1 - 3 + 10
        assert_eq!(y.get(0, 1, 0, 0), 3.0); // (1+2+3)/2
    }

    #[test]
    fn fully_connected_validates_shapes() {
        let x = Tensor::from_vec(1, 1, 1, 3, vec![1.0f32, 2.0, 3.0]).unwrap();
        assert!(fully_connected(&x, &[0.0; 5], &[0.0; 2], 2).is_err());
        assert!(fully_connected(&x, &[0.0; 6], &[0.0; 3], 2).is_err());
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let x = Tensor::from_vec(1, 3, 1, 1, vec![1.0f32, 3.0, 2.0]).unwrap();
        let y = softmax(&x).unwrap();
        let s: f32 = y.as_slice().iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(y.get(0, 1, 0, 0) > y.get(0, 2, 0, 0));
        assert!(y.get(0, 2, 0, 0) > y.get(0, 0, 0, 0));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec(1, 2, 1, 1, vec![1000.0f32, 1000.0]).unwrap();
        let y = softmax(&x).unwrap();
        assert!((y.get(0, 0, 0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_rejects_spatial_input() {
        let x: Tensor<f32> = Tensor::zeros(1, 2, 2, 2);
        assert!(softmax(&x).is_err());
    }
}
