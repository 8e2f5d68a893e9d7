//! The conventional (direct) convolution algorithm — Eq. (1) of the paper.
//!
//! ```text
//! Y[i,j,n] = Σ_m Σ_u Σ_v  D[i·S+u, j·S+v, m] · G[n,u,v,m]
//! ```
//!
//! This is the general algorithm the paper's framework falls back to for
//! layers where Winograd is inefficient (large kernels, stride > 1), and
//! the reference every other algorithm in this crate is validated against.

use crate::fixed::{Accumulator, Fix16};
use crate::gemm::{gemm_packed, CRows, ConvPhase, ConvStats, GemmBlocking, PackedA, PanelRow};
use crate::microkernel::KernelChoice;
use crate::ops::relu_in_place;
use crate::tensor::{Scalar, Tensor};
use crate::{ConvError, ConvGeometry};
use std::ops::Range;
use std::time::Instant;
use winofuse_runtime::PoolProfiler;

fn check_shapes<T: Scalar>(
    input: &Tensor<T>,
    kernels: &Tensor<T>,
    geom: ConvGeometry,
) -> Result<(), ConvError> {
    if input.h() != geom.height() || input.w() != geom.width() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("input {}x{}", geom.height(), geom.width()),
            found: format!("input {}x{}", input.h(), input.w()),
        });
    }
    if kernels.h() != geom.kernel() || kernels.w() != geom.kernel() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("kernel {}x{}", geom.kernel(), geom.kernel()),
            found: format!("kernel {}x{}", kernels.h(), kernels.w()),
        });
    }
    if kernels.c() != input.c() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("{} kernel channels", input.c()),
            found: format!("{}", kernels.c()),
        });
    }
    Ok(())
}

/// Convolves `input` (`N×M×H×W`) with `kernels` (`Nout×M×K×K`) using the
/// conventional sliding-window algorithm with implicit zero padding.
///
/// Works for any [`Scalar`]; accumulation happens in the element type
/// itself (for the bit-faithful fixed-point datapath with a widened
/// accumulator use [`conv2d_fix16`]).
///
/// # Errors
///
/// Returns [`ConvError::ShapeMismatch`] when tensor shapes disagree with
/// `geom`.
///
/// # Examples
///
/// ```
/// use winofuse_conv::{direct, tensor::Tensor, ConvGeometry};
///
/// # fn main() -> Result<(), winofuse_conv::ConvError> {
/// let geom = ConvGeometry::new(4, 4, 3, 1, 0)?;
/// let input = Tensor::filled(1, 1, 4, 4, 1.0f32);
/// let kernel = Tensor::filled(1, 1, 3, 3, 1.0f32);
/// let out = direct::conv2d(&input, &kernel, geom)?;
/// assert_eq!(out.get(0, 0, 0, 0), 9.0);
/// # Ok(())
/// # }
/// ```
pub fn conv2d<T: Scalar>(
    input: &Tensor<T>,
    kernels: &Tensor<T>,
    geom: ConvGeometry,
) -> Result<Tensor<T>, ConvError> {
    check_shapes(input, kernels, geom)?;
    let (batch, in_c, _, _) = input.shape();
    let out_c = kernels.n();
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let (k, s, pad) = (geom.kernel(), geom.stride(), geom.pad() as isize);

    let mut out = Tensor::zeros(batch, out_c, oh, ow);
    for b in 0..batch {
        for n in 0..out_c {
            for i in 0..oh {
                for j in 0..ow {
                    let mut acc = T::zero();
                    for m in 0..in_c {
                        for u in 0..k {
                            for v in 0..k {
                                let hh = (i * s + u) as isize - pad;
                                let ww = (j * s + v) as isize - pad;
                                let d = input.get_padded(b, m, hh, ww);
                                acc = acc + d * kernels.get(n, m, u, v);
                            }
                        }
                    }
                    out.set(b, n, i, j, acc);
                }
            }
        }
    }
    Ok(out)
}

/// Fixed-point convolution with the hardware-faithful datapath: exact
/// 32-bit products accumulated in a wide register, rounded and saturated
/// once at writeback (see [`Accumulator`]).
///
/// # Errors
///
/// Returns [`ConvError::ShapeMismatch`] when tensor shapes disagree with
/// `geom`.
pub fn conv2d_fix16(
    input: &Tensor<Fix16>,
    kernels: &Tensor<Fix16>,
    geom: ConvGeometry,
) -> Result<Tensor<Fix16>, ConvError> {
    check_shapes(input, kernels, geom)?;
    let (batch, in_c, _, _) = input.shape();
    let out_c = kernels.n();
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let (k, s, pad) = (geom.kernel(), geom.stride(), geom.pad() as isize);

    let mut out = Tensor::zeros(batch, out_c, oh, ow);
    for b in 0..batch {
        for n in 0..out_c {
            for i in 0..oh {
                for j in 0..ow {
                    let mut acc = Accumulator::new();
                    for m in 0..in_c {
                        for u in 0..k {
                            for v in 0..k {
                                let hh = (i * s + u) as isize - pad;
                                let ww = (j * s + v) as isize - pad;
                                acc.mac(input.get_padded(b, m, hh, ww), kernels.get(n, m, u, v));
                            }
                        }
                    }
                    out.set(b, n, i, j, acc.finish());
                }
            }
        }
    }
    Ok(out)
}

/// im2col rows filled per parallel job in the fixed-point fast path (a
/// tuning constant; results never depend on it).
const PATCH_ROW_CHUNK: usize = 8;
/// Output channels per accumulation job in the fixed-point fast path.
const OUT_C_BLOCK: usize = 16;
/// Output rows owned by one fused job in [`conv2d_fast_packed_ext`]: each
/// job lowers its own rows (im2col), runs one full-output-channel
/// prepacked GEMM, and writes its row band across every output plane — a
/// single pool invocation per call instead of per-batch im2col/GEMM
/// barriers.
/// A tuning constant; results never depend on it.
const DIRECT_ROW_BLOCK: usize = 4;

/// The columns of one im2col row, written in order: padding columns as
/// zero runs, input columns as runs taken from one input row.
trait RowWriter<T> {
    /// The next `len` columns are padding.
    fn zeros(&mut self, len: usize);
    /// The next `len` columns are `src[0], src[stride], …`.
    fn take(&mut self, src: &[T], stride: usize, len: usize);
}

/// A row-major patch-matrix row.
struct SliceRow<'a, T> {
    dst: &'a mut [T],
    at: usize,
}

impl<T: Scalar> RowWriter<T> for SliceRow<'_, T> {
    fn zeros(&mut self, len: usize) {
        self.dst[self.at..self.at + len].fill(T::zero());
        self.at += len;
    }

    fn take(&mut self, src: &[T], stride: usize, len: usize) {
        let dst = &mut self.dst[self.at..self.at + len];
        if stride == 1 {
            dst.copy_from_slice(&src[..len]);
        } else {
            for (t, slot) in dst.iter_mut().enumerate() {
                *slot = src[t * stride];
            }
        }
        self.at += len;
    }
}

/// A row of a packed GEMM `B` operand.
impl RowWriter<f32> for PanelRow<'_> {
    fn zeros(&mut self, len: usize) {
        self.push(len, |run, _| run.fill(0.0));
    }

    fn take(&mut self, src: &[f32], stride: usize, len: usize) {
        if stride == 1 {
            self.copy(&src[..len]);
        } else {
            self.push(len, |run, q| {
                for (t, slot) in run.iter_mut().enumerate() {
                    *slot = src[(q + t) * stride];
                }
            });
        }
    }
}

/// Lowers im2col row `r` — rows ordered `(channel, ku, kv)`, the order
/// the naive kernels accumulate in — of batch element `bn` for the output
/// rows `rows`, `outW` columns each, into `out`. Each output row is one
/// zero run for the columns left of the input, one run taken from an
/// input row (contiguous at stride 1), and one zero run for the columns
/// right of it; a row that falls in the vertical padding is all zeros.
fn lower_row<T: Scalar>(
    input: &Tensor<T>,
    geom: ConvGeometry,
    bn: usize,
    r: usize,
    rows: Range<usize>,
    out: &mut impl RowWriter<T>,
) {
    let (k, s, pad) = (geom.kernel(), geom.stride(), geom.pad());
    let (h, w, ow) = (input.h(), input.w(), geom.output_width());
    let (m, u, v) = (r / (k * k), (r / k) % k, r % k);
    // Output columns j read input column j·s + v − pad, in range for
    // j in j_lo..j_hi.
    let j_lo = pad.saturating_sub(v).div_ceil(s).min(ow);
    let j_hi = (w + pad).saturating_sub(v).div_ceil(s).clamp(j_lo, ow);
    let plane = &input.as_slice()[(bn * input.c() + m) * h * w..][..h * w];
    for i in rows {
        let Some(hh) = (i * s + u).checked_sub(pad).filter(|&hh| hh < h) else {
            out.zeros(ow);
            continue;
        };
        out.zeros(j_lo);
        if j_hi > j_lo {
            let src = &plane[hh * w + j_lo * s + v - pad..];
            out.take(src, s, j_hi - j_lo);
        }
        out.zeros(ow - j_hi);
    }
}

/// Fills `patches` (length `C·K² × outH·outW`) with the im2col lowering of
/// batch element `bn`, rows ordered `(channel, ku, kv)` — the order the
/// naive kernels ([`conv2d`], [`conv2d_fix16`]) accumulate in.
fn fill_patches<T: Scalar + Send + Sync>(
    input: &Tensor<T>,
    geom: ConvGeometry,
    bn: usize,
    patches: &mut [T],
    threads: usize,
    prof: &PoolProfiler,
) -> Result<(), ConvError> {
    let oh = geom.output_height();
    let cols = oh * geom.output_width();
    let slices = winofuse_runtime::split_chunks(patches, PATCH_ROW_CHUNK * cols);
    winofuse_runtime::run_jobs(
        threads,
        slices,
        prof,
        || (),
        |(), job, slice| {
            let r0 = job * PATCH_ROW_CHUNK;
            for (local, dst) in slice.chunks_exact_mut(cols).enumerate() {
                lower_row(
                    input,
                    geom,
                    bn,
                    r0 + local,
                    0..oh,
                    &mut SliceRow { dst, at: 0 },
                );
            }
        },
    )?;
    Ok(())
}

/// A direct-path filter bank lowered once into GEMM `A` panels.
///
/// Build this at plan-lowering time and call [`conv2d_fast_packed_ext`]:
/// the executor runs the same filters on every request and the fused
/// runner once per strip, and neither ever re-packs coefficients (the
/// same hoist `BatchedFilters` applies to the Winograd planes).
pub struct PackedKernels {
    packed: PackedA,
    out_c: usize,
    in_c: usize,
    k: usize,
}

impl PackedKernels {
    /// Packs `kernels` (`Nout×M×K×K`, row-major) into `A` panels.
    pub fn new(kernels: &Tensor<f32>) -> Self {
        let (out_c, in_c, kh, kw) = kernels.shape();
        debug_assert_eq!(kh, kw, "direct kernels are square");
        PackedKernels {
            packed: PackedA::pack(
                kernels.as_slice(),
                out_c,
                in_c * kh * kw,
                GemmBlocking::default(),
            ),
            out_c,
            in_c,
            k: kh,
        }
    }

    /// Heap footprint of the packed panels.
    pub fn bytes(&self) -> u64 {
        self.packed.bytes()
    }
}

/// Fast direct convolution against a pre-lowered filter bank: im2col
/// lowering followed by the blocked GEMM of [`crate::gemm`]. Handles any
/// stride and padding (the cases Winograd rejects). `threads == 0`
/// auto-detects; `kernel` pins the microkernel (the handle the oracle
/// test matrix uses), `None` auto-selects.
///
/// Work is partitioned at output-row-block grain: each job owns
/// `DIRECT_ROW_BLOCK` output rows of one image. It lowers exactly those
/// patch columns thread-locally, straight into the GEMM's `NR`-wide `B`
/// panels (per `(channel, ku, kv)` row and output row: a copied input run,
/// strided for stride > 1, with the padding zero-filled by range), and
/// runs one GEMM over all output channels against the shared packed
/// panels, which stores each channel's rows straight into the output
/// tensor — one pool invocation total, no im2col/GEMM barrier, no packing
/// or result copy per job. With `relu` set, the job then applies the
/// layer's folded ReLU to its row band while the band is still in cache
/// (`v < 0` becomes `+0.0`; `-0.0` and NaN stay, as [`relu_in_place`]
/// leaves them), so the returned tensor is finished. Every output element
/// accumulates its `C·K²` products in ascending `(channel, ku, kv)` order
/// under the same `KC` blocking, so results are bit-identical at any
/// thread count.
///
/// Jobs are emitted as Chrome-trace slices on per-worker lanes via `prof`
/// (scoped to `direct.rowblock`), and when `stats` is supplied, per-phase
/// times and the microkernel time are recorded alongside the exact
/// flop/byte accounting (the lowering into panels lands in
/// [`ConvPhase::Scatter`] — zero flops, pure data movement — and
/// `bytes_packed` counts the `B` panels each GEMM reads).
///
/// # Errors
///
/// Returns [`ConvError::ShapeMismatch`] when the input or the packed
/// bank disagrees with `geom`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_fast_packed_ext(
    input: &Tensor<f32>,
    packed: &PackedKernels,
    geom: ConvGeometry,
    relu: bool,
    threads: usize,
    stats: Option<&ConvStats>,
    prof: &PoolProfiler,
    kernel: Option<KernelChoice>,
) -> Result<Tensor<f32>, ConvError> {
    if input.h() != geom.height() || input.w() != geom.width() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("input {}x{}", geom.height(), geom.width()),
            found: format!("input {}x{}", input.h(), input.w()),
        });
    }
    if packed.k != geom.kernel() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("kernel {0}x{0}", geom.kernel()),
            found: format!("kernel {0}x{0}", packed.k),
        });
    }
    if packed.in_c != input.c() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("{} kernel channels", input.c()),
            found: format!("{}", packed.in_c),
        });
    }
    let threads = winofuse_runtime::resolve_threads(threads);
    let (batch, in_c, _, _) = input.shape();
    let out_c = packed.out_c;
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let k = geom.kernel();
    let (ckk, cols) = (in_c * k * k, oh * ow);
    let micro = kernel.unwrap_or_else(KernelChoice::auto);
    let timed = stats.is_some();
    let packed_k = &packed.packed;

    let row_blocks = oh.div_ceil(DIRECT_ROW_BLOCK);
    let n_jobs = batch * row_blocks;
    let rows_in_block = |blk: usize| DIRECT_ROW_BLOCK.min(oh - blk * DIRECT_ROW_BLOCK);
    let max_panels = packed_k.b_layout(DIRECT_ROW_BLOCK.min(oh) * ow).len();

    let mut out = Tensor::zeros(batch, out_c, oh, ow);
    // Carve the NCHW output into per-job row bands in memory order: each
    // job owns the same row range in every output-channel plane.
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(batch * out_c * row_blocks);
    for bn in 0..batch {
        for _kk in 0..out_c {
            for blk in 0..row_blocks {
                spans.push((bn * row_blocks + blk, rows_in_block(blk) * ow));
            }
        }
    }
    let groups = winofuse_runtime::split_spans(out.as_mut_slice(), &spans, n_jobs);

    winofuse_runtime::run_jobs(
        threads,
        groups,
        &prof.scoped("direct.rowblock"),
        move || vec![0.0f32; max_panels],
        |panels, job, mut frags| {
            let bn = job / row_blocks;
            let blk = job % row_blocks;
            let r0 = blk * DIRECT_ROW_BLOCK;
            let rows = r0..r0 + rows_in_block(blk);
            let bc = rows.len() * ow;
            let layout = packed_k.b_layout(bc);
            let panels = &mut panels[..layout.len()];
            let t_job = stats.map(|_| Instant::now());

            // im2col for exactly this job's output positions, written into
            // the GEMM's B panels.
            for r in 0..ckk {
                let mut row = layout.row(panels, r);
                lower_row(input, geom, bn, r, rows.clone(), &mut row);
                row.finish();
            }
            let t_lowered = stats.map(|_| Instant::now());

            // One GEMM over every output channel for this row band, each
            // channel's rows stored in place, then rectified there.
            let outcome = gemm_packed(micro, packed_k, bc, panels, CRows::Rows(&mut frags), timed);
            if relu {
                frags.iter_mut().for_each(|rows| relu_in_place(rows));
            }
            if let (Some(s), Some(t0), Some(tl)) = (stats, t_job, t_lowered) {
                s.add_gemm(1, outcome.bytes_packed);
                s.add_gemm_split(outcome.pack_ns, outcome.kernel_ns);
                s.add_phase_ns(ConvPhase::Scatter, (tl - t0).as_nanos() as u64);
                s.add_phase_ns(ConvPhase::Gemm, tl.elapsed().as_nanos() as u64);
            }
        },
    )?;
    if let Some(s) = stats {
        // Schedule-invariant analytic accounting, identical to what the
        // former barrier grain reported in total: the im2col lowering is
        // pure data movement; the GEMM reads each operand once and writes
        // the output once, per image.
        s.add_phase(ConvPhase::Scatter, 0, (batch * 8 * ckk * cols) as u64);
        let gemm_flops = (batch * 2 * out_c * ckk * cols) as u64;
        let gemm_bytes = (batch * 4 * (out_c * ckk + ckk * cols + out_c * cols)) as u64;
        s.add_phase(ConvPhase::Gemm, gemm_flops, gemm_bytes);
    }
    Ok(out)
}

/// Fast fixed-point direct convolution: im2col lowering driven through
/// the wide [`Accumulator`] datapath. The inner MAC sweep runs through
/// `micro`'s [`KernelChoice::mac_span_fix16`] — packed 16-bit lanes
/// widened into 64-bit accumulators on AVX2, the scalar span otherwise.
/// Products accumulate in the same `(channel, ku, kv)` order as
/// [`conv2d_fix16`] and integer accumulation is exact, so the output is
/// **bit-identical** to the naive reference at any thread count and with
/// any kernel.
///
/// # Errors
///
/// Returns [`ConvError::ShapeMismatch`] when tensor shapes disagree with
/// `geom`.
pub fn conv2d_fix16_fast_with_kernel(
    input: &Tensor<Fix16>,
    kernels: &Tensor<Fix16>,
    geom: ConvGeometry,
    threads: usize,
    micro: KernelChoice,
) -> Result<Tensor<Fix16>, ConvError> {
    check_shapes(input, kernels, geom)?;
    let threads = winofuse_runtime::resolve_threads(threads);
    let (batch, in_c, _, _) = input.shape();
    let out_c = kernels.n();
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let (ckk, cols) = (in_c * geom.kernel() * geom.kernel(), oh * ow);
    let kflat = kernels.as_slice();

    let mut patches = vec![Fix16::ZERO; ckk * cols];
    let mut out = Tensor::zeros(batch, out_c, oh, ow);
    let k_blocks: Vec<(usize, usize)> = (0..out_c)
        .step_by(OUT_C_BLOCK)
        .map(|k0| (k0, OUT_C_BLOCK.min(out_c - k0)))
        .collect();
    let lengths: Vec<usize> = k_blocks.iter().map(|&(_, kb)| kb * cols).collect();
    for bn in 0..batch {
        fill_patches(
            input,
            geom,
            bn,
            &mut patches,
            threads,
            &PoolProfiler::disabled(),
        )?;
        let out_all = out.as_mut_slice();
        let img = &mut out_all[bn * out_c * cols..(bn + 1) * out_c * cols];
        let slices = winofuse_runtime::split_lengths(img, &lengths);
        let patches_ref = &patches;
        winofuse_runtime::run_jobs(
            threads,
            slices,
            &PoolProfiler::disabled(),
            || vec![0i64; cols],
            |accs, job, slice| {
                let (k0, kb) = k_blocks[job];
                for k in k0..k0 + kb {
                    accs.fill(0);
                    // Row-major sweep of the patch matrix keeps the memory
                    // access streaming while every output element still
                    // accumulates its products in ascending row order
                    // (irrelevant for exactness — integer adds commute —
                    // but it mirrors the float path's contract).
                    for (r, &kv) in kflat[k * ckk..(k + 1) * ckk].iter().enumerate() {
                        let row = &patches_ref[r * cols..(r + 1) * cols];
                        micro.mac_span_fix16(accs, row, kv);
                    }
                    let plane = &mut slice[(k - k0) * cols..(k - k0 + 1) * cols];
                    for (dst, &acc) in plane.iter_mut().zip(accs.iter()) {
                        *dst = Accumulator::from_raw(acc).finish();
                    }
                }
            },
        )?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::random_tensor;

    /// [`conv2d_fast_packed_ext`] on freshly packed kernels, untraced.
    fn fast_direct(
        x: &Tensor<f32>,
        kernels: &Tensor<f32>,
        geom: ConvGeometry,
        threads: usize,
        stats: Option<&ConvStats>,
    ) -> Result<Tensor<f32>, ConvError> {
        let packed = PackedKernels::new(kernels);
        conv2d_fast_packed_ext(
            x,
            &packed,
            geom,
            false,
            threads,
            stats,
            &PoolProfiler::disabled(),
            None,
        )
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // 1x1 kernel of value 1 on a single channel.
        let geom = ConvGeometry::new(3, 3, 1, 1, 0).unwrap();
        let input = random_tensor(1, 1, 3, 3, 1);
        let kernel = Tensor::filled(1, 1, 1, 1, 1.0f32);
        let out = conv2d(&input, &kernel, geom).unwrap();
        assert!(out.approx_eq(&input, 0.0));
    }

    #[test]
    fn box_filter_sums_window() {
        let geom = ConvGeometry::new(4, 4, 2, 2, 0).unwrap();
        let input = Tensor::from_fn(1, 1, 4, 4, |_, _, h, w| (h * 4 + w) as f32);
        let kernel = Tensor::filled(1, 1, 2, 2, 1.0f32);
        let out = conv2d(&input, &kernel, geom).unwrap();
        // Windows: {0,1,4,5}=10, {2,3,6,7}=18, {8,9,12,13}=42, {10,11,14,15}=50.
        assert_eq!(out.as_slice(), &[10.0, 18.0, 42.0, 50.0]);
    }

    #[test]
    fn channels_accumulate() {
        let geom = ConvGeometry::new(2, 2, 1, 1, 0).unwrap();
        let input = Tensor::filled(1, 3, 2, 2, 2.0f32);
        let kernel = Tensor::filled(1, 3, 1, 1, 1.5f32);
        let out = conv2d(&input, &kernel, geom).unwrap();
        assert!(out.as_slice().iter().all(|&v| (v - 9.0).abs() < 1e-6));
    }

    #[test]
    fn padding_uses_zeros() {
        let geom = ConvGeometry::new(2, 2, 3, 1, 1).unwrap();
        let input = Tensor::filled(1, 1, 2, 2, 1.0f32);
        let kernel = Tensor::filled(1, 1, 3, 3, 1.0f32);
        let out = conv2d(&input, &kernel, geom).unwrap();
        // Every output sees exactly the 4 ones (corners of the 3x3 window
        // always cover all four input pixels for a 2x2 input with pad 1).
        assert_eq!(out.as_slice(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn stride_subsamples() {
        let geom = ConvGeometry::new(5, 5, 1, 2, 0).unwrap();
        let input = Tensor::from_fn(1, 1, 5, 5, |_, _, h, w| (h * 5 + w) as f32);
        let kernel = Tensor::filled(1, 1, 1, 1, 1.0f32);
        let out = conv2d(&input, &kernel, geom).unwrap();
        assert_eq!(out.shape(), (1, 1, 3, 3));
        assert_eq!(out.get(0, 0, 1, 1), 12.0);
        assert_eq!(out.get(0, 0, 2, 2), 24.0);
    }

    #[test]
    fn batch_dimension_is_independent() {
        let geom = ConvGeometry::new(3, 3, 3, 1, 0).unwrap();
        let mut input = Tensor::zeros(2, 1, 3, 3);
        input.set(0, 0, 1, 1, 1.0f32);
        input.set(1, 0, 1, 1, 2.0f32);
        let kernel = Tensor::filled(1, 1, 3, 3, 1.0f32);
        let out = conv2d(&input, &kernel, geom).unwrap();
        assert_eq!(out.get(0, 0, 0, 0), 1.0);
        assert_eq!(out.get(1, 0, 0, 0), 2.0);
    }

    #[test]
    fn rejects_wrong_shapes() {
        let geom = ConvGeometry::new(4, 4, 3, 1, 0).unwrap();
        let input = Tensor::<f32>::zeros(1, 2, 4, 4);
        let bad_kernel = Tensor::<f32>::zeros(1, 3, 3, 3); // channel mismatch
        assert!(conv2d(&input, &bad_kernel, geom).is_err());
        let bad_size = Tensor::<f32>::zeros(1, 2, 5, 5); // input size mismatch
        let kernel = Tensor::<f32>::zeros(1, 2, 3, 3);
        assert!(conv2d(&bad_size, &kernel, geom).is_err());
    }

    #[test]
    fn fix16_matches_f32_within_quantization() {
        let geom = ConvGeometry::new(6, 6, 3, 1, 1).unwrap();
        let input = random_tensor(1, 3, 6, 6, 11);
        let kernels = random_tensor(2, 3, 3, 3, 12);
        let f = conv2d(&input, &kernels, geom).unwrap();
        let q = conv2d_fix16(&input.cast(), &kernels.cast(), geom).unwrap();
        // 27 MACs of values in [-1,1): quantization error stays small.
        let qf: Tensor<f32> = q.cast();
        assert!(f.max_abs_diff(&qf).unwrap() < 0.15);
    }

    #[test]
    fn fast_path_matches_naive_across_geometries() {
        // Stride/pad general: the cases the Winograd path rejects.
        for &(h, w, k, s, pad, in_c, out_c) in &[
            (7usize, 7usize, 3usize, 1usize, 1usize, 3usize, 4usize),
            (11, 9, 5, 2, 2, 2, 5),
            (8, 8, 1, 1, 0, 6, 3),
            (10, 10, 3, 2, 0, 1, 1),
        ] {
            let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
            let x = random_tensor(2, in_c, h, w, (h * 7 + k) as u64);
            let kn = random_tensor(out_c, in_c, k, k, (w + s) as u64);
            let naive = conv2d(&x, &kn, geom).unwrap();
            let fast = fast_direct(&x, &kn, geom, 1, None).unwrap();
            let diff = naive.max_abs_diff(&fast).unwrap();
            assert!(diff < 1e-4, "{h}x{w} k{k} s{s} p{pad}: diff {diff}");
        }
    }

    /// The oracle of the one-pass lowering: an explicit row-major
    /// `[C·K² × cols]` patch matrix per image, one `get_padded` per
    /// element, multiplied by the packed bank through
    /// `gemm_f32_prepacked`'s `BOperand` entry point.
    fn patch_matrix_direct(
        x: &Tensor<f32>,
        packed: &PackedKernels,
        geom: ConvGeometry,
        kernel: KernelChoice,
    ) -> Tensor<f32> {
        let (batch, in_c, _, _) = x.shape();
        let (k, s, pad) = (geom.kernel(), geom.stride(), geom.pad() as isize);
        let (oh, ow) = (geom.output_height(), geom.output_width());
        let (ckk, cols, out_c) = (in_c * k * k, oh * ow, packed.out_c);
        let mut out = Tensor::zeros(batch, out_c, oh, ow);
        let mut patches = vec![0.0f32; ckk * cols];
        let mut scratch = crate::gemm::GemmScratch::with_kernel(kernel);
        for bn in 0..batch {
            for (r, row) in patches.chunks_exact_mut(cols).enumerate() {
                let (m, u, v) = (r / (k * k), (r / k) % k, r % k);
                for (e, slot) in row.iter_mut().enumerate() {
                    let (i, j) = (e / ow, e % ow);
                    let (hh, ww) = ((i * s + u) as isize - pad, (j * s + v) as isize - pad);
                    *slot = x.get_padded(bn, m, hh, ww);
                }
            }
            let c = &mut out.as_mut_slice()[bn * out_c * cols..][..out_c * cols];
            let b = crate::gemm::BOperand::row_major(&patches, cols);
            crate::gemm::gemm_f32_prepacked(&mut scratch, &packed.packed, cols, b, c, false);
        }
        out
    }

    #[test]
    fn one_pass_lowering_matches_the_patch_matrix_bitwise() {
        // (h, w, k, stride, pad, in_c, out_c, batch). K 1/3/5/11, stride
        // 1/2/4, pad 0–2; 4·outW a multiple of NR only in the 10×10 case;
        // C·K² > KC in the first four; a short last row block wherever
        // outH is not a multiple of 4; padding wider than some kernel
        // offsets at stride 4 in the last case.
        let cases = [
            (9usize, 7, 1, 1, 0, 300, 5, 2),
            (11, 13, 3, 2, 1, 30, 6, 1),
            (13, 13, 5, 1, 2, 12, 9, 2),
            (35, 37, 11, 4, 0, 3, 10, 2),
            (10, 10, 3, 1, 0, 2, 4, 1),
            (12, 9, 5, 2, 2, 4, 3, 1),
            (20, 23, 11, 4, 2, 3, 5, 1),
        ];
        let bits = |t: &Tensor<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &(h, w, k, s, pad, in_c, out_c, batch) in &cases {
            let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
            let mut x = random_tensor(batch, in_c, h, w, (h * 13 + k) as u64);
            // Signed zeros in the input must reach the GEMM as they are.
            x.as_mut_slice()
                .iter_mut()
                .step_by(7)
                .for_each(|v| *v = -0.0);
            let packed = PackedKernels::new(&random_tensor(out_c, in_c, k, k, (w + s) as u64));
            for kernel in KernelChoice::all_supported() {
                let want = bits(&patch_matrix_direct(&x, &packed, geom, kernel));
                for threads in [1usize, 2, 4, 8] {
                    let prof = PoolProfiler::disabled();
                    let got = conv2d_fast_packed_ext(
                        &x,
                        &packed,
                        geom,
                        false,
                        threads,
                        None,
                        &prof,
                        Some(kernel),
                    )
                    .unwrap();
                    assert!(
                        bits(&got) == want,
                        "{h}x{w} k{k} s{s} p{pad} c{in_c}: {} @{threads}t differs",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_is_thread_count_invariant() {
        let geom = ConvGeometry::rect(13, 11, 3, 2, 1).unwrap();
        let x = random_tensor(1, 5, 13, 11, 51);
        let k = random_tensor(18, 5, 3, 3, 52);
        let base = fast_direct(&x, &k, geom, 1, None).unwrap();
        for threads in [2usize, 4, 8] {
            let y = fast_direct(&x, &k, geom, threads, None).unwrap();
            assert_eq!(y, base, "{threads}-thread direct fast path differs");
        }
    }

    #[test]
    fn fast_path_counts_gemms() {
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let x = random_tensor(1, 2, 8, 8, 3);
        let k = random_tensor(20, 2, 3, 3, 4);
        let stats = ConvStats::new();
        fast_direct(&x, &k, geom, 2, Some(&stats)).unwrap();
        let (gemm_calls, _, bytes) = stats.snapshot();
        // 8 output rows over row blocks of 4 = 2 fused jobs, one GEMM each.
        assert_eq!(gemm_calls, 2);
        assert!(bytes > 0);
    }

    #[test]
    fn fix16_fast_is_bit_exact_vs_naive() {
        for &(h, w, k, s, pad) in &[
            (7usize, 7usize, 3usize, 1usize, 1usize),
            (9, 11, 5, 2, 2),
            (6, 6, 3, 1, 0),
        ] {
            let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
            let x: Tensor<Fix16> = random_tensor(1, 3, h, w, (h + w) as u64).cast();
            let kn: Tensor<Fix16> = random_tensor(4, 3, k, k, (h * w) as u64).cast();
            let naive = conv2d_fix16(&x, &kn, geom).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let fast =
                    conv2d_fix16_fast_with_kernel(&x, &kn, geom, threads, KernelChoice::auto())
                        .unwrap();
                assert_eq!(fast, naive, "{h}x{w} k{k} s{s} p{pad} @{threads}t");
            }
        }
    }

    #[test]
    fn fix16_wide_accumulator_beats_narrow() {
        // Sum 64 products of 1-ulp inputs: narrow per-step rounding in the
        // generic path loses them (each product rounds to 0 at Q8.8 scale
        // only if below half-ulp; here products are 0.25 ulp), the wide
        // accumulator keeps them.
        let geom = ConvGeometry::new(8, 8, 8, 1, 0).unwrap();
        let v = Fix16::from_raw(1); // 1 ulp
        let half = Fix16::from_f32(0.25);
        let input = Tensor::filled(1, 1, 8, 8, v);
        let kernel = Tensor::filled(1, 1, 8, 8, half);
        let wide = conv2d_fix16(&input, &kernel, geom).unwrap();
        let narrow = conv2d(&input, &kernel, geom).unwrap();
        // 64 products of 0.25 ulp = 16 ulp exact.
        assert_eq!(wide.get(0, 0, 0, 0), Fix16::from_raw(16));
        assert_eq!(narrow.get(0, 0, 0, 0), Fix16::ZERO);
    }
}
