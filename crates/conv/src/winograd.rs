//! Tiled 2-D Winograd convolution `F(m×m, r×r)` over feature-map tensors.
//!
//! Each input feature map is divided into `(m+r−1)×(m+r−1)` tiles with an
//! `r−1` overlap; `F(m×m, r×r)` is evaluated per tile per channel and the
//! per-channel results accumulate into an `m×m` output tile (§2.1 of the
//! paper). Stride must be 1 — the framework's optimizer falls back to the
//! conventional algorithm otherwise, exactly as the paper does.

use crate::cook_toom::WinogradTransform;
use crate::fixed::Fix16;
use crate::gemm::{
    gemm_packed, panels, BPanels, CRows, ConvPhase, ConvStats, GemmBlocking, PackedA, MR, NR,
};
use crate::matrix::Mat;
use crate::microkernel::{KernelChoice, LaneBody};
use crate::sparse::{prune_plane_with, sparse_keep_count, DENSITY_SCALE};
use crate::tensor::{Scalar, Tensor};
use crate::{ConvError, ConvGeometry};
use std::time::Instant;
use winofuse_runtime::PoolProfiler;

/// Transformed filter bank: `U[n][c] = G·g·Gᵀ` for every (output channel,
/// input channel) pair, one `α×α` matrix each, computed with
/// [`Mat::mul_into`].
///
/// This is the reference: [`conv2d_with`] and [`conv2d_fix16_with`] run
/// on it, and tests hold [`BatchedFilters`], which computes the same
/// products lane-wise straight into GEMM panels, to it bit for bit.
#[derive(Debug, Clone)]
pub struct TransformedFilters {
    alpha: usize,
    out_c: usize,
    in_c: usize,
    /// `out_c · in_c` matrices of shape `α × α`, row-major by (n, c).
    banks: Vec<Mat<f32>>,
}

impl TransformedFilters {
    /// Transforms a kernel tensor (`N×C×r×r`) with the given transform.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::ShapeMismatch`] when the kernel spatial size is
    /// not `r × r`.
    pub fn new(kernels: &Tensor<f32>, transform: &WinogradTransform) -> Result<Self, ConvError> {
        check_kernel_size(kernels, transform)?;
        Ok(Self::build(
            kernels.n(),
            kernels.c(),
            transform,
            |n, c, u, v| kernels.get(n, c, u, v),
        ))
    }

    /// The bank of `out_c × in_c` kernels whose taps `tap(n, c, u, v)`
    /// reads.
    fn build(
        out_c: usize,
        in_c: usize,
        transform: &WinogradTransform,
        tap: impl Fn(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let r = transform.r();
        let g = transform.g_f32();
        let g_t = g.transpose();
        let alpha = transform.alpha();
        // Scratch for the G·g and g itself is hoisted out of the channel
        // loop: the only per-(n, c) allocation is the stored bank.
        let mut gk = Mat::<f32>::zeros(r, r);
        let mut g_gk = Mat::<f32>::zeros(alpha, r);
        let mut banks = Vec::with_capacity(out_c * in_c);
        for n in 0..out_c {
            for c in 0..in_c {
                for u in 0..r {
                    for v in 0..r {
                        gk.set(u, v, tap(n, c, u, v));
                    }
                }
                g.mul_into(&gk, &mut g_gk);
                let mut bank = Mat::<f32>::zeros(alpha, alpha);
                g_gk.mul_into(&g_t, &mut bank);
                banks.push(bank);
            }
        }
        TransformedFilters {
            alpha,
            out_c,
            in_c,
            banks,
        }
    }

    /// The transformed `α×α` bank for output channel `n`, input channel `c`.
    ///
    /// # Panics
    ///
    /// Panics when channel indices are out of range.
    pub fn bank(&self, n: usize, c: usize) -> &Mat<f32> {
        assert!(n < self.out_c && c < self.in_c);
        &self.banks[n * self.in_c + c]
    }

    /// Tile side `α` of the transformed banks.
    pub fn alpha(&self) -> usize {
        self.alpha
    }
}

/// Rejects kernels whose spatial size is not the transform's `r × r`.
fn check_kernel_size<T: Scalar>(
    kernels: &Tensor<T>,
    transform: &WinogradTransform,
) -> Result<(), ConvError> {
    let r = transform.r();
    if kernels.h() != r || kernels.w() != r {
        return Err(ConvError::ShapeMismatch {
            expected: format!("{r}x{r} kernels for F({},{})", transform.m(), r),
            found: format!("{}x{}", kernels.h(), kernels.w()),
        });
    }
    Ok(())
}

/// The argument checks of both naive references: stride 1, the
/// geometry's kernel and the kernel tensor both the transform's `r × r`,
/// the input the geometry's size, and one kernel channel per input
/// channel.
fn check_args<T: Scalar>(
    input: &Tensor<T>,
    kernels: &Tensor<T>,
    geom: ConvGeometry,
    transform: &WinogradTransform,
) -> Result<(), ConvError> {
    if geom.stride() != 1 {
        return Err(ConvError::StrideUnsupported {
            stride: geom.stride(),
        });
    }
    if geom.kernel() != transform.r() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("kernel size {} for this transform", transform.r()),
            found: format!("{}", geom.kernel()),
        });
    }
    if input.h() != geom.height() || input.w() != geom.width() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("input {}x{}", geom.height(), geom.width()),
            found: format!("{}x{}", input.h(), input.w()),
        });
    }
    if kernels.c() != input.c() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("{} kernel channels", input.c()),
            found: format!("{}", kernels.c()),
        });
    }
    check_kernel_size(kernels, transform)
}

/// The naive tile loop of both references, one scalar at a time. For
/// every `m×m` output tile of every batch element it forms the input
/// transforms `V = Bᵀ·d·B` of all channels from the zero-padded input
/// `read(bn, c, h, w)`, passes each element of `V` through `quantize`,
/// accumulates `M = Σ_c U[n][c] ⊙ V[c]` per output channel in ascending
/// `c`, and hands every in-bounds element of `Y = Aᵀ·M·A` to
/// `store(bn, n, h, w, y)`.
fn naive_tiles(
    batch: usize,
    geom: ConvGeometry,
    transform: &WinogradTransform,
    filters: &TransformedFilters,
    read: impl Fn(usize, usize, isize, isize) -> f32,
    quantize: impl Fn(f32) -> f32,
    mut store: impl FnMut(usize, usize, usize, usize, f32),
) {
    let m = transform.m();
    let alpha = transform.alpha();
    let b_t = transform.b_t_f32();
    let b = b_t.transpose();
    let a_t = transform.a_t_f32();
    let a = a_t.transpose();

    let (in_c, out_c) = (filters.in_c, filters.out_c);
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let pad = geom.pad() as isize;
    let tiles_h = oh.div_ceil(m);
    let tiles_w = ow.div_ceil(m);

    // Scratch: transformed input tiles for all channels at one position.
    let mut v_tiles: Vec<Mat<f32>> = vec![Mat::zeros(alpha, alpha); in_c];

    for bn in 0..batch {
        for th in 0..tiles_h {
            for tw in 0..tiles_w {
                let h0 = (th * m) as isize - pad;
                let w0 = (tw * m) as isize - pad;
                for (c, v_tile) in v_tiles.iter_mut().enumerate() {
                    let d = Mat::from_fn(alpha, alpha, |u, v| {
                        read(bn, c, h0 + u as isize, w0 + v as isize)
                    });
                    *v_tile = b_t.mul(&d).mul(&b).map(&quantize);
                }
                for n in 0..out_c {
                    let mut acc = Mat::<f32>::zeros(alpha, alpha);
                    for (c, v_tile) in v_tiles.iter().enumerate() {
                        let prod = filters.bank(n, c).hadamard(v_tile);
                        acc = Mat::from_fn(alpha, alpha, |u, v| acc.get(u, v) + prod.get(u, v));
                    }
                    // Y = Aᵀ·M·A, stored with edge clipping.
                    let y = a_t.mul(&acc).mul(&a);
                    for u in 0..m {
                        for v in 0..m {
                            let (oi, oj) = (th * m + u, tw * m + v);
                            if oi < oh && oj < ow {
                                store(bn, n, oi, oj, y.get(u, v));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Winograd convolution with an explicit transform (any generated
/// `F(m, r)`; the paper's uniform choice is [`f43`](crate::cook_toom::f43),
/// §2.1: "we use a uniform size F(4×4, 3×3)").
///
/// # Errors
///
/// * [`ConvError::StrideUnsupported`] when `geom.stride() != 1`,
/// * [`ConvError::ShapeMismatch`] when shapes disagree with `geom`, or the
///   geometry's or the kernel tensor's size differs from the transform's
///   `r`.
///
/// # Examples
///
/// ```
/// use winofuse_conv::{cook_toom::f43, direct, winograd, tensor::random_tensor, ConvGeometry};
///
/// # fn main() -> Result<(), winofuse_conv::ConvError> {
/// let geom = ConvGeometry::new(12, 12, 3, 1, 1)?;
/// let x = random_tensor(1, 4, 12, 12, 1);
/// let w = random_tensor(8, 4, 3, 3, 2);
/// let reference = direct::conv2d(&x, &w, geom)?;
/// let wino = winograd::conv2d_with(&x, &w, geom, &f43())?;
/// assert!(reference.approx_eq(&wino, 1e-3));
/// # Ok(())
/// # }
/// ```
pub fn conv2d_with(
    input: &Tensor<f32>,
    kernels: &Tensor<f32>,
    geom: ConvGeometry,
    transform: &WinogradTransform,
) -> Result<Tensor<f32>, ConvError> {
    check_args(input, kernels, geom, transform)?;
    let filters = TransformedFilters::new(kernels, transform)?;
    let mut out = Tensor::zeros(
        input.n(),
        kernels.n(),
        geom.output_height(),
        geom.output_width(),
    );
    naive_tiles(
        input.n(),
        geom,
        transform,
        &filters,
        |bn, c, h, w| input.get_padded(bn, c, h, w),
        |v| v,
        |bn, n, h, w, y| out.set(bn, n, h, w, y),
    );
    Ok(out)
}

/// Input tiles scattered per job in the barrier (transform-point) path,
/// and tiles per output-transform call in its gather (sizes the phase-1
/// write regions; results never depend on it). A whole number of `B`
/// panels, so each scatter job owns whole panels.
const TILE_CHUNK: usize = 32;
const _: () = assert!(TILE_CHUNK.is_multiple_of(NR));
/// Output channels per gather job in the barrier path.
const GATHER_K_BLOCK: usize = 16;
/// Tiles owned by one worker job under the tile-block schedule: each job
/// runs fused scatter → α² GEMMs → gather over this many contiguous tiles
/// with thread-local buffers. Sized so the per-job `V`/`M` blocks stay
/// cache-resident while GEMM `n` fills whole `NR` panels. Results never
/// depend on it.
pub const WINO_TILE_BLOCK: usize = 32;
/// Minimum job count for `Auto` to pick the tile-block schedule — below
/// this the layer has too few tiles to parallelize at tile grain (deep,
/// spatially small layers like VGG conv5), and the transform-point
/// schedule's 36-way GEMM parallelism wins.
const TILE_BLOCK_MIN_JOBS: usize = 4;
const _: () = assert!(WINO_TILE_BLOCK.is_multiple_of(NR));

/// How the batched Winograd layer is partitioned into parallel jobs.
///
/// Every schedule produces **bit-identical outputs** — each output element
/// accumulates its `in_c` products in the same ascending order under the
/// same `KC` blocking — so the choice is purely a performance decision and
/// `Auto` may pick per layer shape without affecting results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WinoSchedule {
    /// Pick per shape: tile-block when the layer has enough tiles to feed
    /// `TILE_BLOCK_MIN_JOBS` jobs, transform-point otherwise.
    #[default]
    Auto,
    /// One pool invocation; each job owns a contiguous block of
    /// [`WINO_TILE_BLOCK`] tiles and runs fused
    /// scatter → α²-batched packed GEMM → gather over its block with
    /// thread-local panels. No barriers between phases.
    TileBlock,
    /// Three barrier phases (scatter / GEMM / gather) with one GEMM job
    /// per transform point — the right grain when tiles are scarce but
    /// channels are deep.
    TransformPoint,
}

/// Knobs for [`conv2d_batched_ext`]: schedule selection and an explicit
/// microkernel pin (both default to auto-selection).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchedOptions {
    /// Parallel partitioning; `Auto` resolves per layer shape.
    pub schedule: WinoSchedule,
    /// `None` dispatches to [`KernelChoice::auto`]; tests pin kernels
    /// explicitly to hold the oracle contract down.
    pub kernel: Option<KernelChoice>,
}

/// Filter bank laid out for batched Winograd-as-GEMM: one
/// `out_c × in_c` row-major GEMM operand per transform-domain point
/// `(u, v)`, so the α² element-wise products over all tiles collapse into
/// α² matrix multiplies (Lavin's formulation; the same structure WinoCNN
/// maps onto a systolic array).
#[derive(Debug, Clone)]
pub struct BatchedFilters {
    m: usize,
    r: usize,
    alpha: usize,
    out_c: usize,
    in_c: usize,
    /// Plane `u·α + v` holds `(G·g_{k,c}·Gᵀ)[u][v]` at `(k, c)` (zero
    /// where pruned), packed into GEMM `A` panels under the default
    /// blocking — built once here (plan-lowering time), so no strip or
    /// transform-point job ever re-packs filter coefficients.
    packed: Vec<PackedA>,
}

impl BatchedFilters {
    /// Transforms a kernel tensor (`N×C×r×r`) straight into the packed
    /// GEMM panels of every transform-point plane. This is
    /// [`BatchedFilters::pruned`] at density 1000, which zeroes nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransformedFilters::new`].
    pub fn new(kernels: &Tensor<f32>, transform: &WinogradTransform) -> Result<Self, ConvError> {
        Self::pruned(kernels, transform, DENSITY_SCALE as u16)
    }

    /// Like [`BatchedFilters::new`], but each transform-point plane keeps
    /// only its [`sparse_keep_count`]`(N·C, density_pm)` largest
    /// coefficients ([`prune_plane`](crate::sparse::prune_plane)); the rest
    /// are zeroed. The GEMM then runs the pruned layer as an ordinary
    /// dense one.
    ///
    /// The bank is built in one pass over the panels, with no
    /// per-channel-pair allocation: each panel's channel pairs are
    /// transformed lane-wise and written where the GEMM reads them,
    /// bit-identical to [`TransformedFilters`] packed plane by plane.
    /// Pruning then selects per plane on a flat copy gathered from the
    /// panels, so the kept set and its tie-break are those of
    /// [`prune_plane`](crate::sparse::prune_plane) on the plane in
    /// `k·in_c + c` order.
    ///
    /// # Errors
    ///
    /// [`ConvError::ShapeMismatch`] when `density_pm` is outside
    /// `1..=1000`, and the conditions of [`TransformedFilters::new`].
    pub fn pruned(
        kernels: &Tensor<f32>,
        transform: &WinogradTransform,
        density_pm: u16,
    ) -> Result<Self, ConvError> {
        if density_pm == 0 || density_pm as u64 > DENSITY_SCALE {
            return Err(ConvError::ShapeMismatch {
                expected: "sparse density in 1..=1000 per-mille".into(),
                found: format!("{density_pm}"),
            });
        }
        check_kernel_size(kernels, transform)?;
        let (out_c, in_c) = (kernels.n(), kernels.c());
        let alpha = transform.alpha();
        let blocking = GemmBlocking::default();
        let mut packed: Vec<PackedA> = (0..alpha * alpha)
            .map(|_| PackedA::zeroed(out_c, in_c, blocking))
            .collect();
        transform_into_panels(kernels, transform, &mut packed);
        let coeffs = out_c * in_c;
        let keep = sparse_keep_count(coeffs as u64, density_pm) as usize;
        if keep < coeffs {
            let (mut plane, mut order) = (vec![0.0f32; coeffs], Vec::with_capacity(coeffs));
            for p in &mut packed {
                p.unpack_into(&mut plane);
                prune_plane_with(&mut plane, keep, &mut order);
                p.repack(&plane);
            }
        }
        Ok(BatchedFilters {
            m: transform.m(),
            r: transform.r(),
            alpha,
            out_c,
            in_c,
            packed,
        })
    }

    /// The pre-packed GEMM `A` operand for transform point `uv`.
    pub fn packed_plane(&self, uv: usize) -> &PackedA {
        &self.packed[uv]
    }

    /// Output channels.
    pub fn out_c(&self) -> usize {
        self.out_c
    }

    /// Input channels.
    pub fn in_c(&self) -> usize {
        self.in_c
    }

    /// Tile side `α` of the transform the bank was built with.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The packed layout of a transform point's `B` operand `V_uv`
    /// (`in_c × n`), the same for every point.
    fn v_layout(&self, n: usize) -> BPanels {
        self.packed[0].b_layout(n)
    }

    /// Runs the transform point `uv`'s GEMM `C[out_c × n] = A_uv · V_uv`
    /// into the row sink `c`, with `v` already in
    /// [`BatchedFilters::v_layout`].
    fn gemm_plane(
        &self,
        kernel: KernelChoice,
        uv: usize,
        n: usize,
        v: &[f32],
        c: CRows<'_, '_>,
        stats: Option<&ConvStats>,
    ) {
        let timed = stats.is_some();
        let outcome = gemm_packed(kernel, &self.packed[uv], n, v, c, timed);
        if let Some(s) = stats {
            s.add_gemm(1, outcome.bytes_packed);
            s.add_gemm_split(outcome.pack_ns, outcome.kernel_ns);
        }
    }
}

/// The filter transform `G` as rows of its nonzero coefficients,
/// `(column, value)` in ascending column order.
type Taps = Vec<Vec<(usize, f32)>>;

fn nonzero_taps(mat: &Mat<f32>) -> Taps {
    (0..mat.rows())
        .map(|i| {
            (0..mat.cols())
                .map(|l| (l, mat.get(i, l)))
                .filter(|&(_, c)| c != 0.0)
                .collect()
        })
        .collect()
}

/// `dst[t] = Σ c·row(l)[t]` over the `(l, c)` taps, for every lane `t`:
/// one element of a filter transform product for a run of channel pairs
/// at once, with the pair index innermost and contiguous so the loop
/// vectorizes across pairs.
///
/// Each lane keeps the scalar product's arithmetic: terms in ascending
/// `l`, a separate multiply then add, starting from `+0.0`. Only the zero
/// coefficients are left out. A left-out term is a `±0` addend, and an
/// accumulator that starts at `+0.0` never becomes `-0.0` (round to
/// nearest gives `+0.0` for `+0 + -0` and for exact cancellation), so
/// adding `±0` would not change it. Every lane is therefore bit-identical
/// to the full product on finite data.
#[inline(always)]
fn lane_dot<'r>(dst: &mut [f32], taps: &[(usize, f32)], row: impl Fn(usize) -> &'r [f32]) {
    dst.fill(0.0);
    for &(l, c) in taps {
        for (o, &x) in dst.iter_mut().zip(row(l)) {
            *o += c * x;
        }
    }
}

/// Writes `U = G·g·Gᵀ` of every (output, input) channel pair of
/// `kernels` into the zeroed α² planes `packed` (all `out_c × in_c`
/// under one blocking), one GEMM panel at a time.
///
/// A panel's pairs are the lanes of one run: lane `p·MR + i` holds pair
/// `(row0 + i, col0 + p)`, the panel's own element order, so each
/// transform point's run is one contiguous slice of its plane. Rows past
/// a ragged panel's end are zero kernels, which transform to `+0`, the
/// value the zeroed plane holds there.
///
/// Every lane keeps [`Mat::mul_into`]'s arithmetic in both products
/// (`G·g`, then `·Gᵀ`), so each coefficient is bit-identical to
/// [`TransformedFilters`] on finite weights. `G·g` leaves out `G`'s zero
/// coefficients, as `mul_into` does. `(G·g)·Gᵀ` keeps all `r` terms:
/// `mul_into` skips the exact zeros of `G·g`, which are data a lane
/// cannot skip, but such a term adds `±0` to an accumulator that is never
/// `−0` (see [`lane_dot`]), so keeping it changes nothing.
fn transform_into_panels(
    kernels: &Tensor<f32>,
    transform: &WinogradTransform,
    packed: &mut [PackedA],
) {
    let (r, alpha) = (transform.r(), transform.alpha());
    let rr = r * r;
    let (out_c, in_c) = (kernels.n(), kernels.c());
    let blocking = packed[0].blocking();
    let g = transform.g_f32();
    let g_taps = nonzero_taps(&g);
    let g_rows: Taps = (0..alpha)
        .map(|j| (0..r).map(|l| (l, g.get(j, l))).collect())
        .collect();
    let max_lanes = MR * in_c.min(blocking.kc);
    let mut scratch = vec![0.0f32; (rr + alpha * r) * max_lanes];
    let weights = kernels.as_slice();
    for panel in panels(out_c, in_c, blocking) {
        let lanes = MR * panel.depth;
        let (gk, rest) = scratch.split_at_mut(rr * lanes);
        let gg = &mut rest[..alpha * r * lanes];
        if panel.rows < MR {
            gk.fill(0.0);
        }
        for i in 0..panel.rows {
            let row = &weights[((panel.row0 + i) * in_c + panel.col0) * rr..][..panel.depth * rr];
            for (p, kernel) in row.chunks_exact(rr).enumerate() {
                for (e, &x) in kernel.iter().enumerate() {
                    gk[e * lanes + p * MR + i] = x;
                }
            }
        }
        let gk = &*gk;
        for (i, taps) in g_taps.iter().enumerate() {
            for j in 0..r {
                let dst = &mut gg[(i * r + j) * lanes..][..lanes];
                lane_dot(dst, taps, |l| &gk[(l * r + j) * lanes..][..lanes]);
            }
        }
        let gg = &*gg;
        for i in 0..alpha {
            for (j, taps) in g_rows.iter().enumerate() {
                let dst = &mut packed[i * alpha + j].data_mut()[panel.offset..][..lanes];
                lane_dot(dst, taps, |l| &gg[(i * r + l) * lanes..][..lanes]);
            }
        }
    }
}

/// Lanes per register chunk of the activation transforms: two 8-lane
/// AVX2 registers, and the width of one `B` panel slot.
const CHUNK: usize = NR;

/// Coefficients of a transform matrix of up to 8×8 (`Bᵀ` or `Aᵀ`), zero
/// outside it. The values are read from the [`WinogradTransform`] once
/// per call; which of them are nonzero is compiled into the lane kernels.
type Coefs = [[f32; 8]; 8];

fn coefs(mat: &Mat<f32>) -> Coefs {
    let mut c = [[0.0; 8]; 8];
    for (i, row) in c.iter_mut().enumerate().take(mat.rows()) {
        for (l, v) in row.iter_mut().enumerate().take(mat.cols()) {
            *v = mat.get(i, l);
        }
    }
    c
}

/// The nonzero pattern of a transform matrix of up to 8×8: bit `i·8 + l`
/// is set where entry `(i, l)` is nonzero.
fn nonzero_mask(mat: &Mat<f32>) -> u64 {
    let mut mask = 0u64;
    for i in 0..mat.rows().min(8) {
        for l in 0..mat.cols().min(8) {
            if mat.get(i, l) != 0.0 {
                mask |= 1 << (i * 8 + l);
            }
        }
    }
    mask
}

/// The transform shapes whose activation transforms are compiled in, as
/// `(m, α, Bᵀ pattern, Aᵀ pattern)` ([`nonzero_mask`]): F(2,3), F(4,3),
/// F(6,3) and F(4,5). `F(4,3)`'s `Bᵀ` has 22 nonzeros of 36 and its `Aᵀ`
/// 18 of 24. A transform whose shape and patterns match no entry is
/// rejected with [`ConvError::UnsupportedTransform`].
const SHAPES: [(usize, usize, u64, u64); 4] = [
    (2, 4, 0x0A06_0605, 0x0E07),
    (4, 6, 0x2A1E_1E1E_1E15, 0x3E1E_1E1F),
    (6, 8, 0xAA7E_7E7E_7E7E_7E55, 0xFE7E_7E7E_7E7F),
    (4, 8, 0xAA7E_7E7E_7E7E_7E55, 0xFE7E_7E7F),
];

/// Evaluates `$body` for compiled-in shape `$shape`, an index into
/// [`SHAPES`], with the shape's `(m, α, Bᵀ pattern, Aᵀ pattern)` bound to
/// the constants `$m`, `$a`, `$bt` and `$at`.
macro_rules! per_shape {
    ($shape:expr, |$m:ident, $a:ident, $bt:ident, $at:ident| $body:expr) => {
        per_shape!(@ $shape, $m, $a, $bt, $at, $body; 0 1 2 3)
    };
    (@ $shape:expr, $m:ident, $a:ident, $bt:ident, $at:ident, $body:expr; $($n:literal)*) => {{
        const _: () = assert!(SHAPES.len() == [$($n),*].len(), "one arm per shape");
        match $shape {
            $($n => {
                const $m: usize = SHAPES[$n].0;
                const $a: usize = SHAPES[$n].1;
                const $bt: u64 = SHAPES[$n].2;
                const $at: u64 = SHAPES[$n].3;
                $body
            })*
            _ => unreachable!("shape indices come from SHAPES"),
        }
    }};
}

/// The compiled-in shape of `transform`, an index into [`SHAPES`], with
/// its `Bᵀ` and `Aᵀ` coefficients.
fn shape_of(transform: &WinogradTransform) -> Result<(usize, Coefs, Coefs), ConvError> {
    let (b_t, a_t) = (transform.b_t_f32(), transform.a_t_f32());
    let key = (
        transform.m(),
        transform.alpha(),
        nonzero_mask(&b_t),
        nonzero_mask(&a_t),
    );
    let shape = SHAPES.iter().position(|&s| s == key).ok_or_else(|| {
        ConvError::UnsupportedTransform(format!(
            "no compiled-in activation transforms for F({},{}); \
             the batched path covers F(2,3), F(4,3), F(6,3) and F(4,5)",
            transform.m(),
            transform.r()
        ))
    })?;
    Ok((shape, coefs(&b_t), coefs(&a_t)))
}

/// Expands `$body` eight times, with `$i` bound to a constant `0..8`
/// each time, so a tap test on a const-generic pattern folds away at
/// compile time and only the nonzero taps emit code.
macro_rules! unroll8 {
    ($i:ident, $body:block) => {
        unroll8!(@ $i, $body; 0 1 2 3 4 5 6 7)
    };
    (@ $i:ident, $body:block; $($n:literal)*) => {{
        $({
            const $i: usize = $n;
            $body
        })*
    }};
}

/// One `N`-lane chunk of a transform product `C·src`, the lanes starting
/// at `at` in every source row: row `i < ROWS` of the result, `Σ_l
/// C[i][l]·src[l]` over the taps set in `MASK` (bit `i·8 + l`), is
/// accumulated in registers and handed to `out(i, …)` once.
///
/// Each lane keeps the scalar product's arithmetic: terms in ascending
/// `l`, a separate multiply then add, starting from `+0.0`. Only the
/// exact-zero coefficients are left out, so `0·∞` never enters a sum. A
/// left-out term would be a `±0` addend on finite data, and an
/// accumulator that starts at `+0.0` never becomes `-0.0` (round to
/// nearest gives `+0.0` for `+0 + -0` and for exact cancellation), so
/// adding it would not change the sum: every lane is bit-identical to
/// the full product.
#[inline(always)]
fn lane_chunk<const MASK: u64, const ROWS: usize, const N: usize>(
    coef: &Coefs,
    src: &[&[f32]; 8],
    at: usize,
    mut out: impl FnMut(usize, &[f32; N]),
) {
    unroll8!(I, {
        if I < ROWS {
            let mut acc = [0.0f32; N];
            unroll8!(L, {
                if (MASK >> (I * 8 + L)) & 1 == 1 {
                    let c = coef[I][L];
                    let x: &[f32; N] = src[L][at..at + N].try_into().expect("N lanes");
                    for (a, &x) in acc.iter_mut().zip(x) {
                        *a += c * x;
                    }
                }
            });
            out(I, &acc);
        }
    });
}

/// The transform product `C·src` over `n` lanes of every source row, in
/// [`CHUNK`]-lane chunks: `out(i, q, …)` receives row `i`'s values for
/// the lanes from `q` on. A last, partial chunk runs whole on zero-padded
/// copies of its lanes, so a short run (a 13-wide row, say) still fills
/// the registers; the padding lanes are dropped.
#[inline(always)]
fn lane_rows<const MASK: u64, const ROWS: usize>(
    coef: &Coefs,
    src: &[&[f32]; 8],
    n: usize,
    mut out: impl FnMut(usize, usize, &[f32]),
) {
    let mut q = 0;
    while q + CHUNK <= n {
        lane_chunk::<MASK, ROWS, CHUNK>(coef, src, q, |i, v| out(i, q, v));
        q += CHUNK;
    }
    if q < n {
        let len = n - q;
        let mut pad = [[0.0f32; CHUNK]; 8];
        for (p, s) in pad.iter_mut().zip(src).filter(|(_, s)| !s.is_empty()) {
            p[..len].copy_from_slice(&s[q..n]);
        }
        let pad: [&[f32]; 8] = std::array::from_fn(|l| &pad[l][..]);
        lane_chunk::<MASK, ROWS, CHUNK>(coef, &pad, 0, |i, v| out(i, q, &v[..len]));
    }
}

/// The `A` tap rows `buf[first + l·step..][..n]` of a lane kernel.
#[inline(always)]
fn tap_rows<const A: usize>(buf: &[f32], first: usize, step: usize, n: usize) -> [&[f32]; 8] {
    std::array::from_fn(|l| {
        if l < A {
            &buf[first + l * step..][..n]
        } else {
            &[]
        }
    })
}

/// Working buffers of the input transform for runs of up to `lanes`
/// tiles.
struct InputLanes {
    /// `Bᵀ·d` of one tile row's run of input columns, `α` rows of up to
    /// `lanes·m + α − m` columns, then one row of as many zeros that
    /// stands in for the input rows above and below the image.
    rows: Vec<f32>,
    /// `Bᵀ·d` lane-major: element `(i, j)` of the run's tile `t` at
    /// `[(i·α + j)·lp + t]`, `lp` the run rounded up to whole panels.
    bd: Vec<f32>,
}

impl InputLanes {
    fn new(m: usize, alpha: usize, lanes: usize) -> Self {
        InputLanes {
            rows: vec![0.0; (alpha + 1) * (lanes * m + alpha - m)],
            bd: vec![0.0; alpha * alpha * lanes.div_ceil(NR) * NR],
        }
    }
}

/// Lane-major working buffers of the output transform for runs of up to
/// `lanes` tiles: element `e` of the `t`-th tile of a run of `n` sits at
/// `[e·n + t]`.
struct OutputLanes {
    /// `Aᵀ·M`, `m·α` rows.
    am: Vec<f32>,
    /// `Y = Aᵀ·M·A`, `m²` rows.
    y: Vec<f32>,
}

impl OutputLanes {
    fn new(m: usize, alpha: usize, lanes: usize) -> Self {
        OutputLanes {
            am: vec![0.0; m * alpha * lanes],
            y: vec![0.0; m * m * lanes],
        }
    }
}

/// The tiles of a run that share one tile row of one image: `n` tiles
/// from column `tw` of tile row `th` in image `bn`, lanes `lane..lane + n`
/// of the run.
struct Segment {
    bn: usize,
    th: usize,
    tw: usize,
    lane: usize,
    n: usize,
}

/// Where an output transform stores its rows.
trait OutRows {
    /// Output row `u` of tile row `th`, from the first column of tile
    /// `tw` on.
    fn row(&mut self, th: usize, tw: usize, u: usize) -> &mut [f32];
}

/// One output channel's plane of one image, as the transform-point
/// gather writes it.
struct PlaneRows<'p> {
    plane: &'p mut [f32],
    m: usize,
    ow: usize,
}

impl OutRows for PlaneRows<'_> {
    fn row(&mut self, th: usize, tw: usize, u: usize) -> &mut [f32] {
        &mut self.plane[(th * self.m + u) * self.ow + tw * self.m..]
    }
}

/// One output channel's row fragments of a tile block, top row first:
/// the first tile row's fragments start at the block's first tile `tw0`
/// of tile row `th0`, every later one at column 0.
struct BlockRows<'a, 'f> {
    frags: &'a mut [&'f mut [f32]],
    m: usize,
    th0: usize,
    tw0: usize,
}

impl OutRows for BlockRows<'_, '_> {
    fn row(&mut self, th: usize, tw: usize, u: usize) -> &mut [f32] {
        let first = if th == self.th0 { self.tw0 } else { 0 };
        &mut self.frags[(th - self.th0) * self.m + u][(tw - first) * self.m..]
    }
}

/// Shape-derived state shared by both schedules, resolved once after
/// validation.
struct WinoCtx<'a> {
    input: &'a Tensor<f32>,
    bank: &'a BatchedFilters,
    threads: usize,
    kernel: KernelChoice,
    /// Index of the transform's compiled-in shape in [`SHAPES`].
    shape: usize,
    m: usize,
    alpha: usize,
    aa: usize,
    b_t: Coefs,
    a_t: Coefs,
    batch: usize,
    in_c: usize,
    out_c: usize,
    oh: usize,
    ow: usize,
    pad: isize,
    tiles_w: usize,
    tiles_per_img: usize,
    p_total: usize,
}

impl<'a> WinoCtx<'a> {
    /// Resolves the state of one call whose shapes have been validated.
    ///
    /// # Errors
    ///
    /// [`ConvError::UnsupportedTransform`] when `transform` has no
    /// compiled-in activation transforms.
    fn new(
        input: &'a Tensor<f32>,
        bank: &'a BatchedFilters,
        geom: ConvGeometry,
        transform: &WinogradTransform,
        threads: usize,
        kernel: KernelChoice,
    ) -> Result<Self, ConvError> {
        let m = transform.m();
        let alpha = transform.alpha();
        let (batch, in_c, _, _) = input.shape();
        let (oh, ow) = (geom.output_height(), geom.output_width());
        let tiles_w = ow.div_ceil(m);
        let tiles_per_img = oh.div_ceil(m) * tiles_w;
        let (shape, b_t, a_t) = shape_of(transform)?;
        Ok(WinoCtx {
            input,
            bank,
            threads: winofuse_runtime::resolve_threads(threads),
            kernel,
            shape,
            m,
            alpha,
            aa: alpha * alpha,
            b_t,
            a_t,
            batch,
            in_c,
            out_c: bank.out_c,
            oh,
            ow,
            pad: geom.pad() as isize,
            tiles_w,
            tiles_per_img,
            p_total: batch * tiles_per_img,
        })
    }

    /// The run of `nt` tiles from tile `p0` (numbered across the batch)
    /// split where it crosses a tile row or an image.
    fn segments(&self, p0: usize, nt: usize) -> impl Iterator<Item = Segment> + '_ {
        let mut lane = 0;
        std::iter::from_fn(move || {
            (lane < nt).then(|| {
                let p = p0 + lane;
                let (bn, tile) = (p / self.tiles_per_img, p % self.tiles_per_img);
                let (th, tw) = (tile / self.tiles_w, tile % self.tiles_w);
                let n = (self.tiles_w - tw).min(nt - lane);
                let seg = Segment {
                    bn,
                    th,
                    tw,
                    lane,
                    n,
                };
                lane += n;
                seg
            })
        })
    }

    /// Input transform `V = Bᵀ·d·B` of channel `c` for the `nt`
    /// consecutive tiles from tile `p0`, numbered across the batch (a run
    /// may cross tile rows and images). `slots` yields the run's row of
    /// each `V_uv` in point order, in panel order: each `NR`-lane part
    /// lands in its panel slot, the first at `slot[0..]` and the next
    /// `stride` further on ([`BPanels::at`]), so the run must start on a
    /// panel. The ragged lanes after a run that ends mid-panel are
    /// zeroed.
    fn input_transform<'v>(
        &self,
        c: usize,
        p0: usize,
        nt: usize,
        s: &mut InputLanes,
        slots: impl Iterator<Item = &'v mut [f32]>,
        stride: usize,
    ) {
        per_shape!(self.shape, |M, A, BT, _AT| {
            self.kernel.run_lanes(InputRun::<_, M, A, BT> {
                cx: self,
                c,
                p0,
                nt,
                s,
                slots,
                stride,
            })
        });
    }

    /// Output transform `Y = Aᵀ·M·A` of one output channel for the `nt`
    /// consecutive tiles from tile `p0`, all in one image, whose GEMM
    /// results start `rows`: row `uv` of `M` is
    /// `rows[uv·stride..][..nt]`, which both schedules' GEMM outputs hold
    /// contiguous in the tile index. Stores `Y`, with the layer's folded
    /// ReLU applied when `relu` is set, clipped at the output's edges,
    /// through `sink`.
    #[allow(clippy::too_many_arguments)] // a run, its results and its sink
    fn output_transform(
        &self,
        rows: &[f32],
        stride: usize,
        p0: usize,
        nt: usize,
        relu: bool,
        s: &mut OutputLanes,
        sink: impl OutRows,
    ) {
        per_shape!(self.shape, |M, A, _BT, AT| {
            self.kernel.run_lanes(OutputRun::<_, M, A, AT> {
                cx: self,
                rows,
                stride,
                p0,
                nt,
                relu,
                s,
                sink,
            })
        });
    }
}

/// The arguments of one [`WinoCtx::input_transform`] call, run as a
/// [`LaneBody`].
struct InputRun<'c, 't, 's, D, const M: usize, const A: usize, const BT: u64> {
    cx: &'c WinoCtx<'t>,
    c: usize,
    p0: usize,
    nt: usize,
    s: &'s mut InputLanes,
    slots: D,
    stride: usize,
}

impl<'v, D, const M: usize, const A: usize, const BT: u64> LaneBody
    for InputRun<'_, '_, '_, D, M, A, BT>
where
    D: Iterator<Item = &'v mut [f32]>,
{
    #[inline(always)]
    fn run(self) {
        let InputRun {
            cx,
            c,
            p0,
            nt,
            s,
            mut slots,
            stride,
        } = self;
        let coef = &cx.b_t;
        let (h, w) = (cx.input.h(), cx.input.w());
        let lp = nt.div_ceil(NR) * NR;
        let bd = &mut s.bd[..A * A * lp];
        let span_max = s.rows.len() / (A + 1);
        let (rows, zeros) = s.rows.split_at_mut(A * span_max);
        let zeros = &*zeros;
        for seg in cx.segments(p0, nt) {
            let plane = &cx.input.as_slice()[(seg.bn * cx.in_c + c) * h * w..][..h * w];
            // Bᵀ·d down the tile row's input columns, each column once:
            // `α` rows of `span` columns from `x0`, the image's own `len`
            // columns from `off` on, zeros in the padding either side.
            let span = seg.n * M + A - M;
            let x0 = (seg.tw * M) as isize - cx.pad;
            let xa = x0.clamp(0, w as isize);
            let len = (x0 + span as isize).clamp(xa, w as isize) - xa;
            let off = (xa - x0).clamp(0, span as isize - len) as usize;
            let (xa, len) = (xa as usize, len as usize);
            let src: [&[f32]; 8] = std::array::from_fn(|l| {
                let hi = (seg.th * M + l) as isize - cx.pad;
                if l < A && (0..h as isize).contains(&hi) {
                    &plane[hi as usize * w + xa..][..len]
                } else {
                    &zeros[..len]
                }
            });
            lane_rows::<BT, A>(coef, &src, len, |i, q, v| {
                rows[i * span + off + q..][..v.len()].copy_from_slice(v)
            });
            for r in rows[..A * span].chunks_exact_mut(span) {
                r[..off].fill(0.0);
                r[off + len..].fill(0.0);
            }
            // Lane-major: element (i, j) of the segment's tile t is
            // column t·m + j of row i. Rows j < m de-interleave the
            // columns m ways; row j ≥ m is row j − m one tile on.
            let n = seg.n;
            for (i, r) in rows[..A * span].chunks_exact(span).enumerate() {
                let bd_i = &mut bd[i * A * lp..][..A * lp];
                {
                    let mut dst = bd_i.chunks_exact_mut(lp).map(|d| &mut d[seg.lane..][..n]);
                    let mut dst: [&mut [f32]; M] =
                        std::array::from_fn(|_| dst.next().expect("m lane rows"));
                    for (t, col) in r.chunks_exact(M).take(n).enumerate() {
                        for (d, &x) in dst.iter_mut().zip(col) {
                            d[t] = x;
                        }
                    }
                }
                for j in M..A {
                    let (done, row) = bd_i.split_at_mut(j * lp);
                    let row = &mut row[seg.lane..][..n];
                    row[..n - 1].copy_from_slice(&done[(j - M) * lp + seg.lane + 1..][..n - 1]);
                    row[n - 1] = r[(n - 1) * M + j];
                }
            }
        }
        if nt < lp {
            for r in bd.chunks_exact_mut(lp) {
                r[nt..].fill(0.0);
            }
        }
        // (Bᵀ·d)·B: point (i, v) of every tile from row i of Bᵀ·d, whole
        // panels at a time, straight into the point's panel slots.
        for i in 0..A {
            let src = tap_rows::<A>(bd, i * A * lp, lp, lp);
            let mut out: [&mut [f32]; 8] = std::array::from_fn(|v| {
                if v < A {
                    slots.next().expect("one slot per transform point")
                } else {
                    &mut []
                }
            });
            lane_rows::<BT, A>(coef, &src, lp, |v, q, x| {
                out[v][q / NR * stride + q % NR..][..x.len()].copy_from_slice(x)
            });
        }
    }
}

/// The arguments of one [`WinoCtx::output_transform`] call, run as a
/// [`LaneBody`].
struct OutputRun<'c, 't, 'r, 's, S, const M: usize, const A: usize, const AT: u64> {
    cx: &'c WinoCtx<'t>,
    rows: &'r [f32],
    stride: usize,
    p0: usize,
    nt: usize,
    relu: bool,
    s: &'s mut OutputLanes,
    sink: S,
}

impl<S: OutRows, const M: usize, const A: usize, const AT: u64> LaneBody
    for OutputRun<'_, '_, '_, '_, S, M, A, AT>
{
    #[inline(always)]
    fn run(self) {
        let OutputRun {
            cx,
            rows,
            stride,
            p0,
            nt,
            relu,
            s,
            mut sink,
        } = self;
        let coef = &cx.a_t;
        let OutputLanes { am, y } = s;
        let am = &mut am[..M * A * nt];
        let y = &mut y[..M * M * nt];
        // Aᵀ·M, one column j of every tile's M at a time.
        for j in 0..A {
            let src = tap_rows::<A>(rows, j * stride, A * stride, nt);
            lane_rows::<AT, M>(coef, &src, nt, |i, q, v| {
                am[(i * A + j) * nt + q..][..v.len()].copy_from_slice(v)
            });
        }
        // (Aᵀ·M)·A, one row i of every tile's Y at a time, rectified as
        // it is stored when the layer folds a ReLU.
        for i in 0..M {
            let src = tap_rows::<A>(am, i * A * nt, nt, nt);
            lane_rows::<AT, M>(coef, &src, nt, |j, q, v| {
                let dst = &mut y[(i * M + j) * nt + q..][..v.len()];
                if relu {
                    for (o, &x) in dst.iter_mut().zip(v) {
                        *o = if x < 0.0 { 0.0 } else { x };
                    }
                } else {
                    dst.copy_from_slice(v);
                }
            });
        }
        // Each output row of a tile row is the m-way interleave of the
        // row's m lane rows of Y, clipped at the output's right edge.
        for seg in cx.segments(p0, nt) {
            let width = (seg.n * M).min(cx.ow - seg.tw * M);
            for u in 0..M.min(cx.oh - seg.th * M) {
                let ys: [&[f32]; M] =
                    std::array::from_fn(|j| &y[(u * M + j) * nt + seg.lane..][..seg.n]);
                let dst = &mut sink.row(seg.th, seg.tw, u)[..width];
                let (whole, part) = dst.split_at_mut(width / M * M);
                for (t, o) in whole.chunks_exact_mut(M).enumerate() {
                    for (o, yj) in o.iter_mut().zip(&ys) {
                        *o = yj[t];
                    }
                }
                for (o, yj) in part.iter_mut().zip(&ys) {
                    *o = yj[width / M];
                }
            }
        }
    }
}

/// Schedule-invariant phase accounting: flops and bytes depend only on
/// the layer shape, never on how the work was partitioned, so profiles
/// taken under different schedules (or thread counts) reconcile exactly.
fn add_phase_totals(cx: &WinoCtx<'_>, s: &ConvStats) {
    let (m, alpha, aa) = (cx.m, cx.alpha, cx.aa);
    s.add_tiles(cx.p_total as u64);
    // Scatter, per (tile, channel): two α×α·α×α products (Bᵀ·d, then ·B);
    // input tile elements read + transformed elements written.
    let scatter_flops = (cx.p_total * cx.in_c) as u64 * 4 * (alpha * alpha * alpha) as u64;
    let scatter_bytes = 8 * (cx.p_total * aa * cx.in_c) as u64;
    s.add_phase(ConvPhase::Scatter, scatter_flops, scatter_bytes);
    // GEMM: 2·N·C·P multiply-adds per transform point, pruned or not;
    // each operand read once and the transform-domain product written once.
    let a_elems = (aa * cx.out_c * cx.in_c) as u64;
    let gemm_flops = 2 * a_elems * cx.p_total as u64;
    let gemm_bytes = 4 * (a_elems + (aa * (cx.in_c * cx.p_total + cx.out_c * cx.p_total)) as u64);
    s.add_phase(ConvPhase::Gemm, gemm_flops, gemm_bytes);
    // Gather, per (output channel, tile): Aᵀ·M (m×α·α×α) then ·A (m×α·α×m);
    // transform-domain elements read + output elements written.
    let per_tile = (2 * m * alpha * alpha + 2 * m * m * alpha) as u64;
    let gather_flops = (cx.out_c * cx.p_total) as u64 * per_tile;
    let gather_bytes =
        4 * (aa * cx.out_c * cx.p_total + cx.batch * cx.out_c * cx.oh * cx.ow) as u64;
    s.add_phase(ConvPhase::Gather, gather_flops, gather_bytes);
}

/// Batched Winograd convolution: scatter (input transforms), α² GEMMs
/// against the bank's pre-packed transform-point planes, then gather
/// (output transforms with edge clipping). With `relu` set the gather
/// applies the layer's folded ReLU (`v < 0` becomes `+0.0`; `-0.0` and
/// NaN stay) as it stores each output tile, so the returned tensor is
/// finished, bit-identical to the unrectified result passed through
/// [`relu_in_place`](crate::ops::relu_in_place). `threads == 0` means auto-detect, `1` runs inline;
/// `opts` pins the schedule and microkernel (both auto by default). A
/// pruned bank ([`BatchedFilters::pruned`]) runs the same way; its output
/// carries the pruning error of the zeroed coefficients.
///
/// Results are bit-identical for any thread count **and any schedule**:
/// jobs partition the tile/channel space in fixed-size blocks whose
/// contents and accumulation order never depend on the worker count, and
/// every schedule accumulates each output element's `in_c` products in
/// the same ascending order under the same `KC` blocking.
///
/// Jobs are emitted as Chrome-trace slices on per-worker lanes via `prof`
/// (scoped to `wino.scatter` / `wino.gemm` / `wino.gather` under the
/// transform-point schedule, `wino.tileblock` under the tile-block
/// schedule), and when `stats` is supplied, per-phase times and the GEMM
/// pack-vs-microkernel split are recorded alongside the exact flop/byte
/// accounting.
///
/// # Errors
///
/// Same conditions as [`conv2d_with`]; the filter bank must have been
/// built with the same transform.
#[allow(clippy::too_many_arguments)] // the batched entry plus observability
pub fn conv2d_batched_ext(
    input: &Tensor<f32>,
    bank: &BatchedFilters,
    geom: ConvGeometry,
    transform: &WinogradTransform,
    relu: bool,
    threads: usize,
    stats: Option<&ConvStats>,
    prof: &PoolProfiler,
    opts: BatchedOptions,
) -> Result<Tensor<f32>, ConvError> {
    if geom.stride() != 1 {
        return Err(ConvError::StrideUnsupported {
            stride: geom.stride(),
        });
    }
    if bank.m != transform.m() || bank.r != transform.r() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("filter bank for F({},{})", transform.m(), transform.r()),
            found: format!("bank for F({},{})", bank.m, bank.r),
        });
    }
    if geom.kernel() != transform.r() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("kernel size {} for this transform", transform.r()),
            found: format!("{}", geom.kernel()),
        });
    }
    if input.h() != geom.height() || input.w() != geom.width() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("input {}x{}", geom.height(), geom.width()),
            found: format!("{}x{}", input.h(), input.w()),
        });
    }
    if bank.in_c != input.c() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("{} input channels", bank.in_c),
            found: format!("{}", input.c()),
        });
    }

    let kernel = opts.kernel.unwrap_or_else(KernelChoice::auto);
    let cx = WinoCtx::new(input, bank, geom, transform, threads, kernel)?;

    // Resolve `Auto` on shape alone (never on thread count — the schedule
    // must be deterministic for a given layer so profiles reproduce).
    let schedule = match opts.schedule {
        WinoSchedule::Auto => {
            if cx.batch * cx.tiles_per_img.div_ceil(WINO_TILE_BLOCK) >= TILE_BLOCK_MIN_JOBS {
                WinoSchedule::TileBlock
            } else {
                WinoSchedule::TransformPoint
            }
        }
        pinned => pinned,
    };
    let out = match schedule {
        WinoSchedule::TileBlock => run_tile_block(&cx, relu, stats, prof)?,
        _ => run_transform_point(&cx, relu, stats, prof)?,
    };
    if let Some(s) = stats {
        add_phase_totals(&cx, s);
    }
    Ok(out)
}

/// The barrier schedule: three pool invocations (scatter / GEMM / gather)
/// with one GEMM job per transform point. GEMMs run against the bank's
/// pre-packed `A` panels, so no job re-packs filter coefficients; the
/// gather applies the folded ReLU when `relu` is set.
fn run_transform_point(
    cx: &WinoCtx<'_>,
    relu: bool,
    stats: Option<&ConvStats>,
    prof: &PoolProfiler,
) -> Result<Tensor<f32>, ConvError> {
    let (m, alpha, aa) = (cx.m, cx.alpha, cx.aa);
    let (batch, in_c, out_c) = (cx.batch, cx.in_c, cx.out_c);
    let (oh, ow) = (cx.oh, cx.ow);
    let (tiles_per_img, p_total) = (cx.tiles_per_img, cx.p_total);
    let threads = cx.threads;

    // Phase 1 — scatter: V_uv[c][p] = (Bᵀ·d·B)[u][v] for tile p, channel
    // c, with uv = u·α + v: α² GEMM B operands in panel order, back to
    // back. Each scatter job owns TILE_CHUNK tiles — whole panels — of
    // every (uv, KC block), one contiguous span each.
    let layout = cx.bank.v_layout(p_total);
    let mut v_buf = vec![0.0f32; aa * layout.len()];
    {
        let t_phase = stats.map(|_| Instant::now());
        let n_jobs = p_total.div_ceil(TILE_CHUNK);
        let mut spans = Vec::with_capacity(aa * layout.blocks() * n_jobs);
        for _uv in 0..aa {
            for pc in (0..in_c).step_by(layout.kc()) {
                let block_row = layout.at(pc, 0).1;
                for job in 0..n_jobs {
                    let tiles = TILE_CHUNK.min(p_total - job * TILE_CHUNK);
                    spans.push((job, tiles.div_ceil(NR) * block_row));
                }
            }
        }
        let groups = winofuse_runtime::split_spans(&mut v_buf, &spans, n_jobs);
        winofuse_runtime::run_jobs(
            threads,
            groups,
            &prof.scoped("wino.scatter"),
            || InputLanes::new(m, alpha, TILE_CHUNK),
            |lanes, job, mut frags| {
                let nt = TILE_CHUNK.min(p_total - job * TILE_CHUNK);
                // frags[uv·blocks + c/KC] holds this job's panels of V_uv's
                // KC block of channel c; the channel's row starts at
                // (c mod KC)·NR in each of them.
                let (kc, blocks) = (layout.kc(), layout.blocks());
                for c in 0..in_c {
                    let (frag, at, stride) = (c / kc, (c % kc) * NR, layout.at(c, 0).1);
                    let slots = frags.iter_mut().skip(frag).step_by(blocks);
                    let slots = slots.map(|f| &mut f[at..]);
                    cx.input_transform(c, job * TILE_CHUNK, nt, lanes, slots, stride);
                }
            },
        )?;
        if let (Some(s), Some(t0)) = (stats, t_phase) {
            s.add_phase_ns(ConvPhase::Scatter, t0.elapsed().as_nanos() as u64);
        }
    }

    // Phase 2 — α² GEMMs: M[uv][k][p] = Σ_c U_uv[k][c] · V_uv[c][p].
    // One job per transform point over the full output-channel range, so
    // each job runs exactly one prepacked GEMM, reading V_uv in place; the
    // [uv][k][p] layout makes each job's rows a contiguous write region.
    let mut m_buf = vec![0.0f32; aa * out_c * p_total];
    {
        let slices = winofuse_runtime::split_chunks(&mut m_buf, out_c * p_total);
        let v_ref = &v_buf;
        let t_phase = stats.map(|_| Instant::now());
        winofuse_runtime::run_jobs(
            threads,
            slices,
            &prof.scoped("wino.gemm"),
            || (),
            |(), uv, slice| {
                let v_uv = &v_ref[uv * layout.len()..(uv + 1) * layout.len()];
                let m_uv = CRows::Strided(slice, p_total);
                cx.bank
                    .gemm_plane(cx.kernel, uv, p_total, v_uv, m_uv, stats);
            },
        )?;
        if let (Some(s), Some(t0)) = (stats, t_phase) {
            s.add_phase_ns(ConvPhase::Gemm, t0.elapsed().as_nanos() as u64);
        }
    }
    drop(v_buf);

    // Phase 3 — gather: Y = Aᵀ·M_tile·A per (output channel, tile), with
    // edge clipping. Jobs are (batch, output-channel block) pairs writing
    // contiguous channel planes of the NCHW output.
    let mut out = Tensor::zeros(batch, out_c, oh, ow);
    {
        let k_blocks: Vec<(usize, usize)> = (0..out_c)
            .step_by(GATHER_K_BLOCK)
            .map(|k0| (k0, GATHER_K_BLOCK.min(out_c - k0)))
            .collect();
        let lengths: Vec<usize> = (0..batch)
            .flat_map(|_| k_blocks.iter().map(|&(_, kb)| kb * oh * ow))
            .collect();
        let slices = winofuse_runtime::split_lengths(out.as_mut_slice(), &lengths);
        let m_ref = &m_buf;
        let t_phase = stats.map(|_| Instant::now());
        winofuse_runtime::run_jobs(
            threads,
            slices,
            &prof.scoped("wino.gather"),
            || OutputLanes::new(m, alpha, TILE_CHUNK),
            |lanes, job, slice| {
                let bn = job / k_blocks.len();
                let (k0, kb) = k_blocks[job % k_blocks.len()];
                for k in k0..k0 + kb {
                    let plane = &mut slice[(k - k0) * oh * ow..(k - k0 + 1) * oh * ow];
                    // Runs of TILE_CHUNK tiles; M_uv rows are [k][p] in m_buf.
                    for t0 in (0..tiles_per_img).step_by(TILE_CHUNK) {
                        let nt = TILE_CHUNK.min(tiles_per_img - t0);
                        let p0 = bn * tiles_per_img + t0;
                        let rows = &m_ref[k * p_total + p0..];
                        let sink = PlaneRows { plane, m, ow };
                        cx.output_transform(rows, out_c * p_total, p0, nt, relu, lanes, sink);
                    }
                }
            },
        )?;
        if let (Some(s), Some(t0)) = (stats, t_phase) {
            s.add_phase_ns(ConvPhase::Gather, t0.elapsed().as_nanos() as u64);
        }
    }
    Ok(out)
}

/// Thread-local working set for one tile-block worker: every transform
/// buffer, sized once for the largest block so the fused
/// scatter → GEMM → gather loop never allocates.
struct TileBlockScratch {
    input: InputLanes,
    output: OutputLanes,
    /// Transformed tiles: the α² GEMM `B` operands `V_uv` of this block's
    /// tiles, in panel order, back to back.
    v: Vec<f32>,
    /// GEMM results, transform-major: `M[k][uv][t]`, so output channel
    /// `k`'s results for the block are one contiguous `α²·nt` run.
    mbuf: Vec<f32>,
}

/// The fused schedule: one pool invocation; each job owns a contiguous
/// block of [`WINO_TILE_BLOCK`] tiles within one image and runs
/// scatter → α² prepacked GEMMs → gather over its block with thread-local
/// buffers. No barriers, no shared `V`/`M` round-trips through memory.
/// Each GEMM stores its `M` rows transform-major, `α²·nt` apart, so the
/// gather reads each output channel's block in one contiguous sweep, and
/// it applies the folded ReLU when `relu` is set.
///
/// Output ownership: a block's tiles are contiguous in `p`, so within any
/// output row the block owns exactly one contiguous column span —
/// [`winofuse_runtime::split_spans`] hands each job its disjoint set of
/// row fragments, ordered (channel-major, row-minor) in NCHW memory order.
fn run_tile_block(
    cx: &WinoCtx<'_>,
    relu: bool,
    stats: Option<&ConvStats>,
    prof: &PoolProfiler,
) -> Result<Tensor<f32>, ConvError> {
    let (m, alpha, aa) = (cx.m, cx.alpha, cx.aa);
    let (batch, in_c, out_c) = (cx.batch, cx.in_c, cx.out_c);
    let (oh, ow) = (cx.oh, cx.ow);
    let (tiles_w, tiles_per_img) = (cx.tiles_w, cx.tiles_per_img);
    let threads = cx.threads;
    let tb = WINO_TILE_BLOCK;
    let blocks_per_img = tiles_per_img.div_ceil(tb);
    let n_jobs = batch * blocks_per_img;

    let mut out = Tensor::zeros(batch, out_c, oh, ow);
    // Carve the NCHW output into per-job fragment sets in memory order.
    // An output row's tiles cross at most ⌈tiles_w/tb⌉ + 1 blocks.
    let row_spans = tiles_w.div_ceil(tb) + 1;
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(batch * out_c * oh * row_spans);
    for bn in 0..batch {
        for _k in 0..out_c {
            for r in 0..oh {
                let p_row0 = (r / m) * tiles_w;
                let blk_first = p_row0 / tb;
                let blk_last = (p_row0 + tiles_w - 1) / tb;
                for blk in blk_first..=blk_last {
                    let tw_lo = (blk * tb).max(p_row0) - p_row0;
                    let tw_hi = ((blk + 1) * tb).min(p_row0 + tiles_w) - p_row0;
                    let cols = (tw_hi * m).min(ow) - tw_lo * m;
                    spans.push((bn * blocks_per_img + blk, cols));
                }
            }
        }
    }
    let groups = winofuse_runtime::split_spans(out.as_mut_slice(), &spans, n_jobs);

    winofuse_runtime::run_jobs(
        threads,
        groups,
        &prof.scoped("wino.tileblock"),
        || TileBlockScratch {
            input: InputLanes::new(m, alpha, tb),
            output: OutputLanes::new(m, alpha, tb),
            v: vec![0.0; aa * cx.bank.v_layout(tb).len()],
            mbuf: vec![0.0; aa * out_c * tb],
        },
        |st, job, mut frags| {
            let TileBlockScratch {
                input,
                output,
                v,
                mbuf,
            } = st;
            let bn = job / blocks_per_img;
            let blk = job % blocks_per_img;
            let p_lo = blk * tb;
            let p_hi = (p_lo + tb).min(tiles_per_img);
            let nt = p_hi - p_lo;
            let layout = cx.bank.v_layout(nt);
            let v = &mut v[..aa * layout.len()];
            let mbuf = &mut mbuf[..aa * out_c * nt];
            let t_job = stats.map(|_| Instant::now());

            // Scatter this block's tiles into the thread-local V panels.
            let p0 = bn * tiles_per_img + p_lo;
            for c in 0..in_c {
                let (at, stride) = layout.at(c, 0);
                let slots = v
                    .chunks_exact_mut(layout.len())
                    .map(|plane| &mut plane[at..]);
                cx.input_transform(c, p0, nt, input, slots, stride);
            }
            let t_scattered = stats.map(|_| Instant::now());

            // α² prepacked GEMMs over this block's tiles only, storing
            // M[k][uv][t]: row k of point uv's result lands α²·nt apart.
            for (uv, v_uv) in v.chunks_exact(layout.len()).enumerate() {
                let m_uv = CRows::Strided(&mut mbuf[uv * nt..], aa * nt);
                cx.bank.gemm_plane(cx.kernel, uv, nt, v_uv, m_uv, stats);
            }
            let t_gemmed = stats.map(|_| Instant::now());

            // Gather with edge clipping into this job's output fragments,
            // which arrive (k-major, row-minor): frags[k·rows + local_row].
            let (th0, tw0) = (p_lo / tiles_w, p_lo % tiles_w);
            let rows_covered: usize = (th0..=(p_hi - 1) / tiles_w)
                .map(|th| m.min(oh - th * m))
                .sum();
            for (m_k, frags) in mbuf
                .chunks_exact(aa * nt)
                .zip(frags.chunks_exact_mut(rows_covered))
            {
                let sink = BlockRows { frags, m, th0, tw0 };
                cx.output_transform(m_k, nt, p0, nt, relu, output, sink);
            }
            if let (Some(s), Some(t0), Some(ts), Some(tg)) = (stats, t_job, t_scattered, t_gemmed) {
                s.add_phase_ns(ConvPhase::Scatter, (ts - t0).as_nanos() as u64);
                s.add_phase_ns(ConvPhase::Gemm, (tg - ts).as_nanos() as u64);
                s.add_phase_ns(ConvPhase::Gather, tg.elapsed().as_nanos() as u64);
            }
        },
    )?;
    Ok(out)
}

/// Winograd convolution on the 16-bit fixed-point datapath, modeling the
/// hardware's quantization points: transformed filters are stored in
/// Q8.8, the input transform's output is requantized to Q8.8 before the
/// element-wise multipliers, products accumulate in a wide register per
/// tile, and the output transform requantizes once at the end.
///
/// The transform domain is where Winograd loses precision: `Bᵀ·d·B`
/// amplifies the input's dynamic range by the transform constants, which
/// grow with the tile size `m` — the numeric argument for the paper's
/// moderate `F(4×4, 3×3)` choice (see the precision ablation bench).
///
/// # Errors
///
/// Same conditions as [`conv2d_with`].
pub fn conv2d_fix16_with(
    input: &Tensor<Fix16>,
    kernels: &Tensor<Fix16>,
    geom: ConvGeometry,
    transform: &WinogradTransform,
) -> Result<Tensor<Fix16>, ConvError> {
    check_args(input, kernels, geom, transform)?;
    // Rebalance the constant magnitudes between the input and filter
    // transforms (free power-of-two shifts in hardware) so neither side
    // underflows Q8.8.
    let transform = transform.rebalanced();
    let q88 = |v: f32| Fix16::from_f32(v).to_f32();
    // Offline: transformed filters quantized to Q8.8 (what the BRAM
    // holds).
    let mut filters =
        TransformedFilters::build(kernels.n(), kernels.c(), &transform, |n, c, u, v| {
            kernels.get(n, c, u, v).to_f32()
        });
    for bank in &mut filters.banks {
        *bank = bank.map(q88);
    }
    let mut out = Tensor::zeros(
        input.n(),
        kernels.n(),
        geom.output_height(),
        geom.output_width(),
    );
    // The input transform's output is requantized to the multiplier
    // width (the precision-critical step); products accumulate wide
    // across channels (DSP cascade) and round once at writeback.
    naive_tiles(
        input.n(),
        geom,
        &transform,
        &filters,
        |bn, c, h, w| input.get_padded(bn, c, h, w).to_f32(),
        q88,
        |bn, n, h, w, y| out.set(bn, n, h, w, Fix16::from_f32(y)),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cook_toom::{f23, f43};
    use crate::direct;
    use crate::tensor::random_tensor;

    /// `out[n×p] = a[n×k] · b[k×p]` on flat row-major buffers, one scalar
    /// at a time: the per-tile transform product the lane transforms
    /// replace, kept as their oracle.
    fn matmul_flat(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, p: usize) {
        for i in 0..n {
            for j in 0..p {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += a[i * k + l] * b[l * p + j];
                }
                out[i * p + j] = acc;
            }
        }
    }

    /// Zeroes every entry below 0.25 in magnitude, keeping its sign: about
    /// a quarter of `[-1, 1)` data becomes `+0.0` or `-0.0`.
    fn with_signed_zeros(data: &mut [f32]) {
        for v in data.iter_mut().filter(|v| v.abs() < 0.25) {
            *v = 0.0f32.copysign(*v);
        }
    }

    #[test]
    fn compiled_in_patterns_match_the_generated_transforms() {
        let pattern = |mat: &Mat<f32>| -> u64 {
            let mut bits = 0u64;
            for i in 0..mat.rows() {
                for l in 0..mat.cols() {
                    if mat.get(i, l) != 0.0 {
                        bits |= 1 << (i * 8 + l);
                    }
                }
            }
            bits
        };
        for (shape, &(m, alpha, b_t, a_t)) in SHAPES.iter().enumerate() {
            let t = WinogradTransform::generate(m, alpha + 1 - m).unwrap();
            assert_eq!(t.alpha(), alpha);
            assert_eq!(b_t, pattern(&t.b_t_f32()), "F({m},{}) Bᵀ", t.r());
            assert_eq!(a_t, pattern(&t.a_t_f32()), "F({m},{}) Aᵀ", t.r());
            assert_eq!(shape_of(&t).map(|(s, ..)| s), Ok(shape));
        }
        // F(3,3) has a filter bank but no compiled-in activation transforms.
        let t = WinogradTransform::generate(3, 3).unwrap();
        let geom = ConvGeometry::new(9, 9, 3, 1, 1).unwrap();
        let bank = BatchedFilters::new(&random_tensor(2, 2, 3, 3, 1), &t).unwrap();
        let x = random_tensor(1, 2, 9, 9, 2);
        assert!(matches!(
            batched(&x, &bank, geom, &t, 1, None),
            Err(ConvError::UnsupportedTransform(_))
        ));
    }

    #[test]
    fn lane_transforms_match_per_tile_products_bitwise() {
        let relu = |v: f32| if v < 0.0 { 0.0 } else { v };
        for (m, r) in [(2usize, 3usize), (4, 3), (6, 3), (4, 5)] {
            let t = WinogradTransform::generate(m, r).unwrap();
            let (alpha, pad) = (t.alpha(), r / 2);
            let aa = alpha * alpha;
            // Ragged grid of 5 tile rows over two images: edge tiles cross
            // each padded edge, the middle ones lie inside.
            let (h, w) = (4 * m + 1, 3 * m + 3);
            let geom = ConvGeometry::rect(h, w, r, 1, pad).unwrap();
            let (oh, ow) = (geom.output_height(), geom.output_width());
            let mut x = random_tensor(2, 2, h, w, (10 * m + r) as u64);
            with_signed_zeros(x.as_mut_slice());
            // Image 1, channel 1 is all -0.0.
            x.as_mut_slice()[3 * h * w..].fill(-0.0);
            let bank = BatchedFilters::new(&random_tensor(1, 2, r, r, 1), &t).unwrap();
            let (b_t, a_t) = (t.b_t_f32(), t.a_t_f32());
            let (b, a) = (b_t.transpose(), a_t.transpose());
            let (mut d, mut t1, mut t2) = (vec![0.0; aa], vec![0.0; aa], vec![0.0; aa]);
            let (mut g1, mut y1) = (vec![0.0; m * alpha], vec![0.0; m * m]);
            for kernel in KernelChoice::all_supported() {
                let cx = WinoCtx::new(&x, &bank, geom, &t, 1, kernel).unwrap();
                let (tpi, tiles_w) = (cx.tiles_per_img, cx.tiles_w);
                let origin = |p: usize| {
                    let tile = p % tpi;
                    let h0 = ((tile / tiles_w) * m) as isize - cx.pad;
                    let w0 = ((tile % tiles_w) * m) as isize - cx.pad;
                    (p / tpi, h0, w0)
                };
                let (hi, wi, al) = (h as isize, w as isize, alpha as isize);
                let crosses = |f: &dyn Fn(isize, isize) -> bool| {
                    (0..cx.p_total)
                        .filter(|&p| f(origin(p).1, origin(p).2))
                        .count()
                };
                assert!(crosses(&|h0, _| h0 < 0) > 0 && crosses(&|h0, _| h0 + al > hi) > 0);
                assert!(crosses(&|_, w0| w0 < 0) > 0 && crosses(&|_, w0| w0 + al > wi) > 0);
                assert!(
                    crosses(&|h0, w0| h0 >= 0 && w0 >= 0 && h0 + al <= hi && w0 + al <= wi) > 0
                );
                let name = kernel.name();
                for lanes in [1usize, 7, 16, 32] {
                    // Input: runs of `lanes` tiles across the batch, the
                    // last one ending at its end, into V in panel order as
                    // each schedule lays it out (NaN where nothing was
                    // written).
                    let runs: Vec<usize> = (0..cx.p_total)
                        .step_by(lanes)
                        .map(|p0| p0.min(cx.p_total - lanes))
                        .collect();
                    if lanes > 1 {
                        let images = |p0: usize| (p0 + lanes - 1) / tpi - p0 / tpi + 1;
                        let splits_a_row = |p0: usize| cx.segments(p0, lanes).count() > images(p0);
                        assert!(runs.iter().any(|&p0| images(p0) == 2));
                        assert!(runs.iter().any(|&p0| splits_a_row(p0)));
                    }
                    let mut s = InputLanes::new(m, alpha, lanes);
                    let layout = bank.v_layout(lanes);
                    for &p0 in &runs {
                        // The tile-block's planes, then the transform-point
                        // scatter's fragments (one KC block here).
                        let mut v_block = vec![f32::NAN; aa * layout.len()];
                        let mut v_chunk = vec![f32::NAN; aa * layout.len()];
                        for c in 0..2 {
                            let (at, stride) = layout.at(c, 0);
                            let slots = v_block.chunks_exact_mut(layout.len());
                            let slots = slots.map(|plane| &mut plane[at..]);
                            cx.input_transform(c, p0, lanes, &mut s, slots, stride);
                            let mut frags: Vec<&mut [f32]> =
                                v_chunk.chunks_exact_mut(layout.len()).collect();
                            let (frag, blocks) = (c / layout.kc(), layout.blocks());
                            let slots = frags.iter_mut().skip(frag).step_by(blocks);
                            let slots = slots.map(|f| &mut f[at..]);
                            cx.input_transform(c, p0, lanes, &mut s, slots, stride);
                        }
                        for (form, v) in [("tile-block", &v_block), ("transform-point", &v_chunk)] {
                            for c in 0..2 {
                                let at =
                                    |uv: usize, l: usize| uv * layout.len() + layout.at(c, l).0;
                                for l in 0..lanes {
                                    let (bn, h0, w0) = origin(p0 + l);
                                    for (e, slot) in d.iter_mut().enumerate() {
                                        let (u, vv) = ((e / alpha) as isize, (e % alpha) as isize);
                                        *slot = x.get_padded(bn, c, h0 + u, w0 + vv);
                                    }
                                    matmul_flat(b_t.as_slice(), &d, &mut t1, alpha, alpha, alpha);
                                    matmul_flat(&t1, b.as_slice(), &mut t2, alpha, alpha, alpha);
                                    for (uv, want) in t2.iter().enumerate() {
                                        assert_eq!(
                                            v[at(uv, l)].to_bits(),
                                            want.to_bits(),
                                            "F({m},{r}) {name} {form} input, {lanes} lanes from \
                                             tile {p0}, lane {l}, c {c}, point {uv}"
                                        );
                                    }
                                }
                                for uv in 0..aa {
                                    for l in lanes..lanes.div_ceil(NR) * NR {
                                        assert_eq!(
                                            v[at(uv, l)].to_bits(),
                                            0,
                                            "{name} {form} ragged lane {l}, point {uv}"
                                        );
                                    }
                                }
                            }
                        }
                    }

                    // Output: runs within one image, as both gathers make
                    // them, from rows strided wider than the run, stored
                    // through each schedule's sink (NaN where nothing was
                    // stored).
                    let stride = lanes + 3;
                    let mut rows = random_tensor(1, 1, aa, stride, (lanes * 100 + m) as u64);
                    with_signed_zeros(rows.as_mut_slice());
                    rows.as_mut_slice()[..stride].fill(-0.0);
                    let rows = rows.as_slice();
                    let mut so = OutputLanes::new(m, alpha, lanes);
                    for p0 in (0..cx.p_total).step_by(lanes) {
                        let nt = lanes.min(tpi - p0 % tpi);
                        // Every output pixel of the run's tiles: (row,
                        // column, Y without ReLU).
                        let mut want = Vec::new();
                        for l in 0..nt {
                            let m_tile: Vec<f32> =
                                (0..aa).map(|uv| rows[uv * stride + l]).collect();
                            matmul_flat(a_t.as_slice(), &m_tile, &mut g1, m, alpha, alpha);
                            matmul_flat(&g1, a.as_slice(), &mut y1, m, alpha, m);
                            let tile = (p0 + l) % tpi;
                            let (th, tw) = (tile / tiles_w, tile % tiles_w);
                            for (e, &val) in y1.iter().enumerate() {
                                let (i, j) = (th * m + e / m, tw * m + e % m);
                                if i < oh && j < ow {
                                    want.push((i, j, val));
                                }
                            }
                        }
                        for fold in [false, true] {
                            let f = |v: f32| if fold { relu(v) } else { v };
                            let what = format!(
                                "F({m},{r}) {name} output, {lanes} lanes from tile {p0}, relu {fold}"
                            );
                            // Transform-point: the channel's whole plane.
                            let mut plane = vec![f32::NAN; oh * ow];
                            let sink = PlaneRows {
                                plane: &mut plane,
                                m,
                                ow,
                            };
                            cx.output_transform(rows, stride, p0, nt, fold, &mut so, sink);
                            for &(i, j, val) in &want {
                                assert_eq!(plane[i * ow + j].to_bits(), f(val).to_bits(), "{what}");
                            }
                            let stored = plane.iter().filter(|v| !v.is_nan()).count();
                            assert_eq!(stored, want.len(), "{what}: stores outside the run");
                            // Tile-block: one fragment per output row the
                            // block covers, from the block's first column in
                            // that row.
                            let (th0, tw0) = ((p0 % tpi) / tiles_w, (p0 % tpi) % tiles_w);
                            let mut frags = Vec::new();
                            for seg in cx.segments(p0, nt) {
                                let cols = ((seg.tw + seg.n) * m).min(ow) - seg.tw * m;
                                for u in 0..m.min(oh - seg.th * m) {
                                    frags.push((seg.th * m + u, seg.tw * m, vec![f32::NAN; cols]));
                                }
                            }
                            let mut refs: Vec<&mut [f32]> =
                                frags.iter_mut().map(|f| &mut f.2[..]).collect();
                            let sink = BlockRows {
                                frags: &mut refs,
                                m,
                                th0,
                                tw0,
                            };
                            cx.output_transform(rows, stride, p0, nt, fold, &mut so, sink);
                            let mut checked = 0;
                            for &(i, j, val) in &want {
                                let (_, col0, frag) = frags.iter().find(|f| f.0 == i).unwrap();
                                assert_eq!(frag[j - col0].to_bits(), f(val).to_bits(), "{what}");
                                checked += 1;
                            }
                            let cells: usize = frags.iter().map(|f| f.2.len()).sum();
                            assert_eq!(checked, cells, "{what}: fragments past the run");
                        }
                    }
                }
            }
        }
    }

    /// [`conv2d_batched_ext`] with default options and no tracing.
    fn batched(
        x: &Tensor<f32>,
        filters: &BatchedFilters,
        geom: ConvGeometry,
        t: &WinogradTransform,
        threads: usize,
        stats: Option<&ConvStats>,
    ) -> Result<Tensor<f32>, ConvError> {
        let prof = PoolProfiler::disabled();
        conv2d_batched_ext(
            x,
            filters,
            geom,
            t,
            false,
            threads,
            stats,
            &prof,
            BatchedOptions::default(),
        )
    }

    fn assert_matches_direct(transform: &WinogradTransform, h: usize, w: usize, pad: usize) {
        let r = transform.r();
        let geom = ConvGeometry::rect(h, w, r, 1, pad).unwrap();
        let x = random_tensor(1, 3, h, w, (h * 31 + w) as u64);
        let k = random_tensor(2, 3, r, r, (h + w) as u64);
        let a = direct::conv2d(&x, &k, geom).unwrap();
        let b = conv2d_with(&x, &k, geom, transform).unwrap();
        assert!(
            a.approx_eq(&b, 1e-3),
            "F({},{}) {}x{} pad {}: max diff {}",
            transform.m(),
            r,
            h,
            w,
            pad,
            a.max_abs_diff(&b).unwrap()
        );
    }

    #[test]
    fn f43_matches_direct_exact_tiles() {
        // 8x8 output = exactly 2x2 tiles of 4x4.
        assert_matches_direct(&f43(), 10, 10, 0);
    }

    #[test]
    fn f43_matches_direct_with_padding() {
        assert_matches_direct(&f43(), 12, 12, 1);
    }

    #[test]
    fn f43_matches_direct_partial_tiles() {
        // 7x9 output: ragged tile grid in both dimensions.
        assert_matches_direct(&f43(), 9, 11, 0);
    }

    #[test]
    fn f23_matches_direct() {
        assert_matches_direct(&f23(), 8, 8, 1);
    }

    #[test]
    fn f63_matches_direct() {
        let t = WinogradTransform::generate(6, 3).unwrap();
        assert_matches_direct(&t, 13, 13, 1);
    }

    #[test]
    fn f45_matches_direct() {
        // 5x5 kernels (AlexNet conv2) via F(4,5).
        let t = WinogradTransform::generate(4, 5).unwrap();
        assert_matches_direct(&t, 12, 12, 2);
    }

    #[test]
    fn rejects_stride_two() {
        let geom = ConvGeometry::new(8, 8, 3, 2, 0).unwrap();
        let x = random_tensor(1, 1, 8, 8, 1);
        let k = random_tensor(1, 1, 3, 3, 2);
        assert_eq!(
            conv2d_with(&x, &k, geom, &f43()),
            Err(ConvError::StrideUnsupported { stride: 2 })
        );
    }

    #[test]
    fn rejects_kernel_transform_mismatch() {
        let geom = ConvGeometry::new(8, 8, 5, 1, 2).unwrap();
        let x = random_tensor(1, 1, 8, 8, 1);
        let k = random_tensor(1, 1, 5, 5, 2);
        assert!(conv2d_with(&x, &k, geom, &f43()).is_err());
    }

    #[test]
    fn both_references_reject_kernels_of_the_wrong_size() {
        // A 3×3 geometry with 1×1 or 5×5 kernel tensors: the geometry
        // matches the transform, the kernels do not.
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let x = random_tensor(1, 2, 8, 8, 1);
        for side in [1usize, 5] {
            let k = random_tensor(2, 2, side, side, 2);
            let f32_err = conv2d_with(&x, &k, geom, &f43()).unwrap_err();
            assert!(
                matches!(f32_err, ConvError::ShapeMismatch { .. }),
                "{side}x{side} f32: {f32_err:?}"
            );
            let fix_err = conv2d_fix16_with(&x.cast(), &k.cast(), geom, &f43()).unwrap_err();
            assert!(
                matches!(fix_err, ConvError::ShapeMismatch { .. }),
                "{side}x{side} Q8.8: {fix_err:?}"
            );
        }
    }

    #[test]
    fn fixed_point_winograd_tracks_direct_fixed() {
        use crate::direct;
        use crate::fixed::Fix16;
        let geom = ConvGeometry::new(12, 12, 3, 1, 1).unwrap();
        let xf = random_tensor(1, 3, 12, 12, 21);
        let kf = random_tensor(2, 3, 3, 3, 22);
        let xq: crate::tensor::Tensor<Fix16> = xf.cast();
        let kq: crate::tensor::Tensor<Fix16> = kf.cast();
        let gold = direct::conv2d_fix16(&xq, &kq, geom).unwrap();
        let wino = conv2d_fix16_with(&xq, &kq, geom, &f43()).unwrap();
        let gf: crate::tensor::Tensor<f32> = gold.cast();
        let wf: crate::tensor::Tensor<f32> = wino.cast();
        // Transform-domain quantization adds error beyond direct fixed
        // point: the output transform Aᵀ·M·A (entries up to ±8 for
        // F(4,3)) amplifies the Q8.8 rounding of V and U by roughly
        // (Σ|Aᵀ|)² ≈ 200×, giving a few tenths on [-1,1) data — the known
        // cost of running Winograd at the paper's activation precision
        // (real designs widen the transform-domain format or block-scale).
        let diff = gf.max_abs_diff(&wf).unwrap();
        assert!(diff < 0.6, "fixed winograd error {diff}");
        // The rebalanced transforms keep it far from the unusable ~7.6
        // that naive (un-rebalanced) Cook-Toom scaling produces.
        assert!(diff > 0.0);
    }

    #[test]
    fn fixed_point_error_grows_with_tile_size() {
        use crate::direct;
        use crate::fixed::Fix16;
        let geom = ConvGeometry::new(24, 24, 3, 1, 1).unwrap();
        let xf = random_tensor(1, 4, 24, 24, 31);
        let kf = random_tensor(4, 4, 3, 3, 32);
        let xq: crate::tensor::Tensor<Fix16> = xf.cast();
        let kq: crate::tensor::Tensor<Fix16> = kf.cast();
        let gold: crate::tensor::Tensor<f32> = direct::conv2d_fix16(&xq, &kq, geom).unwrap().cast();
        let err_of = |m: usize| -> f32 {
            let t = WinogradTransform::generate(m, 3).unwrap();
            let y: crate::tensor::Tensor<f32> =
                conv2d_fix16_with(&xq, &kq, geom, &t).unwrap().cast();
            gold.max_abs_diff(&y).unwrap()
        };
        let (e2, e6) = (err_of(2), err_of(6));
        assert!(
            e6 > e2,
            "bigger tiles amplify transform-domain error: F(2,3)={e2}, F(6,3)={e6}"
        );
    }

    /// The bank as the three passes the one-pass build replaced produce
    /// it: [`TransformedFilters`], then flat planes in `k·in_c + c` order,
    /// each pruned to its `keep` largest magnitudes by a full sort with
    /// ties to the lower flat index (the set `prune_plane` selects), then
    /// [`PackedA::pack`].
    fn three_pass_bank(kernels: &Tensor<f32>, density_pm: u16) -> Vec<PackedA> {
        let t = f43();
        let banks = TransformedFilters::new(kernels, &t).unwrap();
        let (out_c, in_c) = (kernels.n(), kernels.c());
        let keep = sparse_keep_count((out_c * in_c) as u64, density_pm) as usize;
        (0..t.alpha() * t.alpha())
            .map(|uv| {
                let mut plane: Vec<f32> = (0..out_c * in_c)
                    .map(|f| banks.bank(f / in_c, f % in_c).as_slice()[uv])
                    .collect();
                let mut order: Vec<usize> = (0..plane.len()).collect();
                order.sort_by(|&a, &b| plane[b].abs().total_cmp(&plane[a].abs()).then(a.cmp(&b)));
                for &f in &order[keep.min(plane.len())..] {
                    plane[f] = 0.0;
                }
                PackedA::pack(&plane, out_c, in_c, GemmBlocking::default())
            })
            .collect()
    }

    #[test]
    fn one_pass_bank_matches_the_three_pass_build_panel_for_panel() {
        // Shapes (out_c × in_c) cross the MR, MC and KC edges and leave
        // ragged last panels. Values: random; small integers, whose planes
        // tie on magnitude so the prune tie-break decides; ±0, subnormals
        // and magnitudes whose sums overflow inside the transform; NaN and
        // ±inf. Panels must match under `to_bits`, except that the sign
        // and payload of a NaN are unspecified.
        const EXTREMES: [f32; 8] = [0.0, -0.0, 1e-40, -1e-45, 1e38, -1e38, 3e38, -3e38];
        const NON_FINITE: [f32; 3] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let shapes = [
            (1, 1),
            (3, 2),
            (3, 4),
            (5, 7),
            (64, 3),
            (65, 257),
            (384, 256),
        ];
        for (case, &(out_c, in_c)) in shapes.iter().enumerate() {
            for kind in 0..4 {
                let mut k = random_tensor(out_c, in_c, 3, 3, 31 + case as u64);
                let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (case * 4 + kind) as u64;
                for v in k.as_mut_slice() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let pick = (state >> 32) as usize;
                    *v = match kind {
                        1 => (pick % 3) as f32 - 1.0,
                        2 if pick.is_multiple_of(2) => EXTREMES[pick / 2 % EXTREMES.len()],
                        3 if pick.is_multiple_of(3) => NON_FINITE[pick / 3 % NON_FINITE.len()],
                        _ => *v,
                    };
                }
                for density in [1u16, 250, 1000] {
                    let bank = BatchedFilters::pruned(&k, &f43(), density).unwrap();
                    for (uv, want) in three_pass_bank(&k, density).iter().enumerate() {
                        let (got, want) = (bank.packed_plane(uv).data(), want.data());
                        assert_eq!(got.len(), want.len());
                        for (at, (g, w)) in got.iter().zip(want).enumerate() {
                            assert!(
                                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                                "{out_c}x{in_c}, values {kind}, density {density}, \
                                 point {uv}, panel offset {at}: {g:?} vs {w:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn filter_bank_shape_checked() {
        let t = f43();
        let k = random_tensor(1, 1, 5, 5, 1);
        assert!(TransformedFilters::new(&k, &t).is_err());
    }

    #[test]
    fn batched_matches_naive_winograd() {
        // Ragged tile grid, padding, channel counts that straddle the GEMM
        // register tile.
        for &(h, w, pad, in_c, out_c) in &[
            (9usize, 11usize, 0usize, 3usize, 2usize),
            (12, 12, 1, 5, 7),
            (6, 6, 2, 1, 1),
            (13, 7, 1, 4, 9),
        ] {
            let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
            let x = random_tensor(2, in_c, h, w, (h * 131 + w) as u64);
            let k = random_tensor(out_c, in_c, 3, 3, (h + w + pad) as u64);
            let naive = conv2d_with(&x, &k, geom, &f43()).unwrap();
            let filters = BatchedFilters::new(&k, &f43()).unwrap();
            let fast = batched(&x, &filters, geom, &f43(), 1, None).unwrap();
            let diff = naive.max_abs_diff(&fast).unwrap();
            assert!(
                diff < 1e-4,
                "{h}x{w} pad {pad} {in_c}->{out_c}: diff {diff}"
            );
        }
    }

    #[test]
    fn batched_is_thread_count_invariant() {
        let geom = ConvGeometry::rect(17, 13, 3, 1, 1).unwrap();
        let x = random_tensor(1, 6, 17, 13, 91);
        let k = random_tensor(10, 6, 3, 3, 92);
        let t = f43();
        let filters = BatchedFilters::new(&k, &t).unwrap();
        let base = batched(&x, &filters, geom, &t, 1, None).unwrap();
        for threads in [2usize, 4, 8] {
            let y = batched(&x, &filters, geom, &t, threads, None).unwrap();
            assert_eq!(y, base, "{threads}-thread batched winograd differs");
        }
    }

    #[test]
    fn batched_counts_tiles_and_gemms() {
        let geom = ConvGeometry::rect(12, 12, 3, 1, 1).unwrap();
        let x = random_tensor(1, 2, 12, 12, 5);
        let k = random_tensor(3, 2, 3, 3, 6);
        let t = f43();
        let filters = BatchedFilters::new(&k, &t).unwrap();
        let stats = ConvStats::new();
        batched(&x, &filters, geom, &t, 1, Some(&stats)).unwrap();
        let (gemm_calls, tiles, bytes) = stats.snapshot();
        // 12x12 output over 4x4 tiles = 3x3 tiles; 36 transform points with
        // out_c=3 fit one GEMM job each.
        assert_eq!(tiles, 9);
        assert_eq!(gemm_calls, 36);
        assert!(bytes > 0);
    }

    /// The Winograd layer on a row-major `V`, the oracle of both
    /// schedules: per-tile `Bᵀ·d·B` ([`matmul_flat`]) stored as row-major
    /// `V_uv` (`in_c × tiles`), multiplied through `gemm_f32_prepacked`'s
    /// `BOperand` entry point, then per-tile `Aᵀ·M·A` clipped into the
    /// output.
    fn row_major_v_winograd(
        x: &Tensor<f32>,
        bank: &BatchedFilters,
        geom: ConvGeometry,
        t: &WinogradTransform,
        kernel: KernelChoice,
    ) -> Tensor<f32> {
        let (m, alpha) = (t.m(), t.alpha());
        let aa = alpha * alpha;
        let (batch, in_c, _, _) = x.shape();
        let (oh, ow, out_c) = (geom.output_height(), geom.output_width(), bank.out_c());
        let (tiles_w, pad) = (ow.div_ceil(m), geom.pad() as isize);
        let tiles_per_img = oh.div_ceil(m) * tiles_w;
        let p_total = batch * tiles_per_img;
        let (b_t, a_t) = (t.b_t_f32(), t.a_t_f32());
        let (b, a) = (b_t.transpose(), a_t.transpose());
        let mut v = vec![0.0f32; aa * in_c * p_total];
        let (mut d, mut t1, mut t2) = (vec![0.0; aa], vec![0.0; aa], vec![0.0; aa]);
        for p in 0..p_total {
            let (bn, tile) = (p / tiles_per_img, p % tiles_per_img);
            let h0 = ((tile / tiles_w) * m) as isize - pad;
            let w0 = ((tile % tiles_w) * m) as isize - pad;
            for c in 0..in_c {
                for (e, slot) in d.iter_mut().enumerate() {
                    let (u, vv) = ((e / alpha) as isize, (e % alpha) as isize);
                    *slot = x.get_padded(bn, c, h0 + u, w0 + vv);
                }
                matmul_flat(b_t.as_slice(), &d, &mut t1, alpha, alpha, alpha);
                matmul_flat(&t1, b.as_slice(), &mut t2, alpha, alpha, alpha);
                for (uv, &val) in t2.iter().enumerate() {
                    v[(uv * in_c + c) * p_total + p] = val;
                }
            }
        }
        let mut mm = vec![0.0f32; aa * out_c * p_total];
        let mut scratch = crate::gemm::GemmScratch::with_kernel(kernel);
        for uv in 0..aa {
            let v_uv = crate::gemm::BOperand::row_major(
                &v[uv * in_c * p_total..][..in_c * p_total],
                p_total,
            );
            let c = &mut mm[uv * out_c * p_total..][..out_c * p_total];
            let plane = bank.packed_plane(uv);
            crate::gemm::gemm_f32_prepacked(&mut scratch, plane, p_total, v_uv, c, false);
        }
        let mut out = Tensor::zeros(batch, out_c, oh, ow);
        let (mut g1, mut y1) = (vec![0.0; m * alpha], vec![0.0; m * m]);
        for k in 0..out_c {
            for p in 0..p_total {
                let (bn, tile) = (p / tiles_per_img, p % tiles_per_img);
                let (th, tw) = (tile / tiles_w, tile % tiles_w);
                let m_tile: Vec<f32> = (0..aa)
                    .map(|uv| mm[(uv * out_c + k) * p_total + p])
                    .collect();
                matmul_flat(a_t.as_slice(), &m_tile, &mut g1, m, alpha, alpha);
                matmul_flat(&g1, a.as_slice(), &mut y1, m, alpha, m);
                for (e, &val) in y1.iter().enumerate() {
                    let (i, j) = (th * m + e / m, tw * m + e % m);
                    if i < oh && j < ow {
                        out.set(bn, k, i, j, val);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn panel_order_v_matches_a_row_major_v_bitwise() {
        // (h, w, pad, in_c, out_c, batch): 18 tiles with in_c > KC (one
        // ragged panel per GEMM and a second, shallow KC block); 49 tiles
        // a batch — a transform-point scatter job of 17 and tile blocks of
        // 32 and 17; and padding wider than the image, where a scatter job
        // starts on a tile that lies wholly in the right padding.
        let t = f43();
        let bits = |t: &Tensor<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &(h, w, pad, in_c, out_c, batch) in &[
            (9usize, 9usize, 1usize, 300usize, 5usize, 2usize),
            (27, 25, 1, 6, 7, 1),
            (30, 2, 9, 3, 2, 2),
        ] {
            let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
            let mut x = random_tensor(batch, in_c, h, w, (h * 17 + in_c) as u64);
            with_signed_zeros(x.as_mut_slice());
            let bank = BatchedFilters::new(&random_tensor(out_c, in_c, 3, 3, 3), &t).unwrap();
            for kernel in KernelChoice::all_supported() {
                let want = bits(&row_major_v_winograd(&x, &bank, geom, &t, kernel));
                for schedule in [WinoSchedule::TileBlock, WinoSchedule::TransformPoint] {
                    let opts = BatchedOptions {
                        schedule,
                        kernel: Some(kernel),
                    };
                    for threads in [1usize, 2, 4, 8] {
                        let prof = PoolProfiler::disabled();
                        let y = conv2d_batched_ext(
                            &x, &bank, geom, &t, false, threads, None, &prof, opts,
                        )
                        .unwrap();
                        assert!(
                            bits(&y) == want,
                            "{h}x{w} c{in_c}: {schedule:?} {} @{threads}t differs",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tile_block_matches_transform_point_bitwise() {
        // Big enough for several tile blocks per image, ragged in both
        // dimensions so blocks straddle partial tiles and row boundaries.
        let geom = ConvGeometry::rect(37, 29, 3, 1, 1).unwrap();
        let x = random_tensor(2, 5, 37, 29, 71);
        let k = random_tensor(9, 5, 3, 3, 72);
        let t = f43();
        let filters = BatchedFilters::new(&k, &t).unwrap();
        let tp = BatchedOptions {
            schedule: WinoSchedule::TransformPoint,
            kernel: None,
        };
        let tb = BatchedOptions {
            schedule: WinoSchedule::TileBlock,
            kernel: None,
        };
        let prof = PoolProfiler::disabled();
        let base = conv2d_batched_ext(&x, &filters, geom, &t, false, 1, None, &prof, tp).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let y = conv2d_batched_ext(&x, &filters, geom, &t, false, threads, None, &prof, tb)
                .unwrap();
            assert_eq!(y, base, "tile-block @ {threads} threads differs");
        }
    }

    #[test]
    fn tile_block_handles_tiny_blocks() {
        // Fewer tiles than one block: a single job owning a partial block.
        let geom = ConvGeometry::rect(6, 6, 3, 1, 1).unwrap();
        let x = random_tensor(1, 2, 6, 6, 81);
        let k = random_tensor(3, 2, 3, 3, 82);
        let t = f43();
        let filters = BatchedFilters::new(&k, &t).unwrap();
        let tb = BatchedOptions {
            schedule: WinoSchedule::TileBlock,
            kernel: None,
        };
        let prof = PoolProfiler::disabled();
        let y = conv2d_batched_ext(&x, &filters, geom, &t, false, 2, None, &prof, tb).unwrap();
        let reference = direct::conv2d(&x, &k, geom).unwrap();
        assert!(reference.approx_eq(&y, 1e-3));
    }

    #[test]
    fn auto_picks_tile_block_when_tiles_abound() {
        // 24x24 → 6x6 tiles/image; two images → four 32-tile-capped blocks,
        // each running α² = 36 GEMMs.
        let geom = ConvGeometry::rect(24, 24, 3, 1, 1).unwrap();
        let x = random_tensor(2, 3, 24, 24, 7);
        let k = random_tensor(4, 3, 3, 3, 8);
        let t = f43();
        let filters = BatchedFilters::new(&k, &t).unwrap();
        let stats = ConvStats::new();
        batched(&x, &filters, geom, &t, 1, Some(&stats)).unwrap();
        let (gemm_calls, tiles, _) = stats.snapshot();
        assert_eq!(tiles, 72);
        assert_eq!(gemm_calls, 144);
    }

    #[test]
    fn phase_accounting_is_schedule_invariant() {
        let geom = ConvGeometry::rect(24, 20, 3, 1, 1).unwrap();
        let x = random_tensor(1, 4, 24, 20, 17);
        let k = random_tensor(6, 4, 3, 3, 18);
        let t = f43();
        let filters = BatchedFilters::new(&k, &t).unwrap();
        let prof = PoolProfiler::disabled();
        let snap = |schedule: WinoSchedule| {
            let stats = ConvStats::new();
            let opts = BatchedOptions {
                schedule,
                kernel: None,
            };
            conv2d_batched_ext(&x, &filters, geom, &t, false, 2, Some(&stats), &prof, opts)
                .unwrap();
            stats.profile()
        };
        let a = snap(WinoSchedule::TransformPoint);
        let b = snap(WinoSchedule::TileBlock);
        assert_eq!(a.flops_scatter, b.flops_scatter);
        assert_eq!(a.flops_gemm, b.flops_gemm);
        assert_eq!(a.flops_gather, b.flops_gather);
        assert_eq!(a.bytes_scatter, b.bytes_scatter);
        assert_eq!(a.bytes_gemm, b.bytes_gemm);
        assert_eq!(a.bytes_gather, b.bytes_gather);
        assert_eq!(a.tiles, b.tiles);
    }

    #[test]
    fn batched_rejects_mismatched_transform() {
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let x = random_tensor(1, 2, 8, 8, 1);
        let k = random_tensor(2, 2, 3, 3, 2);
        let filters = BatchedFilters::new(&k, &f43()).unwrap();
        assert!(batched(&x, &filters, geom, &f23(), 1, None).is_err());
        let strided = ConvGeometry::new(8, 8, 3, 2, 0).unwrap();
        assert_eq!(
            batched(&x, &filters, strided, &f43(), 1, None),
            Err(ConvError::StrideUnsupported { stride: 2 })
        );
    }

    #[test]
    fn batched_works_for_other_tile_sizes() {
        // The batching is generic over the transform, not F(4,3)-specific.
        let t = f23();
        let geom = ConvGeometry::rect(9, 9, 3, 1, 1).unwrap();
        let x = random_tensor(1, 3, 9, 9, 41);
        let k = random_tensor(4, 3, 3, 3, 42);
        let filters = BatchedFilters::new(&k, &t).unwrap();
        let fast = batched(&x, &filters, geom, &t, 2, None).unwrap();
        let reference = direct::conv2d(&x, &k, geom).unwrap();
        assert!(reference.approx_eq(&fast, 1e-3));
    }
}
