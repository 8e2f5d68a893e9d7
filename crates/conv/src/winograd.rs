//! Tiled 2-D Winograd convolution `F(m×m, r×r)` over feature-map tensors.
//!
//! Each input feature map is divided into `(m+r−1)×(m+r−1)` tiles with an
//! `r−1` overlap; `F(m×m, r×r)` is evaluated per tile per channel and the
//! per-channel results accumulate into an `m×m` output tile (§2.1 of the
//! paper). Stride must be 1 — the framework's optimizer falls back to the
//! conventional algorithm otherwise, exactly as the paper does.

use crate::cook_toom::{f43, WinogradTransform};
use crate::gemm::{panels, BOperand, ConvPhase, ConvStats, GemmBlocking, GemmScratch, PackedA, MR};
use crate::matrix::Mat;
use crate::microkernel::KernelChoice;
use crate::sparse::{prune_plane_with, sparse_keep_count, DENSITY_SCALE};
use crate::tensor::Tensor;
use crate::{ConvError, ConvGeometry};
use std::time::Instant;
use winofuse_runtime::PoolProfiler;

/// Transformed filter bank: `U[n][c] = G·g·Gᵀ` for every (output channel,
/// input channel) pair, one `α×α` matrix each, computed with
/// [`Mat::mul_into`].
///
/// This is the reference: [`conv2d_with`] and [`conv2d_pretransformed`]
/// run on it, and tests hold [`BatchedFilters`], which computes the same
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
        let r = transform.r();
        let g = transform.g_f32();
        let g_t = g.transpose();
        let alpha = transform.alpha();
        // Scratch for the G·g and g itself is hoisted out of the channel
        // loop: the only per-(n, c) allocation is the stored bank.
        let mut gk = Mat::<f32>::zeros(r, r);
        let mut g_gk = Mat::<f32>::zeros(alpha, r);
        let mut banks = Vec::with_capacity(kernels.n() * kernels.c());
        for n in 0..kernels.n() {
            for c in 0..kernels.c() {
                for u in 0..r {
                    for v in 0..r {
                        gk.set(u, v, kernels.get(n, c, u, v));
                    }
                }
                g.mul_into(&gk, &mut g_gk);
                let mut bank = Mat::<f32>::zeros(alpha, alpha);
                g_gk.mul_into(&g_t, &mut bank);
                banks.push(bank);
            }
        }
        Ok(TransformedFilters {
            alpha: transform.alpha(),
            out_c: kernels.n(),
            in_c: kernels.c(),
            banks,
        })
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
fn check_kernel_size(
    kernels: &Tensor<f32>,
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

/// Winograd convolution with an explicit transform (any generated
/// `F(m, r)`).
///
/// # Errors
///
/// * [`ConvError::StrideUnsupported`] when `geom.stride() != 1`,
/// * [`ConvError::ShapeMismatch`] when shapes disagree with `geom` or the
///   kernel size differs from the transform's `r`.
pub fn conv2d_with(
    input: &Tensor<f32>,
    kernels: &Tensor<f32>,
    geom: ConvGeometry,
    transform: &WinogradTransform,
) -> Result<Tensor<f32>, ConvError> {
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

    let filters = TransformedFilters::new(kernels, transform)?;
    conv2d_pretransformed(input, &filters, geom, transform)
}

/// Winograd convolution reusing an already-transformed filter bank.
///
/// # Errors
///
/// Same conditions as [`conv2d_with`]; additionally the filter bank must
/// have been built with the same transform (checked via `α`).
pub fn conv2d_pretransformed(
    input: &Tensor<f32>,
    filters: &TransformedFilters,
    geom: ConvGeometry,
    transform: &WinogradTransform,
) -> Result<Tensor<f32>, ConvError> {
    if geom.stride() != 1 {
        return Err(ConvError::StrideUnsupported {
            stride: geom.stride(),
        });
    }
    if filters.alpha() != transform.alpha() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("filter bank with alpha {}", transform.alpha()),
            found: format!("alpha {}", filters.alpha()),
        });
    }
    if filters.in_c != input.c() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("{} input channels", filters.in_c),
            found: format!("{}", input.c()),
        });
    }

    let m = transform.m();
    let alpha = transform.alpha();
    let b_t = transform.b_t_f32();
    let b = b_t.transpose();
    let a_t = transform.a_t_f32();
    let a = a_t.transpose();

    let (batch, in_c, _, _) = input.shape();
    let out_c = filters.out_c;
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let pad = geom.pad() as isize;

    let tiles_h = oh.div_ceil(m);
    let tiles_w = ow.div_ceil(m);

    let mut out = Tensor::zeros(batch, out_c, oh, ow);
    // Scratch: transformed input tiles for all channels at one position.
    let mut v_tiles: Vec<Mat<f32>> = vec![Mat::zeros(alpha, alpha); in_c];

    for bn in 0..batch {
        for th in 0..tiles_h {
            for tw in 0..tiles_w {
                let h0 = (th * m) as isize - pad;
                let w0 = (tw * m) as isize - pad;
                // Input transforms V = Bᵀ·d·B for every channel.
                for (c, v_tile) in v_tiles.iter_mut().enumerate() {
                    let d = Mat::from_fn(alpha, alpha, |u, v| {
                        input.get_padded(bn, c, h0 + u as isize, w0 + v as isize)
                    });
                    *v_tile = b_t.mul(&d).mul(&b);
                }
                for n in 0..out_c {
                    // M = Σ_c U[n][c] ⊙ V[c]
                    let mut acc = Mat::<f32>::zeros(alpha, alpha);
                    for (c, v_tile) in v_tiles.iter().enumerate() {
                        let prod = filters.bank(n, c).hadamard(v_tile);
                        acc = Mat::from_fn(alpha, alpha, |u, v| acc.get(u, v) + prod.get(u, v));
                    }
                    // Y = Aᵀ·M·A, scattered with edge clipping.
                    let y = a_t.mul(&acc).mul(&a);
                    for u in 0..m {
                        for v in 0..m {
                            let oh_i = th * m + u;
                            let ow_i = tw * m + v;
                            if oh_i < oh && ow_i < ow {
                                out.set(bn, n, oh_i, ow_i, y.get(u, v));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Winograd convolution with the paper's uniform tile choice
/// `F(4×4, 3×3)` (§2.1: "we use a uniform size F(4×4, 3×3)").
///
/// # Errors
///
/// Same conditions as [`conv2d_with`]; the kernel must be 3×3 and stride 1.
///
/// # Examples
///
/// ```
/// use winofuse_conv::{direct, winograd, tensor::random_tensor, ConvGeometry};
///
/// # fn main() -> Result<(), winofuse_conv::ConvError> {
/// let geom = ConvGeometry::new(12, 12, 3, 1, 1)?;
/// let x = random_tensor(1, 4, 12, 12, 1);
/// let w = random_tensor(8, 4, 3, 3, 2);
/// let reference = direct::conv2d(&x, &w, geom)?;
/// let fast = winograd::conv2d_f43(&x, &w, geom)?;
/// assert!(reference.approx_eq(&fast, 1e-3));
/// # Ok(())
/// # }
/// ```
pub fn conv2d_f43(
    input: &Tensor<f32>,
    kernels: &Tensor<f32>,
    geom: ConvGeometry,
) -> Result<Tensor<f32>, ConvError> {
    conv2d_with(input, kernels, geom, &f43())
}

/// Input tiles scattered per job in the barrier (transform-point) path,
/// and tiles per output-transform call in its gather (sizes the phase-1
/// write regions; results never depend on it).
const TILE_CHUNK: usize = 32;
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

    /// Runs the transform point `uv`'s GEMM `C[out_c × n] = A_uv · B`
    /// into `c`.
    fn gemm_plane(
        &self,
        scratch: &mut GemmScratch,
        uv: usize,
        n: usize,
        b: BOperand<'_>,
        c: &mut [f32],
        stats: Option<&ConvStats>,
    ) {
        let timed = stats.is_some();
        let outcome = crate::gemm::gemm_f32_prepacked(scratch, &self.packed[uv], n, b, c, timed);
        if let Some(s) = stats {
            s.add_gemm(1, outcome.bytes_packed);
            s.add_gemm_split(outcome.pack_ns, outcome.kernel_ns);
        }
    }
}

/// A transform matrix (`Bᵀ` or `Aᵀ`) as rows of its nonzero coefficients,
/// `(column, value)` in ascending column order. `F(4,3)` has 14 zeros
/// among the 36 entries of `Bᵀ` and 6 among the 24 of `Aᵀ`.
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
/// one element of a transform product for a run of tiles at once, with
/// the tile index innermost and contiguous so the loop vectorizes across
/// tiles.
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

/// Lane-major working buffers of the two transforms for runs of up to
/// `lanes` tiles: element `e` of the `t`-th tile of a run of `n` sits at
/// `[e·n + t]`.
struct LaneScratch {
    /// Input tiles `d`, `α²` rows.
    d: Vec<f32>,
    /// `Bᵀ·d`, `α²` rows.
    bd: Vec<f32>,
    /// `Aᵀ·M`, `m·α` rows.
    am: Vec<f32>,
    /// `Y = Aᵀ·M·A`, `m²` rows.
    y: Vec<f32>,
}

impl LaneScratch {
    fn new(m: usize, alpha: usize, lanes: usize) -> Self {
        LaneScratch {
            d: vec![0.0; alpha * alpha * lanes],
            bd: vec![0.0; alpha * alpha * lanes],
            am: vec![0.0; m * alpha * lanes],
            y: vec![0.0; m * m * lanes],
        }
    }
}

/// Shape-derived state shared by both schedules, resolved once after
/// validation.
struct WinoCtx<'a> {
    input: &'a Tensor<f32>,
    bank: &'a BatchedFilters,
    threads: usize,
    kernel: KernelChoice,
    m: usize,
    alpha: usize,
    aa: usize,
    b_t: Taps,
    a_t: Taps,
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
    fn new(
        input: &'a Tensor<f32>,
        bank: &'a BatchedFilters,
        geom: ConvGeometry,
        transform: &WinogradTransform,
        threads: usize,
        kernel: KernelChoice,
    ) -> Self {
        let m = transform.m();
        let alpha = transform.alpha();
        let (batch, in_c, _, _) = input.shape();
        let (oh, ow) = (geom.output_height(), geom.output_width());
        let tiles_w = ow.div_ceil(m);
        let tiles_per_img = oh.div_ceil(m) * tiles_w;
        WinoCtx {
            input,
            bank,
            threads: winofuse_runtime::resolve_threads(threads),
            kernel,
            m,
            alpha,
            aa: alpha * alpha,
            b_t: nonzero_taps(&transform.b_t_f32()),
            a_t: nonzero_taps(&transform.a_t_f32()),
            batch,
            in_c,
            out_c: bank.out_c,
            oh,
            ow,
            pad: geom.pad() as isize,
            tiles_w,
            tiles_per_img,
            p_total: batch * tiles_per_img,
        }
    }

    /// Input transform `V = Bᵀ·d·B` of channel `c` for the `lanes`
    /// consecutive tiles from tile `p0`, numbered across the batch (a run
    /// may cross into the next image). Row `uv` of the run's `V` goes to
    /// `out[uv·stride..][..lanes]`, tile index innermost. Tiles are read
    /// from the channel plane directly; only a tile that crosses the
    /// padded edge takes the zero-filling path.
    fn input_transform(
        &self,
        c: usize,
        p0: usize,
        lanes: usize,
        s: &mut LaneScratch,
        out: &mut [f32],
        stride: usize,
    ) {
        let (m, alpha) = (self.m, self.alpha);
        let (h, w) = (self.input.h(), self.input.w());
        let LaneScratch { d, bd, .. } = s;
        let d = &mut d[..self.aa * lanes];
        for t in 0..lanes {
            let (bn, tile) = ((p0 + t) / self.tiles_per_img, (p0 + t) % self.tiles_per_img);
            let plane = &self.input.as_slice()[(bn * self.in_c + c) * h * w..][..h * w];
            let h0 = ((tile / self.tiles_w) * m) as isize - self.pad;
            let w0 = ((tile % self.tiles_w) * m) as isize - self.pad;
            let inside = h0 >= 0 && w0 >= 0 && h0 as usize + alpha <= h && w0 as usize + alpha <= w;
            for u in 0..alpha {
                let hi = h0 + u as isize;
                if inside {
                    let row = &plane[hi as usize * w + w0 as usize..][..alpha];
                    for (v, &x) in row.iter().enumerate() {
                        d[(u * alpha + v) * lanes + t] = x;
                    }
                } else {
                    for v in 0..alpha {
                        let wi = w0 + v as isize;
                        let inb = (0..h as isize).contains(&hi) && (0..w as isize).contains(&wi);
                        d[(u * alpha + v) * lanes + t] = if inb {
                            plane[hi as usize * w + wi as usize]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
        let d = &*d;
        let bd = &mut bd[..self.aa * lanes];
        for (i, taps) in self.b_t.iter().enumerate() {
            for j in 0..alpha {
                let dst = &mut bd[(i * alpha + j) * lanes..][..lanes];
                lane_dot(dst, taps, |l| &d[(l * alpha + j) * lanes..][..lanes]);
            }
        }
        let bd = &*bd;
        for i in 0..alpha {
            for (j, taps) in self.b_t.iter().enumerate() {
                let dst = &mut out[(i * alpha + j) * stride..][..lanes];
                lane_dot(dst, taps, |l| &bd[(i * alpha + l) * lanes..][..lanes]);
            }
        }
    }

    /// Output transform `Y = Aᵀ·M·A` for the `lanes` consecutive tiles
    /// whose GEMM results start `rows`: row `uv` of `M` is
    /// `rows[uv·stride..][..lanes]`, which both schedules' GEMM outputs
    /// already hold contiguous in the tile index. Returns `Y` lane-major:
    /// element `(u, v)` of the run's tile `t` at `[(u·m + v)·lanes + t]`.
    fn output_transform<'s>(
        &self,
        rows: &[f32],
        stride: usize,
        lanes: usize,
        s: &'s mut LaneScratch,
    ) -> &'s [f32] {
        let (m, alpha) = (self.m, self.alpha);
        let LaneScratch { am, y, .. } = s;
        let am = &mut am[..m * alpha * lanes];
        for (i, taps) in self.a_t.iter().enumerate() {
            for j in 0..alpha {
                let dst = &mut am[(i * alpha + j) * lanes..][..lanes];
                lane_dot(dst, taps, |l| &rows[(l * alpha + j) * stride..][..lanes]);
            }
        }
        let am = &*am;
        let y = &mut y[..m * m * lanes];
        for i in 0..m {
            for (j, taps) in self.a_t.iter().enumerate() {
                let dst = &mut y[(i * m + j) * lanes..][..lanes];
                lane_dot(dst, taps, |l| &am[(i * alpha + l) * lanes..][..lanes]);
            }
        }
        y
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
/// (output transforms with edge clipping). `threads == 0` means
/// auto-detect, `1` runs inline; `opts` pins the schedule and microkernel
/// (both auto by default). A pruned bank ([`BatchedFilters::pruned`])
/// runs the same way; its output carries the pruning error of the zeroed
/// coefficients.
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
/// Same conditions as [`conv2d_pretransformed`]; the filter bank must have
/// been built with the same transform.
#[allow(clippy::too_many_arguments)] // the batched entry plus observability
pub fn conv2d_batched_ext(
    input: &Tensor<f32>,
    bank: &BatchedFilters,
    geom: ConvGeometry,
    transform: &WinogradTransform,
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
    let cx = WinoCtx::new(input, bank, geom, transform, threads, kernel);

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
        WinoSchedule::TileBlock => run_tile_block(&cx, stats, prof)?,
        _ => run_transform_point(&cx, stats, prof)?,
    };
    if let Some(s) = stats {
        add_phase_totals(&cx, s);
    }
    Ok(out)
}

/// The barrier schedule: three pool invocations (scatter / GEMM / gather)
/// with one GEMM job per transform point. GEMMs run against the bank's
/// pre-packed `A` panels, so no job re-packs filter coefficients.
fn run_transform_point(
    cx: &WinoCtx<'_>,
    stats: Option<&ConvStats>,
    prof: &PoolProfiler,
) -> Result<Tensor<f32>, ConvError> {
    let (m, alpha, aa) = (cx.m, cx.alpha, cx.aa);
    let (batch, in_c, out_c) = (cx.batch, cx.in_c, cx.out_c);
    let (oh, ow) = (cx.oh, cx.ow);
    let (tiles_w, tiles_per_img, p_total) = (cx.tiles_w, cx.tiles_per_img, cx.p_total);
    let threads = cx.threads;

    // Phase 1 — scatter: V[p][u·α+v][c] = (Bᵀ·d·B)[u][v] for tile p,
    // channel c. The [p][uv][c] layout makes each tile chunk a contiguous
    // write region.
    let mut v_buf = vec![0.0f32; p_total * aa * in_c];
    {
        let t_phase = stats.map(|_| Instant::now());
        let slices = winofuse_runtime::split_chunks(&mut v_buf, TILE_CHUNK * aa * in_c);
        winofuse_runtime::run_jobs(
            threads,
            slices,
            &prof.scoped("wino.scatter"),
            || {
                (
                    LaneScratch::new(m, alpha, TILE_CHUNK),
                    vec![0.0f32; aa * TILE_CHUNK],
                )
            },
            |(lanes, v_run), job, slice| {
                let nt = slice.len() / (aa * in_c);
                for c in 0..in_c {
                    cx.input_transform(c, job * TILE_CHUNK, nt, lanes, v_run, nt);
                    for (uv, row) in v_run[..aa * nt].chunks_exact(nt).enumerate() {
                        for (t, &x) in row.iter().enumerate() {
                            slice[(t * aa + uv) * in_c + c] = x;
                        }
                    }
                }
            },
        )?;
        if let (Some(s), Some(t0)) = (stats, t_phase) {
            s.add_phase_ns(ConvPhase::Scatter, t0.elapsed().as_nanos() as u64);
        }
    }

    // Phase 2 — α² GEMMs: M[uv][k][p] = Σ_c U_uv[k][c] · V_uv[c][p].
    // One job per transform point over the full output-channel range, so
    // each job runs exactly one prepacked GEMM; the [uv][k][p] layout
    // makes each job's rows a contiguous write region.
    let mut m_buf = vec![0.0f32; aa * out_c * p_total];
    {
        let slices = winofuse_runtime::split_chunks(&mut m_buf, out_c * p_total);
        let v_ref = &v_buf;
        let t_phase = stats.map(|_| Instant::now());
        let kernel = cx.kernel;
        winofuse_runtime::run_jobs(
            threads,
            slices,
            &prof.scoped("wino.gemm"),
            move || GemmScratch::with_kernel(kernel),
            |scratch, uv, slice| {
                // B operand: V_uv is [in_c × p_total] with element (c, p)
                // at V[p·α²·in_c + uv·in_c + c].
                let b_op = BOperand::strided(&v_ref[uv * in_c..], 1, aa * in_c);
                cx.bank.gemm_plane(scratch, uv, p_total, b_op, slice, stats);
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
            || LaneScratch::new(m, alpha, TILE_CHUNK),
            |lanes, job, slice| {
                let bn = job / k_blocks.len();
                let (k0, kb) = k_blocks[job % k_blocks.len()];
                for k in k0..k0 + kb {
                    let plane = &mut slice[(k - k0) * oh * ow..(k - k0 + 1) * oh * ow];
                    // Runs of TILE_CHUNK tiles; M_uv rows are [k][p] in m_buf.
                    for t0 in (0..tiles_per_img).step_by(TILE_CHUNK) {
                        let nt = TILE_CHUNK.min(tiles_per_img - t0);
                        let rows = &m_ref[k * p_total + bn * tiles_per_img + t0..];
                        let y = cx.output_transform(rows, out_c * p_total, nt, lanes);
                        for t in 0..nt {
                            let (th, tw) = ((t0 + t) / tiles_w, (t0 + t) % tiles_w);
                            for u in 0..m.min(oh - th * m) {
                                let dst = &mut plane[(th * m + u) * ow + tw * m..];
                                for (v, o) in dst[..m.min(ow - tw * m)].iter_mut().enumerate() {
                                    *o = y[(u * m + v) * nt + t];
                                }
                            }
                        }
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

/// Thread-local working set for one tile-block worker: GEMM scratch plus
/// every transform buffer, sized once for the largest block so the fused
/// scatter → GEMM → gather loop never allocates.
struct TileBlockScratch {
    gemm: GemmScratch,
    lanes: LaneScratch,
    /// Transformed tiles, `[uv][c][t]` with stride = this block's tile
    /// count — the GEMM `B` operand is a contiguous row-major slice per uv.
    v: Vec<f32>,
    /// GEMM results, `[uv][k][t]` with the same stride.
    mbuf: Vec<f32>,
}

/// The fused schedule: one pool invocation; each job owns a contiguous
/// block of [`WINO_TILE_BLOCK`] tiles within one image and runs
/// scatter → α² prepacked GEMMs → gather over its block with thread-local
/// buffers. No barriers, no shared `V`/`M` round-trips through memory.
///
/// Output ownership: a block's tiles are contiguous in `p`, so within any
/// output row the block owns exactly one contiguous column span —
/// [`winofuse_runtime::split_spans`] hands each job its disjoint set of
/// row fragments, ordered (channel-major, row-minor) in NCHW memory order.
fn run_tile_block(
    cx: &WinoCtx<'_>,
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

    let kernel = cx.kernel;
    winofuse_runtime::run_jobs(
        threads,
        groups,
        &prof.scoped("wino.tileblock"),
        move || TileBlockScratch {
            gemm: GemmScratch::with_kernel(kernel),
            lanes: LaneScratch::new(m, alpha, tb),
            v: vec![0.0; aa * in_c * tb],
            mbuf: vec![0.0; aa * out_c * tb],
        },
        |st, job, mut frags| {
            let TileBlockScratch {
                gemm,
                lanes,
                v,
                mbuf,
            } = st;
            let bn = job / blocks_per_img;
            let blk = job % blocks_per_img;
            let p_lo = blk * tb;
            let p_hi = (p_lo + tb).min(tiles_per_img);
            let nt = p_hi - p_lo;
            let v = &mut v[..aa * in_c * nt];
            let mbuf = &mut mbuf[..aa * out_c * nt];
            let t_job = stats.map(|_| Instant::now());

            // Scatter this block's tiles into the thread-local V.
            let p0 = bn * tiles_per_img + p_lo;
            for c in 0..in_c {
                cx.input_transform(c, p0, nt, lanes, &mut v[c * nt..], in_c * nt);
            }
            let t_scattered = stats.map(|_| Instant::now());

            // α² prepacked GEMMs over this block's tiles only.
            for uv in 0..aa {
                let b_op = BOperand::row_major(&v[uv * in_c * nt..(uv + 1) * in_c * nt], nt);
                cx.bank.gemm_plane(
                    gemm,
                    uv,
                    nt,
                    b_op,
                    &mut mbuf[uv * out_c * nt..(uv + 1) * out_c * nt],
                    stats,
                );
            }
            let t_gemmed = stats.map(|_| Instant::now());

            // Gather with edge clipping into this job's output fragments,
            // which arrive (k-major, row-minor): frags[k·rows + local_row].
            let th_first = p_lo / tiles_w;
            let th_last = (p_hi - 1) / tiles_w;
            let rows_covered: usize = (th_first..=th_last).map(|th| m.min(oh - th * m)).sum();
            for k in 0..out_c {
                let y = cx.output_transform(&mbuf[k * nt..], out_c * nt, nt, lanes);
                let mut row_base = 0usize;
                for th in th_first..=th_last {
                    let rows_here = m.min(oh - th * m);
                    let p_row0 = th * tiles_w;
                    let tw_lo = p_lo.max(p_row0) - p_row0;
                    let tw_hi = p_hi.min(p_row0 + tiles_w) - p_row0;
                    for tw in tw_lo..tw_hi {
                        let t_local = p_row0 + tw - p_lo;
                        let cols = m.min(ow - tw * m);
                        let col0 = (tw - tw_lo) * m;
                        for u in 0..rows_here {
                            let frag = &mut frags[k * rows_covered + row_base + u];
                            for (v, o) in frag[col0..col0 + cols].iter_mut().enumerate() {
                                *o = y[(u * m + v) * nt + t_local];
                            }
                        }
                    }
                    row_base += rows_here;
                }
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
    input: &Tensor<crate::fixed::Fix16>,
    kernels: &Tensor<crate::fixed::Fix16>,
    geom: ConvGeometry,
    transform: &WinogradTransform,
) -> Result<Tensor<crate::fixed::Fix16>, ConvError> {
    use crate::fixed::Fix16;

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

    // Rebalance the constant magnitudes between the input and filter
    // transforms (free power-of-two shifts in hardware) so neither side
    // underflows Q8.8.
    let transform = transform.rebalanced();
    let m = transform.m();
    let alpha = transform.alpha();
    let b_t = transform.b_t_f32();
    let b = b_t.transpose();
    let a_t = transform.a_t_f32();
    let a = a_t.transpose();
    let g = transform.g_f32();
    let g_t = g.transpose();

    // Offline: transformed filters quantized to Q8.8 (what the BRAM
    // holds).
    let mut banks: Vec<Mat<f32>> = Vec::with_capacity(kernels.n() * kernels.c());
    for n in 0..kernels.n() {
        for c in 0..kernels.c() {
            let gk = Mat::from_fn(transform.r(), transform.r(), |u, v| {
                kernels.get(n, c, u, v).to_f32()
            });
            let u = g.mul(&gk).mul(&g_t);
            banks.push(u.map(|v| Fix16::from_f32(v).to_f32()));
        }
    }

    let (batch, in_c, _, _) = input.shape();
    let out_c = kernels.n();
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let pad = geom.pad() as isize;
    let tiles_h = oh.div_ceil(m);
    let tiles_w = ow.div_ceil(m);

    let mut out = Tensor::zeros(batch, out_c, oh, ow);
    let mut v_tiles: Vec<Mat<f32>> = vec![Mat::zeros(alpha, alpha); in_c];

    for bn in 0..batch {
        for th in 0..tiles_h {
            for tw in 0..tiles_w {
                let h0 = (th * m) as isize - pad;
                let w0 = (tw * m) as isize - pad;
                for (c, v_tile) in v_tiles.iter_mut().enumerate() {
                    let d = Mat::from_fn(alpha, alpha, |u, v| {
                        input
                            .get_padded(bn, c, h0 + u as isize, w0 + v as isize)
                            .to_f32()
                    });
                    // Input transform then requantize to the multiplier
                    // width (the precision-critical step).
                    *v_tile = b_t.mul(&d).mul(&b).map(|v| Fix16::from_f32(v).to_f32());
                }
                for n in 0..out_c {
                    // Wide accumulation across channels (DSP cascade).
                    let mut acc = Mat::<f32>::zeros(alpha, alpha);
                    for (c, v_tile) in v_tiles.iter().enumerate() {
                        let prod = banks[n * in_c + c].hadamard(v_tile);
                        acc = Mat::from_fn(alpha, alpha, |u, v| acc.get(u, v) + prod.get(u, v));
                    }
                    let y = a_t.mul(&acc).mul(&a);
                    for u in 0..m {
                        for v in 0..m {
                            let (oi, oj) = (th * m + u, tw * m + v);
                            if oi < oh && oj < ow {
                                out.set(bn, n, oi, oj, Fix16::from_f32(y.get(u, v)));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cook_toom::f23;
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
    fn lane_transforms_match_per_tile_products_bitwise() {
        for (m, r) in [(2usize, 3usize), (4, 3), (6, 3), (4, 5)] {
            let t = WinogradTransform::generate(m, r).unwrap();
            let (alpha, pad) = (t.alpha(), r / 2);
            let aa = alpha * alpha;
            // Ragged 5×4-or-more tile grid over two images: edge tiles cross
            // each padded edge, the middle ones lie inside.
            let (h, w) = (4 * m + 1, 3 * m + 3);
            let geom = ConvGeometry::rect(h, w, r, 1, pad).unwrap();
            let mut x = random_tensor(2, 2, h, w, (10 * m + r) as u64);
            with_signed_zeros(x.as_mut_slice());
            // Image 1, channel 1 is all -0.0.
            x.as_mut_slice()[3 * h * w..].fill(-0.0);
            let bank = BatchedFilters::new(&random_tensor(1, 2, r, r, 1), &t).unwrap();
            let cx = WinoCtx::new(&x, &bank, geom, &t, 1, KernelChoice::auto());
            let origin = |p: usize| {
                let tile = p % cx.tiles_per_img;
                let h0 = ((tile / cx.tiles_w) * m) as isize - cx.pad;
                let w0 = ((tile % cx.tiles_w) * m) as isize - cx.pad;
                (p / cx.tiles_per_img, h0, w0)
            };
            let (hi, wi, al) = (h as isize, w as isize, alpha as isize);
            let crosses = |f: &dyn Fn(isize, isize) -> bool| {
                (0..cx.p_total)
                    .filter(|&p| f(origin(p).1, origin(p).2))
                    .count()
            };
            assert!(crosses(&|h0, _| h0 < 0) > 0 && crosses(&|h0, _| h0 + al > hi) > 0);
            assert!(crosses(&|_, w0| w0 < 0) > 0 && crosses(&|_, w0| w0 + al > wi) > 0);
            assert!(crosses(&|h0, w0| h0 >= 0 && w0 >= 0 && h0 + al <= hi && w0 + al <= wi) > 0);

            let (b_t, a_t) = (t.b_t_f32(), t.a_t_f32());
            let (b, a) = (b_t.transpose(), a_t.transpose());
            let (mut d, mut t1, mut t2) = (vec![0.0; aa], vec![0.0; aa], vec![0.0; aa]);
            let (mut g1, mut y1) = (vec![0.0; m * alpha], vec![0.0; m * m]);
            for lanes in [1usize, 7, 32] {
                let mut s = LaneScratch::new(m, alpha, lanes);
                // Row strides wider than the run, as in both schedules.
                let stride = lanes + 3;
                let mut v = vec![f32::NAN; aa * stride];
                for p0 in (0..cx.p_total).step_by(lanes) {
                    let p0 = p0.min(cx.p_total - lanes);
                    for c in 0..2 {
                        cx.input_transform(c, p0, lanes, &mut s, &mut v, stride);
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
                                    v[uv * stride + l].to_bits(),
                                    want.to_bits(),
                                    "F({m},{r}) input, {lanes} lanes, tile {}, c {c}, point {uv}",
                                    p0 + l
                                );
                            }
                        }
                    }
                }

                let mut rows = random_tensor(1, 1, aa, stride, (lanes * 100 + m) as u64);
                with_signed_zeros(rows.as_mut_slice());
                rows.as_mut_slice()[..stride].fill(-0.0);
                let rows = rows.as_slice();
                let y = cx.output_transform(rows, stride, lanes, &mut s);
                for l in 0..lanes {
                    let m_tile: Vec<f32> = (0..aa).map(|uv| rows[uv * stride + l]).collect();
                    matmul_flat(a_t.as_slice(), &m_tile, &mut g1, m, alpha, alpha);
                    matmul_flat(&g1, a.as_slice(), &mut y1, m, alpha, m);
                    for (e, want) in y1.iter().enumerate() {
                        assert_eq!(
                            y[e * lanes + l].to_bits(),
                            want.to_bits(),
                            "F({m},{r}) output, {lanes} lanes, lane {l}, element {e}"
                        );
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
            conv2d_f43(&x, &k, geom),
            Err(ConvError::StrideUnsupported { stride: 2 })
        );
    }

    #[test]
    fn rejects_kernel_transform_mismatch() {
        let geom = ConvGeometry::new(8, 8, 5, 1, 2).unwrap();
        let x = random_tensor(1, 1, 8, 8, 1);
        let k = random_tensor(1, 1, 5, 5, 2);
        assert!(conv2d_f43(&x, &k, geom).is_err());
    }

    #[test]
    fn pretransformed_filters_reusable() {
        let t = f43();
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let k = random_tensor(2, 2, 3, 3, 5);
        let filters = TransformedFilters::new(&k, &t).unwrap();
        for seed in 0..3 {
            let x = random_tensor(1, 2, 8, 8, seed + 100);
            let a = conv2d_pretransformed(&x, &filters, geom, &t).unwrap();
            let b = direct::conv2d(&x, &k, geom).unwrap();
            assert!(a.approx_eq(&b, 1e-3));
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
            let naive = conv2d_f43(&x, &k, geom).unwrap();
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
        let base = conv2d_batched_ext(&x, &filters, geom, &t, 1, None, &prof, tp).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let y = conv2d_batched_ext(&x, &filters, geom, &t, threads, None, &prof, tb).unwrap();
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
        let y = conv2d_batched_ext(&x, &filters, geom, &t, 2, None, &prof, tb).unwrap();
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
            conv2d_batched_ext(&x, &filters, geom, &t, 2, Some(&stats), &prof, opts).unwrap();
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
