//! Tiled 2-D Winograd convolution `F(m×m, r×r)` over feature-map tensors.
//!
//! Each input feature map is divided into `(m+r−1)×(m+r−1)` tiles with an
//! `r−1` overlap; `F(m×m, r×r)` is evaluated per tile per channel and the
//! per-channel results accumulate into an `m×m` output tile (§2.1 of the
//! paper). Stride must be 1 — the framework's optimizer falls back to the
//! conventional algorithm otherwise, exactly as the paper does.

use crate::cook_toom::{f43, WinogradTransform};
use crate::gemm::{BOperand, ConvPhase, ConvStats, GemmBlocking, GemmScratch, PackedA};
use crate::matrix::Mat;
use crate::microkernel::KernelChoice;
use crate::sparse::{sparse_gemm, SparseFilters, SparseKernelChoice};
use crate::tensor::Tensor;
use crate::{ConvError, ConvGeometry};
use std::time::Instant;
use winofuse_runtime::PoolProfiler;

/// Transformed filter bank: `U[n][c] = G·g·Gᵀ` for every (output channel,
/// input channel) pair, precomputed once per layer.
///
/// In hardware this happens offline (the bitstream ships transformed
/// weights); exposing it separately lets benches measure the online and
/// offline costs independently.
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
        let r = transform.r();
        if kernels.h() != r || kernels.w() != r {
            return Err(ConvError::ShapeMismatch {
                expected: format!("{r}x{r} kernels for F({},{})", transform.m(), r),
                found: format!("{}x{}", kernels.h(), kernels.w()),
            });
        }
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

/// Input tiles scattered per job in the barrier (transform-point) path
/// (sizes the phase-1 write regions; results never depend on it).
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
    /// [`TILE_BLOCK_MIN_JOBS`] jobs, transform-point otherwise.
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
    /// Plane `u·α + v` holds `(G·g_{k,c}·Gᵀ)[u][v]` at `(k, c)`, packed
    /// into GEMM `A` panels under the default blocking — built once here
    /// (plan-lowering time), so no strip or transform-point job ever
    /// re-packs filter coefficients.
    packed: Vec<PackedA>,
}

impl BatchedFilters {
    /// Transforms and repacks a kernel tensor (`N×C×r×r`), including the
    /// one-time GEMM panel pack of every transform-point plane.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransformedFilters::new`].
    pub fn new(kernels: &Tensor<f32>, transform: &WinogradTransform) -> Result<Self, ConvError> {
        let banks = TransformedFilters::new(kernels, transform)?;
        let (out_c, in_c) = (kernels.n(), kernels.c());
        let alpha = transform.alpha();
        let aa = alpha * alpha;
        // `planes[u·α + v][k·in_c + c] = (G·g_{k,c}·Gᵀ)[u][v]`, dropped once
        // packed: only the panels outlive construction.
        let mut planes = vec![vec![0.0f32; out_c * in_c]; aa];
        for k in 0..out_c {
            for c in 0..in_c {
                let bank = banks.bank(k, c).as_slice();
                for (uv, plane) in planes.iter_mut().enumerate() {
                    plane[k * in_c + c] = bank[uv];
                }
            }
        }
        drop(banks);
        let blocking = GemmBlocking::default();
        let packed = planes
            .iter()
            .map(|p| PackedA::pack(p, out_c, in_c, blocking))
            .collect();
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
}

/// `out[n×p] = a[n×k] · b[k×p]` on flat row-major buffers — the
/// transform-sized (≤ α×α) matmul used inside scatter/gather workers, free
/// of per-call allocation.
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

/// The filter bank a batched run draws its per-transform-point GEMM `A`
/// operand from: the dense pre-packed planes, or the pruned CSR planes of
/// a sparse-Winograd layer. Both produce one GEMM-shaped product per
/// transform point over the same scatter/gather pipeline, so the two
/// paths share every schedule.
#[derive(Clone, Copy)]
pub enum BankRef<'a> {
    /// Dense transformed filters.
    Dense(&'a BatchedFilters),
    /// Transform-domain pruned filters.
    Sparse(&'a SparseFilters),
}

impl<'a> From<&'a BatchedFilters> for BankRef<'a> {
    fn from(f: &'a BatchedFilters) -> Self {
        BankRef::Dense(f)
    }
}

impl<'a> From<&'a SparseFilters> for BankRef<'a> {
    fn from(f: &'a SparseFilters) -> Self {
        BankRef::Sparse(f)
    }
}

impl BankRef<'_> {
    /// `(m, r, out_c, in_c)`: the transform the bank was built for and
    /// its channel counts.
    fn shape(&self) -> (usize, usize, usize, usize) {
        match self {
            BankRef::Dense(f) => (f.m, f.r, f.out_c, f.in_c),
            BankRef::Sparse(f) => (f.m(), f.r(), f.out_c(), f.in_c()),
        }
    }

    /// Runs the transform point `uv`'s GEMM `C[out_c × n] = A_uv · B`
    /// into `c`, dense or sparse. Accumulation association is identical
    /// across the two arms (same `KC` blocking), so a density-1000
    /// sparse bank is bit-identical to its dense counterpart.
    fn gemm_plane(
        &self,
        scratch: &mut GemmScratch,
        uv: usize,
        n: usize,
        b: BOperand<'_>,
        c: &mut [f32],
        stats: Option<&ConvStats>,
    ) {
        match self {
            BankRef::Dense(f) => {
                let timed = stats.is_some();
                let outcome =
                    crate::gemm::gemm_f32_prepacked(scratch, f.packed_plane(uv), n, b, c, timed);
                if let Some(s) = stats {
                    s.add_gemm(1, outcome.bytes_packed);
                    s.add_gemm_split(outcome.pack_ns, outcome.kernel_ns);
                }
            }
            BankRef::Sparse(f) => {
                sparse_gemm(
                    SparseKernelChoice::Scalar,
                    f.plane(uv),
                    f.in_c(),
                    n,
                    b,
                    c,
                    GemmBlocking::default(),
                );
                if let Some(s) = stats {
                    // No panel packing on the CSR path.
                    s.add_gemm(1, 0);
                }
            }
        }
    }
}

/// Shape-derived state shared by both schedules, resolved once after
/// validation.
struct WinoCtx<'a> {
    input: &'a Tensor<f32>,
    bank: BankRef<'a>,
    threads: usize,
    kernel: KernelChoice,
    m: usize,
    alpha: usize,
    aa: usize,
    b_t: Vec<f32>,
    b: Vec<f32>,
    a_t: Vec<f32>,
    a: Vec<f32>,
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
    // GEMM: 2·N·C·P multiply-adds per transform point (dense), or
    // 2·nnz·P for the pruned CSR planes; each operand read once and the
    // transform-domain product written once.
    let a_elems = match cx.bank {
        BankRef::Dense(_) => (aa * cx.out_c * cx.in_c) as u64,
        BankRef::Sparse(f) => f.nnz_total(),
    };
    let gemm_flops = 2 * a_elems * cx.p_total as u64;
    let gemm_bytes =
        4 * (a_elems + (aa * (cx.in_c * cx.p_total + cx.out_c * cx.p_total)) as u64);
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
/// against the bank's transform-point planes — dense pre-packed panels or
/// pruned CSR planes — then gather (output transforms with edge
/// clipping). `threads == 0` means auto-detect, `1` runs inline;
/// `opts` pins the schedule and microkernel (both auto by default).
///
/// Results are bit-identical for any thread count **and any schedule**:
/// jobs partition the tile/channel space in fixed-size blocks whose
/// contents and accumulation order never depend on the worker count, and
/// every schedule accumulates each output element's `in_c` products in
/// the same ascending order under the same `KC` blocking. A density-1000
/// sparse bank is bit-identical to the dense bank of the same kernels; at
/// lower densities the output carries the pruning error of the dropped
/// coefficients.
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
pub fn conv2d_batched_ext<'a>(
    input: &Tensor<f32>,
    bank: impl Into<BankRef<'a>>,
    geom: ConvGeometry,
    transform: &WinogradTransform,
    threads: usize,
    stats: Option<&ConvStats>,
    prof: &PoolProfiler,
    opts: BatchedOptions,
) -> Result<Tensor<f32>, ConvError> {
    let bank = bank.into();
    let (bank_m, bank_r, out_c, bank_in_c) = bank.shape();
    if geom.stride() != 1 {
        return Err(ConvError::StrideUnsupported {
            stride: geom.stride(),
        });
    }
    if bank_m != transform.m() || bank_r != transform.r() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("filter bank for F({},{})", transform.m(), transform.r()),
            found: format!("bank for F({bank_m},{bank_r})"),
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
    if bank_in_c != input.c() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("{bank_in_c} input channels"),
            found: format!("{}", input.c()),
        });
    }

    let m = transform.m();
    let alpha = transform.alpha();
    let (batch, in_c, _, _) = input.shape();
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let tiles_h = oh.div_ceil(m);
    let tiles_w = ow.div_ceil(m);
    let tiles_per_img = tiles_h * tiles_w;
    let cx = WinoCtx {
        input,
        bank,
        threads: winofuse_runtime::resolve_threads(threads),
        kernel: opts.kernel.unwrap_or_else(KernelChoice::auto),
        m,
        alpha,
        aa: alpha * alpha,
        b_t: transform.b_t_f32().as_slice().to_vec(),
        b: transform.b_t_f32().transpose().as_slice().to_vec(),
        a_t: transform.a_t_f32().as_slice().to_vec(),
        a: transform.a_t_f32().transpose().as_slice().to_vec(),
        batch,
        in_c,
        out_c,
        oh,
        ow,
        pad: geom.pad() as isize,
        tiles_w,
        tiles_per_img,
        p_total: batch * tiles_per_img,
    };

    // Resolve `Auto` on shape alone (never on thread count — the schedule
    // must be deterministic for a given layer so profiles reproduce).
    let schedule = match opts.schedule {
        WinoSchedule::Auto => {
            if batch * tiles_per_img.div_ceil(WINO_TILE_BLOCK) >= TILE_BLOCK_MIN_JOBS {
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
    let (oh, ow, pad) = (cx.oh, cx.ow, cx.pad);
    let (tiles_w, tiles_per_img, p_total) = (cx.tiles_w, cx.tiles_per_img, cx.p_total);
    let (input, threads) = (cx.input, cx.threads);

    // Phase 1 — scatter: V[p][u·α+v][c] = (Bᵀ·d·B)[u][v] for tile p,
    // channel c. The [p][uv][c] layout makes each tile chunk a contiguous
    // write region.
    let mut v_buf = vec![0.0f32; p_total * aa * in_c];
    {
        let t_phase = stats.map(|_| Instant::now());
        let slices = winofuse_runtime::split_chunks(&mut v_buf, TILE_CHUNK * aa * in_c);
        winofuse_runtime::run_sliced_jobs_isolated(
            threads,
            slices,
            &prof.scoped("wino.scatter"),
            || (vec![0.0f32; aa], vec![0.0f32; aa], vec![0.0f32; aa]),
            |(d, t1, t2), job, slice| {
                let p0 = job * TILE_CHUNK;
                for (local, chunk) in slice.chunks_exact_mut(aa * in_c).enumerate() {
                    let p = p0 + local;
                    let bn = p / tiles_per_img;
                    let t = p % tiles_per_img;
                    let h0 = ((t / tiles_w) * m) as isize - pad;
                    let w0 = ((t % tiles_w) * m) as isize - pad;
                    for c in 0..in_c {
                        for u in 0..alpha {
                            for v in 0..alpha {
                                d[u * alpha + v] =
                                    input.get_padded(bn, c, h0 + u as isize, w0 + v as isize);
                            }
                        }
                        matmul_flat(&cx.b_t, d, t1, alpha, alpha, alpha);
                        matmul_flat(t1, &cx.b, t2, alpha, alpha, alpha);
                        for uv in 0..aa {
                            chunk[uv * in_c + c] = t2[uv];
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
        winofuse_runtime::run_sliced_jobs_isolated(
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
        winofuse_runtime::run_sliced_jobs_isolated(
            threads,
            slices,
            &prof.scoped("wino.gather"),
            || {
                (
                    vec![0.0f32; aa],
                    vec![0.0f32; m * alpha],
                    vec![0.0f32; m * m],
                )
            },
            |(m_tile, t1, y), job, slice| {
                let bn = job / k_blocks.len();
                let (k0, kb) = k_blocks[job % k_blocks.len()];
                for k in k0..k0 + kb {
                    let plane = &mut slice[(k - k0) * oh * ow..(k - k0 + 1) * oh * ow];
                    for t in 0..tiles_per_img {
                        let p = bn * tiles_per_img + t;
                        for (uv, slot) in m_tile.iter_mut().enumerate() {
                            *slot = m_ref[(uv * out_c + k) * p_total + p];
                        }
                        matmul_flat(&cx.a_t, m_tile, t1, m, alpha, alpha);
                        matmul_flat(t1, &cx.a, y, m, alpha, m);
                        let (th, tw) = (t / tiles_w, t % tiles_w);
                        for u in 0..m {
                            let oi = th * m + u;
                            if oi >= oh {
                                break;
                            }
                            for v in 0..m {
                                let oj = tw * m + v;
                                if oj >= ow {
                                    break;
                                }
                                plane[oi * ow + oj] = y[u * m + v];
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
    d: Vec<f32>,
    t1: Vec<f32>,
    t2: Vec<f32>,
    /// Transformed tiles, `[uv][c][t]` with stride = this block's tile
    /// count — the GEMM `B` operand is a contiguous row-major slice per uv.
    v: Vec<f32>,
    /// GEMM results, `[uv][k][t]` with the same stride.
    mbuf: Vec<f32>,
    m_tile: Vec<f32>,
    g1: Vec<f32>,
    y: Vec<f32>,
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
    let (oh, ow, pad) = (cx.oh, cx.ow, cx.pad);
    let (tiles_w, tiles_per_img) = (cx.tiles_w, cx.tiles_per_img);
    let (input, threads) = (cx.input, cx.threads);
    let tb = WINO_TILE_BLOCK;
    let blocks_per_img = tiles_per_img.div_ceil(tb);
    let n_jobs = batch * blocks_per_img;

    let mut out = Tensor::zeros(batch, out_c, oh, ow);
    // Carve the NCHW output into per-job fragment sets in memory order.
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(batch * out_c * oh * blocks_per_img);
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
    winofuse_runtime::run_grouped_jobs_isolated(
        threads,
        groups,
        &prof.scoped("wino.tileblock"),
        move || TileBlockScratch {
            gemm: GemmScratch::with_kernel(kernel),
            d: vec![0.0; aa],
            t1: vec![0.0; aa],
            t2: vec![0.0; aa],
            v: vec![0.0; aa * in_c * tb],
            mbuf: vec![0.0; aa * out_c * tb],
            m_tile: vec![0.0; aa],
            g1: vec![0.0; m * alpha],
            y: vec![0.0; m * m],
        },
        |st, job, frags| {
            let TileBlockScratch {
                gemm,
                d,
                t1,
                t2,
                v,
                mbuf,
                m_tile,
                g1,
                y,
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
            for t_local in 0..nt {
                let p = p_lo + t_local;
                let h0 = ((p / tiles_w) * m) as isize - pad;
                let w0 = ((p % tiles_w) * m) as isize - pad;
                for c in 0..in_c {
                    for u in 0..alpha {
                        for vv in 0..alpha {
                            d[u * alpha + vv] =
                                input.get_padded(bn, c, h0 + u as isize, w0 + vv as isize);
                        }
                    }
                    matmul_flat(&cx.b_t, d, t1, alpha, alpha, alpha);
                    matmul_flat(t1, &cx.b, t2, alpha, alpha, alpha);
                    for uv in 0..aa {
                        v[(uv * in_c + c) * nt + t_local] = t2[uv];
                    }
                }
            }
            let t_scattered = stats.map(|_| Instant::now());

            // α² prepacked (or CSR) GEMMs over this block's tiles only.
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
                let mut row_base = 0usize;
                for th in th_first..=th_last {
                    let rows_here = m.min(oh - th * m);
                    let p_row0 = th * tiles_w;
                    let tw_lo = p_lo.max(p_row0) - p_row0;
                    let tw_hi = p_hi.min(p_row0 + tiles_w) - p_row0;
                    for tw in tw_lo..tw_hi {
                        let t_local = p_row0 + tw - p_lo;
                        for (uv, slot) in m_tile.iter_mut().enumerate() {
                            *slot = mbuf[(uv * out_c + k) * nt + t_local];
                        }
                        matmul_flat(&cx.a_t, m_tile, g1, m, alpha, alpha);
                        matmul_flat(g1, &cx.a, y, m, alpha, m);
                        let cols = m.min(ow - tw * m);
                        let col0 = (tw - tw_lo) * m;
                        for u in 0..rows_here {
                            frags[k * rows_covered + row_base + u][col0..col0 + cols]
                                .copy_from_slice(&y[u * m..u * m + cols]);
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
