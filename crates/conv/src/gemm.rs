//! Cache-blocked, register-tiled f32 GEMM — the engine behind the fast
//! convolution paths.
//!
//! Both batched Winograd ([`crate::winograd::conv2d_batched_ext`]) and
//! im2col direct convolution ([`crate::direct::conv2d_fast_packed_ext`])
//! reduce to dense `C = A·B` products. This module implements the classic
//! three-level blocking (Goto/BLIS): `A` is packed once into `MR`-tall row
//! panels of `MC × KC` cache blocks ([`PackedA`]), `B` arrives in
//! `NR`-wide column panels of `KC`-deep blocks (the `BPanels` layout,
//! written once by the code that produces `B`), and an `MR×NR` = 4×16
//! register-tiled microkernel runs over the panels with a fixed-size
//! accumulator array kept in vector registers: two 8-lane registers per
//! tile row, eight accumulators in all. One block loop (`gemm_packed`)
//! runs every product and stores `C` through a row sink: one matrix with
//! any row stride, or one slice per row.
//!
//! Determinism: for every output element the `k`-dimension is accumulated
//! in one fixed serial order (`KC` blocks ascending, elements ascending
//! inside a block) regardless of blocking parameters' interaction with
//! threads — callers parallelize by splitting rows of `A`/`C` or issuing
//! independent GEMMs, never by splitting `k`.

use crate::microkernel::KernelChoice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Rows of the microkernel register tile.
pub const MR: usize = 4;
/// Columns of the microkernel register tile: two 8-lane vector registers
/// per row.
pub const NR: usize = 16;

/// Cache-blocking parameters, in elements.
///
/// Defaults target a generic contemporary x86-64/ARM core: `KC·NR` floats
/// of packed `B` streamed from L2, `MC·KC` floats of packed `A` resident
/// in L1/L2, `NC` bounding the packed-`B` panel to a few hundred KiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmBlocking {
    /// Row-block height of `A` (L2-resident packed panel).
    pub mc: usize,
    /// Depth of the packed `k` block.
    pub kc: usize,
    /// Column-panel width of `B`.
    pub nc: usize,
}

impl Default for GemmBlocking {
    fn default() -> Self {
        GemmBlocking {
            mc: 64,
            kc: 256,
            nc: 2048,
        }
    }
}

/// A read-only GEMM `B` operand with arbitrary element strides, the input
/// of [`gemm_f32_prepacked`] for callers outside the conv kernels (which
/// write their `B` straight into `BPanels` order instead). Element
/// `(r, c)` lives at `data[r·row_stride + c·col_stride]`.
#[derive(Debug, Clone, Copy)]
pub struct BOperand<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
}

impl<'a> BOperand<'a> {
    /// A strided view. Bounds are checked lazily at element access.
    pub fn strided(data: &'a [f32], row_stride: usize, col_stride: usize) -> Self {
        BOperand {
            data,
            row_stride,
            col_stride,
        }
    }

    /// A dense row-major `k × n` view.
    pub fn row_major(data: &'a [f32], cols: usize) -> Self {
        BOperand {
            data,
            row_stride: cols,
            col_stride: 1,
        }
    }

    /// Element `(r, c)` of the operand (bounds-checked on the underlying
    /// slice).
    #[inline]
    pub(crate) fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.row_stride + c * self.col_stride]
    }
}

/// The `B` packing buffer of [`gemm_f32_prepacked`] and the microkernel
/// it dispatches to. Keep one per worker thread and feed it to every call
/// that worker issues — the buffer grows to the largest operand seen and
/// is never shrunk, so steady-state GEMMs allocate nothing.
#[derive(Debug, Default)]
pub struct GemmScratch {
    b_pack: Vec<f32>,
    kernel: KernelChoice,
}

impl GemmScratch {
    /// An empty scratch (buffers grow on first use) dispatching to the
    /// auto-detected microkernel.
    pub fn new() -> Self {
        GemmScratch::default()
    }

    /// An empty scratch pinned to an explicit microkernel — the handle the
    /// oracle test matrix uses to run every kernel over the same inputs.
    pub fn with_kernel(kernel: KernelChoice) -> Self {
        GemmScratch {
            kernel,
            ..GemmScratch::default()
        }
    }

    /// The microkernel this scratch dispatches to.
    pub fn kernel(&self) -> KernelChoice {
        self.kernel
    }
}

/// Kernel phase a convolution fast path attributes work to.
///
/// Both algorithms map onto the same three-phase shape: a data-layout
/// phase (`Scatter` — Winograd input transforms, or the direct path's
/// im2col lowering — which writes the GEMM's `B` operand straight into
/// its `BPanels` order, so `B` packing is part of this phase), the GEMM
/// phase, and an output phase (`Gather` — Winograd output transforms;
/// absent for direct convolution, whose GEMM stores into the output
/// tensor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvPhase {
    /// The data layout ahead of the GEMM — the Winograd input transform
    /// or the direct im2col lowering — which writes the GEMM's `B`
    /// operand in panel order, so no packing of `B` follows it.
    Scatter,
    /// The GEMM block loop over pre-packed `A` and `B`.
    Gemm,
    /// The Winograd output transform.
    Gather,
}

/// Shared counters for the convolution fast paths, designed to be updated
/// from worker threads (relaxed atomic adds commute, so totals are
/// deterministic for a fixed job set regardless of scheduling).
///
/// Two kinds of quantities live here, and their contracts differ:
///
/// * **Work accounting** (flops, algorithm-level bytes, call/tile counts)
///   is exact and analytic — for a fixed input it is bit-identical at any
///   thread count (see `tests/determinism.rs`).
/// * **Wall-clock accounting** (per-phase ns, pack-vs-microkernel split)
///   measures real time and is *not* deterministic; it is only populated
///   on profiled runs and must never be compared across runs bit-wise.
#[derive(Debug, Default)]
pub struct ConvStats {
    gemm_calls: AtomicU64,
    tiles: AtomicU64,
    bytes_packed: AtomicU64,
    flops_scatter: AtomicU64,
    flops_gemm: AtomicU64,
    flops_gather: AtomicU64,
    bytes_scatter: AtomicU64,
    bytes_gemm: AtomicU64,
    bytes_gather: AtomicU64,
    scatter_ns: AtomicU64,
    gemm_ns: AtomicU64,
    gather_ns: AtomicU64,
    pack_ns: AtomicU64,
    kernel_ns: AtomicU64,
}

impl ConvStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        ConvStats::default()
    }

    /// Records `calls` microkernel-level GEMM invocations that consumed
    /// `bytes` bytes of `B` panels.
    pub fn add_gemm(&self, calls: u64, bytes: u64) {
        self.gemm_calls.fetch_add(calls, Ordering::Relaxed);
        self.bytes_packed.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `n` Winograd input tiles transformed.
    pub fn add_tiles(&self, n: u64) {
        self.tiles.fetch_add(n, Ordering::Relaxed);
    }

    /// Records exact analytic work for a phase: `flops` arithmetic
    /// operations and `bytes` of algorithm-level traffic (operands read
    /// plus results written; cache-oblivious by construction).
    pub fn add_phase(&self, phase: ConvPhase, flops: u64, bytes: u64) {
        let (f, b) = match phase {
            ConvPhase::Scatter => (&self.flops_scatter, &self.bytes_scatter),
            ConvPhase::Gemm => (&self.flops_gemm, &self.bytes_gemm),
            ConvPhase::Gather => (&self.flops_gather, &self.bytes_gather),
        };
        f.fetch_add(flops, Ordering::Relaxed);
        b.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records wall-clock time spent in a phase (main-thread wall time
    /// around the parallel region, not summed worker time).
    pub fn add_phase_ns(&self, phase: ConvPhase, ns: u64) {
        match phase {
            ConvPhase::Scatter => &self.scatter_ns,
            ConvPhase::Gemm => &self.gemm_ns,
            ConvPhase::Gather => &self.gather_ns,
        }
        .fetch_add(ns, Ordering::Relaxed);
    }

    /// Records a GEMM call's internal split between panel packing and the
    /// register-tiled microkernel (summed across workers). The conv
    /// kernels' GEMMs pack nothing (their `B` arrives in panel order), so
    /// on conv layers `pack_ns` stays zero.
    pub fn add_gemm_split(&self, pack_ns: u64, kernel_ns: u64) {
        self.pack_ns.fetch_add(pack_ns, Ordering::Relaxed);
        self.kernel_ns.fetch_add(kernel_ns, Ordering::Relaxed);
    }

    /// Snapshot as `(gemm_calls, tiles, bytes_packed)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.gemm_calls.load(Ordering::Relaxed),
            self.tiles.load(Ordering::Relaxed),
            self.bytes_packed.load(Ordering::Relaxed),
        )
    }

    /// Full snapshot of every counter.
    pub fn profile(&self) -> ConvProfile {
        ConvProfile {
            gemm_calls: self.gemm_calls.load(Ordering::Relaxed),
            tiles: self.tiles.load(Ordering::Relaxed),
            bytes_packed: self.bytes_packed.load(Ordering::Relaxed),
            flops_scatter: self.flops_scatter.load(Ordering::Relaxed),
            flops_gemm: self.flops_gemm.load(Ordering::Relaxed),
            flops_gather: self.flops_gather.load(Ordering::Relaxed),
            bytes_scatter: self.bytes_scatter.load(Ordering::Relaxed),
            bytes_gemm: self.bytes_gemm.load(Ordering::Relaxed),
            bytes_gather: self.bytes_gather.load(Ordering::Relaxed),
            scatter_ns: self.scatter_ns.load(Ordering::Relaxed),
            gemm_ns: self.gemm_ns.load(Ordering::Relaxed),
            gather_ns: self.gather_ns.load(Ordering::Relaxed),
            pack_ns: self.pack_ns.load(Ordering::Relaxed),
            kernel_ns: self.kernel_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of a [`ConvStats`] — per-phase flops, bytes, and
/// wall times for one convolution (or one layer, when the executor keeps
/// one `ConvStats` per layer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvProfile {
    pub gemm_calls: u64,
    pub tiles: u64,
    pub bytes_packed: u64,
    pub flops_scatter: u64,
    pub flops_gemm: u64,
    pub flops_gather: u64,
    pub bytes_scatter: u64,
    pub bytes_gemm: u64,
    pub bytes_gather: u64,
    pub scatter_ns: u64,
    pub gemm_ns: u64,
    pub gather_ns: u64,
    pub pack_ns: u64,
    pub kernel_ns: u64,
}

impl ConvProfile {
    /// Exact arithmetic operations across all phases.
    pub fn total_flops(&self) -> u64 {
        self.flops_scatter + self.flops_gemm + self.flops_gather
    }

    /// Algorithm-level bytes moved across all phases.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_scatter + self.bytes_gemm + self.bytes_gather
    }

    /// Flops per byte of algorithm-level traffic — the CPU-side analogue
    /// of the paper's computation-to-communication ratio.
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.total_bytes();
        if bytes == 0 {
            0.0
        } else {
            self.total_flops() as f64 / bytes as f64
        }
    }

    /// Wall time summed over the per-phase measurements.
    pub fn total_phase_ns(&self) -> u64 {
        self.scatter_ns + self.gemm_ns + self.gather_ns
    }
}

/// What one GEMM call did: the bytes of `B` panels it consumed
/// (`⌈n/NR⌉·NR·k·4`, the `conv.bytes_packed` unit, whoever wrote the
/// panels), exact flops (`2·m·k·n`), and — only when timing was requested
/// — the wall time split between packing `B` (nonzero only when
/// [`gemm_f32_prepacked`] packs a [`BOperand`]) and the microkernel sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemmOutcome {
    pub bytes_packed: u64,
    pub flops: u64,
    pub pack_ns: u64,
    pub kernel_ns: u64,
}

/// The panel layout of a GEMM `B` operand (`k × n`) as the microkernel
/// reads it: `KC`-deep row blocks in ascending `k`, each holding
/// `⌈n/NR⌉` panels of `kb × NR`. Element `(pc + p, j)` of the block
/// starting at row `pc` sits at `(j/NR)·kb·NR + p·NR + j%NR` within the
/// block, and the lanes of a ragged last panel hold `+0.0`.
///
/// The code that produces a `B` operand writes it here once: the direct
/// path's im2col lowering, the Winograd input transform, and — for a
/// [`BOperand`] handed in from outside — [`gemm_f32_prepacked`]'s packer.
/// [`gemm_packed`] then reads it in place; the depth of its blocks is the
/// `KC` of the [`PackedA`] it multiplies ([`PackedA::b_layout`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BPanels {
    k: usize,
    n: usize,
    kc: usize,
}

impl BPanels {
    /// The layout of a `k × n` operand in blocks `kc` deep.
    pub(crate) fn new(k: usize, n: usize, kc: usize) -> Self {
        assert!(kc > 0, "blocking parameters must be positive");
        BPanels { k, n, kc }
    }

    /// Columns, rounded up to whole panels.
    fn n_pad(&self) -> usize {
        self.n.div_ceil(NR) * NR
    }

    /// Elements of the packed operand, ragged lanes included.
    pub(crate) fn len(&self) -> usize {
        self.k * self.n_pad()
    }

    /// Depth of the row blocks.
    pub(crate) fn kc(&self) -> usize {
        self.kc
    }

    /// Number of row blocks.
    pub(crate) fn blocks(&self) -> usize {
        self.k.div_ceil(self.kc)
    }

    /// The offset of element `(r, j)`, and the distance from row `r`'s
    /// run in one panel to its run in the next (`kb·NR`).
    pub(crate) fn at(&self, r: usize, j: usize) -> (usize, usize) {
        let pc = r - r % self.kc;
        let kb = self.kc.min(self.k - pc);
        let offset = pc * self.n_pad() + (j / NR) * kb * NR + (r - pc) * NR + j % NR;
        (offset, kb * NR)
    }

    /// A writer of row `r` from its first column, in `buf` holding the
    /// whole operand.
    pub(crate) fn row<'a>(&self, buf: &'a mut [f32], r: usize) -> PanelRow<'a> {
        let (offset, stride) = self.at(r, 0);
        PanelRow::new(&mut buf[offset..], stride)
    }
}

/// Writes one row of a [`BPanels`] operand in column order, one panel's
/// run of at most `NR` lanes at a time.
pub(crate) struct PanelRow<'a> {
    /// The row from the start of its run in the first panel on.
    dst: &'a mut [f32],
    /// Start of the current panel's run in `dst`.
    at: usize,
    /// Lanes of the current panel already written.
    lane: usize,
    /// Distance between the row's runs in consecutive panels.
    stride: usize,
}

impl<'a> PanelRow<'a> {
    /// A writer of the row whose run in its first panel starts `dst`;
    /// the runs in later panels follow `stride` apart.
    pub(crate) fn new(dst: &'a mut [f32], stride: usize) -> Self {
        PanelRow {
            dst,
            at: 0,
            lane: 0,
            stride,
        }
    }

    /// Writes the next `len` columns: `fill(run, q)` fills `run` with the
    /// columns `q..q + run.len()`, counted from this call's first, and
    /// `run` never crosses a panel.
    #[inline(always)]
    pub(crate) fn push(&mut self, len: usize, mut fill: impl FnMut(&mut [f32], usize)) {
        let mut q = 0;
        while q < len {
            let n = (NR - self.lane).min(len - q);
            if n == NR {
                // A whole panel run: a fixed length the compiler can
                // unroll `fill` for.
                fill(&mut self.dst[self.at..][..NR], q);
            } else {
                fill(&mut self.dst[self.at + self.lane..][..n], q);
            }
            q += n;
            self.lane += n;
            if self.lane == NR {
                self.lane = 0;
                self.at += self.stride;
            }
        }
    }

    /// Writes `src` as the next `src.len()` columns.
    pub(crate) fn copy(&mut self, src: &[f32]) {
        self.push(src.len(), |run, q| {
            run.copy_from_slice(&src[q..q + run.len()])
        });
    }

    /// Zero-fills the rest of the current panel's run: the ragged lanes
    /// after the row's last column.
    pub(crate) fn finish(&mut self) {
        if self.lane > 0 {
            self.dst[self.at + self.lane..self.at + NR].fill(0.0);
        }
    }
}

/// Where [`gemm_packed`] stores `C` (`m × n`).
pub(crate) enum CRows<'a, 'b> {
    /// Row `i` at `[i·stride..][..n]` of one buffer: a dense row-major
    /// matrix when `stride == n`, or every `stride`-th run of `n`, such as
    /// one transform point's rows of a transform-major Winograd `M`.
    Strided(&'a mut [f32], usize),
    /// One slice of `n` per row, such as the rows a direct job owns in
    /// each output-channel plane.
    Rows(&'a mut [&'b mut [f32]]),
}

impl CRows<'_, '_> {
    /// Row `i` of `C`, `n` wide.
    #[inline]
    fn row(&mut self, i: usize, n: usize) -> &mut [f32] {
        match self {
            CRows::Strided(c, stride) => &mut c[i * *stride..][..n],
            CRows::Rows(rows) => &mut rows[i][..n],
        }
    }

    /// Checks the sink holds `m` rows of `n`.
    fn check(&self, m: usize, n: usize) {
        match self {
            CRows::Strided(c, stride) => assert!(
                *stride >= n && (m == 0 || c.len() >= (m - 1) * stride + n),
                "C must be m rows of n, {stride} apart"
            ),
            CRows::Rows(rows) => assert!(
                rows.len() == m && rows.iter().all(|r| r.len() == n),
                "C must be m rows of n"
            ),
        }
    }
}

/// Packs `b` (`k × n`) into `layout` in `buf`, grown as needed: the one
/// place a [`BOperand`] becomes panels.
fn pack_b(buf: &mut Vec<f32>, b: BOperand<'_>, layout: BPanels) {
    if buf.len() < layout.len() {
        buf.resize(layout.len(), 0.0);
    }
    for r in 0..layout.k {
        let mut row = layout.row(buf, r);
        row.push(layout.n, |run, q| {
            for (j, slot) in run.iter_mut().enumerate() {
                *slot = b.at(r, q + j);
            }
        });
        row.finish();
    }
}

/// Runs the register-tiled microkernel over every `MR×NR` tile of the
/// packed block and writes (or accumulates) into `C` with edge clipping.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    kernel: KernelChoice,
    a_pack: &[f32],
    b_pack: &[f32],
    mb: usize,
    kb: usize,
    nb: usize,
    c: &mut CRows<'_, '_>,
    ic: usize,
    jc: usize,
    n: usize,
    first_k_block: bool,
) {
    let m_panels = mb.div_ceil(MR);
    let n_panels = nb.div_ceil(NR);
    for jp in 0..n_panels {
        let bp = &b_pack[jp * kb * NR..(jp + 1) * kb * NR];
        let j0 = jc + jp * NR;
        let width = NR.min(nb - jp * NR);
        for ip in 0..m_panels {
            let ap = &a_pack[ip * kb * MR..(ip + 1) * kb * MR];
            let acc = kernel.tile_f32(ap, bp, kb);
            let i0 = ic + ip * MR;
            let height = MR.min(mb - ip * MR);
            for (i, acc_row) in acc.iter().enumerate().take(height) {
                let row = &mut c.row(i0 + i, n)[j0..j0 + width];
                if first_k_block {
                    row.copy_from_slice(&acc_row[..width]);
                } else {
                    for (dst, &v) in row.iter_mut().zip(acc_row.iter()) {
                        *dst += v;
                    }
                }
            }
        }
    }
}

/// Packs `A[ic..ic+mb, pc..pc+kb]` into `MR`-tall row panels,
/// `dst[panel][p·MR + i]`, in a pre-zeroed destination of exactly
/// `⌈mb/MR⌉·MR·kb` elements (a ragged last panel's missing rows stay
/// zero).
fn pack_a_into(dst: &mut [f32], a: &[f32], k: usize, ic: usize, mb: usize, pc: usize, kb: usize) {
    let panels = mb.div_ceil(MR);
    for panel in 0..panels {
        let i0 = panel * MR;
        let height = MR.min(mb - i0);
        let dst = &mut dst[panel * kb * MR..(panel + 1) * kb * MR];
        for i in 0..height {
            let src = &a[(ic + i0 + i) * k + pc..(ic + i0 + i) * k + pc + kb];
            for (p, &v) in src.iter().enumerate() {
                dst[p * MR + i] = v;
            }
        }
    }
}

/// A row-major `m × k` GEMM `A` operand packed once into the exact
/// `(pc, ic)`-blocked panel layout the macro kernel consumes, so repeated
/// GEMMs against the same `A` (every strip of a fused run, every transform
/// point of a Winograd layer) never pack it again.
#[derive(Debug, Clone)]
pub struct PackedA {
    m: usize,
    k: usize,
    blocking: GemmBlocking,
    /// Concatenated per-`(pc, ic)` panel blocks, `pc`-major.
    data: Vec<f32>,
    /// Start of each `(pc, ic)` block in `data`, indexed
    /// `pc_idx · n_ic_blocks + ic_idx`.
    offsets: Vec<usize>,
    n_ic_blocks: usize,
}

impl PackedA {
    /// Packs row-major `a` (`m × k`) for reuse under `blocking`. Exactly
    /// two allocations regardless of shape (the panel buffer and the
    /// offset table) — the property the counting-allocator test pins so
    /// bank preparation stays a plan-lowering-time cost.
    ///
    /// # Panics
    ///
    /// Panics when `a.len() != m·k` or a blocking parameter is zero.
    pub fn pack(a: &[f32], m: usize, k: usize, blocking: GemmBlocking) -> Self {
        assert_eq!(a.len(), m * k, "A must be m×k row-major");
        let mut packed = PackedA::zeroed(m, k, blocking);
        packed.repack(a);
        packed
    }

    /// An all-zero operand in the packed layout of an `m × k` `A` under
    /// `blocking`, for a caller that writes the panels itself (see
    /// [`panels`]). The same two allocations as [`PackedA::pack`].
    ///
    /// # Panics
    ///
    /// Panics when a blocking parameter is zero.
    pub(crate) fn zeroed(m: usize, k: usize, blocking: GemmBlocking) -> Self {
        assert!(
            blocking.mc > 0 && blocking.kc > 0 && blocking.nc > 0,
            "blocking parameters must be positive"
        );
        let n_ic_blocks = if m == 0 { 0 } else { m.div_ceil(blocking.mc) };
        let mut total = 0usize;
        let mut offsets = Vec::with_capacity(k.div_ceil(blocking.kc) * n_ic_blocks);
        for pc in (0..k).step_by(blocking.kc) {
            let kb = blocking.kc.min(k - pc);
            for ic in (0..m).step_by(blocking.mc) {
                let mb = blocking.mc.min(m - ic);
                offsets.push(total);
                total += mb.div_ceil(MR) * MR * kb;
            }
        }
        PackedA {
            m,
            k,
            blocking,
            data: vec![0.0f32; total],
            offsets,
            n_ic_blocks,
        }
    }

    /// Overwrites every packed block from row-major `a` (`m × k`); the
    /// zero rows of a ragged last panel are left as they are.
    pub(crate) fn repack(&mut self, a: &[f32]) {
        let (m, k, GemmBlocking { mc, kc, .. }) = (self.m, self.k, self.blocking);
        let mut idx = 0usize;
        for pc in (0..k).step_by(kc) {
            let kb = kc.min(k - pc);
            for ic in (0..m).step_by(mc) {
                let mb = mc.min(m - ic);
                let len = mb.div_ceil(MR) * MR * kb;
                let start = self.offsets[idx];
                pack_a_into(&mut self.data[start..start + len], a, k, ic, mb, pc, kb);
                idx += 1;
            }
        }
    }

    /// Copies the operand back out to row-major `a` (`m × k`): the
    /// inverse of [`PackedA::repack`].
    pub(crate) fn unpack_into(&self, a: &mut [f32]) {
        assert_eq!(a.len(), self.m * self.k, "A must be m×k row-major");
        for p in panels(self.m, self.k, self.blocking) {
            for i in 0..p.rows {
                let row = &mut a[(p.row0 + i) * self.k + p.col0..][..p.depth];
                for (q, v) in row.iter_mut().enumerate() {
                    *v = self.data[p.offset + q * MR + i];
                }
            }
        }
    }

    /// The packed panel buffer, every block in storage order.
    #[cfg(test)]
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// The packed panel buffer, for writing panels in place.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Rows of the packed operand.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Depth of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The blocking the panels were packed for.
    pub fn blocking(&self) -> GemmBlocking {
        self.blocking
    }

    /// Bytes held by the packed panels (the one-time pack cost).
    pub fn bytes(&self) -> u64 {
        (self.data.len() * 4) as u64
    }

    /// The [`BPanels`] layout of a `k × n` `B` operand this `A` multiplies.
    pub(crate) fn b_layout(&self, n: usize) -> BPanels {
        BPanels::new(self.k, n, self.blocking.kc)
    }

    /// The packed panel block for cache block `(pc_idx, ic_idx)`.
    fn block(&self, pc_idx: usize, ic_idx: usize) -> &[f32] {
        let idx = pc_idx * self.n_ic_blocks + ic_idx;
        let start = self.offsets[idx];
        let end = self
            .offsets
            .get(idx + 1)
            .copied()
            .unwrap_or(self.data.len());
        &self.data[start..end]
    }
}

/// One `MR`-row panel of a packed `A`: rows `row0..row0 + rows`
/// (`rows ≤ MR`) and columns `col0..col0 + depth`, with element
/// `(row0 + i, col0 + p)` at `offset + p·MR + i` of the panel buffer. A
/// ragged panel's missing rows are zero.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Panel {
    pub(crate) row0: usize,
    pub(crate) rows: usize,
    pub(crate) col0: usize,
    pub(crate) depth: usize,
    pub(crate) offset: usize,
}

/// Every panel of an `m × k` operand packed under `blocking`, in storage
/// order: `(pc, ic)` blocks `pc`-major, panels top to bottom in a block.
/// The layout [`pack_a_into`] writes and [`PackedA::zeroed`] sizes.
pub(crate) fn panels(m: usize, k: usize, blocking: GemmBlocking) -> impl Iterator<Item = Panel> {
    let GemmBlocking { mc, kc, .. } = blocking;
    let mut offset = 0usize;
    (0..k)
        .step_by(kc)
        .flat_map(move |col0| {
            let depth = kc.min(k - col0);
            (0..m).step_by(mc).flat_map(move |ic| {
                let end = mc.min(m - ic) + ic;
                (ic..end)
                    .step_by(MR)
                    .map(move |row0| (row0, MR.min(end - row0), col0, depth))
            })
        })
        .map(move |(row0, rows, col0, depth)| {
            let panel = Panel {
                row0,
                rows,
                col0,
                depth,
                offset,
            };
            offset += MR * depth;
            panel
        })
}

/// `C = A·B` for a pre-packed `A` (`m × k`) and a `B` (`k × n`) already
/// in `A`'s [`BPanels`] layout ([`PackedA::b_layout`]), stored through
/// `c`: the one block loop every GEMM runs. `kernel` is the microkernel;
/// with `timed` set the microkernel sweeps are timed into `kernel_ns`.
///
/// Each element of `C` accumulates its `k` products `KC` block by block
/// in ascending order, and the microkernel's lanes are independent, so
/// results do not depend on `NC` or on how the caller splits the work.
///
/// # Panics
///
/// Panics when `b` is not `A`'s panel layout of `n` columns or `c` does
/// not hold `m` rows of `n`.
pub(crate) fn gemm_packed(
    kernel: KernelChoice,
    packed_a: &PackedA,
    n: usize,
    b: &[f32],
    mut c: CRows<'_, '_>,
    timed: bool,
) -> GemmOutcome {
    let (m, k) = (packed_a.m, packed_a.k);
    let layout = packed_a.b_layout(n);
    assert_eq!(
        b.len(),
        layout.len(),
        "B must be packed in A's panel layout"
    );
    c.check(m, n);
    if m == 0 || n == 0 {
        return GemmOutcome::default();
    }
    if k == 0 {
        for i in 0..m {
            c.row(i, n).fill(0.0);
        }
        return GemmOutcome::default();
    }

    let GemmBlocking { mc, kc, nc } = packed_a.blocking;
    // Column blocks start on a panel.
    let nc = nc.div_ceil(NR) * NR;
    let mut out = GemmOutcome {
        bytes_packed: (layout.len() * 4) as u64,
        flops: 2 * (m as u64) * (k as u64) * (n as u64),
        ..GemmOutcome::default()
    };
    for jc in (0..n).step_by(nc) {
        let nb = nc.min(n - jc);
        for (pc_idx, pc) in (0..k).step_by(kc).enumerate() {
            let kb = kc.min(k - pc);
            let block = &b[layout.at(pc, jc).0..][..nb.div_ceil(NR) * kb * NR];
            for (ic_idx, ic) in (0..m).step_by(mc).enumerate() {
                let mb = mc.min(m - ic);
                let t0 = timed.then(Instant::now);
                macro_kernel(
                    kernel,
                    packed_a.block(pc_idx, ic_idx),
                    block,
                    mb,
                    kb,
                    nb,
                    &mut c,
                    ic,
                    jc,
                    n,
                    pc == 0,
                );
                if let Some(t0) = t0 {
                    out.kernel_ns += t0.elapsed().as_nanos() as u64;
                }
            }
        }
    }
    out
}

/// `C = A·B` for a pre-packed `A`, a strided `B` (`k × n`) and row-major
/// `C` (`m × n`, fully overwritten): the entry point for callers that
/// hold `B` as a [`BOperand`]. It packs `B` into the scratch's buffer
/// (`BPanels`, the only packing of a `B` operand) and runs
/// `gemm_packed`; `pack_ns` times the pack when `timed` is set.
///
/// # Panics
///
/// Panics when `c.len() != m·n` or `b` is shorter than `k × n` under its
/// strides.
pub fn gemm_f32_prepacked(
    scratch: &mut GemmScratch,
    packed_a: &PackedA,
    n: usize,
    b: BOperand<'_>,
    c: &mut [f32],
    timed: bool,
) -> GemmOutcome {
    let (m, k) = (packed_a.m, packed_a.k);
    assert_eq!(c.len(), m * n, "C must be m×n row-major");
    if m == 0 || n == 0 {
        return GemmOutcome::default();
    }
    if k == 0 {
        c.fill(0.0);
        return GemmOutcome::default();
    }
    // Touch the far corner of B up front so a stride mistake fails loudly
    // rather than mid-panel.
    let _ = b.at(k - 1, n - 1);

    let layout = packed_a.b_layout(n);
    let t0 = timed.then(Instant::now);
    pack_b(&mut scratch.b_pack, b, layout);
    let pack_ns = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
    let b = &scratch.b_pack[..layout.len()];
    let out = gemm_packed(scratch.kernel, packed_a, n, b, CRows::Strided(c, n), timed);
    GemmOutcome { pack_ns, ..out }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference: same fixed k-order as the blocked kernel only when
    /// k fits one KC block — the equivalence tolerance below covers the
    /// general reassociation.
    fn gemm_ref(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn seeded(len: usize, seed: u64) -> Vec<f32> {
        let t = crate::tensor::random_tensor(1, 1, 1, len.max(1), seed);
        t.as_slice()[..len].to_vec()
    }

    fn max_diff(a: &[f32], b: &[f32]) -> f32 {
        let t = |v: &[f32]| crate::tensor::Tensor::from_vec(1, 1, 1, v.len(), v.to_vec()).unwrap();
        t(a).max_abs_diff(&t(b)).unwrap()
    }

    /// `C = A·B` for row-major `A` packed under `blocking`.
    #[allow(clippy::too_many_arguments)]
    fn gemm(
        scratch: &mut GemmScratch,
        blocking: GemmBlocking,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: BOperand<'_>,
        c: &mut [f32],
    ) -> GemmOutcome {
        let packed = PackedA::pack(a, m, k, blocking);
        gemm_f32_prepacked(scratch, &packed, n, b, c, false)
    }

    /// The oracle of the one block loop: a GEMM that packs `A` per
    /// `(pc, ic)` block and `B` per `(jc, pc)` block on every call,
    /// element by element, and writes `C` dense.
    #[allow(clippy::too_many_arguments)]
    fn per_block_packing_gemm(
        kernel: KernelChoice,
        blocking: GemmBlocking,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: BOperand<'_>,
        c: &mut [f32],
    ) {
        let GemmBlocking { mc, kc, nc } = blocking;
        for jc in (0..n).step_by(nc) {
            let nb = nc.min(n - jc);
            for pc in (0..k).step_by(kc) {
                let kb = kc.min(k - pc);
                let mut b_pack = vec![0.0f32; nb.div_ceil(NR) * NR * kb];
                for j in 0..nb {
                    for p in 0..kb {
                        b_pack[(j / NR) * kb * NR + p * NR + j % NR] = b.at(pc + p, jc + j);
                    }
                }
                for ic in (0..m).step_by(mc) {
                    let mb = mc.min(m - ic);
                    let mut a_pack = vec![0.0f32; mb.div_ceil(MR) * MR * kb];
                    for i in 0..mb {
                        for p in 0..kb {
                            a_pack[(i / MR) * kb * MR + p * MR + i % MR] = a[(ic + i) * k + pc + p];
                        }
                    }
                    for jp in 0..nb.div_ceil(NR) {
                        for ip in 0..mb.div_ceil(MR) {
                            let ap = &a_pack[ip * kb * MR..][..kb * MR];
                            let acc = kernel.tile_f32(ap, &b_pack[jp * kb * NR..][..kb * NR], kb);
                            for (i, acc_row) in acc.iter().enumerate().take(mb - ip * MR) {
                                let row = (ic + ip * MR + i) * n + jc + jp * NR;
                                for (j, &v) in acc_row.iter().enumerate().take(nb - jp * NR) {
                                    if pc == 0 {
                                        c[row + j] = v;
                                    } else {
                                        c[row + j] += v;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matches_reference_across_shapes() {
        let mut scratch = GemmScratch::new();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (17, 31, 23),
            (64, 70, 40),
            (5, 300, 9), // k spans two KC blocks
        ] {
            let a = seeded(m * k, (m * 1000 + k) as u64);
            let b = seeded(k * n, (k * 1000 + n) as u64);
            let mut c = vec![f32::NAN; m * n];
            gemm(
                &mut scratch,
                GemmBlocking::default(),
                m,
                k,
                n,
                &a,
                BOperand::row_major(&b, n),
                &mut c,
            );
            let r = gemm_ref(m, k, n, &a, &b);
            assert!(
                max_diff(&c, &r) < 1e-4,
                "{m}x{k}x{n} diff {}",
                max_diff(&c, &r)
            );
        }
    }

    #[test]
    fn blocking_parameters_do_not_change_results_beyond_rounding() {
        let (m, k, n) = (33, 65, 29);
        let a = seeded(m * k, 1);
        let b = seeded(k * n, 2);
        let mut scratch = GemmScratch::new();
        let mut reference = vec![0.0f32; m * n];
        gemm(
            &mut scratch,
            GemmBlocking::default(),
            m,
            k,
            n,
            &a,
            BOperand::row_major(&b, n),
            &mut reference,
        );
        for blocking in [
            GemmBlocking {
                mc: 8,
                kc: 16,
                nc: 8,
            },
            GemmBlocking {
                mc: 1,
                kc: 1,
                nc: 1,
            },
            GemmBlocking {
                mc: 1024,
                kc: 1024,
                nc: 1024,
            },
        ] {
            let mut c = vec![0.0f32; m * n];
            gemm(
                &mut scratch,
                blocking,
                m,
                k,
                n,
                &a,
                BOperand::row_major(&b, n),
                &mut c,
            );
            assert!(max_diff(&c, &reference) < 1e-4, "blocking {blocking:?}");
        }
    }

    #[test]
    fn identical_calls_are_bit_identical() {
        // Scratch reuse must not leak state between calls.
        let (m, k, n) = (20, 48, 12);
        let a = seeded(m * k, 7);
        let b = seeded(k * n, 8);
        let mut s1 = GemmScratch::new();
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![1.0f32; m * n]; // different initial garbage
        gemm(
            &mut s1,
            GemmBlocking::default(),
            m,
            k,
            n,
            &a,
            BOperand::row_major(&b, n),
            &mut c1,
        );
        // Warm scratch + dirty output: C is fully overwritten.
        gemm(
            &mut s1,
            GemmBlocking::default(),
            m,
            k,
            n,
            &a,
            BOperand::row_major(&b, n),
            &mut c2,
        );
        assert_eq!(c1, c2);
    }

    #[test]
    fn strided_b_matches_dense() {
        // B stored column-major: row stride 1, column stride k.
        let (m, k, n) = (6, 10, 14);
        let a = seeded(m * k, 3);
        let b_dense = seeded(k * n, 4);
        let mut b_colmajor = vec![0.0f32; k * n];
        for r in 0..k {
            for c in 0..n {
                b_colmajor[c * k + r] = b_dense[r * n + c];
            }
        }
        let mut scratch = GemmScratch::new();
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm(
            &mut scratch,
            GemmBlocking::default(),
            m,
            k,
            n,
            &a,
            BOperand::row_major(&b_dense, n),
            &mut c1,
        );
        gemm(
            &mut scratch,
            GemmBlocking::default(),
            m,
            k,
            n,
            &a,
            BOperand::strided(&b_colmajor, 1, k),
            &mut c2,
        );
        assert_eq!(c1, c2);
    }

    #[test]
    fn zero_k_writes_zeros() {
        let mut scratch = GemmScratch::new();
        let mut c = vec![f32::NAN; 6];
        let out = gemm(
            &mut scratch,
            GemmBlocking::default(),
            2,
            0,
            3,
            &[],
            BOperand::row_major(&[], 3),
            &mut c,
        );
        assert_eq!(out.bytes_packed, 0);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reports_packed_bytes() {
        let mut scratch = GemmScratch::new();
        let (m, k) = (MR, 5);
        let a = seeded(m * k, 5);
        for n in [NR, NR + 1] {
            let b = seeded(k * n, 6);
            let mut c = vec![0.0f32; m * n];
            let out = gemm(
                &mut scratch,
                GemmBlocking::default(),
                m,
                k,
                n,
                &a,
                BOperand::row_major(&b, n),
                &mut c,
            );
            // The B panels, k deep, ragged lanes included; A is packed once
            // ahead of the call and not counted.
            assert_eq!(out.bytes_packed, (n.div_ceil(NR) * NR * k * 4) as u64);
        }
    }

    #[test]
    fn panel_layout_holds_each_element_once_and_zero_pads_ragged_lanes() {
        // Every (k, n, kc) below leaves a ragged last panel; the KC split
        // gives blocks of different depth.
        for &(k, n, kc) in &[(5usize, 3usize, 2usize), (11, 21, 4), (300, 13, 256)] {
            let layout = BPanels::new(k, n, kc);
            let b = seeded(k * n, (k + n) as u64);
            let mut buf = vec![f32::NAN; layout.len()];
            pack_b(&mut buf, BOperand::row_major(&b, n), layout);
            let mut seen = vec![false; layout.len()];
            for r in 0..k {
                for j in 0..n {
                    let pc = r - r % kc;
                    let kb = kc.min(k - pc);
                    let want =
                        pc * n.div_ceil(NR) * NR + (j / NR) * kb * NR + (r - pc) * NR + j % NR;
                    assert_eq!(
                        layout.at(r, j),
                        (want, kb * NR),
                        "({r}, {j}) of {k}x{n}/{kc}"
                    );
                    assert_eq!(buf[want].to_bits(), b[r * n + j].to_bits());
                    seen[want] = true;
                }
            }
            for (at, v) in buf.iter().enumerate().filter(|&(at, _)| !seen[at]) {
                assert_eq!(
                    v.to_bits(),
                    0.0f32.to_bits(),
                    "ragged lane {at} of {k}x{n}/{kc}"
                );
            }

            // A row written in pieces that end mid-panel lands in the same
            // places.
            let mut pieces = vec![f32::NAN; layout.len()];
            for r in 0..k {
                let src = &b[r * n..(r + 1) * n];
                let mut row = layout.row(&mut pieces, r);
                let head = 3.min(n);
                row.copy(&src[..head]);
                row.push(n - head, |run, q| {
                    run.copy_from_slice(&src[head + q..][..run.len()]);
                });
                row.finish();
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pieces), bits(&buf), "{k}x{n}/{kc} written in pieces");
        }
    }

    #[test]
    fn one_block_loop_matches_per_block_packing_bitwise() {
        // Same panels ⇒ same accumulation order ⇒ same bits, across ragged
        // shapes, blockings (an NC that is not a whole number of panels
        // included) and every supported microkernel, for every C sink.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (17, 31, 23), (64, 300, 40)] {
            let a = seeded(m * k, (m + k) as u64);
            let b = seeded(k * n, (k + n) as u64);
            for blocking in [
                GemmBlocking::default(),
                GemmBlocking {
                    mc: 8,
                    kc: 16,
                    nc: 8,
                },
                GemmBlocking {
                    mc: 5,
                    kc: 7,
                    nc: 3,
                },
            ] {
                let packed = PackedA::pack(&a, m, k, blocking);
                assert!(packed.bytes() > 0);
                for kernel in crate::microkernel::KernelChoice::all_supported() {
                    let case = format!("{m}x{k}x{n} {blocking:?} {}", kernel.name());
                    let mut want = vec![f32::NAN; m * n];
                    let b_op = BOperand::row_major(&b, n);
                    per_block_packing_gemm(kernel, blocking, m, k, n, &a, b_op, &mut want);
                    let mut s = GemmScratch::with_kernel(kernel);
                    let mut dense = vec![f32::NAN; m * n];
                    let out = gemm_f32_prepacked(&mut s, &packed, n, b_op, &mut dense, false);
                    assert_eq!(dense, want, "{case}");
                    assert_eq!(out.flops, 2 * (m * k * n) as u64);

                    let mut rows_buf = vec![f32::NAN; m * n];
                    let mut rows: Vec<&mut [f32]> = rows_buf.chunks_exact_mut(n).collect();
                    let layout = packed.b_layout(n);
                    let b_pack = &s.b_pack[..layout.len()];
                    gemm_packed(kernel, &packed, n, b_pack, CRows::Rows(&mut rows), false);
                    assert_eq!(rows_buf, want, "{case}, row sink");

                    // Rows three runs apart; the gaps stay untouched.
                    let mut wide = vec![f32::NAN; 3 * m * n];
                    let c = CRows::Strided(&mut wide[n..], 3 * n);
                    gemm_packed(kernel, &packed, n, b_pack, c, false);
                    for (i, run) in wide.chunks_exact(n).enumerate() {
                        match i % 3 {
                            1 => assert_eq!(run, &want[i / 3 * n..][..n], "{case}, strided"),
                            _ => assert!(run.iter().all(|v| v.is_nan()), "{case}, gap {i}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn explicit_kernels_match_auto_bitwise() {
        let (m, k, n) = (21, 300, 19); // spans multiple KC blocks
        let a = seeded(m * k, 71);
        let b = seeded(k * n, 72);
        let mut auto = GemmScratch::new();
        let mut c_auto = vec![0.0f32; m * n];
        gemm(
            &mut auto,
            GemmBlocking::default(),
            m,
            k,
            n,
            &a,
            BOperand::row_major(&b, n),
            &mut c_auto,
        );
        for kernel in crate::microkernel::KernelChoice::all_supported() {
            let mut s = GemmScratch::with_kernel(kernel);
            assert_eq!(s.kernel(), kernel);
            let mut c = vec![0.0f32; m * n];
            gemm(
                &mut s,
                GemmBlocking::default(),
                m,
                k,
                n,
                &a,
                BOperand::row_major(&b, n),
                &mut c,
            );
            assert_eq!(c, c_auto, "kernel {}", kernel.name());
        }
    }

    #[test]
    fn conv_stats_accumulate() {
        let s = ConvStats::new();
        s.add_gemm(2, 100);
        s.add_tiles(7);
        s.add_gemm(1, 20);
        assert_eq!(s.snapshot(), (3, 7, 120));
    }

    #[test]
    fn profiled_gemm_reports_flops_and_split() {
        let mut scratch = GemmScratch::new();
        let (m, k, n) = (13, 17, 19);
        let a = seeded(m * k, 9);
        let b = seeded(k * n, 10);
        let packed = PackedA::pack(&a, m, k, GemmBlocking::default());
        let b_op = BOperand::row_major(&b, n);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        let untimed = gemm_f32_prepacked(&mut scratch, &packed, n, b_op, &mut c1, false);
        assert_eq!(untimed.flops, 2 * (m * k * n) as u64);
        assert_eq!((untimed.pack_ns, untimed.kernel_ns), (0, 0));
        let timed = gemm_f32_prepacked(&mut scratch, &packed, n, b_op, &mut c2, true);
        // Timing never changes results or the deterministic fields.
        assert_eq!(c1, c2);
        assert_eq!(timed.bytes_packed, untimed.bytes_packed);
        assert_eq!(timed.flops, untimed.flops);
    }

    #[test]
    fn conv_stats_phase_accounting() {
        let s = ConvStats::new();
        s.add_phase(ConvPhase::Scatter, 100, 10);
        s.add_phase(ConvPhase::Gemm, 200, 20);
        s.add_phase(ConvPhase::Gather, 300, 30);
        s.add_phase_ns(ConvPhase::Gemm, 5);
        s.add_gemm_split(3, 4);
        let p = s.profile();
        assert_eq!(
            (p.flops_scatter, p.flops_gemm, p.flops_gather),
            (100, 200, 300)
        );
        assert_eq!(p.total_flops(), 600);
        assert_eq!(p.total_bytes(), 60);
        assert!((p.arithmetic_intensity() - 10.0).abs() < 1e-12);
        assert_eq!(p.gemm_ns, 5);
        assert_eq!((p.pack_ns, p.kernel_ns), (3, 4));
        assert_eq!(p.total_phase_ns(), 5);
    }
}
