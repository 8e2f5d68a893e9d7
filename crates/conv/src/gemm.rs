//! Cache-blocked, register-tiled f32 GEMM — the engine behind the fast
//! convolution paths.
//!
//! Both batched Winograd ([`crate::winograd::conv2d_batched_ext`]) and
//! im2col direct convolution ([`crate::direct::conv2d_fast_packed_ext`])
//! reduce to dense `C = A·B` products. This module implements the classic
//! three-level blocking (Goto/BLIS): `NC`-wide column panels of `B` and
//! `KC`-deep blocks are packed into contiguous buffers sized for the L3/L2
//! caches, `MC`-tall row blocks of `A` are packed for the L1, and an
//! `MR×NR` register-tiled microkernel runs over the packed panels with a
//! fixed-size accumulator array the compiler can keep in vector registers.
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
/// Columns of the microkernel register tile.
pub const NR: usize = 8;

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

/// A read-only GEMM `B` operand with arbitrary element strides, so both a
/// row-major patch matrix and the channel-strided Winograd scatter buffer
/// can feed the same packing routine. Element `(r, c)` lives at
/// `data[r·row_stride + c·col_stride]`.
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
    /// slice). Public for the sparse CSR kernel, which reads `B` by
    /// column index instead of packing panels.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.row_stride + c * self.col_stride]
    }
}

/// Reusable packing buffers. Keep one per worker thread and feed it to
/// every [`gemm_f32`] call that worker issues — the buffers grow to the
/// largest panel seen and are never shrunk, so steady-state GEMMs allocate
/// nothing.
#[derive(Debug, Default)]
pub struct GemmScratch {
    a_pack: Vec<f32>,
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
/// im2col lowering), the GEMM phase, and an output phase (`Gather` —
/// Winograd output transforms; absent for direct convolution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvPhase {
    Scatter,
    Gemm,
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

    /// Records `calls` microkernel-level GEMM invocations that packed
    /// `bytes` bytes of panels.
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
    /// register-tiled microkernel (summed across workers).
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

/// What one [`gemm_f32_profiled`] call did: bytes of packed panels, exact
/// flops (`2·m·k·n`), and — only when timing was requested — the wall time
/// split between packing and the microkernel sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemmOutcome {
    pub bytes_packed: u64,
    pub flops: u64,
    pub pack_ns: u64,
    pub kernel_ns: u64,
}

/// `C = A·B` for row-major `A` (`m × k`), strided `B` (`k × n`) and
/// row-major `C` (`m × n`, fully overwritten). Returns the bytes of panel
/// data packed (the `conv.bytes_packed` telemetry unit).
///
/// `C` may be a row-block window of a larger matrix as long as its row
/// stride equals `n` — callers parallelize over row blocks by slicing `A`
/// and `C` consistently.
///
/// # Panics
///
/// Panics when slice lengths disagree with `m`, `k`, `n` or a blocking
/// parameter is zero.
#[allow(clippy::too_many_arguments)] // the seven dims/operands of a GEMM
pub fn gemm_f32(
    scratch: &mut GemmScratch,
    blocking: GemmBlocking,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: BOperand<'_>,
    c: &mut [f32],
) -> u64 {
    gemm_f32_profiled(scratch, blocking, m, k, n, a, b, c, false).bytes_packed
}

/// [`gemm_f32`] with a full [`GemmOutcome`]. When `timed` is set, the wall
/// time of every pack and macro-kernel sweep is accumulated into the
/// outcome's `pack_ns`/`kernel_ns` split; when clear the timing fields
/// stay zero and no clock is read.
#[allow(clippy::too_many_arguments)]
pub fn gemm_f32_profiled(
    scratch: &mut GemmScratch,
    blocking: GemmBlocking,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: BOperand<'_>,
    c: &mut [f32],
    timed: bool,
) -> GemmOutcome {
    assert_eq!(a.len(), m * k, "A must be m×k row-major");
    assert_eq!(c.len(), m * n, "C must be m×n row-major");
    assert!(
        blocking.mc > 0 && blocking.kc > 0 && blocking.nc > 0,
        "blocking parameters must be positive"
    );
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

    let GemmBlocking { mc, kc, nc } = blocking;
    let mut out = GemmOutcome {
        flops: 2 * (m as u64) * (k as u64) * (n as u64),
        ..GemmOutcome::default()
    };
    for jc in (0..n).step_by(nc) {
        let nb = nc.min(n - jc);
        for pc in (0..k).step_by(kc) {
            let kb = kc.min(k - pc);
            let t0 = timed.then(Instant::now);
            pack_b(&mut scratch.b_pack, b, pc, kb, jc, nb);
            if let Some(t0) = t0 {
                out.pack_ns += t0.elapsed().as_nanos() as u64;
            }
            out.bytes_packed += (nb.div_ceil(NR) * NR * kb * 4) as u64;
            let first_k_block = pc == 0;
            for ic in (0..m).step_by(mc) {
                let mb = mc.min(m - ic);
                let t0 = timed.then(Instant::now);
                pack_a(&mut scratch.a_pack, a, k, ic, mb, pc, kb);
                if let Some(t0) = t0 {
                    out.pack_ns += t0.elapsed().as_nanos() as u64;
                }
                out.bytes_packed += (mb.div_ceil(MR) * MR * kb * 4) as u64;
                let t0 = timed.then(Instant::now);
                macro_kernel(
                    scratch.kernel,
                    &scratch.a_pack,
                    &scratch.b_pack,
                    mb,
                    kb,
                    nb,
                    c,
                    ic,
                    jc,
                    n,
                    first_k_block,
                );
                if let Some(t0) = t0 {
                    out.kernel_ns += t0.elapsed().as_nanos() as u64;
                }
            }
        }
    }
    out
}

/// Packs `B[pc..pc+kb, jc..jc+nb]` into `NR`-wide column panels:
/// `b_pack[panel][p·NR + j]`, zero-padded to a full `NR` on the ragged
/// last panel.
fn pack_b(b_pack: &mut Vec<f32>, b: BOperand<'_>, pc: usize, kb: usize, jc: usize, nb: usize) {
    let panels = nb.div_ceil(NR);
    b_pack.clear();
    b_pack.resize(panels * kb * NR, 0.0);
    for panel in 0..panels {
        let j0 = panel * NR;
        let width = NR.min(nb - j0);
        let dst = &mut b_pack[panel * kb * NR..(panel + 1) * kb * NR];
        for p in 0..kb {
            let row = &mut dst[p * NR..p * NR + NR];
            for (j, slot) in row.iter_mut().enumerate().take(width) {
                *slot = b.at(pc + p, jc + j0 + j);
            }
            for slot in row.iter_mut().skip(width) {
                *slot = 0.0;
            }
        }
    }
}

/// Packs `A[ic..ic+mb, pc..pc+kb]` into `MR`-tall row panels:
/// `a_pack[panel][p·MR + i]`, zero-padded to a full `MR` on the ragged
/// last panel.
fn pack_a(a_pack: &mut Vec<f32>, a: &[f32], k: usize, ic: usize, mb: usize, pc: usize, kb: usize) {
    let panels = mb.div_ceil(MR);
    a_pack.clear();
    a_pack.resize(panels * kb * MR, 0.0);
    pack_a_into(a_pack, a, k, ic, mb, pc, kb);
}

/// [`pack_a`] into a pre-zeroed destination of exactly
/// `⌈mb/MR⌉·MR·kb` elements — shared by the on-the-fly path and
/// [`PackedA::pack`] so both produce bit-identical panels.
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
    c: &mut [f32],
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
                let row = &mut c[(i0 + i) * n + j0..(i0 + i) * n + j0 + width];
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

/// A row-major `m × k` GEMM `A` operand packed once into the exact
/// `(pc, ic)`-blocked panel layout the macro kernel consumes, so repeated
/// GEMMs against the same `A` (every strip of a fused run, every transform
/// point of a Winograd layer) skip the per-call `pack_a` entirely.
///
/// The pack is bit-for-bit the layout [`gemm_f32_profiled`] would build on
/// the fly with the same [`GemmBlocking`], so results are bit-identical.
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
        let mut data = vec![0.0f32; total];
        let mut idx = 0usize;
        for pc in (0..k).step_by(blocking.kc) {
            let kb = blocking.kc.min(k - pc);
            for ic in (0..m).step_by(blocking.mc) {
                let mb = blocking.mc.min(m - ic);
                let len = mb.div_ceil(MR) * MR * kb;
                pack_a_into(
                    &mut data[offsets[idx]..offsets[idx] + len],
                    a,
                    k,
                    ic,
                    mb,
                    pc,
                    kb,
                );
                idx += 1;
            }
        }
        PackedA {
            m,
            k,
            blocking,
            data,
            offsets,
            n_ic_blocks,
        }
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

/// [`gemm_f32_profiled`] against a pre-packed `A`: identical loop
/// structure, blocking, and accumulation order — only the per-call
/// `pack_a` is gone, so `bytes_packed` counts the `B` panels alone.
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
    let _ = b.at(k - 1, n - 1);

    let GemmBlocking { mc, kc, nc } = packed_a.blocking;
    let mut out = GemmOutcome {
        flops: 2 * (m as u64) * (k as u64) * (n as u64),
        ..GemmOutcome::default()
    };
    for jc in (0..n).step_by(nc) {
        let nb = nc.min(n - jc);
        for (pc_idx, pc) in (0..k).step_by(kc).enumerate() {
            let kb = kc.min(k - pc);
            let t0 = timed.then(Instant::now);
            pack_b(&mut scratch.b_pack, b, pc, kb, jc, nb);
            if let Some(t0) = t0 {
                out.pack_ns += t0.elapsed().as_nanos() as u64;
            }
            out.bytes_packed += (nb.div_ceil(NR) * NR * kb * 4) as u64;
            let first_k_block = pc == 0;
            for (ic_idx, ic) in (0..m).step_by(mc).enumerate() {
                let mb = mc.min(m - ic);
                let t0 = timed.then(Instant::now);
                macro_kernel(
                    scratch.kernel,
                    packed_a.block(pc_idx, ic_idx),
                    &scratch.b_pack,
                    mb,
                    kb,
                    nb,
                    c,
                    ic,
                    jc,
                    n,
                    first_k_block,
                );
                if let Some(t0) = t0 {
                    out.kernel_ns += t0.elapsed().as_nanos() as u64;
                }
            }
        }
    }
    out
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
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
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
            (5, 300, 9), // k spans multiple KC blocks at tiny kc below
        ] {
            let a = seeded(m * k, (m * 1000 + k) as u64);
            let b = seeded(k * n, (k * 1000 + n) as u64);
            let mut c = vec![f32::NAN; m * n];
            gemm_f32(
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
        gemm_f32(
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
            gemm_f32(
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
        gemm_f32(
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
        gemm_f32(
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
        gemm_f32(
            &mut scratch,
            GemmBlocking::default(),
            m,
            k,
            n,
            &a,
            BOperand::row_major(&b_dense, n),
            &mut c1,
        );
        gemm_f32(
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
        let bytes = gemm_f32(
            &mut scratch,
            GemmBlocking::default(),
            2,
            0,
            3,
            &[],
            BOperand::row_major(&[], 3),
            &mut c,
        );
        assert_eq!(bytes, 0);
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reports_packed_bytes() {
        let mut scratch = GemmScratch::new();
        let (m, k, n) = (MR, 5, NR);
        let a = seeded(m * k, 5);
        let b = seeded(k * n, 6);
        let mut c = vec![0.0f32; m * n];
        let bytes = gemm_f32(
            &mut scratch,
            GemmBlocking::default(),
            m,
            k,
            n,
            &a,
            BOperand::row_major(&b, n),
            &mut c,
        );
        // One full A panel + one full B panel, each k deep.
        assert_eq!(bytes, ((MR * k + NR * k) * 4) as u64);
    }

    #[test]
    fn prepacked_a_matches_on_the_fly_bitwise() {
        // Same blocking ⇒ same panels ⇒ same accumulation order ⇒ same bits,
        // across ragged shapes and every supported microkernel.
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
            ] {
                let packed = PackedA::pack(&a, m, k, blocking);
                assert!(packed.bytes() > 0);
                for kernel in crate::microkernel::KernelChoice::all_supported() {
                    let mut s1 = GemmScratch::with_kernel(kernel);
                    let mut c1 = vec![f32::NAN; m * n];
                    let fly = gemm_f32_profiled(
                        &mut s1,
                        blocking,
                        m,
                        k,
                        n,
                        &a,
                        BOperand::row_major(&b, n),
                        &mut c1,
                        false,
                    );
                    let mut c2 = vec![f32::NAN; m * n];
                    let pre = gemm_f32_prepacked(
                        &mut s1,
                        &packed,
                        n,
                        BOperand::row_major(&b, n),
                        &mut c2,
                        false,
                    );
                    assert_eq!(c1, c2, "{m}x{k}x{n} {blocking:?} {}", kernel.name());
                    assert_eq!(pre.flops, fly.flops);
                    // The prepacked call packs only B panels.
                    assert!(pre.bytes_packed < fly.bytes_packed);
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
        gemm_f32(
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
            gemm_f32(
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
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        let untimed = gemm_f32_profiled(
            &mut scratch,
            GemmBlocking::default(),
            m,
            k,
            n,
            &a,
            BOperand::row_major(&b, n),
            &mut c1,
            false,
        );
        assert_eq!(untimed.flops, 2 * (m * k * n) as u64);
        assert_eq!((untimed.pack_ns, untimed.kernel_ns), (0, 0));
        let timed = gemm_f32_profiled(
            &mut scratch,
            GemmBlocking::default(),
            m,
            k,
            n,
            &a,
            BOperand::row_major(&b, n),
            &mut c2,
            true,
        );
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
