//! Explicitly vectorized GEMM microkernels behind the [`MicroKernel`]
//! trait, with the scalar 4×16 register tile as the bit-exactness oracle.
//!
//! Rust stable has no `std::simd`, so the vector path uses `std::arch`
//! x86-64 AVX2 intrinsics gated by `is_x86_feature_detected!` at runtime
//! (and compiled out entirely on other architectures). Bit-exactness
//! against the scalar oracle is by construction, not by tolerance:
//!
//! * **f32 tile** — the scalar kernel performs, per `k` step and output
//!   element, one multiply followed by one add (never an FMA), with `k`
//!   ascending. The AVX2 kernel maps each row's `NR = 16` output columns
//!   onto two 256-bit lane registers — eight accumulators for the
//!   `MR = 4` rows, enough independent adds to hide the add latency — and
//!   issues `_mm256_mul_ps` + `_mm256_add_ps` in the same ascending-`k`
//!   order. IEEE-754 lane arithmetic is identical to the scalar sequence,
//!   so every output bit matches.
//! * **fix16 span** — products of raw Q8.8 values accumulate exactly in
//!   64-bit integers; integer addition is associative, so *any* lane
//!   arrangement is exact. The AVX2 span widens `i16 → i32` products into
//!   `i64` lanes.
//!
//! The same choice compiles the Winograd activation transforms
//! ([`crate::winograd`]'s input and output transforms):
//! `KernelChoice::run_lanes` runs one plain-Rust lane body, built for
//! baseline x86-64 under [`KernelChoice::Scalar`] (the oracle) and under
//! `#[target_feature(enable = "avx2")]` under `KernelChoice::Avx2`, both
//! without FMA, so the two agree bit for bit.
//!
//! `tests/conv_equiv.rs` holds the oracle contract down with a proptest
//! matrix that runs every supported kernel explicitly against
//! [`ScalarKernel`], and the Winograd unit tests run the transforms under
//! every kernel against per-tile products.

use crate::fixed::Fix16;
use crate::gemm::{MR, NR};
use std::sync::OnceLock;

/// One register-tiled GEMM microkernel implementation.
///
/// Implementations must produce results bit-identical to [`ScalarKernel`]
/// (the oracle): per output element, the `k` dimension is reduced in
/// ascending order with separate multiply and add — no FMA contraction, no
/// reassociation.
pub trait MicroKernel {
    /// Short identifier (`"scalar"`, `"avx2"`) for reports and telemetry.
    fn name(&self) -> &'static str;

    /// Whether this kernel can run on the current host.
    fn supported(&self) -> bool;

    /// The `MR×NR` f32 register tile: `kb` rank-1 updates over one packed
    /// `A` panel (`a_pack[p·MR + i]`) and one packed `B` panel
    /// (`b_pack[p·NR + j]`).
    fn tile_f32(&self, ap: &[f32], bp: &[f32], kb: usize) -> [[f32; NR]; MR];

    /// Fixed-point multiply-accumulate span: `acc[j] += raw(data[j]) ·
    /// raw(coeff)` over `min(acc.len(), data.len())` lanes, exact in i64.
    fn mac_span_fix16(&self, acc: &mut [i64], data: &[Fix16], coeff: Fix16);
}

/// The reference 4×16 scalar kernel — the bit-exactness oracle every other
/// implementation is tested against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

impl MicroKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn supported(&self) -> bool {
        true
    }

    #[inline]
    fn tile_f32(&self, ap: &[f32], bp: &[f32], kb: usize) -> [[f32; NR]; MR] {
        let mut acc = [[0.0f32; NR]; MR];
        for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kb) {
            let av: &[f32; MR] = av.try_into().expect("packed A panel stride");
            let bv: &[f32; NR] = bv.try_into().expect("packed B panel stride");
            for (i, acc_row) in acc.iter_mut().enumerate() {
                let a = av[i];
                for (j, slot) in acc_row.iter_mut().enumerate() {
                    *slot += a * bv[j];
                }
            }
        }
        acc
    }

    #[inline]
    fn mac_span_fix16(&self, acc: &mut [i64], data: &[Fix16], coeff: Fix16) {
        let c = coeff.to_raw() as i64;
        for (a, &d) in acc.iter_mut().zip(data) {
            *a += d.to_raw() as i64 * c;
        }
    }
}

/// AVX2 lane kernel: two 8-wide f32 mul+add registers per tile row (no
/// FMA) and widened integer fix16 spans. Only compiled on x86-64;
/// [`MicroKernel::supported`] gates on runtime CPUID detection.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, Default)]
pub struct Avx2Kernel;

#[cfg(target_arch = "x86_64")]
impl MicroKernel for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn supported(&self) -> bool {
        is_x86_feature_detected!("avx2")
    }

    #[inline]
    fn tile_f32(&self, ap: &[f32], bp: &[f32], kb: usize) -> [[f32; NR]; MR] {
        assert!(ap.len() >= kb * MR && bp.len() >= kb * NR, "short panels");
        debug_assert!(self.supported(), "AVX2 kernel selected without CPUID");
        // SAFETY: panel lengths checked above; the caller (kernel
        // selection) only picks this kernel when `supported()` is true.
        unsafe { tile_f32_avx2(ap, bp, kb) }
    }

    #[inline]
    fn mac_span_fix16(&self, acc: &mut [i64], data: &[Fix16], coeff: Fix16) {
        debug_assert!(self.supported(), "AVX2 kernel selected without CPUID");
        // SAFETY: lane loop below stays within both slices; AVX2 presence
        // is guaranteed by kernel selection.
        unsafe { mac_span_fix16_avx2(acc, data, coeff) }
    }
}

/// The 4×16 tile with each row's accumulators in two 256-bit registers
/// and the `B` panel row in two more.
///
/// Per `k` step the scalar oracle computes `acc[i][j] += a[i] * b[j]` for
/// ascending `k`; `_mm256_mul_ps` + `_mm256_add_ps` perform exactly the
/// same IEEE-754 operations per lane, so the result is bit-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_f32_avx2(ap: &[f32], bp: &[f32], kb: usize) -> [[f32; NR]; MR] {
    use std::arch::x86_64::*;
    const _: () = assert!(NR == 16, "two 8-lane registers per tile row");
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for p in 0..kb {
        // SAFETY: p < kb, and the safe wrapper checked ap/bp hold kb panels.
        unsafe {
            let b = bp.as_ptr().add(p * NR);
            let (b0, b1) = (_mm256_loadu_ps(b), _mm256_loadu_ps(b.add(8)));
            for (i, row) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ap.get_unchecked(p * MR + i));
                row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(av, b0));
                row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(av, b1));
            }
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (dst, row) in out.iter_mut().zip(acc.iter()) {
        // SAFETY: dst is NR = 16 f32s, exactly two 256-bit stores.
        unsafe {
            _mm256_storeu_ps(dst.as_mut_ptr(), row[0]);
            _mm256_storeu_ps(dst.as_mut_ptr().add(8), row[1]);
        }
    }
    out
}

/// 8-lane fix16 MAC span: `i16·i16` products are exact in `i32`
/// (`|p| ≤ 2³⁰`), widened to `i64` lanes before accumulation — identical
/// to the scalar oracle because integer arithmetic never rounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mac_span_fix16_avx2(acc: &mut [i64], data: &[Fix16], coeff: Fix16) {
    use std::arch::x86_64::*;
    let n = acc.len().min(data.len());
    let c32 = coeff.to_raw() as i32;
    let cv = _mm256_set1_epi32(c32);
    let mut idx = 0usize;
    let mut raw = [0i16; 8];
    while idx + 8 <= n {
        for (slot, d) in raw.iter_mut().zip(&data[idx..idx + 8]) {
            *slot = d.to_raw();
        }
        // SAFETY: idx + 8 <= n bounds every pointer below; loads/stores are
        // unaligned-tolerant (`loadu`/`storeu`).
        unsafe {
            let d16 = _mm_loadu_si128(raw.as_ptr() as *const __m128i);
            let d32 = _mm256_cvtepi16_epi32(d16);
            let prod = _mm256_mullo_epi32(d32, cv);
            let lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(prod));
            let hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(prod, 1));
            let p0 = acc.as_mut_ptr().add(idx) as *mut __m256i;
            let p1 = acc.as_mut_ptr().add(idx + 4) as *mut __m256i;
            _mm256_storeu_si256(p0, _mm256_add_epi64(_mm256_loadu_si256(p0 as *const _), lo));
            _mm256_storeu_si256(p1, _mm256_add_epi64(_mm256_loadu_si256(p1 as *const _), hi));
        }
        idx += 8;
    }
    let c = c32 as i64;
    for (a, d) in acc[idx..n].iter_mut().zip(&data[idx..n]) {
        *a += d.to_raw() as i64 * c;
    }
}

/// Which microkernel a GEMM call dispatches to, and which build of the
/// Winograd activation transforms runs (`KernelChoice::run_lanes`).
/// Carried by [`crate::gemm::GemmScratch`] so every fast path resolves it
/// once per worker, and constructible explicitly so tests can pin a
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// The scalar 4×16 oracle, and the transforms built for baseline
    /// x86-64 (always available).
    Scalar,
    /// Runtime-detected AVX2 lanes, for the tile and the transforms
    /// (x86-64 only).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Default for KernelChoice {
    fn default() -> Self {
        KernelChoice::auto()
    }
}

impl KernelChoice {
    /// The best kernel the host supports, detected once per process.
    pub fn auto() -> KernelChoice {
        static AUTO: OnceLock<KernelChoice> = OnceLock::new();
        *AUTO.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if Avx2Kernel.supported() {
                return KernelChoice::Avx2;
            }
            KernelChoice::Scalar
        })
    }

    /// Every kernel the current host can actually execute (always contains
    /// [`KernelChoice::Scalar`]) — the test matrix iterates this.
    pub fn all_supported() -> Vec<KernelChoice> {
        let mut all = vec![KernelChoice::Scalar];
        #[cfg(target_arch = "x86_64")]
        if Avx2Kernel.supported() {
            all.push(KernelChoice::Avx2);
        }
        all
    }

    /// The chosen kernel's identifier.
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Scalar => ScalarKernel.name(),
            #[cfg(target_arch = "x86_64")]
            KernelChoice::Avx2 => Avx2Kernel.name(),
        }
    }

    /// Dispatches [`MicroKernel::tile_f32`].
    #[inline]
    pub fn tile_f32(self, ap: &[f32], bp: &[f32], kb: usize) -> [[f32; NR]; MR] {
        match self {
            KernelChoice::Scalar => ScalarKernel.tile_f32(ap, bp, kb),
            #[cfg(target_arch = "x86_64")]
            KernelChoice::Avx2 => Avx2Kernel.tile_f32(ap, bp, kb),
        }
    }

    /// Dispatches [`MicroKernel::mac_span_fix16`].
    #[inline]
    pub fn mac_span_fix16(self, acc: &mut [i64], data: &[Fix16], coeff: Fix16) {
        match self {
            KernelChoice::Scalar => ScalarKernel.mac_span_fix16(acc, data, coeff),
            #[cfg(target_arch = "x86_64")]
            KernelChoice::Avx2 => Avx2Kernel.mac_span_fix16(acc, data, coeff),
        }
    }

    /// Runs a lane body compiled for this kernel: for baseline x86-64
    /// under `Scalar` (the oracle), under
    /// `#[target_feature(enable = "avx2")]` under `Avx2`. The body is one
    /// piece of plain Rust; only the instructions it compiles to differ.
    /// Neither enables FMA, so both run the same IEEE-754 multiplies and
    /// adds per lane and agree bit for bit.
    #[inline]
    pub(crate) fn run_lanes<B: LaneBody>(self, body: B) {
        match self {
            KernelChoice::Scalar => body.run(),
            #[cfg(target_arch = "x86_64")]
            KernelChoice::Avx2 => {
                debug_assert!(Avx2Kernel.supported(), "AVX2 kernel selected without CPUID");
                // SAFETY: kernel selection only picks `Avx2` when
                // `supported()` is true.
                unsafe { run_lanes_avx2(body) }
            }
        }
    }
}

/// Lane arithmetic that [`KernelChoice::run_lanes`] compiles once per
/// kernel: the Winograd activation transforms.
///
/// `run` and everything it calls must be `#[inline(always)]`, so the
/// whole body is inlined into, and compiled for, each kernel's entry.
pub(crate) trait LaneBody {
    /// Runs the body.
    fn run(self);
}

/// The AVX2 entry of [`KernelChoice::run_lanes`]: the body inlined here
/// is compiled with 256-bit lanes.
///
/// # Safety
///
/// The host must support AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_lanes_avx2<B: LaneBody>(body: B) {
    body.run()
}

/// Identifier of the kernel auto-selection resolves to on this host —
/// recorded in `BENCH_*.json` host blocks so perf trajectories are
/// attributable to the vector ISA in use.
pub fn active_kernel_name() -> &'static str {
    KernelChoice::auto().name()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(len: usize, seed: u64) -> Vec<f32> {
        crate::tensor::random_tensor(1, 1, 1, len.max(1), seed).as_slice()[..len].to_vec()
    }

    #[test]
    fn scalar_is_always_supported_and_listed_first() {
        let all = KernelChoice::all_supported();
        assert_eq!(all[0], KernelChoice::Scalar);
        assert!(ScalarKernel.supported());
    }

    #[test]
    fn every_supported_kernel_matches_scalar_tile_bitwise() {
        for kb in [0usize, 1, 3, 8, 37, 256] {
            let ap = seeded(kb.max(1) * MR, 11 + kb as u64);
            let bp = seeded(kb.max(1) * NR, 23 + kb as u64);
            let oracle = ScalarKernel.tile_f32(&ap, &bp, kb);
            for k in KernelChoice::all_supported() {
                let got = k.tile_f32(&ap, &bp, kb);
                assert_eq!(got, oracle, "kernel {} kb {kb}", k.name());
            }
        }
    }

    #[test]
    fn every_supported_kernel_matches_scalar_fix16_span() {
        for len in [0usize, 1, 7, 8, 9, 64, 100] {
            let data: Vec<Fix16> = seeded(len, 31 + len as u64)
                .into_iter()
                .map(Fix16::from_f32)
                .collect();
            let coeff = Fix16::from_f32(-0.73);
            let mut oracle = vec![5i64; len];
            ScalarKernel.mac_span_fix16(&mut oracle, &data, coeff);
            for k in KernelChoice::all_supported() {
                let mut acc = vec![5i64; len];
                k.mac_span_fix16(&mut acc, &data, coeff);
                assert_eq!(acc, oracle, "kernel {} len {len}", k.name());
            }
        }
    }

    #[test]
    fn auto_choice_is_stable_and_named() {
        assert_eq!(KernelChoice::auto(), KernelChoice::auto());
        assert_eq!(active_kernel_name(), KernelChoice::auto().name());
        assert!(KernelChoice::all_supported()
            .iter()
            .any(|k| *k == KernelChoice::auto()));
    }
}
