//! **Convolution benchmark** — throughput of the fast execution backends
//! (batched Winograd-as-GEMM and blocked im2col+GEMM) against the naive
//! reference kernels, serial and threaded.
//!
//! Three layers spanning the paper's workload spectrum: VGG-E `conv3_1`
//! (many tiles, mid channels), VGG-E `conv5_1` (few tiles, deep
//! channels), and AlexNet `conv2` (5×5 grouped — the shape Winograd
//! never sees, exercising the direct path). Reports the median of
//! `--runs` repetitions as effective GFLOP/s (direct-convolution FLOP
//! count, the usual Winograd convention), cross-checks the fast outputs
//! against the naive ones, and writes `BENCH_conv.json` for CI to
//! archive. The fast kernels run on filter banks prepared once up front;
//! that preparation (Winograd transform and pack, or the direct pack) is
//! timed on its own as `median_prepare_ms`.
//!
//! ```text
//! exp_bench_conv [--smoke] [--runs N] [--threads N]
//!   --smoke      one run per configuration (CI sanity mode)
//!   --runs N     repetitions per kernel        [default 5]
//!   --threads N  parallel worker count         [default 4]
//! ```

use winofuse::runtime::PoolProfiler;
use winofuse_bench::{banner, BenchCase, BenchReport, LatencySamples};
use winofuse_conv::cook_toom::f43;
use winofuse_conv::direct::PackedKernels;
use winofuse_conv::tensor::{random_tensor, Tensor};
use winofuse_conv::winograd::{self, BatchedFilters, BatchedOptions};
use winofuse_conv::{direct, ConvGeometry};

struct Case {
    name: &'static str,
    in_c: usize,
    out_c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    pad: usize,
    groups: usize,
    /// Whether the fast path under test is the batched Winograd (3×3
    /// stride-1 layers) or the blocked direct GEMM.
    winograd: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "vgg_e_conv3_1",
            in_c: 128,
            out_c: 256,
            h: 56,
            w: 56,
            kernel: 3,
            pad: 1,
            groups: 1,
            winograd: true,
        },
        Case {
            name: "vgg_e_conv5_1",
            in_c: 512,
            out_c: 512,
            h: 14,
            w: 14,
            kernel: 3,
            pad: 1,
            groups: 1,
            winograd: true,
        },
        Case {
            name: "alexnet_conv2",
            in_c: 96,
            out_c: 256,
            h: 27,
            w: 27,
            kernel: 5,
            pad: 2,
            groups: 2,
            winograd: false,
        },
    ]
}

impl Case {
    fn geometry(&self) -> ConvGeometry {
        ConvGeometry::rect(self.h, self.w, self.kernel, 1, self.pad)
            .expect("benchmark geometries are valid")
    }

    /// Direct-convolution FLOPs (multiply + add), the denominator for
    /// every algorithm's "effective" GFLOP/s.
    fn flops(&self) -> f64 {
        let geom = self.geometry();
        let per_group_c = self.in_c / self.groups;
        2.0 * (self.out_c * per_group_c * self.kernel * self.kernel) as f64
            * (geom.output_height() * geom.output_width()) as f64
    }
}

/// Runs `f` once to warm caches, then `runs` timed repetitions; returns
/// (median milliseconds via the shared histogram, last output).
fn median_ms<T, F: FnMut() -> T>(runs: usize, mut f: F) -> (f64, T) {
    let samples = LatencySamples::new();
    let mut out = f();
    for _ in 0..runs {
        out = samples.time(&mut f);
    }
    (samples.median_ms(), out)
}

struct Measurement {
    naive_ms: f64,
    prepare_ms: f64,
    serial_ms: f64,
    parallel_ms: f64,
}

/// One channel group's prepared filters: the bank the fast kernel runs on.
enum Bank {
    Winograd(BatchedFilters),
    Direct(PackedKernels),
}

/// Applies `conv` group by group, concatenating the per-group outputs —
/// the same decomposition the network executor performs. `conv` gets the
/// group index and the group's input channels.
fn grouped<F: FnMut(usize, &Tensor<f32>) -> Tensor<f32>>(
    x: &Tensor<f32>,
    case: &Case,
    mut conv: F,
) -> Tensor<f32> {
    if case.groups <= 1 {
        return conv(0, x);
    }
    let geom = case.geometry();
    let cg = case.in_c / case.groups;
    let ng = case.out_c / case.groups;
    let mut out = Tensor::zeros(x.n(), case.out_c, geom.output_height(), geom.output_width());
    for g in 0..case.groups {
        let xs = x.slice_channels(g * cg, (g + 1) * cg);
        out.write_channels(g * ng, &conv(g, &xs));
    }
    out
}

fn run_case(case: &Case, threads: usize, runs: usize) -> Measurement {
    let geom = case.geometry();
    let x = random_tensor(1, case.in_c, case.h, case.w, 11);
    let kernels = random_tensor(
        case.out_c,
        case.in_c / case.groups,
        case.kernel,
        case.kernel,
        13,
    );
    let transform = f43();
    // Per-group kernels (`N/groups × C/groups × K × K`).
    let ng = case.out_c / case.groups;
    let group_kernels: Vec<Tensor<f32>> = (0..case.groups)
        .map(|g| kernels.slice_channels_n(g * ng, (g + 1) * ng))
        .collect();

    let (naive_ms, naive_out) = median_ms(runs, || {
        grouped(&x, case, |g, xs| {
            let ks = &group_kernels[g];
            if case.winograd {
                winograd::conv2d_with(xs, ks, geom, &transform).expect("naive winograd")
            } else {
                direct::conv2d(xs, ks, geom).expect("naive direct")
            }
        })
    });

    // Bank preparation, timed apart from the kernels that reuse it.
    let (prepare_ms, banks) = median_ms(runs, || {
        group_kernels
            .iter()
            .map(|ks| {
                if case.winograd {
                    Bank::Winograd(BatchedFilters::new(ks, &transform).expect("filter transform"))
                } else {
                    Bank::Direct(PackedKernels::new(ks))
                }
            })
            .collect::<Vec<_>>()
    });

    let fast = |threads: usize| {
        median_ms(runs, || {
            grouped(&x, case, |g, xs| {
                let prof = PoolProfiler::disabled();
                match &banks[g] {
                    Bank::Winograd(bank) => winograd::conv2d_batched_ext(
                        xs,
                        bank,
                        geom,
                        &transform,
                        false,
                        threads,
                        None,
                        &prof,
                        BatchedOptions::default(),
                    )
                    .expect("batched winograd"),
                    Bank::Direct(packed) => direct::conv2d_fast_packed_ext(
                        xs, packed, geom, false, threads, None, &prof, None,
                    )
                    .expect("fast direct"),
                }
            })
        })
    };
    let (serial_ms, serial_out) = fast(1);
    let (parallel_ms, parallel_out) = fast(threads);

    // The fast paths must reproduce the naive results, and threading must
    // not change a single bit.
    let tol = 1e-4 * (case.in_c * case.kernel * case.kernel) as f32;
    assert!(
        serial_out.approx_eq(&naive_out, tol),
        "{}: fast output diverged from naive by {}",
        case.name,
        serial_out.max_abs_diff(&naive_out).unwrap()
    );
    assert_eq!(
        serial_out, parallel_out,
        "{}: thread count changed the result",
        case.name
    );

    Measurement {
        naive_ms,
        prepare_ms,
        serial_ms,
        parallel_ms,
    }
}

fn main() {
    let opts = winofuse_bench::parse_bench_args("exp_bench_conv", std::env::args().skip(1));
    let (runs, threads) = (opts.runs, opts.threads);

    banner(
        "BENCH conv",
        &format!("convolution kernel throughput, naive vs fast, 1 vs {threads} threads, median of {runs}"),
        None,
    );

    let mut report = BenchReport::new("conv", &opts);
    for case in cases() {
        let m = run_case(&case, threads, runs);
        let gf = case.flops() / 1e6; // ms → GFLOP/s divisor
        let (g_naive, g_serial, g_parallel) =
            (gf / m.naive_ms, gf / m.serial_ms, gf / m.parallel_ms);
        println!(
            "{:<16} naive {:7.2} GF/s | prepare {:7.2} ms | serial {:7.2} GF/s ({:5.1}x) | {} threads {:7.2} GF/s ({:4.2}x over serial)",
            case.name,
            g_naive,
            m.prepare_ms,
            g_serial,
            m.naive_ms / m.serial_ms,
            threads,
            g_parallel,
            m.serial_ms / m.parallel_ms,
        );
        let bench_case = BenchCase::default()
            .text("algo", if case.winograd { "winograd" } else { "direct" })
            .float("median_naive_ms", m.naive_ms)
            .float("median_prepare_ms", m.prepare_ms)
            .float("median_serial_ms", m.serial_ms)
            .float("median_parallel_ms", m.parallel_ms)
            .float("gflops_naive", g_naive)
            .float("gflops_serial", g_serial)
            .float("gflops_parallel", g_parallel)
            .float("speedup_serial_vs_naive", m.naive_ms / m.serial_ms)
            .float("speedup_parallel_vs_serial", m.serial_ms / m.parallel_ms);
        report.case(case.name, bench_case);
    }
    let path = report.write().expect("write BENCH_conv.json");
    println!("wrote {}", path.display());
}
