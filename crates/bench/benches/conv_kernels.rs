//! Criterion: throughput of the two convolution algorithms on a
//! VGG-shaped layer slice (the numeric substrate itself, not the FPGA
//! model): the naive references and the prepared kernels requests run.
//! Winograd should need ~4x fewer multiplies than direct.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use winofuse::runtime::PoolProfiler;
use winofuse_conv::cook_toom::{f23, f43};
use winofuse_conv::direct::PackedKernels;
use winofuse_conv::tensor::random_tensor;
use winofuse_conv::winograd::{BatchedFilters, BatchedOptions};
use winofuse_conv::{direct, winograd, ConvGeometry};

fn bench_conv_algorithms(c: &mut Criterion) {
    // A slice of a VGG-like layer: 8 channels of 32x32, 8 output maps.
    let geom = ConvGeometry::new(32, 32, 3, 1, 1).unwrap();
    let x = random_tensor(1, 8, 32, 32, 1);
    let k = random_tensor(8, 8, 3, 3, 2);
    let macs = (8 * 32 * 32 * 8 * 9) as u64;
    // The banks a prepared layer holds, built once outside the timing.
    let packed = PackedKernels::new(&k);
    let bank = BatchedFilters::new(&k, &f43()).unwrap();
    let prof = PoolProfiler::disabled();

    let mut group = c.benchmark_group("conv2d_32x32x8");
    group.throughput(Throughput::Elements(macs));
    group.bench_function("direct", |b| {
        b.iter(|| direct::conv2d(&x, &k, geom).unwrap())
    });
    group.bench_function("winograd_f43", |b| {
        b.iter(|| winograd::conv2d_with(&x, &k, geom, &f43()).unwrap())
    });
    group.bench_function("winograd_f23", |b| {
        b.iter(|| winograd::conv2d_with(&x, &k, geom, &f23()).unwrap())
    });
    group.bench_function("direct_packed", |b| {
        b.iter(|| {
            direct::conv2d_fast_packed_ext(&x, &packed, geom, false, 1, None, &prof, None).unwrap()
        })
    });
    group.bench_function("winograd_batched_f43", |b| {
        b.iter(|| {
            winograd::conv2d_batched_ext(
                &x,
                &bank,
                geom,
                &f43(),
                false,
                1,
                None,
                &prof,
                BatchedOptions::default(),
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_fixed_point(c: &mut Criterion) {
    let geom = ConvGeometry::new(16, 16, 3, 1, 1).unwrap();
    let xf = random_tensor(1, 4, 16, 16, 5);
    let kf = random_tensor(4, 4, 3, 3, 6);
    let xq = xf.cast::<winofuse_conv::fixed::Fix16>();
    let kq = kf.cast::<winofuse_conv::fixed::Fix16>();

    let mut group = c.benchmark_group("datapath");
    group.bench_function("f32_direct", |b| {
        b.iter(|| direct::conv2d(&xf, &kf, geom).unwrap())
    });
    group.bench_function("fix16_wide_accumulator", |b| {
        b.iter(|| direct::conv2d_fix16(&xq, &kq, geom).unwrap())
    });
    group.finish();

    // Scaling with channel count.
    let mut group = c.benchmark_group("direct_channel_scaling");
    for ch in [1usize, 4, 16] {
        let x = random_tensor(1, ch, 16, 16, ch as u64);
        let k = random_tensor(4, ch, 3, 3, ch as u64 + 1);
        group.bench_with_input(BenchmarkId::from_parameter(ch), &ch, |b, _| {
            b.iter(|| direct::conv2d(&x, &k, geom).unwrap())
        });
    }
    group.finish();
}

fn bench_fixed_winograd(c: &mut Criterion) {
    let geom = ConvGeometry::new(16, 16, 3, 1, 1).unwrap();
    let x = random_tensor(1, 4, 16, 16, 11).cast::<winofuse_conv::fixed::Fix16>();
    let k = random_tensor(4, 4, 3, 3, 12).cast::<winofuse_conv::fixed::Fix16>();
    let t = f43();
    c.bench_function("winograd_fix16_f43", |b| {
        b.iter(|| winograd::conv2d_fix16_with(&x, &k, geom, &t).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_conv_algorithms, bench_fixed_point, bench_fixed_winograd
}
criterion_main!(benches);
