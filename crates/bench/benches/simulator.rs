//! Criterion: fusion timing simulator throughput, and the analytic
//! pipeline model it is cross-checked against.

use criterion::{criterion_group, criterion_main, Criterion};
use winofuse_fpga::device::FpgaDevice;
use winofuse_fpga::engine::{Algorithm, EngineConfig};
use winofuse_fusion::pipeline::{group_timing, LayerConfig};
use winofuse_fusion::simulator::FusedGroupSim;
use winofuse_model::zoo;

fn bench_simulator(c: &mut Criterion) {
    let net = zoo::small_test_net();
    let dev = FpgaDevice::zc706();
    let configs: Vec<LayerConfig> = (0..net.len())
        .map(|i| {
            LayerConfig::build(
                &net,
                i,
                EngineConfig {
                    algorithm: Algorithm::Conventional,
                    parallelism: 8,
                },
            )
            .unwrap()
        })
        .collect();

    c.bench_function("fused_sim_small_net_frame", |b| {
        b.iter(|| {
            let mut sim = FusedGroupSim::new(&net, 0, &configs, &dev).unwrap();
            sim.run().unwrap()
        })
    });

    c.bench_function("analytic_group_timing", |b| {
        b.iter(|| group_timing(&configs, &dev).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulator
}
criterion_main!(benches);
