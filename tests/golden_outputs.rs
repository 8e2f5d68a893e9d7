//! Golden output hashes: FNV-1a over the `f32` bit patterns of every
//! layer the executor produces, and of the fused runner's output, on two
//! small LRN-free networks.
//!
//! The hashes pin the exact values the fast kernels compute, so a change
//! to a kernel's register tile, its operand layout or where its folded
//! ReLU is applied must leave every bit where it was. The networks are
//! shaped to reach every path of the conv kernels:
//!
//! * `golden-a` runs a 43×43 layer whose 121 tiles per image feed the
//!   tile-block Winograd schedule (a ragged last block of 25 tiles), a
//!   grouped 5×5 stride-2 direct layer, and 11×11 Winograd layers whose
//!   9 tiles per image fall to the transform-point schedule, one of them
//!   grouped and one without ReLU.
//! * `golden-b` runs an 11×11 stride-4, a 1×1 and a grouped 3×3 stride-2
//!   layer, all direct; their row blocks of 4·14 and 4·7 columns end
//!   mid-panel, and each layer has a short last row block.
//!
//! The executor runs a batch of two frames under `Auto` and `Direct` at
//! 1, 2 and 4 threads; the fused runner streams one frame under an
//! optimized plan (two fusion groups for `golden-a`, one for `golden-b`)
//! at the same thread counts. The hashes were recorded from a build with a
//! 4×8 register tile and a separate ReLU pass, an independent arrangement
//! of the same arithmetic.

use winofuse::conv::tensor::{random_tensor, Tensor};
use winofuse::model::layer::{ConvParams, PoolParams};
use winofuse::model::runtime::{ExecAlgo, NetworkExecutor, NetworkWeights};
use winofuse::model::shape::FmShape;
use winofuse::model::Network;
use winofuse::prelude::{FpgaDevice, Framework};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a<'a>(tensors: impl IntoIterator<Item = &'a Tensor<f32>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tensors {
        for v in t.as_slice() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn golden_a() -> Network {
    Network::builder("golden-a", FmShape::new(3, 43, 43))
        .conv("conv1", ConvParams::vgg3x3(12))
        .conv("conv2", ConvParams::new(16, 5, 2, 2, true).with_groups(2))
        .pool("pool1", PoolParams::max2x2())
        .conv("conv3", ConvParams::vgg3x3(24))
        .conv("conv4", ConvParams::new(20, 3, 1, 1, false).with_groups(2))
        .conv("conv5", ConvParams::vgg3x3(8))
        .build()
        .expect("golden-a is valid")
}

fn golden_b() -> Network {
    Network::builder("golden-b", FmShape::new(3, 63, 63))
        .conv("conv1", ConvParams::new(10, 11, 4, 1, true))
        .conv("conv2", ConvParams::new(6, 1, 1, 0, false))
        .conv("conv3", ConvParams::new(12, 3, 2, 1, true).with_groups(2))
        .build()
        .expect("golden-b is valid")
}

/// Hash of every layer output of a two-frame batch, for each algorithm
/// and thread count, and the fused runner's output on frame 0.
fn hashes(net: &Network, seed: u64, budget_bytes: u64) -> Vec<(String, u64)> {
    let weights = NetworkWeights::random(net, seed).expect("weights");
    let s = net.input_shape();
    let x = random_tensor(2, s.channels, s.height, s.width, seed + 1);
    let mut out = Vec::new();
    for algo in [ExecAlgo::Auto, ExecAlgo::Direct] {
        for threads in [1usize, 2, 4] {
            let layers = NetworkExecutor::with_algo(net, &weights, algo)
                .expect("executor")
                .with_threads(threads)
                .run_all(&x)
                .expect("executor run");
            out.push((format!("executor {algo:?} @{threads}t"), fnv1a(&layers)));
        }
    }
    let fw = Framework::new(FpgaDevice::zc706());
    let design = fw.optimize(net, budget_bytes).expect("optimize");
    let frame = x.frame(0);
    for threads in [1usize, 2, 4] {
        let report = fw
            .fused_runner(net, &design, &weights)
            .expect("runner")
            .with_threads(threads)
            .run(&frame)
            .expect("fused run");
        out.push((format!("fused @{threads}t"), fnv1a([&report.output])));
    }
    out
}

/// The pinned hashes of one network: the executor under `Auto` and
/// `Direct`, and the fused runner.
struct Golden {
    auto: u64,
    direct: u64,
    fused: u64,
}

fn assert_pinned(net: &Network, seed: u64, budget_bytes: u64, golden: Golden) {
    for (case, got) in hashes(net, seed, budget_bytes) {
        let want = match case.split(' ').take(2).collect::<Vec<_>>()[..] {
            ["fused", _] => golden.fused,
            [_, "Auto"] => golden.auto,
            _ => golden.direct,
        };
        assert_eq!(got, want, "{}: {case} hashes to {got:#018x}", net.name());
    }
}

#[test]
fn golden_a_outputs_match_their_pinned_hashes() {
    let golden = Golden {
        auto: 0x4f0e_36db_539b_794b,
        direct: 0x4328_5c19_d92f_6206,
        fused: 0xf749_cd71_24cf_31fc,
    };
    assert_pinned(&golden_a(), 7, 64 * 1024, golden);
}

#[test]
fn golden_b_outputs_match_their_pinned_hashes() {
    // No layer is 3×3 stride 1, so `Auto` runs every layer direct.
    let golden = Golden {
        auto: 0x840c_16ac_e8d1_3d1c,
        direct: 0x840c_16ac_e8d1_3d1c,
        fused: 0x8909_4f4c_81a5_bc22,
    };
    assert_pinned(&golden_b(), 11, 64 * 1024, golden);
}
