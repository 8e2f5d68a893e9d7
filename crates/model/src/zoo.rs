//! The networks evaluated in the paper, described with their published
//! hyper-parameters.

use winofuse_conv::ops::PoolKind;

use crate::layer::{ConvParams, FcParams, LrnParams, PoolParams};
use crate::network::Network;
use crate::shape::FmShape;

/// AlexNet (Krizhevsky et al., NIPS 2012) as distributed with Caffe:
/// five convolutional layers (ReLU folded), two LRN layers, three
/// max-pooling layers and three fully connected layers + softmax.
///
/// §7.3 of the paper evaluates the convolutional body (use
/// [`Network::conv_body`] to drop the FC head the same way).
///
/// # Panics
///
/// Never panics — the description is statically valid.
pub fn alexnet() -> Network {
    Network::builder("alexnet", FmShape::new(3, 227, 227))
        .conv("conv1", ConvParams::new(96, 11, 4, 0, true))
        .lrn("norm1", LrnParams::default())
        .pool("pool1", PoolParams::max3x3s2())
        // conv2/conv4/conv5 use Caffe's group: 2 (the two-GPU split of the
        // original AlexNet), halving their MACs and weights.
        .conv("conv2", ConvParams::new(256, 5, 1, 2, true).with_groups(2))
        .lrn("norm2", LrnParams::default())
        .pool("pool2", PoolParams::max3x3s2())
        .conv("conv3", ConvParams::new(384, 3, 1, 1, true))
        .conv("conv4", ConvParams::new(384, 3, 1, 1, true).with_groups(2))
        .conv("conv5", ConvParams::new(256, 3, 1, 1, true).with_groups(2))
        .pool("pool5", PoolParams::max3x3s2())
        .fc(
            "fc6",
            FcParams {
                num_output: 4096,
                relu: true,
            },
        )
        .fc(
            "fc7",
            FcParams {
                num_output: 4096,
                relu: true,
            },
        )
        .fc(
            "fc8",
            FcParams {
                num_output: 1000,
                relu: false,
            },
        )
        .softmax("prob")
        .build()
        .expect("alexnet description is valid")
}

fn vgg(name: &str, blocks: &[(usize, usize)]) -> Network {
    let mut b = Network::builder(name, FmShape::new(3, 224, 224));
    for (bi, &(convs, ch)) in blocks.iter().enumerate() {
        for ci in 0..convs {
            b = b.conv(format!("conv{}_{}", bi + 1, ci + 1), ConvParams::vgg3x3(ch));
        }
        b = b.pool(format!("pool{}", bi + 1), PoolParams::max2x2());
    }
    b.fc(
        "fc6",
        FcParams {
            num_output: 4096,
            relu: true,
        },
    )
    .fc(
        "fc7",
        FcParams {
            num_output: 4096,
            relu: true,
        },
    )
    .fc(
        "fc8",
        FcParams {
            num_output: 1000,
            relu: false,
        },
    )
    .softmax("prob")
    .build()
    .expect("vgg description is valid")
}

/// VGG-16 (configuration D of Simonyan & Zisserman): 13 convolutional
/// layers in five blocks.
pub fn vgg16() -> Network {
    vgg("vgg16", &[(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)])
}

/// VGGNet-E (VGG-19): "16 convolutional layers, 3 fully connected layers,
/// \[5\] max-pooling layers and one softmax layer" (§7.2 of the paper).
pub fn vgg_e() -> Network {
    vgg("vgg-e", &[(2, 64), (2, 128), (4, 256), (4, 512), (4, 512)])
}

/// The seven-layer VGG-E prefix the paper's Fig. 5 / Table 1 experiments
/// fuse: the first five convolutional layers and two pooling layers
/// (conv1_1, conv1_2, pool1, conv2_1, conv2_2, pool2, conv3_1), matching
/// the choice of Alwani et al. \[1\].
///
/// # Panics
///
/// Never panics — the prefix is statically valid.
pub fn vgg_e_fused_prefix() -> Network {
    vgg_e()
        .subnetwork(0..7)
        .expect("vgg-e has at least 7 layers")
}

/// A GoogleNet-like deep modular network: a stem followed by eight
/// two-conv "inception-style" modules with interleaved pooling — 23
/// fusable layers grouped into 10 modules. §7.1 of the paper suggests
/// treating every module as a single layer to keep the optimizer fast on
/// very deep CNNs; [`crate::network::ModularNetwork::cut_boundaries`]
/// feeds exactly that restriction to the partitioner.
///
/// # Panics
///
/// Never panics — the description is statically valid.
pub fn googlenet_like() -> crate::network::ModularNetwork {
    let mut b = Network::builder("googlenet-like", FmShape::new(3, 224, 224))
        // Stem (module 0).
        .conv("conv1", ConvParams::new(64, 7, 2, 3, true))
        .pool("pool1", PoolParams::max3x3s2())
        // Module 1: reduce + expand.
        .conv("conv2_reduce", ConvParams::new(64, 1, 1, 0, true))
        .conv("conv2", ConvParams::vgg3x3(192))
        .pool("pool2", PoolParams::max3x3s2());
    let mut modules = vec![0..2usize, 2..5];
    let mut at = 5usize;
    // Eight inception-style modules; pooling after the 2nd and 5th.
    let widths: [(usize, usize); 8] = [
        (96, 128),
        (128, 192),
        (96, 208),
        (112, 224),
        (128, 256),
        (144, 288),
        (160, 320),
        (192, 384),
    ];
    for (i, (reduce, expand)) in widths.iter().enumerate() {
        b = b
            .conv(
                format!("inc{}_reduce", i + 1),
                ConvParams::new(*reduce, 1, 1, 0, true),
            )
            .conv(format!("inc{}_3x3", i + 1), ConvParams::vgg3x3(*expand));
        let mut len = 2;
        if i == 1 || i == 4 {
            b = b.pool(format!("pool{}", i + 2), PoolParams::max3x3s2());
            len = 3;
        }
        modules.push(at..at + len);
        at += len;
    }
    let network = b.build().expect("googlenet-like description is valid");
    crate::network::ModularNetwork::new(network, modules).expect("modules tile the network")
}

/// A small network for fast tests: three conv layers with a pool, mixing
/// Winograd-eligible and ineligible layers.
///
/// # Panics
///
/// Never panics.
pub fn small_test_net() -> Network {
    Network::builder("small-test", FmShape::new(3, 32, 32))
        .conv("conv1", ConvParams::new(8, 5, 2, 2, true))
        .conv("conv2", ConvParams::vgg3x3(16))
        .pool("pool1", PoolParams::max2x2())
        .conv("conv3", ConvParams::vgg3x3(16))
        .build()
        .expect("small test net is valid")
}

/// A pooling/LRN-flavored test network (exercises every non-FC template of
/// the code generator).
///
/// # Panics
///
/// Never panics.
pub fn mixed_test_net() -> Network {
    Network::builder("mixed-test", FmShape::new(4, 24, 24))
        .conv("conv1", ConvParams::vgg3x3(8))
        .lrn("norm1", LrnParams::default())
        .pool(
            "pool1",
            PoolParams {
                kernel: 2,
                stride: 2,
                pad: 0,
                kind: PoolKind::Average,
            },
        )
        .conv("conv2", ConvParams::vgg3x3(8))
        .pool("pool2", PoolParams::max2x2())
        .build()
        .expect("mixed test net is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;
    use crate::shape::DataType;

    #[test]
    fn alexnet_published_shapes() {
        let net = alexnet();
        let shapes = net.shapes().unwrap();
        // conv1 -> 96x55x55, pool1 -> 96x27x27, conv2 -> 256x27x27,
        // pool2 -> 256x13x13, conv5 -> 256x13x13, pool5 -> 256x6x6.
        assert_eq!(shapes[1], FmShape::new(96, 55, 55));
        assert_eq!(shapes[3], FmShape::new(96, 27, 27));
        assert_eq!(shapes[4], FmShape::new(256, 27, 27));
        assert_eq!(shapes[6], FmShape::new(256, 13, 13));
        assert_eq!(shapes[10], FmShape::new(256, 6, 6));
        assert_eq!(net.output_shape().unwrap(), FmShape::new(1000, 1, 1));
    }

    #[test]
    fn alexnet_conv_body_ends_at_pool5() {
        let body = alexnet().conv_body().unwrap();
        assert_eq!(body.len(), 10);
        assert_eq!(body.layers().last().unwrap().name, "pool5");
        // Paper §7.3: 340 KB transfer constraint = first input + last output.
        let t = body
            .fused_transfer_bytes(0..body.len(), DataType::Fixed16)
            .unwrap();
        let kb = t as f64 / 1024.0;
        assert!((300.0..340.0).contains(&kb), "got {kb} KB");
    }

    #[test]
    fn vgg_e_has_16_conv_layers() {
        let net = vgg_e();
        assert_eq!(net.conv_layer_indices().len(), 16);
        assert_eq!(
            net.layers()
                .iter()
                .filter(|l| matches!(l.kind, LayerKind::Pool(_)))
                .count(),
            5
        );
        assert_eq!(net.output_shape().unwrap(), FmShape::new(1000, 1, 1));
    }

    #[test]
    fn vgg16_has_13_conv_layers() {
        assert_eq!(vgg16().conv_layer_indices().len(), 13);
    }

    #[test]
    fn vgg_e_block_shapes() {
        let net = vgg_e();
        // After pool5 the body is 512x7x7.
        let body = net.conv_body().unwrap();
        assert_eq!(body.output_shape().unwrap(), FmShape::new(512, 7, 7));
    }

    #[test]
    fn fused_prefix_is_the_papers_seven_layers() {
        let p = vgg_e_fused_prefix();
        assert_eq!(p.len(), 7);
        let names: Vec<&str> = p.layers().iter().map(|l| l.name.as_str()).collect();
        assert_eq!(
            names,
            ["conv1_1", "conv1_2", "pool1", "conv2_1", "conv2_2", "pool2", "conv3_1"]
        );
        assert_eq!(p.conv_layer_indices().len(), 5);
        // Paper: "without fusion architecture, at least 34 MB total feature
        // map transfer is required for these layers" — our per-layer
        // accounting (load input + store output per layer) gives the same
        // order of magnitude.
        let unfused = p.unfused_transfer_bytes(0..7, DataType::Fixed16).unwrap();
        let mb = unfused as f64 / (1024.0 * 1024.0);
        assert!((30.0..50.0).contains(&mb), "got {mb} MB");
    }

    #[test]
    fn vgg_conv2_matches_motivating_example() {
        // §2.2: "This layer has 64 input feature maps with size 224x224 and
        // 64 kernels with 64 channels and size 3x3."
        let net = vgg_e();
        let shape = net.input_shape_of(1).unwrap();
        assert_eq!(shape, FmShape::new(64, 224, 224));
        match &net.layers()[1].kind {
            LayerKind::Conv(c) => {
                assert_eq!((c.num_output, c.kernel, c.stride), (64, 3, 1));
            }
            other => panic!("expected conv, got {other:?}"),
        }
    }

    #[test]
    fn googlenet_like_modules_tile_the_network() {
        let m = googlenet_like();
        assert_eq!(m.modules.len(), 10);
        let mut expected = 0;
        for r in &m.modules {
            assert_eq!(r.start, expected);
            expected = r.end;
        }
        assert_eq!(expected, m.network.len());
        // Cut boundaries are module ends minus the last.
        let cuts = m.cut_boundaries();
        assert_eq!(cuts.len(), m.modules.len() - 1);
        assert_eq!(cuts[0], m.modules[0].end - 1);
        // The net is deep (the point of module coarsening).
        assert!(m.network.len() >= 20, "got {}", m.network.len());
        assert!(m.network.output_shape().is_ok());
    }

    #[test]
    fn small_nets_are_valid_and_mixed() {
        let s = small_test_net();
        assert!(!s.layers()[0].winograd_eligible()); // stride 2
        assert!(s.layers()[1].winograd_eligible());
        let m = mixed_test_net();
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn total_macs_order_of_magnitude() {
        // VGG-E forward pass is ~19.6 GMACs; accept a generous band.
        let g = vgg_e().total_macs() as f64 / 1e9;
        assert!((18.0..22.0).contains(&g), "VGG-E GMACs = {g}");
        // AlexNet conv body ~0.66 GMACs (no groups in our description,
        // so roughly 2x the grouped original's 0.66): just sanity-check.
        let a = alexnet().conv_body().unwrap().total_macs() as f64 / 1e9;
        assert!((0.5..2.5).contains(&a), "AlexNet GMACs = {a}");
    }
}
