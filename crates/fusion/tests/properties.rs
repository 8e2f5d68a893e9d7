//! Property tests for the fusion architecture models.

use proptest::prelude::*;
use winofuse_fpga::device::FpgaDevice;
use winofuse_fpga::engine::{Algorithm, EngineConfig};
use winofuse_fusion::line_buffer::LineBuffer;
use winofuse_fusion::pipeline::{group_timing, LayerConfig};
use winofuse_fusion::pyramid::{Pyramid, SpatialSpec};
use winofuse_model::layer::ConvParams;
use winofuse_model::network::Network;
use winofuse_model::shape::{DataType, FmShape};

fn arb_chain() -> impl Strategy<Value = Network> {
    (
        12usize..32,
        2usize..6,
        prop::collection::vec((0usize..2, 1usize..3), 1..4),
    )
        .prop_filter_map("buildable", |(hw, ch, layers)| {
            let mut b = Network::builder("prop-fusion", FmShape::new(3, hw, hw));
            for (i, (kind, _)) in layers.iter().enumerate() {
                match kind {
                    0 => {
                        b = b.conv(format!("c{i}"), ConvParams::vgg3x3(ch * 2));
                    }
                    _ => {
                        b = b.pool(format!("p{i}"), winofuse_model::layer::PoolParams::max2x2());
                    }
                }
            }
            b.build().ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fused group's DRAM traffic never exceeds the unfused sum, and
    /// equals first-input + last-output exactly.
    #[test]
    fn fusion_saves_transfer(net in arb_chain()) {
        let dt = DataType::Fixed16;
        let fused = net.fused_transfer_bytes(0..net.len(), dt).unwrap();
        let unfused = net.unfused_transfer_bytes(0..net.len(), dt).unwrap();
        prop_assert!(fused <= unfused);
        let expect = net.input_shape().bytes(dt) as u64
            + net.output_shape().unwrap().bytes(dt) as u64;
        prop_assert_eq!(fused, expect);
    }

    /// Raising any single layer's parallelism never makes the group
    /// slower (the resource/latency trade the optimizer navigates).
    #[test]
    fn group_latency_monotone_in_parallelism(net in arb_chain(), which in 0usize..4) {
        let dev = FpgaDevice::zc706();
        let build = |boost: Option<usize>| -> Option<u64> {
            let configs: Vec<LayerConfig> = (0..net.len())
                .map(|i| {
                    let p = if boost == Some(i) { 8 } else { 2 };
                    LayerConfig::build(
                        &net,
                        i,
                        EngineConfig { algorithm: Algorithm::Conventional, parallelism: p },
                    )
                    .ok()
                })
                .collect::<Option<Vec<_>>>()?;
            group_timing(&configs, &dev).ok().map(|t| t.latency)
        };
        let base = build(None);
        let boosted = build(Some(which % net.len()));
        if let (Some(b), Some(f)) = (base, boosted) {
            prop_assert!(f <= b, "boosting a layer slowed the group: {f} > {b}");
        }
    }

    /// Pyramid sizes are monotone: a bigger output tile never needs a
    /// smaller input region, and deeper stacks never need less.
    #[test]
    fn pyramid_monotonicity(
        specs in prop::collection::vec((1usize..5, 1usize..3), 1..5),
        tile in 1usize..8,
    ) {
        let specs: Vec<SpatialSpec> =
            specs.into_iter().map(|(k, s)| SpatialSpec { kernel: k, stride: s, pad: 0 }).collect();
        let p = Pyramid::new(specs.clone()).unwrap();
        prop_assert!(p.required_input(tile + 1) >= p.required_input(tile));
        if specs.len() > 1 {
            let shallower = Pyramid::new(specs[1..].to_vec()).unwrap();
            prop_assert!(p.required_input(tile) >= shallower.required_input(tile));
        }
        // Region sizes shrink monotonically toward the output.
        let sizes = p.region_sizes(tile);
        for w in sizes.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    /// The K+S line-buffer schedule of §4.2 never faults for any (K, S,
    /// H): each output row's window is resident while the next S rows
    /// stream in.
    #[test]
    fn line_buffer_schedule_never_faults(
        k in 1usize..6,
        s in 1usize..4,
        extra_rows in 0usize..20,
    ) {
        let h = k + s * extra_rows; // at least one output row
        let mut lb = LineBuffer::new(k + s);
        let out_rows = (h - k) / s + 1;
        for i in 0..out_rows {
            let need = (i * s + k + s).min(h);
            while lb.rows_pushed() < need {
                lb.push();
            }
            for r in i * s..i * s + k {
                prop_assert!(lb.contains_row(r), "row {r} evicted at output {i} (K={k}, S={s})");
            }
        }
    }
}
