//! The paper's AlexNet case study (§7.3): fuse the whole convolutional
//! body into one group under the minimal transfer budget and print a
//! Table-2-style per-layer report — then *run* the fused group through
//! the behavioral simulator and check it against the layer-by-layer
//! reference executor.
//!
//! ```text
//! cargo run --release --example alexnet_fusion
//! ```

use winofuse::fusion::simulator::FusedGroupSim;
use winofuse::model::runtime::{forward, NetworkWeights};
use winofuse::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = winofuse::model::zoo::alexnet().conv_body()?;
    let device = FpgaDevice::zc706();
    println!("network: {net}");

    // §7.3's budget: first-layer input + last-layer output (~340 KB).
    let budget = net.fused_transfer_bytes(0..net.len(), DataType::Fixed16)?;
    println!(
        "transfer budget: {} KB (input + output of the fused body)",
        budget / 1024
    );

    // The body is 10 layers; §7.3 fuses them all (raise the 8-layer cap).
    let fw = Framework::new(device.clone()).with_max_group_layers(10);
    let design = fw.optimize(&net, budget)?;
    assert_eq!(
        design.partition.groups.len(),
        1,
        "everything fuses into one group"
    );

    println!("\n--- Table 2 style report ---");
    print!("{}", fw.report(&net, &design));

    println!("\nper-conv-layer algorithm assignment:");
    for (name, algo) in Framework::conv_algorithms(&net, &design) {
        println!("  {name:<8} {algo}");
    }
    println!(
        "\npower: {:.1} W, energy/frame: {:.1} mJ",
        fw.power_watts(&design),
        fw.energy_joules(&design) * 1e3
    );

    // Behavioral validation on a downscaled copy of the network (the
    // simulator computes real values; full 227x227 AlexNet is slow in a
    // demo). The fused pipeline must match unfused execution exactly.
    println!("\nbehavioral check on a 4x-downscaled body...");
    let small = scaled_alexnet_body()?;
    let fw_small = Framework::new(device.clone()).with_max_group_layers(10);
    let small_budget = small.fused_transfer_bytes(0..small.len(), DataType::Fixed16)?;
    let d_small = fw_small.optimize(&small, small_budget)?;
    let plan = &d_small.partition.groups[0];

    let weights = NetworkWeights::random(&small, 42)?;
    let input = winofuse::conv::tensor::random_tensor(
        1,
        small.input_shape().channels,
        small.input_shape().height,
        small.input_shape().width,
        7,
    );
    let reference = forward(&small, &weights, &input)?;
    let mut sim = FusedGroupSim::new(&small, 0, &plan.configs, &weights, &device)?;
    let result = sim.run(&input)?;
    let gold = reference.last().expect("network is nonempty");
    let diff = result.output.max_abs_diff(gold)?;
    println!(
        "fused-vs-reference max abs diff: {diff:.2e} ({} cycles simulated, {} B read, {} B written)",
        result.cycles, result.dram_bytes_read, result.dram_bytes_written
    );
    assert!(diff < 1e-3, "fused execution must match the reference");
    println!("fusion is functionally transparent ✓");
    Ok(())
}

/// AlexNet's body with 4x smaller spatial extent (same layer structure).
fn scaled_alexnet_body() -> Result<Network, winofuse::model::ModelError> {
    use winofuse::model::layer::{LrnParams, PoolParams};
    Network::builder("alexnet-body-small", FmShape::new(3, 59, 59))
        .conv("conv1", ConvParams::new(24, 11, 4, 0, true))
        .lrn("norm1", LrnParams::default())
        .pool("pool1", PoolParams::max3x3s2())
        .conv("conv2", ConvParams::new(32, 5, 1, 2, true).with_groups(2))
        .lrn("norm2", LrnParams::default())
        .pool("pool2", PoolParams::max3x3s2())
        .conv("conv3", ConvParams::new(48, 3, 1, 1, true))
        .conv("conv4", ConvParams::new(48, 3, 1, 1, true).with_groups(2))
        .conv("conv5", ConvParams::new(32, 3, 1, 1, true).with_groups(2))
        .build()
}
