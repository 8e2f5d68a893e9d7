//! The paper's AlexNet case study (§7.3): fuse the whole convolutional
//! body into one group under the minimal transfer budget and print a
//! Table-2-style per-layer report — then simulate the fused group's
//! timing and *run* it through the fused runner, checking its values
//! against the layer-by-layer reference executor.
//!
//! ```text
//! cargo run --release --example alexnet_fusion
//! ```

use winofuse::model::runtime::NetworkWeights;
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
    let fw = Framework::new(device).with_max_group_layers(10);
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

    // Functional and timing validation of the whole fused body.
    println!("\nvalidating the fused body...");
    let weights = NetworkWeights::random(&net, 42)?;
    let input = winofuse::conv::tensor::random_tensor(
        1,
        net.input_shape().channels,
        net.input_shape().height,
        net.input_shape().width,
        7,
    );
    let (_, groups) = fw.validate_by_simulation(&net, &design, &weights, &input, 1e-3)?;
    let group = &groups[0];
    println!(
        "fused-vs-reference max abs diff: {:.2e} ({} cycles simulated, {} B read, {} B written)",
        group.max_abs_err,
        group.sim.cycles,
        group.sim.dram_bytes_read,
        group.sim.dram_bytes_written
    );
    println!("fusion is functionally transparent ✓");
    Ok(())
}
