//! Inspect the inter-layer pipeline: simulate an optimized fusion group,
//! print the bottleneck diagnosis and per-stage occupancy, and dump a VCD
//! waveform you can open in GTKWave.
//!
//! ```text
//! cargo run --release --example pipeline_waveform [output.vcd]
//! ```

use winofuse::fusion::simulator::FusedGroupSim;
use winofuse::fusion::vcd;
use winofuse::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = winofuse::model::zoo::small_test_net();
    let device = FpgaDevice::zc706();
    let fw = Framework::new(device.clone());
    let design = fw.optimize(&net, 8 * 1024 * 1024)?;
    println!("network: {net}");
    println!("\n--- bottleneck diagnosis ---");
    print!("{}", fw.explain(&net, &design));

    // Simulate the first fusion group's timing.
    let plan = &design.partition.groups[0];
    let result = FusedGroupSim::new(&net, plan.start, &plan.configs, &device)?.run()?;

    println!("\n--- simulated occupancy ({} cycles) ---", result.cycles);
    for (name, occ) in result.stage_names.iter().zip(result.stage_occupancy()) {
        let bar: String = std::iter::repeat_n('#', (occ * 40.0) as usize).collect();
        println!("  {name:<10} {:>5.1}% |{bar:<40}|", occ * 100.0);
    }

    let dump = vcd::to_vcd(&result)?;
    let path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("winofuse_pipeline.vcd"));
    std::fs::write(&path, &dump)?;
    println!(
        "\nVCD waveform written to {} ({} lines) — open it in GTKWave to see",
        path.display(),
        dump.lines().count()
    );
    println!("the pipeline fill, steady state and drain of every fused layer.");
    Ok(())
}
