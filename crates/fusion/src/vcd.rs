//! Value Change Dump (IEEE 1364 §18) export of a simulation run.
//!
//! Each fused layer becomes a 1-bit `busy` wire; the dump can be opened in
//! GTKWave (or any VCD viewer) to inspect the inter-layer pipeline — fill,
//! steady state, backpressure bubbles and drain are all visible at a
//! glance. This is the kind of artifact a hardware team actually debugs
//! with, and it falls straight out of the timing simulator's
//! [`SimResult::stage_activity`].

use std::fmt::Write as _;

use crate::simulator::SimResult;
use crate::FusionError;

/// VCD identifier characters (printable ASCII, per the spec).
fn ident(i: usize) -> String {
    // 94 printable characters starting at '!'.
    let mut i = i;
    let mut s = String::new();
    loop {
        s.push((b'!' + (i % 94) as u8) as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    s
}

/// Sanitizes a layer name into a VCD wire identifier.
fn wire_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders a [`SimResult`] as a VCD document with one `busy` wire per
/// fused layer, timescale 1 cycle = 1 ns.
///
/// # Errors
///
/// Returns [`FusionError::Simulation`] when the result carries no stage
/// activity (zero stages).
pub fn to_vcd(result: &SimResult) -> Result<String, FusionError> {
    if result.stage_activity.is_empty() {
        return Err(FusionError::Simulation("no stage activity to dump".into()));
    }
    let mut s = String::new();
    let _ = writeln!(s, "$date winofuse behavioral simulation $end");
    let _ = writeln!(s, "$version winofuse-fusion $end");
    let _ = writeln!(s, "$timescale 1ns $end");
    let _ = writeln!(s, "$scope module fusion_group $end");
    for (i, name) in result.stage_names.iter().enumerate() {
        let _ = writeln!(s, "$var wire 1 {} {}_busy $end", ident(i), wire_name(name));
    }
    let _ = writeln!(s, "$upscope $end");
    let _ = writeln!(s, "$enddefinitions $end");

    // Collect (time, stage, value) events and emit in time order.
    let mut events: Vec<(u64, usize, u8)> = Vec::new();
    for (i, intervals) in result.stage_activity.iter().enumerate() {
        for &(start, end) in intervals {
            events.push((start, i, 1));
            events.push((end, i, 0));
        }
    }
    // At equal timestamps emit falls before rises so a stage that ends
    // one interval and starts another at the same cycle toggles cleanly.
    events.sort_by_key(|&(t, i, v)| (t, v, i));

    let _ = writeln!(s, "#0");
    for i in 0..result.stage_names.len() {
        let _ = writeln!(s, "0{}", ident(i));
    }
    let mut last_t = 0u64;
    for (t, i, v) in events {
        if t != last_t {
            let _ = writeln!(s, "#{t}");
            last_t = t;
        }
        let _ = writeln!(s, "{v}{}", ident(i));
    }
    if last_t < result.cycles {
        let _ = writeln!(s, "#{}", result.cycles);
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::LayerConfig;
    use crate::simulator::FusedGroupSim;
    use winofuse_fpga::device::FpgaDevice;
    use winofuse_fpga::engine::{Algorithm, EngineConfig};
    use winofuse_model::zoo;

    fn run_small() -> SimResult {
        let net = zoo::small_test_net();
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
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &FpgaDevice::zc706()).unwrap();
        sim.run().unwrap()
    }

    #[test]
    fn vcd_structure_is_valid() {
        let r = run_small();
        let vcd = to_vcd(&r).unwrap();
        assert!(vcd.contains("$timescale 1ns $end"));
        assert!(vcd.contains("$enddefinitions $end"));
        // One wire declaration per stage.
        assert_eq!(vcd.matches("$var wire 1 ").count(), r.stage_names.len());
        assert!(vcd.contains("conv1_busy"));
        // Initial values at #0 for every wire.
        assert!(vcd.contains("#0\n"));
    }

    #[test]
    fn vcd_transitions_balance() {
        let r = run_small();
        let vcd = to_vcd(&r).unwrap();
        // Per wire, rises equal falls (every interval closes), plus the
        // initial zero.
        for i in 0..r.stage_names.len() {
            let id = ident(i);
            let rises = vcd.lines().filter(|l| *l == format!("1{id}")).count();
            let falls = vcd.lines().filter(|l| *l == format!("0{id}")).count();
            assert_eq!(rises + 1, falls, "wire {i}: {rises} rises vs {falls} falls");
            assert_eq!(rises, r.stage_activity[i].len());
        }
    }

    #[test]
    fn vcd_timestamps_are_monotone() {
        let r = run_small();
        let vcd = to_vcd(&r).unwrap();
        let mut last = -1i64;
        for line in vcd.lines() {
            if let Some(t) = line.strip_prefix('#') {
                let t: i64 = t.parse().unwrap();
                assert!(t >= last, "timestamp {t} after {last}");
                last = t;
            }
        }
        assert_eq!(last as u64, r.cycles, "dump must span the whole run");
    }

    #[test]
    fn ident_generation_is_unique_and_printable() {
        let ids: Vec<String> = (0..300).map(ident).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 300, "identifiers must be unique");
        assert!(ids
            .iter()
            .all(|s| s.chars().all(|c| ('!'..='~').contains(&c))));
    }
}
