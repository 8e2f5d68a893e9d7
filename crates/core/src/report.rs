//! Machine-readable design export (JSON, hand-rolled — no external
//! dependencies), for downstream tooling that wants to consume strategies
//! without linking the library.

use std::fmt::Write as _;

use winofuse_model::network::Network;
use winofuse_telemetry::json::esc;

use crate::framework::OptimizedDesign;

/// Serializes an optimized design to a self-describing JSON document:
/// network identity, per-group plans with per-layer strategy triples and
/// resource vectors, and the aggregate timing.
///
/// # Examples
///
/// ```
/// use winofuse_core::{framework::Framework, report};
/// use winofuse_fpga::device::FpgaDevice;
/// use winofuse_model::zoo;
///
/// # fn main() -> Result<(), winofuse_core::CoreError> {
/// let net = zoo::small_test_net();
/// let design = Framework::new(FpgaDevice::zc706()).optimize(&net, 8 * 1024 * 1024)?;
/// let json = report::to_json(&net, &design);
/// assert!(json.contains("\"groups\""));
/// # Ok(())
/// # }
/// ```
pub fn to_json(net: &Network, design: &OptimizedDesign) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"network\": \"{}\",", esc(net.name()));
    let _ = writeln!(s, "  \"layers\": {},", net.len());
    let _ = writeln!(s, "  \"latency_cycles\": {},", design.timing.latency);
    let _ = writeln!(s, "  \"latency_ms\": {:.6},", design.timing.latency_ms);
    let _ = writeln!(
        s,
        "  \"effective_gops\": {:.3},",
        design.timing.effective_gops
    );
    let _ = writeln!(
        s,
        "  \"fmap_transfer_bytes\": {},",
        design.timing.fmap_transfer_bytes
    );
    let _ = writeln!(
        s,
        "  \"weight_transfer_bytes\": {},",
        design.timing.weight_transfer_bytes
    );
    let _ = writeln!(s, "  \"groups\": [");
    for (gi, g) in design.partition.groups.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"start\": {}, \"end\": {},", g.start, g.end);
        let _ = writeln!(s, "      \"latency_cycles\": {},", g.timing.latency);
        let _ = writeln!(
            s,
            "      \"bandwidth_bound\": {},",
            g.timing.bandwidth_bound
        );
        let r = g.timing.resources;
        let _ = writeln!(
            s,
            "      \"resources\": {{\"bram_18k\": {}, \"dsp\": {}, \"ff\": {}, \"lut\": {}}},",
            r.bram_18k, r.dsp, r.ff, r.lut
        );
        let _ = writeln!(s, "      \"layers\": [");
        for (li, cfg) in g.configs.iter().enumerate() {
            let lr = cfg.estimate.resources;
            let _ = writeln!(s, "        {{");
            let _ = writeln!(s, "          \"name\": \"{}\",", esc(&cfg.layer.name));
            let _ = writeln!(s, "          \"kind\": \"{}\",", cfg.layer.kind.tag());
            let _ = writeln!(s, "          \"algorithm\": \"{}\",", cfg.engine.algorithm);
            let _ = writeln!(s, "          \"parallelism\": {},", cfg.engine.parallelism);
            let _ = writeln!(
                s,
                "          \"input\": \"{}\", \"output\": \"{}\",",
                cfg.input, cfg.output
            );
            let _ = writeln!(
                s,
                "          \"resources\": {{\"bram_18k\": {}, \"dsp\": {}, \"ff\": {}, \"lut\": {}}}",
                lr.bram_18k, lr.dsp, lr.ff, lr.lut
            );
            let comma = if li + 1 < g.configs.len() { "," } else { "" };
            let _ = writeln!(s, "        }}{comma}");
        }
        let _ = writeln!(s, "      ]");
        let comma = if gi + 1 < design.partition.groups.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Serializes a (transfer, latency) trade-off curve as CSV with a header
/// row — the raw data behind a Fig. 5-style plot.
pub fn curve_to_csv(curve: &[(u64, u64)]) -> String {
    let mut s = String::from("transfer_bytes,latency_cycles\n");
    for (t, l) in curve {
        let _ = writeln!(s, "{t},{l}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Framework;
    use winofuse_fpga::device::FpgaDevice;
    use winofuse_model::zoo;

    const MB: u64 = 1024 * 1024;

    /// A tiny structural JSON validator: brackets balance, strings close.
    fn check_json_balanced(s: &str) {
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut esc = false;
        for c in s.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced JSON");
        assert!(!in_str, "unterminated string");
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let net = zoo::small_test_net();
        let design = Framework::new(FpgaDevice::zc706())
            .optimize(&net, 8 * MB)
            .unwrap();
        let json = to_json(&net, &design);
        check_json_balanced(&json);
        for layer in net.layers() {
            assert!(json.contains(&format!("\"name\": \"{}\"", layer.name)));
        }
        assert!(json.contains("\"algorithm\""));
        assert!(json.contains("\"bram_18k\""));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = curve_to_csv(&[(100, 2000), (200, 1000)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "transfer_bytes,latency_cycles");
        assert_eq!(lines[1], "100,2000");
        assert_eq!(lines.len(), 3);
    }
}
