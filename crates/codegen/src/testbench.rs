//! C testbench generation with golden vectors.
//!
//! The paper validates generated designs with Vivado HLS C simulation
//! (§7.1). This module closes that loop for the reproduction: the
//! layer-by-layer reference ([`forward`]) computes the golden
//! input/output vectors in Rust, and a `tb_fusion_group_N.cpp` is emitted
//! that streams the group's input through its top function and compares
//! against the expected output within a fixed-point tolerance — exactly
//! what a Vivado `csim_design` run would execute.

use std::fmt::Write as _;

use winofuse_core::framework::OptimizedDesign;
use winofuse_model::network::Network;
use winofuse_model::runtime::{forward, NetworkWeights};
use winofuse_model::LayerKind;

use crate::template::c_ident;
use crate::CodegenError;

/// Upper bound on embedded literal values per testbench (inputs +
/// outputs + weights); beyond this the testbench source would be
/// unreasonably large.
pub const MAX_EMBEDDED_VALUES: usize = 400_000;

fn emit_f32_array(s: &mut String, name: &str, dims: &str, values: impl Iterator<Item = f32>) {
    let _ = writeln!(s, "static const float {name}{dims} = {{");
    let mut line = String::from("    ");
    for v in values {
        let _ = write!(line, "{v:.6}f, ");
        if line.len() > 90 {
            let _ = writeln!(s, "{line}");
            line = String::from("    ");
        }
    }
    if line.trim() != "" {
        let _ = writeln!(s, "{line}");
    }
    let _ = writeln!(s, "}};");
}

/// Generates C testbenches for every fusion group of a design: golden
/// vectors come from one [`forward`] run on `input` with `weights` — a
/// group's input is the output of the layer before it (or `input`), and
/// its expected output is the output of its last layer. Returns
/// `(file name, contents)` pairs to append to an [`crate::HlsProject`]
/// output directory.
///
/// # Errors
///
/// * [`CodegenError::UnsupportedLayer`] when the total embedded data
///   exceeds [`MAX_EMBEDDED_VALUES`] (use a smaller network or input),
/// * [`CodegenError::ConsistencyCheck`] when the reference cannot run the
///   network.
pub fn generate_testbenches(
    net: &Network,
    design: &OptimizedDesign,
    weights: &NetworkWeights,
    input: &winofuse_conv::tensor::Tensor<f32>,
) -> Result<Vec<(String, String)>, CodegenError> {
    // Budget check across all groups (from shapes alone, before any
    // computation): I/O plus conv weights.
    let mut total_values = input.len();
    for plan in &design.partition.groups {
        let out_shape = plan
            .configs
            .last()
            .map(|c| c.output)
            .unwrap_or(plan.configs[0].input);
        total_values += out_shape.elements();
        for (off, cfg) in plan.configs.iter().enumerate() {
            if matches!(cfg.layer.kind, LayerKind::Conv(_)) {
                if let winofuse_model::runtime::LayerWeights::Conv(k) =
                    weights.layer(plan.start + off)
                {
                    total_values += k.len();
                }
            }
        }
    }
    if total_values > MAX_EMBEDDED_VALUES {
        return Err(CodegenError::UnsupportedLayer(format!(
            "testbench would embed {total_values} literals (max {MAX_EMBEDDED_VALUES}); \
             use a smaller network or input"
        )));
    }

    let reference = forward(net, weights, input)
        .map_err(|e| CodegenError::ConsistencyCheck(format!("reference run failed: {e}")))?;
    let mut out = Vec::new();
    for (g, plan) in design.partition.groups.iter().enumerate() {
        let group_input = plan.start.checked_sub(1).map_or(input, |i| &reference[i]);
        let expected = &reference[plan.end - 1];

        let mut s = String::new();
        let _ = writeln!(
            s,
            "// Generated by winofuse-codegen: C testbench for fusion group {g}."
        );
        let _ = writeln!(
            s,
            "// Golden vectors computed by the layer-by-layer reference (forward)."
        );
        let _ = writeln!(s, "#include \"winofuse.h\"");
        let _ = writeln!(s, "#include <cstdio>");
        let _ = writeln!(s, "#include <cmath>");
        let _ = writeln!(s);

        let in_shape = plan.configs[0].input;
        let out_shape = plan.configs.last().expect("nonempty group").output;
        emit_f32_array(
            &mut s,
            "tb_input",
            &format!("[{}]", group_input.len()),
            group_input.as_slice().iter().copied(),
        );
        emit_f32_array(
            &mut s,
            "tb_expected",
            &format!("[{}]", expected.len()),
            expected.as_slice().iter().copied(),
        );
        // Per-conv-layer weights (transformed weights are computed by the
        // synthesis-time tool, so the testbench carries spatial kernels
        // for conventional layers and skips winograd banks: the top
        // function signature takes them, so emit zero-filled banks too).
        let mut weight_decls = Vec::new();
        for (off, cfg) in plan.configs.iter().enumerate() {
            if let LayerKind::Conv(c) = &cfg.layer.kind {
                let name = c_ident(&cfg.layer.name);
                match cfg.engine.algorithm {
                    winofuse_fpga::engine::Algorithm::Conventional => {
                        if let winofuse_model::runtime::LayerWeights::Conv(k) =
                            weights.layer(plan.start + off)
                        {
                            emit_f32_array(
                                &mut s,
                                &format!("tb_{name}_w"),
                                &format!(
                                    "[{}][{}][{}][{}]",
                                    c.num_output,
                                    c.channels_per_group(cfg.input.channels),
                                    c.kernel,
                                    c.kernel
                                ),
                                k.as_slice().iter().copied(),
                            );
                            weight_decls.push((name, false));
                        }
                    }
                    winofuse_fpga::engine::Algorithm::Winograd { m } => {
                        let alpha = m + c.kernel - 1;
                        let _ = writeln!(
                            s,
                            "static data_t tb_{name}_wt[{}][{}][{alpha}][{alpha}]; // filled by offline G*g*GT",
                            c.num_output,
                            c.channels_per_group(cfg.input.channels)
                        );
                        weight_decls.push((name, true));
                    }
                    winofuse_fpga::engine::Algorithm::SparseWinograd { m, density_pm } => {
                        // The sparse bank ships as a dense-shaped α²
                        // array with pruned entries already zeroed (the
                        // offline tool prunes after G*g*GT); the CSR
                        // compression is a wire format, not a testbench
                        // concern.
                        let alpha = m + c.kernel - 1;
                        let _ = writeln!(
                            s,
                            "static data_t tb_{name}_wt[{}][{}][{alpha}][{alpha}]; // filled by offline G*g*GT, pruned to {:.3} density",
                            c.num_output,
                            c.channels_per_group(cfg.input.channels),
                            density_pm as f64 / 1000.0
                        );
                        weight_decls.push((name, true));
                    }
                }
            }
        }

        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "extern void fusion_group_{g}(hls::stream<data_t>&, hls::stream<data_t>&"
        );
        for (name, t) in &weight_decls {
            let suffix = if *t { "wt" } else { "w" };
            let _ = writeln!(s, "    , decltype(tb_{name}_{suffix})&");
        }
        let _ = writeln!(s, ");");
        let _ = writeln!(s);
        let _ = writeln!(s, "int main() {{");
        let _ = writeln!(s, "    hls::stream<data_t> in, out;");
        let _ = writeln!(
            s,
            "    for (int i = 0; i < {}; ++i) in.write(data_t(tb_input[i]));",
            group_input.len()
        );
        let args: String = weight_decls
            .iter()
            .map(|(name, t)| format!(", tb_{name}_{}", if *t { "wt" } else { "w" }))
            .collect();
        let _ = writeln!(s, "    fusion_group_{g}(in, out{args});");
        let _ = writeln!(s, "    int errors = 0;");
        let _ = writeln!(s, "    for (int i = 0; i < {}; ++i) {{", expected.len());
        let _ = writeln!(s, "        float got = (float)out.read();");
        let _ = writeln!(s, "        // Q8.8 tolerance scaled by accumulation depth.");
        let _ = writeln!(
            s,
            "        if (std::fabs(got - tb_expected[i]) > 0.05f) ++errors;"
        );
        let _ = writeln!(s, "    }}");
        let _ = writeln!(
            s,
            "    std::printf(\"group {g}: %s (%d mismatches, %d x %d -> %d x %d)\\n\", errors ? \"FAIL\" : \"PASS\", errors, {}, {}, {}, {});",
            in_shape.channels,
            in_shape.height,
            out_shape.channels,
            out_shape.height
        );
        let _ = writeln!(s, "    return errors ? 1 : 0;");
        let _ = writeln!(s, "}}");

        out.push((format!("tb_fusion_group_{g}.cpp"), s));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use winofuse_conv::tensor::random_tensor;
    use winofuse_core::framework::Framework;
    use winofuse_fpga::device::FpgaDevice;
    use winofuse_model::zoo;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn testbench_embeds_golden_vectors() {
        let net = zoo::small_test_net();
        let design = Framework::new(FpgaDevice::zc706())
            .optimize(&net, 8 * MB)
            .unwrap();
        let weights = NetworkWeights::random(&net, 7).unwrap();
        let input = random_tensor(1, 3, 32, 32, 8);
        let tbs = generate_testbenches(&net, &design, &weights, &input).unwrap();
        assert_eq!(tbs.len(), design.partition.groups.len());
        let (name, src) = &tbs[0];
        assert!(name.starts_with("tb_fusion_group_"));
        assert!(src.contains("tb_input["));
        assert!(src.contains("tb_expected["));
        assert!(src.contains("int main()"));
        assert!(src.contains("fusion_group_0(in, out"));
    }

    #[test]
    fn testbench_weight_arguments_match_algorithms() {
        let net = zoo::small_test_net();
        let design = Framework::new(FpgaDevice::zc706())
            .optimize(&net, 8 * MB)
            .unwrap();
        let weights = NetworkWeights::random(&net, 9).unwrap();
        let input = random_tensor(1, 3, 32, 32, 10);
        let tbs = generate_testbenches(&net, &design, &weights, &input).unwrap();
        let all: String = tbs.iter().map(|(_, c)| c.clone()).collect();
        for plan in &design.partition.groups {
            for cfg in &plan.configs {
                if let LayerKind::Conv(_) = cfg.layer.kind {
                    let name = c_ident(&cfg.layer.name);
                    match cfg.engine.algorithm {
                        winofuse_fpga::engine::Algorithm::Conventional => {
                            assert!(all.contains(&format!("tb_{name}_w[")))
                        }
                        winofuse_fpga::engine::Algorithm::Winograd { .. }
                        | winofuse_fpga::engine::Algorithm::SparseWinograd { .. } => {
                            assert!(all.contains(&format!("tb_{name}_wt[")))
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_testbench_rejected() {
        let net = zoo::vgg_e_fused_prefix();
        let design = Framework::new(FpgaDevice::zc706())
            .optimize(&net, 2 * MB)
            .unwrap();
        let weights = NetworkWeights::random(&net, 11).unwrap();
        let input = random_tensor(1, 3, 224, 224, 12);
        // 224x224 VGG I/O blows the literal budget.
        assert!(matches!(
            generate_testbenches(&net, &design, &weights, &input),
            Err(CodegenError::UnsupportedLayer(_))
        ));
    }
}
