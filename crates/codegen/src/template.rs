//! Per-layer Vivado-HLS-style C++ templates.
//!
//! Each template renders one layer function operating on `hls::stream`
//! channels. Parameters the paper lists in Fig. 4 — data type, input
//! shape, output count, kernel size, stride, parallelism — arrive through
//! the resolved [`LayerConfig`].

use std::fmt::Write as _;

use winofuse_conv::cook_toom::WinogradTransform;
use winofuse_fpga::engine::Algorithm;
use winofuse_fusion::pipeline::LayerConfig;
use winofuse_model::layer::LayerKind;

use crate::CodegenError;

/// Sanitizes a layer name into a C identifier.
pub fn c_ident(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true) {
        s.insert(0, 'l');
    }
    s
}

fn stream_ty() -> &'static str {
    "hls::stream<data_t>"
}

/// Renders the shared header (`winofuse.h`): the 16-bit fixed data type
/// and stream includes.
pub fn render_header() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "// Generated by winofuse-codegen. Do not edit.");
    let _ = writeln!(s, "#ifndef WINOFUSE_H");
    let _ = writeln!(s, "#define WINOFUSE_H");
    let _ = writeln!(s, "#include <ap_fixed.h>");
    let _ = writeln!(s, "#include <hls_stream.h>");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "// 16-bit fixed point, 8 integer bits (the paper's data type)."
    );
    let _ = writeln!(s, "typedef ap_fixed<16, 8> data_t;");
    let _ = writeln!(s, "typedef ap_fixed<32, 16> acc_t;");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "// Cross-channel LRN normalization: a / (k + alpha/n * sum_sq)^beta."
    );
    let _ = writeln!(
        s,
        "// hls::pow is resource-hungry; real designs replace it with a LUT-based"
    );
    let _ = writeln!(
        s,
        "// piecewise approximation, which this helper isolates behind one call."
    );
    let _ = writeln!(s, "#include <hls_math.h>");
    let _ = writeln!(
        s,
        "inline data_t lrn_normalize(data_t a, acc_t sum_sq, int n, float alpha, float beta, float k) {{"
    );
    let _ = writeln!(
        s,
        "    float denom = hls::powf(k + alpha / n * (float)sum_sq, beta);"
    );
    let _ = writeln!(s, "    return data_t((float)a / denom);");
    let _ = writeln!(s, "}}");
    let _ = writeln!(s);
    let _ = writeln!(s, "#endif // WINOFUSE_H");
    s
}

/// Renders the generic 2-D Winograd transform helpers for a given tile:
/// `V = Bᵀ·d·B` (input) and `Y = Aᵀ·M·A` (output). Emitted once per
/// source file for every (α, m) pair the group's layers use.
pub fn render_transform_helpers(alpha: usize, m: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// 2-D Winograd transforms for alpha = {alpha}, m = {m} (fully unrolled"
    );
    let _ = writeln!(
        s,
        "// by HLS; the constant multiplies fold into shift/add networks)."
    );
    let _ = writeln!(
        s,
        "inline void winograd_input_transform_{alpha}(const data_t d[{alpha}][{alpha}], const data_t BT[{alpha}][{alpha}], data_t V[{alpha}][{alpha}]) {{"
    );
    let _ = writeln!(s, "#pragma HLS INLINE");
    let _ = writeln!(s, "    data_t tmp[{alpha}][{alpha}];");
    let _ = writeln!(s, "#pragma HLS ARRAY_PARTITION variable=tmp complete dim=0");
    let _ = writeln!(s, "    // tmp = BT * d");
    let _ = writeln!(s, "    for (int i = 0; i < {alpha}; ++i)");
    let _ = writeln!(s, "        for (int j = 0; j < {alpha}; ++j) {{");
    let _ = writeln!(s, "#pragma HLS UNROLL");
    let _ = writeln!(s, "            acc_t acc = 0;");
    let _ = writeln!(
        s,
        "            for (int t = 0; t < {alpha}; ++t) acc += BT[i][t] * d[t][j];"
    );
    let _ = writeln!(s, "            tmp[i][j] = data_t(acc);");
    let _ = writeln!(s, "        }}");
    let _ = writeln!(s, "    // V = tmp * B  (B = BT transposed)");
    let _ = writeln!(s, "    for (int i = 0; i < {alpha}; ++i)");
    let _ = writeln!(s, "        for (int j = 0; j < {alpha}; ++j) {{");
    let _ = writeln!(s, "#pragma HLS UNROLL");
    let _ = writeln!(s, "            acc_t acc = 0;");
    let _ = writeln!(
        s,
        "            for (int t = 0; t < {alpha}; ++t) acc += tmp[i][t] * BT[j][t];"
    );
    let _ = writeln!(s, "            V[i][j] = data_t(acc);");
    let _ = writeln!(s, "        }}");
    let _ = writeln!(s, "}}");
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "inline void winograd_output_transform_{alpha}_{m}(data_t M[{alpha}][{alpha}], const data_t AT[{m}][{alpha}], data_t Y[{m}][{m}]) {{"
    );
    let _ = writeln!(s, "#pragma HLS INLINE");
    let _ = writeln!(s, "    data_t tmp[{m}][{alpha}];");
    let _ = writeln!(s, "#pragma HLS ARRAY_PARTITION variable=tmp complete dim=0");
    let _ = writeln!(s, "    // tmp = AT * M");
    let _ = writeln!(s, "    for (int i = 0; i < {m}; ++i)");
    let _ = writeln!(s, "        for (int j = 0; j < {alpha}; ++j) {{");
    let _ = writeln!(s, "#pragma HLS UNROLL");
    let _ = writeln!(s, "            acc_t acc = 0;");
    let _ = writeln!(
        s,
        "            for (int t = 0; t < {alpha}; ++t) acc += AT[i][t] * M[t][j];"
    );
    let _ = writeln!(s, "            tmp[i][j] = data_t(acc);");
    let _ = writeln!(s, "        }}");
    let _ = writeln!(
        s,
        "    // Y = tmp * A  (A = AT transposed); also clears M for the next tile."
    );
    let _ = writeln!(s, "    for (int i = 0; i < {m}; ++i)");
    let _ = writeln!(s, "        for (int j = 0; j < {m}; ++j) {{");
    let _ = writeln!(s, "#pragma HLS UNROLL");
    let _ = writeln!(s, "            acc_t acc = 0;");
    let _ = writeln!(
        s,
        "            for (int t = 0; t < {alpha}; ++t) acc += tmp[i][t] * AT[j][t];"
    );
    let _ = writeln!(s, "            Y[i][j] = data_t(acc);");
    let _ = writeln!(s, "        }}");
    let _ = writeln!(s, "    for (int i = 0; i < {alpha}; ++i)");
    let _ = writeln!(s, "        for (int j = 0; j < {alpha}; ++j) M[i][j] = 0;");
    let _ = writeln!(s, "}}");
    s
}

/// The (α, m) Winograd tile parameters a layer config needs, if any.
pub fn winograd_tile_of(cfg: &LayerConfig) -> Option<(usize, usize)> {
    match (&cfg.layer.kind, cfg.engine.algorithm) {
        (LayerKind::Conv(c), Algorithm::Winograd { m })
        | (LayerKind::Conv(c), Algorithm::SparseWinograd { m, .. }) => Some((m + c.kernel - 1, m)),
        _ => None,
    }
}

/// Renders the function for one configured layer.
///
/// # Errors
///
/// Returns [`CodegenError::UnsupportedLayer`] for layer kinds outside the
/// template library (FC, softmax) and [`CodegenError::Transform`] when a
/// Winograd transform cannot be generated.
pub fn render_layer(cfg: &LayerConfig) -> Result<String, CodegenError> {
    match (&cfg.layer.kind, cfg.engine.algorithm) {
        (LayerKind::Conv(_), Algorithm::Conventional) => Ok(render_conv_conventional(cfg)),
        (LayerKind::Conv(_), Algorithm::Winograd { m }) => render_conv_winograd(cfg, m),
        // Sparse Winograd reuses the dense tile datapath: the bank
        // arrives with pruned entries zeroed, so the template's MACs on
        // them are no-ops. (A CSR-decoding template is the cycle-true
        // variant; the cost model accounts for it — see DESIGN.md §14.)
        (LayerKind::Conv(_), Algorithm::SparseWinograd { m, .. }) => render_conv_winograd(cfg, m),
        (LayerKind::Pool(_), _) => Ok(render_pool(cfg)),
        (LayerKind::Lrn(_), _) => Ok(render_lrn(cfg)),
        (LayerKind::Relu, _) => Ok(render_relu(cfg)),
        (other, _) => Err(CodegenError::UnsupportedLayer(format!(
            "layer `{}` of kind `{}` has no HLS template",
            cfg.layer.name,
            other.tag()
        ))),
    }
}

fn render_conv_conventional(cfg: &LayerConfig) -> String {
    let LayerKind::Conv(c) = &cfg.layer.kind else {
        unreachable!()
    };
    let name = c_ident(&cfg.layer.name);
    let (m_ch, h, w) = (cfg.input.channels, cfg.input.height, cfg.input.width);
    let (n_ch, oh, ow) = (cfg.output.channels, cfg.output.height, cfg.output.width);
    let (k, s_, pad, p) = (c.kernel, c.stride, c.pad, cfg.engine.parallelism);
    let groups = c.groups.max(1);
    let mg = m_ch / groups; // input channels per group
    let lb_rows = cfg.estimate.line_buffer_rows;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "// conv layer `{}`: conventional algorithm, parallelism {p}",
        cfg.layer.name
    );
    let _ = writeln!(
        s,
        "// {m_ch}x{h}x{w} -> {n_ch}x{oh}x{ow}, K={k} S={s_} pad={pad} groups={groups}"
    );
    let _ = writeln!(
        s,
        "void {name}({st} &in, {st} &out, const data_t weights[{n_ch}][{mg}][{k}][{k}]) {{",
        st = stream_ty()
    );
    let _ = writeln!(s, "#pragma HLS INLINE off");
    let _ = writeln!(
        s,
        "    // Circular line buffer of K+S = {lb_rows} rows (paper Fig. 2(b))."
    );
    let _ = writeln!(s, "    static data_t line_buf[{lb_rows}][{m_ch}][{w}];");
    let _ = writeln!(
        s,
        "#pragma HLS ARRAY_PARTITION variable=line_buf complete dim=1"
    );
    let _ = writeln!(
        s,
        "#pragma HLS ARRAY_PARTITION variable=weights cyclic factor={fp} dim=1",
        fp = p.clamp(1, n_ch).max(1)
    );
    let _ = writeln!(s, "    data_t window[{k}][{k}];");
    let _ = writeln!(
        s,
        "#pragma HLS ARRAY_PARTITION variable=window complete dim=0"
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "row_loop:");
    let _ = writeln!(s, "    for (int i = 0; i < {oh}; ++i) {{");
    let _ = writeln!(s, "    load_rows:");
    let _ = writeln!(s, "        for (int r = 0; r < {s_}; ++r)");
    let _ = writeln!(s, "            for (int m = 0; m < {m_ch}; ++m)");
    let _ = writeln!(s, "                for (int x = 0; x < {w}; ++x) {{");
    let _ = writeln!(s, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(
        s,
        "                    line_buf[(i * {s_} + r + {k}) % {lb_rows}][m][x] = in.read();"
    );
    let _ = writeln!(s, "                }}");
    let _ = writeln!(s, "    col_loop:");
    let _ = writeln!(s, "        for (int j = 0; j < {ow}; ++j) {{");
    let _ = writeln!(s, "        out_ch_loop:");
    let _ = writeln!(s, "            for (int n = 0; n < {n_ch}; ++n) {{");
    let _ = writeln!(s, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(s, "                acc_t acc = 0;");
    let _ = writeln!(
        s,
        "                int gbase = (n / {npg}) * {mg}; // channel-group base",
        npg = n_ch / groups
    );
    let _ = writeln!(s, "            mac_loop:");
    let _ = writeln!(s, "                for (int m = 0; m < {mg}; ++m)");
    let _ = writeln!(s, "                    for (int u = 0; u < {k}; ++u)");
    let _ = writeln!(
        s,
        "                        for (int v = 0; v < {k}; ++v) {{"
    );
    let _ = writeln!(s, "#pragma HLS UNROLL factor={p}");
    let _ = writeln!(
        s,
        "                            int hh = i * {s_} + u - {pad};"
    );
    let _ = writeln!(
        s,
        "                            int ww = j * {s_} + v - {pad};"
    );
    let _ = writeln!(
        s,
        "                            data_t d = (hh < 0 || hh >= {h} || ww < 0 || ww >= {w})"
    );
    let _ = writeln!(
        s,
        "                                ? data_t(0) : line_buf[hh % {lb_rows}][gbase + m][ww];"
    );
    let _ = writeln!(
        s,
        "                            acc += d * weights[n][m][u][v];"
    );
    let _ = writeln!(s, "                        }}");
    if c.relu {
        let _ = writeln!(s, "                if (acc < 0) acc = 0; // folded ReLU");
    }
    let _ = writeln!(s, "                out.write(data_t(acc));");
    let _ = writeln!(s, "            }}");
    let _ = writeln!(s, "        }}");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    s
}

/// Renders the exact rational transform constants of `F(m, r)` as C
/// arrays (the hardware implements them as shift/add networks; HLS folds
/// the constants).
fn render_transform_constants(name: &str, t: &WinogradTransform, s: &mut String) {
    let alpha = t.alpha();
    let emit =
        |s: &mut String,
         label: &str,
         mat: &winofuse_conv::matrix::Mat<winofuse_conv::rational::Rational>| {
            let _ = writeln!(
                s,
                "static const data_t {name}_{label}[{}][{}] = {{",
                mat.rows(),
                mat.cols()
            );
            for r in 0..mat.rows() {
                let row: Vec<String> = (0..mat.cols())
                    .map(|c| format!("{:.6}", mat.get(r, c).to_f64()))
                    .collect();
                let _ = writeln!(s, "    {{{}}},", row.join(", "));
            }
            let _ = writeln!(s, "}};");
        };
    let _ = writeln!(
        s,
        "// F({},{}) transforms, alpha = {alpha} (Cook-Toom, exact).",
        t.m(),
        t.r()
    );
    emit(s, "BT", t.b_t());
    emit(s, "G", t.g());
    emit(s, "AT", t.a_t());
}

fn render_conv_winograd(cfg: &LayerConfig, m: usize) -> Result<String, CodegenError> {
    let LayerKind::Conv(c) = &cfg.layer.kind else {
        unreachable!()
    };
    let t = WinogradTransform::generate(m, c.kernel)
        .map_err(|e| CodegenError::Transform(e.to_string()))?;
    let name = c_ident(&cfg.layer.name);
    let alpha = t.alpha();
    let (m_ch, h, w) = (cfg.input.channels, cfg.input.height, cfg.input.width);
    let (n_ch, oh, ow) = (cfg.output.channels, cfg.output.height, cfg.output.width);
    let (k, pad, p) = (c.kernel, c.pad, cfg.engine.parallelism);
    let groups = c.groups.max(1);
    let mg = m_ch / groups;
    let lb_rows = cfg.estimate.line_buffer_rows;
    let tiles_h = oh.div_ceil(m);
    let tiles_w = ow.div_ceil(m);

    let mut s = String::new();
    let _ = writeln!(
        s,
        "// conv layer `{}`: winograd F({m}x{m},{k}x{k}) algorithm, {p} tile unit(s)",
        cfg.layer.name
    );
    let _ = writeln!(
        s,
        "// {m_ch}x{h}x{w} -> {n_ch}x{oh}x{ow}, {tiles_h}x{tiles_w} tiles"
    );
    render_transform_constants(&name, &t, &mut s);
    let _ = writeln!(
        s,
        "void {name}({st} &in, {st} &out, const data_t weights_t[{n_ch}][{mg}][{alpha}][{alpha}]) {{",
        st = stream_ty()
    );
    let _ = writeln!(s, "#pragma HLS INLINE off");
    let _ = writeln!(
        s,
        "    // Line buffer of alpha+m = {lb_rows} rows: one tile stripe + prefetch."
    );
    let _ = writeln!(s, "    static data_t line_buf[{lb_rows}][{m_ch}][{w}];");
    let _ = writeln!(
        s,
        "#pragma HLS ARRAY_PARTITION variable=line_buf complete dim=1"
    );
    let _ = writeln!(
        s,
        "#pragma HLS ARRAY_PARTITION variable=weights_t cyclic factor={fp} dim=1",
        fp = p.clamp(1, n_ch).max(1)
    );
    let _ = writeln!(
        s,
        "    data_t d[{alpha}][{alpha}], V[{alpha}][{alpha}], M[{alpha}][{alpha}], Y[{m}][{m}];"
    );
    let _ = writeln!(s, "#pragma HLS ARRAY_PARTITION variable=d complete dim=0");
    let _ = writeln!(s, "#pragma HLS ARRAY_PARTITION variable=V complete dim=0");
    let _ = writeln!(s, "#pragma HLS ARRAY_PARTITION variable=M complete dim=0");
    let _ = writeln!(s);
    let _ = writeln!(s, "tile_row_loop:");
    let _ = writeln!(s, "    for (int th = 0; th < {tiles_h}; ++th) {{");
    let _ = writeln!(s, "    load_stripe:");
    let _ = writeln!(s, "        for (int r = 0; r < {m}; ++r)");
    let _ = writeln!(s, "            for (int mm = 0; mm < {m_ch}; ++mm)");
    let _ = writeln!(s, "                for (int x = 0; x < {w}; ++x) {{");
    let _ = writeln!(s, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(
        s,
        "                    line_buf[(th * {m} + r + {alpha}) % {lb_rows}][mm][x] = in.read();"
    );
    let _ = writeln!(s, "                }}");
    let _ = writeln!(s, "    tile_col_loop:");
    let _ = writeln!(s, "        for (int tw = 0; tw < {tiles_w}; ++tw) {{");
    let _ = writeln!(s, "        out_ch_loop:");
    let _ = writeln!(s, "            for (int n = 0; n < {n_ch}; ++n) {{");
    let _ = writeln!(s, "#pragma HLS UNROLL factor={p}");
    let _ = writeln!(
        s,
        "                int gbase = (n / {npg}) * {mg}; // channel-group base",
        npg = n_ch / groups
    );
    let _ = writeln!(s, "            chan_loop:");
    let _ = writeln!(s, "                for (int mm = 0; mm < {mg}; ++mm) {{");
    let _ = writeln!(s, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(
        s,
        "                    // Gather the (alpha x alpha) input tile (zero padded)."
    );
    let _ = writeln!(s, "                    for (int u = 0; u < {alpha}; ++u)");
    let _ = writeln!(
        s,
        "                        for (int v = 0; v < {alpha}; ++v) {{"
    );
    let _ = writeln!(
        s,
        "                            int hh = th * {m} + u - {pad};"
    );
    let _ = writeln!(
        s,
        "                            int ww = tw * {m} + v - {pad};"
    );
    let _ = writeln!(
        s,
        "                            d[u][v] = (hh < 0 || hh >= {h} || ww < 0 || ww >= {w})"
    );
    let _ = writeln!(
        s,
        "                                ? data_t(0) : line_buf[hh % {lb_rows}][gbase + mm][ww];"
    );
    let _ = writeln!(s, "                        }}");
    let _ = writeln!(
        s,
        "                    // V = BT * d * B  (element-wise domain)"
    );
    let _ = writeln!(
        s,
        "                    winograd_input_transform_{alpha}(d, {name}_BT, V);"
    );
    let _ = writeln!(
        s,
        "                    // M += U(n,mm) .* V   -- {alpha}x{alpha} = {mul} DSP multipliers",
        mul = alpha * alpha
    );
    let _ = writeln!(s, "                    for (int u = 0; u < {alpha}; ++u)");
    let _ = writeln!(
        s,
        "                        for (int v = 0; v < {alpha}; ++v)"
    );
    let _ = writeln!(
        s,
        "                            M[u][v] += weights_t[n][mm][u][v] * V[u][v];"
    );
    let _ = writeln!(s, "                }}");
    let _ = writeln!(
        s,
        "                // Y = AT * M * A, then scatter the {m}x{m} output tile."
    );
    let _ = writeln!(
        s,
        "                winograd_output_transform_{alpha}_{m}(M, {name}_AT, Y);"
    );
    let _ = writeln!(s, "                for (int u = 0; u < {m}; ++u)");
    let _ = writeln!(s, "                    for (int v = 0; v < {m}; ++v)");
    let _ = writeln!(
        s,
        "                        if (th * {m} + u < {oh} && tw * {m} + v < {ow})"
    );
    if c.relu {
        let _ = writeln!(s, "                            out.write(Y[u][v] < 0 ? data_t(0) : Y[u][v]); // folded ReLU");
    } else {
        let _ = writeln!(s, "                            out.write(Y[u][v]);");
    }
    let _ = writeln!(s, "            }}");
    let _ = writeln!(s, "        }}");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    Ok(s)
}

fn render_pool(cfg: &LayerConfig) -> String {
    let LayerKind::Pool(p) = &cfg.layer.kind else {
        unreachable!()
    };
    let name = c_ident(&cfg.layer.name);
    let (ch, w) = (cfg.input.channels, cfg.input.width);
    let (oh, ow) = (cfg.output.height, cfg.output.width);
    let (k, s_, par) = (p.kernel, p.stride, cfg.engine.parallelism);
    let lb_rows = cfg.estimate.line_buffer_rows;
    let is_max = matches!(p.kind, winofuse_conv::ops::PoolKind::Max);

    let mut s = String::new();
    let _ = writeln!(
        s,
        "// pool layer `{}`: {} pooling {k}x{k}/{s_}, parallelism {par}",
        cfg.layer.name,
        if is_max { "max" } else { "average" }
    );
    let _ = writeln!(s, "void {name}({st} &in, {st} &out) {{", st = stream_ty());
    let _ = writeln!(s, "#pragma HLS INLINE off");
    let _ = writeln!(s, "    static data_t line_buf[{lb_rows}][{ch}][{w}];");
    let _ = writeln!(
        s,
        "#pragma HLS ARRAY_PARTITION variable=line_buf complete dim=1"
    );
    let _ = writeln!(s, "    for (int i = 0; i < {oh}; ++i) {{");
    let _ = writeln!(s, "        for (int r = 0; r < {s_}; ++r)");
    let _ = writeln!(s, "            for (int c = 0; c < {ch}; ++c)");
    let _ = writeln!(s, "                for (int x = 0; x < {w}; ++x) {{");
    let _ = writeln!(s, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(
        s,
        "                    line_buf[(i * {s_} + r + {k}) % {lb_rows}][c][x] = in.read();"
    );
    let _ = writeln!(s, "                }}");
    let _ = writeln!(s, "        for (int j = 0; j < {ow}; ++j)");
    let _ = writeln!(s, "            for (int c = 0; c < {ch}; ++c) {{");
    let _ = writeln!(s, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(s, "#pragma HLS UNROLL factor={par}");
    if is_max {
        let _ = writeln!(
            s,
            "                data_t best = line_buf[(i * {s_}) % {lb_rows}][c][j * {s_}];"
        );
        let _ = writeln!(s, "                for (int u = 0; u < {k}; ++u)");
        let _ = writeln!(s, "                    for (int v = 0; v < {k}; ++v) {{");
        let _ = writeln!(s, "                        data_t x = line_buf[(i * {s_} + u) % {lb_rows}][c][j * {s_} + v];");
        let _ = writeln!(s, "                        if (x > best) best = x;");
        let _ = writeln!(s, "                    }}");
        let _ = writeln!(s, "                out.write(best);");
    } else {
        let _ = writeln!(s, "                acc_t sum = 0;");
        let _ = writeln!(s, "                for (int u = 0; u < {k}; ++u)");
        let _ = writeln!(s, "                    for (int v = 0; v < {k}; ++v)");
        let _ = writeln!(
            s,
            "                        sum += line_buf[(i * {s_} + u) % {lb_rows}][c][j * {s_} + v];"
        );
        let _ = writeln!(
            s,
            "                out.write(data_t(sum / {kk}));",
            kk = k * k
        );
    }
    let _ = writeln!(s, "            }}");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    s
}

fn render_lrn(cfg: &LayerConfig) -> String {
    let LayerKind::Lrn(spec) = &cfg.layer.kind else {
        unreachable!()
    };
    let name = c_ident(&cfg.layer.name);
    let (ch, h, w) = (cfg.input.channels, cfg.input.height, cfg.input.width);
    let par = cfg.engine.parallelism;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "// lrn layer `{}`: local_size={} alpha={} beta={} k={}",
        cfg.layer.name, spec.local_size, spec.alpha, spec.beta, spec.k
    );
    let _ = writeln!(s, "void {name}({st} &in, {st} &out) {{", st = stream_ty());
    let _ = writeln!(s, "#pragma HLS INLINE off");
    let _ = writeln!(s, "    static data_t row[{ch}][{w}];");
    let _ = writeln!(
        s,
        "#pragma HLS ARRAY_PARTITION variable=row cyclic factor={par} dim=1"
    );
    let _ = writeln!(s, "    const int half = {};", spec.local_size / 2);
    let _ = writeln!(s, "    for (int i = 0; i < {h}; ++i) {{");
    let _ = writeln!(s, "        for (int c = 0; c < {ch}; ++c)");
    let _ = writeln!(s, "            for (int x = 0; x < {w}; ++x) {{");
    let _ = writeln!(s, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(s, "                row[c][x] = in.read();");
    let _ = writeln!(s, "            }}");
    let _ = writeln!(s, "        for (int c = 0; c < {ch}; ++c)");
    let _ = writeln!(s, "            for (int x = 0; x < {w}; ++x) {{");
    let _ = writeln!(s, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(s, "#pragma HLS UNROLL factor={par}");
    let _ = writeln!(s, "                acc_t sum_sq = 0;");
    let _ = writeln!(
        s,
        "                for (int dc = -half; dc <= half; ++dc) {{"
    );
    let _ = writeln!(s, "                    int cc = c + dc;");
    let _ = writeln!(
        s,
        "                    if (cc >= 0 && cc < {ch}) sum_sq += row[cc][x] * row[cc][x];"
    );
    let _ = writeln!(s, "                }}");
    let _ = writeln!(
        s,
        "                out.write(lrn_normalize(row[c][x], sum_sq, {}, {}, {}, {}));",
        spec.local_size, spec.alpha, spec.beta, spec.k
    );
    let _ = writeln!(s, "            }}");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    s
}

fn render_relu(cfg: &LayerConfig) -> String {
    let name = c_ident(&cfg.layer.name);
    let n = cfg.input.elements();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// relu layer `{}` (usually folded; standalone pass-through)",
        cfg.layer.name
    );
    let _ = writeln!(s, "void {name}({st} &in, {st} &out) {{", st = stream_ty());
    let _ = writeln!(s, "#pragma HLS INLINE off");
    let _ = writeln!(s, "    for (int i = 0; i < {n}; ++i) {{");
    let _ = writeln!(s, "#pragma HLS PIPELINE II=1");
    let _ = writeln!(s, "        data_t x = in.read();");
    let _ = writeln!(s, "        out.write(x < 0 ? data_t(0) : x);");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use winofuse_fpga::engine::EngineConfig;
    use winofuse_model::zoo;

    fn cfg_for(idx: usize, algo: Algorithm, p: usize) -> LayerConfig {
        let net = zoo::vgg_e_fused_prefix();
        LayerConfig::build(
            &net,
            idx,
            EngineConfig {
                algorithm: algo,
                parallelism: p,
            },
        )
        .unwrap()
    }

    #[test]
    fn c_ident_sanitizes() {
        assert_eq!(c_ident("conv1_1"), "conv1_1");
        assert_eq!(c_ident("conv-1.relu"), "conv_1_relu");
        assert_eq!(c_ident("3x3"), "l3x3");
    }

    #[test]
    fn header_declares_fixed_type() {
        let h = render_header();
        assert!(h.contains("ap_fixed<16, 8>"));
        assert!(h.contains("hls_stream.h"));
    }

    #[test]
    fn conventional_template_structure() {
        let code = render_layer(&cfg_for(0, Algorithm::Conventional, 27)).unwrap();
        assert!(code.contains("void conv1_1("));
        assert!(code.contains("#pragma HLS UNROLL factor=27"));
        assert!(code.contains("#pragma HLS PIPELINE II=1"));
        assert!(code.contains("line_buf[4]")); // K + S = 4 rows
        assert!(code.contains("ARRAY_PARTITION variable=line_buf complete dim=1"));
        assert!(code.contains("folded ReLU"));
    }

    #[test]
    fn winograd_template_embeds_exact_constants() {
        let code = render_layer(&cfg_for(1, Algorithm::winograd_f43(), 2)).unwrap();
        assert!(code.contains("winograd F(4x4,3x3)"));
        assert!(code.contains("conv1_2_BT[6][6]"));
        assert!(code.contains("conv1_2_G[6][3]"));
        assert!(code.contains("conv1_2_AT[4][6]"));
        // G for F(4,3) contains +-1/6 = 0.166667.
        assert!(code.contains("0.166667") || code.contains("-0.166667"));
        assert!(code.contains("line_buf[10]")); // alpha + m rows
        assert!(code.contains("#pragma HLS UNROLL factor=2"));
    }

    #[test]
    fn pool_template_max_and_stride() {
        let code = render_layer(&cfg_for(2, Algorithm::Conventional, 8)).unwrap();
        assert!(code.contains("max pooling 2x2/2"));
        assert!(code.contains("if (x > best) best = x;"));
    }

    #[test]
    fn lrn_template_from_alexnet() {
        let net = zoo::alexnet().conv_body().unwrap();
        let cfg = LayerConfig::build(
            &net,
            1, // norm1
            EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 4,
            },
        )
        .unwrap();
        let code = render_layer(&cfg).unwrap();
        assert!(code.contains("void norm1("));
        assert!(code.contains("sum_sq"));
        assert!(code.contains("local_size=5"));
    }

    #[test]
    fn winograd_f45_constants_render() {
        // AlexNet conv2 is 5x5: F(4,5) has alpha=8.
        let net = zoo::alexnet().conv_body().unwrap();
        let cfg = LayerConfig::build(
            &net,
            3, // conv2
            EngineConfig {
                algorithm: Algorithm::winograd_f43(),
                parallelism: 1,
            },
        )
        .unwrap();
        let code = render_layer(&cfg).unwrap();
        assert!(code.contains("F(4,5) transforms, alpha = 8"));
        assert!(code.contains("conv2_BT[8][8]"));
    }
}
