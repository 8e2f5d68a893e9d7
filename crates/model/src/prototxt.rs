//! Parser and printer for a Caffe-prototxt-style network description.
//!
//! The paper's tool-flow consumes "Caffe configuration file\[s\]" (§3). This
//! module implements the subset of the prototxt grammar those files use:
//! nested `name { ... }` messages, `key: value` scalar fields, strings,
//! numbers and bare enum identifiers. Layer types understood:
//! `Convolution`, `Pooling`, `LRN`, `ReLU`, `InnerProduct`, `Softmax`.
//!
//! A stand-alone `ReLU` layer that directly follows a convolution or
//! inner-product layer is folded into it, matching the paper ("ReLU layers
//! can be easily integrated into convolutional layers", §7.2).
//!
//! # Example
//!
//! ```
//! use winofuse_model::prototxt;
//!
//! # fn main() -> Result<(), winofuse_model::ModelError> {
//! let text = r#"
//! name: "tiny"
//! input_shape { channels: 3 height: 8 width: 8 }
//! layer {
//!   name: "conv1"
//!   type: "Convolution"
//!   convolution_param { num_output: 4 kernel_size: 3 pad: 1 }
//! }
//! layer { name: "relu1" type: "ReLU" }
//! "#;
//! let net = prototxt::parse(text)?;
//! assert_eq!(net.len(), 1); // ReLU folded into conv1
//! # Ok(())
//! # }
//! ```

use std::fmt::Write as _;

use winofuse_conv::ops::PoolKind;

use crate::layer::{ConvParams, FcParams, Layer, LayerKind, LrnSpec, PoolParams};
use crate::network::Network;
use crate::shape::FmShape;
use crate::ModelError;

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(f64),
    LBrace,
    RBrace,
    Colon,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
}

fn tokenize(src: &str) -> Result<Vec<Spanned>, ModelError> {
    let mut out = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line_num = lineno + 1;
        let mut chars = line.chars().peekable();
        while let Some(&ch) = chars.peek() {
            match ch {
                '#' => break, // comment to end of line
                c if c.is_whitespace() => {
                    chars.next();
                }
                '{' => {
                    chars.next();
                    out.push(Spanned {
                        tok: Tok::LBrace,
                        line: line_num,
                    });
                }
                '}' => {
                    chars.next();
                    out.push(Spanned {
                        tok: Tok::RBrace,
                        line: line_num,
                    });
                }
                ':' => {
                    chars.next();
                    out.push(Spanned {
                        tok: Tok::Colon,
                        line: line_num,
                    });
                }
                '"' => {
                    chars.next();
                    let mut s = String::new();
                    loop {
                        match chars.next() {
                            Some('"') => break,
                            Some(c) => s.push(c),
                            None => {
                                return Err(ModelError::ParseProtoTxt {
                                    line: line_num,
                                    reason: "unterminated string literal".into(),
                                })
                            }
                        }
                    }
                    out.push(Spanned {
                        tok: Tok::Str(s),
                        line: line_num,
                    });
                }
                c if c.is_ascii_digit() || c == '-' || c == '.' => {
                    let mut s = String::new();
                    while let Some(&c) = chars.peek() {
                        if c.is_ascii_digit()
                            || c == '-'
                            || c == '.'
                            || c == 'e'
                            || c == 'E'
                            || c == '+'
                        {
                            s.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    let v: f64 = s.parse().map_err(|_| ModelError::ParseProtoTxt {
                        line: line_num,
                        reason: format!("invalid number `{s}`"),
                    })?;
                    out.push(Spanned {
                        tok: Tok::Num(v),
                        line: line_num,
                    });
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let mut s = String::new();
                    while let Some(&c) = chars.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            s.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    out.push(Spanned {
                        tok: Tok::Ident(s),
                        line: line_num,
                    });
                }
                other => {
                    return Err(ModelError::ParseProtoTxt {
                        line: line_num,
                        reason: format!("unexpected character `{other}`"),
                    })
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Generic message tree
// ---------------------------------------------------------------------------

/// A parsed field value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    Enum(String),
    Msg(Message),
}

/// A `{ ... }` block: an ordered multimap of fields.
#[derive(Debug, Clone, PartialEq, Default)]
struct Message {
    fields: Vec<(String, Value)>,
}

impl Message {
    fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a Value> + 'a {
        self.fields
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v)
    }

    fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Num(v)) => Some(*v),
            _ => None,
        }
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, ModelError> {
        self.num(key).map_or(Ok(default), |v| int_field(key, v))
    }

    fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s),
            Some(Value::Enum(s)) => Some(s),
            _ => None,
        }
    }
}

/// Reads the value `v` of integer field `key`: a count or size must be a
/// whole number in `0..=u32::MAX`, so every product of them downstream
/// fits in `usize` instead of wrapping or saturating.
fn int_field(key: &str, v: f64) -> Result<usize, ModelError> {
    if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= f64::from(u32::MAX) {
        Ok(v as usize)
    } else {
        Err(ModelError::ParseProtoTxt {
            line: 0,
            reason: format!("`{key}: {v:?}` is not an integer in 0..={}", u32::MAX),
        })
    }
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn last_line(&self) -> usize {
        self.toks.last().map(|t| t.line).unwrap_or(1)
    }

    /// Parses fields until `}` or EOF.
    fn parse_message(&mut self, top_level: bool) -> Result<Message, ModelError> {
        let mut msg = Message::default();
        loop {
            match self.peek() {
                None => {
                    if top_level {
                        return Ok(msg);
                    }
                    return Err(ModelError::ParseProtoTxt {
                        line: self.last_line(),
                        reason: "unexpected end of input inside a block".into(),
                    });
                }
                Some(Spanned {
                    tok: Tok::RBrace,
                    line,
                }) => {
                    if top_level {
                        let line = *line;
                        return Err(ModelError::ParseProtoTxt {
                            line,
                            reason: "unmatched `}`".into(),
                        });
                    }
                    self.next();
                    return Ok(msg);
                }
                Some(Spanned {
                    tok: Tok::Ident(_), ..
                }) => {
                    let Some(Spanned {
                        tok: Tok::Ident(key),
                        line,
                    }) = self.next()
                    else {
                        unreachable!()
                    };
                    match self.peek().map(|s| s.tok.clone()) {
                        Some(Tok::Colon) => {
                            self.next();
                            let value = match self.next() {
                                Some(Spanned {
                                    tok: Tok::Str(s), ..
                                }) => Value::Str(s),
                                Some(Spanned {
                                    tok: Tok::Num(v), ..
                                }) => Value::Num(v),
                                Some(Spanned {
                                    tok: Tok::Ident(s), ..
                                }) => Value::Enum(s),
                                other => {
                                    return Err(ModelError::ParseProtoTxt {
                                        line,
                                        reason: format!(
                                            "expected a value after `{key}:`, found {other:?}"
                                        ),
                                    })
                                }
                            };
                            msg.fields.push((key, value));
                        }
                        Some(Tok::LBrace) => {
                            self.next();
                            let inner = self.parse_message(false)?;
                            msg.fields.push((key, Value::Msg(inner)));
                        }
                        other => {
                            return Err(ModelError::ParseProtoTxt {
                                line,
                                reason: format!(
                                    "expected `:` or `{{` after `{key}`, found {other:?}"
                                ),
                            })
                        }
                    }
                }
                Some(Spanned { tok, line }) => {
                    let (tok, line) = (tok.clone(), *line);
                    return Err(ModelError::ParseProtoTxt {
                        line,
                        reason: format!("expected a field name, found {tok:?}"),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Interpretation
// ---------------------------------------------------------------------------

fn interpret_layer(msg: &Message) -> Result<Option<Layer>, ModelError> {
    let name = msg
        .str_field("name")
        .ok_or_else(|| ModelError::ParseProtoTxt {
            line: 0,
            reason: "layer missing `name`".into(),
        })?
        .to_owned();
    let ty = msg
        .str_field("type")
        .ok_or_else(|| ModelError::ParseProtoTxt {
            line: 0,
            reason: format!("layer `{name}` missing `type`"),
        })?;
    let kind = match ty {
        "Convolution" => {
            let p = match msg.get("convolution_param") {
                Some(Value::Msg(m)) => m.clone(),
                _ => Message::default(),
            };
            let num_output = p.usize_or("num_output", 0)?;
            if num_output == 0 {
                return Err(ModelError::ParseProtoTxt {
                    line: 0,
                    reason: format!("layer `{name}`: convolution needs num_output > 0"),
                });
            }
            LayerKind::Conv(ConvParams {
                num_output,
                kernel: p.usize_or("kernel_size", 3)?,
                stride: p.usize_or("stride", 1)?,
                pad: p.usize_or("pad", 0)?,
                groups: p.usize_or("group", 1)?,
                relu: false,
            })
        }
        "Pooling" => {
            let p = match msg.get("pooling_param") {
                Some(Value::Msg(m)) => m.clone(),
                _ => Message::default(),
            };
            let kind = match p.str_field("pool").unwrap_or("MAX") {
                "MAX" | "max" => PoolKind::Max,
                "AVE" | "AVG" | "ave" => PoolKind::Average,
                other => {
                    return Err(ModelError::ParseProtoTxt {
                        line: 0,
                        reason: format!("layer `{name}`: unknown pool kind `{other}`"),
                    })
                }
            };
            LayerKind::Pool(PoolParams {
                kernel: p.usize_or("kernel_size", 2)?,
                stride: p.usize_or("stride", 2)?,
                pad: p.usize_or("pad", 0)?,
                kind,
            })
        }
        "LRN" => {
            let p = match msg.get("lrn_param") {
                Some(Value::Msg(m)) => m.clone(),
                _ => Message::default(),
            };
            LayerKind::Lrn(LrnSpec {
                local_size: p.usize_or("local_size", 5)?,
                alpha: p.num("alpha").unwrap_or(1e-4) as f32,
                beta: p.num("beta").unwrap_or(0.75) as f32,
                k: p.num("k").unwrap_or(2.0) as f32,
            })
        }
        "ReLU" => LayerKind::Relu,
        "InnerProduct" => {
            let p = match msg.get("inner_product_param") {
                Some(Value::Msg(m)) => m.clone(),
                _ => Message::default(),
            };
            let num_output = p.usize_or("num_output", 0)?;
            if num_output == 0 {
                return Err(ModelError::ParseProtoTxt {
                    line: 0,
                    reason: format!("layer `{name}`: inner product needs num_output > 0"),
                });
            }
            LayerKind::Fc(FcParams {
                num_output,
                relu: false,
            })
        }
        "Softmax" | "SoftmaxWithLoss" => LayerKind::Softmax,
        "Dropout" | "Input" | "Data" | "Accuracy" => return Ok(None), // inference no-ops
        other => {
            return Err(ModelError::ParseProtoTxt {
                line: 0,
                reason: format!("layer `{name}`: unsupported layer type `{other}`"),
            })
        }
    };
    Ok(Some(Layer::new(name, kind)))
}

/// Folds stand-alone ReLU layers into a directly preceding conv/FC layer.
fn fold_relu(layers: Vec<Layer>) -> Vec<Layer> {
    let mut out: Vec<Layer> = Vec::with_capacity(layers.len());
    for layer in layers {
        if matches!(layer.kind, LayerKind::Relu) {
            match out.last_mut().map(|l| &mut l.kind) {
                Some(LayerKind::Conv(c)) => {
                    c.relu = true;
                    continue;
                }
                Some(LayerKind::Fc(fc)) => {
                    fc.relu = true;
                    continue;
                }
                _ => {}
            }
        }
        out.push(layer);
    }
    out
}

/// Parses a prototxt document into a [`Network`].
///
/// # Errors
///
/// Returns [`ModelError::ParseProtoTxt`] for syntax errors and missing or
/// inconsistent fields, and propagates [`ModelError::InvalidNetwork`] /
/// shape-inference failures from network construction.
pub fn parse(src: &str) -> Result<Network, ModelError> {
    let toks = tokenize(src)?;
    let mut parser = Parser { toks, pos: 0 };
    let doc = parser.parse_message(true)?;

    let name = doc.str_field("name").unwrap_or("unnamed").to_owned();

    // Input shape: either `input_shape { channels/height/width }` or the
    // legacy four `input_dim:` fields (batch, channels, height, width).
    let input = if let Some(Value::Msg(m)) = doc.get("input_shape") {
        FmShape::new(
            m.usize_or("channels", 0)?,
            m.usize_or("height", 0)?,
            m.usize_or("width", 0)?,
        )
    } else {
        let dims = doc
            .get_all("input_dim")
            .filter_map(|v| match v {
                Value::Num(n) => Some(int_field("input_dim", *n)),
                _ => None,
            })
            .collect::<Result<Vec<usize>, _>>()?;
        match dims.len() {
            4 => FmShape::new(dims[1], dims[2], dims[3]),
            3 => FmShape::new(dims[0], dims[1], dims[2]),
            _ => {
                return Err(ModelError::ParseProtoTxt {
                    line: 1,
                    reason: "missing input shape (input_shape block or input_dim fields)".into(),
                })
            }
        }
    };
    if input.channels == 0 || input.height == 0 || input.width == 0 {
        return Err(ModelError::ParseProtoTxt {
            line: 1,
            reason: format!("degenerate input shape {input}"),
        });
    }

    let mut layers = Vec::new();
    for v in doc.get_all("layer").chain(doc.get_all("layers")) {
        let Value::Msg(m) = v else {
            return Err(ModelError::ParseProtoTxt {
                line: 1,
                reason: "`layer` must be a block".into(),
            });
        };
        if let Some(layer) = interpret_layer(m)? {
            layers.push(layer);
        }
    }
    Network::new(name, input, fold_relu(layers))
}

/// Prints a network back to prototxt form (round-trips through [`parse`]).
pub fn to_prototxt(net: &Network) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "name: \"{}\"", net.name());
    let i = net.input_shape();
    let _ = writeln!(
        s,
        "input_shape {{ channels: {} height: {} width: {} }}",
        i.channels, i.height, i.width
    );
    for layer in net.layers() {
        match &layer.kind {
            LayerKind::Conv(c) => {
                let group = if c.groups > 1 {
                    format!(" group: {}", c.groups)
                } else {
                    String::new()
                };
                let _ = writeln!(
                    s,
                    "layer {{\n  name: \"{}\"\n  type: \"Convolution\"\n  convolution_param {{ num_output: {} kernel_size: {} stride: {} pad: {}{} }}\n}}",
                    layer.name, c.num_output, c.kernel, c.stride, c.pad, group
                );
                if c.relu {
                    let _ = writeln!(
                        s,
                        "layer {{ name: \"{}_relu\" type: \"ReLU\" }}",
                        layer.name
                    );
                }
            }
            LayerKind::Pool(p) => {
                let kind = match p.kind {
                    PoolKind::Max => "MAX",
                    PoolKind::Average => "AVE",
                };
                let _ = writeln!(
                    s,
                    "layer {{\n  name: \"{}\"\n  type: \"Pooling\"\n  pooling_param {{ pool: {} kernel_size: {} stride: {} pad: {} }}\n}}",
                    layer.name, kind, p.kernel, p.stride, p.pad
                );
            }
            LayerKind::Lrn(l) => {
                let _ = writeln!(
                    s,
                    "layer {{\n  name: \"{}\"\n  type: \"LRN\"\n  lrn_param {{ local_size: {} alpha: {} beta: {} k: {} }}\n}}",
                    layer.name, l.local_size, l.alpha, l.beta, l.k
                );
            }
            LayerKind::Relu => {
                let _ = writeln!(s, "layer {{ name: \"{}\" type: \"ReLU\" }}", layer.name);
            }
            LayerKind::Fc(fc) => {
                let _ = writeln!(
                    s,
                    "layer {{\n  name: \"{}\"\n  type: \"InnerProduct\"\n  inner_product_param {{ num_output: {} }}\n}}",
                    layer.name, fc.num_output
                );
                if fc.relu {
                    let _ = writeln!(
                        s,
                        "layer {{ name: \"{}_relu\" type: \"ReLU\" }}",
                        layer.name
                    );
                }
            }
            LayerKind::Softmax => {
                let _ = writeln!(s, "layer {{ name: \"{}\" type: \"Softmax\" }}", layer.name);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    const ALEXNET_HEAD: &str = r#"
name: "AlexNet"
input_dim: 1
input_dim: 3
input_dim: 227
input_dim: 227
layer {
  name: "conv1"
  type: "Convolution"
  convolution_param { num_output: 96 kernel_size: 11 stride: 4 }
}
layer { name: "relu1" type: "ReLU" }
layer {
  name: "norm1"
  type: "LRN"
  lrn_param { local_size: 5 alpha: 0.0001 beta: 0.75 }
}
layer {
  name: "pool1"
  type: "Pooling"
  pooling_param { pool: MAX kernel_size: 3 stride: 2 }
}
"#;

    #[test]
    fn parses_caffe_style_head() {
        let net = parse(ALEXNET_HEAD).unwrap();
        assert_eq!(net.name(), "AlexNet");
        assert_eq!(net.input_shape(), FmShape::new(3, 227, 227));
        assert_eq!(net.len(), 3); // relu folded
        match &net.layers()[0].kind {
            LayerKind::Conv(c) => {
                assert_eq!((c.num_output, c.kernel, c.stride, c.pad), (96, 11, 4, 0));
                assert!(c.relu, "relu must be folded into conv1");
            }
            other => panic!("expected conv, got {other:?}"),
        }
        assert_eq!(net.output_shape().unwrap(), FmShape::new(96, 27, 27));
    }

    #[test]
    fn comments_and_enums() {
        let src = r#"
# a comment
name: "n" # trailing comment
input_shape { channels: 1 height: 4 width: 4 }
layer {
  name: "p" type: "Pooling"
  pooling_param { pool: AVE kernel_size: 2 stride: 2 }
}
"#;
        let net = parse(src).unwrap();
        match &net.layers()[0].kind {
            LayerKind::Pool(p) => assert_eq!(p.kind, PoolKind::Average),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dropout_and_input_layers_are_skipped() {
        let src = r#"
name: "n"
input_shape { channels: 1 height: 4 width: 4 }
layer { name: "data" type: "Input" }
layer { name: "c" type: "Convolution" convolution_param { num_output: 2 kernel_size: 3 pad: 1 } }
layer { name: "drop" type: "Dropout" }
"#;
        let net = parse(src).unwrap();
        assert_eq!(net.len(), 1);
    }

    #[test]
    fn error_reports_line_numbers() {
        let src = "name: \"x\"\ninput_shape { channels: 1 height: 4 width: 4 }\nlayer { name: \"c\" type: @ }";
        match parse(src) {
            Err(ModelError::ParseProtoTxt { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    /// A one-conv network whose `num_output` field reads `value`.
    fn conv_with_num_output(value: &str) -> Result<Network, ModelError> {
        parse(&format!(
            "name: \"n\"\ninput_shape {{ channels: 1 height: 4 width: 4 }}\n\
             layer {{ name: \"c\" type: \"Convolution\" \
             convolution_param {{ num_output: {value} }} }}"
        ))
    }

    fn assert_rejects_key(parsed: Result<Network, ModelError>, key: &str) {
        match parsed {
            Err(ModelError::ParseProtoTxt { reason, .. }) => {
                assert!(reason.contains(key), "reason `{reason}` must name `{key}`");
            }
            other => panic!("expected a parse error naming `{key}`, got {other:?}"),
        }
    }

    #[test]
    fn fractional_integer_field_is_rejected() {
        assert_rejects_key(conv_with_num_output("16.7"), "num_output");
        assert!(conv_with_num_output("16").is_ok());
    }

    #[test]
    fn negative_integer_field_is_rejected() {
        let src = "input_dim: 1\ninput_dim: -3\ninput_dim: 4\ninput_dim: 4";
        assert_rejects_key(parse(src), "input_dim");
    }

    #[test]
    fn non_finite_integer_field_is_rejected() {
        assert_rejects_key(conv_with_num_output("1e400"), "num_output");
    }

    #[test]
    fn integer_field_above_u32_max_is_rejected() {
        assert_rejects_key(conv_with_num_output("1e30"), "num_output");
        assert_rejects_key(conv_with_num_output("4294967296"), "num_output");
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(matches!(
            parse("name: \"oops"),
            Err(ModelError::ParseProtoTxt { .. })
        ));
    }

    #[test]
    fn unmatched_braces_are_errors() {
        assert!(parse("layer {").is_err());
        assert!(parse("}").is_err());
    }

    #[test]
    fn missing_input_shape_is_an_error() {
        let src = "name: \"x\"\nlayer { name: \"c\" type: \"ReLU\" }";
        assert!(parse(src).is_err());
    }

    #[test]
    fn unknown_layer_type_is_an_error() {
        let src = r#"
name: "x"
input_shape { channels: 1 height: 4 width: 4 }
layer { name: "c" type: "Deconvolution" }
"#;
        match parse(src) {
            Err(ModelError::ParseProtoTxt { reason, .. }) => {
                assert!(reason.contains("Deconvolution"))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zoo_networks_roundtrip() {
        for net in [
            zoo::alexnet(),
            zoo::vgg16(),
            zoo::vgg_e(),
            zoo::small_test_net(),
        ] {
            let text = to_prototxt(&net);
            let back = parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", net.name()));
            assert_eq!(back.len(), net.len(), "{}", net.name());
            assert_eq!(back.input_shape(), net.input_shape());
            for (a, b) in net.layers().iter().zip(back.layers()) {
                assert_eq!(a, b, "layer mismatch in {}", net.name());
            }
        }
    }

    #[test]
    fn relu_not_folded_across_pool() {
        let src = r#"
name: "n"
input_shape { channels: 1 height: 8 width: 8 }
layer { name: "p" type: "Pooling" pooling_param { kernel_size: 2 stride: 2 } }
layer { name: "r" type: "ReLU" }
"#;
        let net = parse(src).unwrap();
        assert_eq!(net.len(), 2);
        assert!(matches!(net.layers()[1].kind, LayerKind::Relu));
    }
}
