//! Minimal JSON support: an escaper for emission and a small recursive
//! parser used by tests (and downstream consumers) to validate emitted
//! traces. The workspace deliberately has no serde dependency.

use std::collections::BTreeMap;

/// Escapes a string for embedding inside a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parses a complete JSON document; returns `None` on any syntax error or
/// trailing garbage. Numbers are f64 (adequate for trace timestamps).
pub fn parse(text: &str) -> Option<JsonValue> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(value)
    } else {
        None
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' => parse_object(b, pos),
        b'[' => parse_array(b, pos),
        b'"' => parse_string(b, pos).map(JsonValue::String),
        b't' => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        b'f' => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        b'n' => parse_lit(b, pos, "null", JsonValue::Null),
        _ => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: JsonValue) -> Option<JsonValue> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
    let start = *pos;
    if *b.get(*pos)? == b'-' {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse()
        .ok()
        .map(JsonValue::Number)
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = std::str::from_utf8(b.get(*pos + 1..*pos + 5)?).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 character (multi-byte safe).
                let rest = std::str::from_utf8(&b[*pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if *b.get(*pos)? == b']' {
        *pos += 1;
        return Some(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(JsonValue::Array(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if *b.get(*pos)? == b'}' {
        *pos += 1;
        return Some(JsonValue::Object(map));
    }
    loop {
        skip_ws(b, pos);
        if *b.get(*pos)? != b'"' {
            return None;
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if *b.get(*pos)? != b':' {
            return None;
        }
        *pos += 1;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match *b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(JsonValue::Object(map));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basics() {
        let doc = parse(r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": -2.5}}"#).unwrap();
        assert_eq!(doc.get("a").and_then(JsonValue::as_u64), Some(1));
        let arr = doc.get("b").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        assert_eq!(
            doc.get("c")
                .and_then(|c| c.get("d"))
                .and_then(JsonValue::as_f64),
            Some(-2.5)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_none());
        assert!(parse("[1,]").is_none());
        assert!(parse("{} trailing").is_none());
        assert!(parse("").is_none());
    }

    #[test]
    fn escaping_handles_special_characters() {
        assert_eq!(esc("a\"b"), "a\\\"b");
        assert_eq!(esc("a\\b"), "a\\\\b");
        assert_eq!(esc("a\nb"), "a\\nb");
        assert_eq!(esc("a\u{1}b"), "a\\u0001b");
        assert_eq!(esc("plain"), "plain");
    }

    #[test]
    fn esc_then_parse_is_identity() {
        let nasty = "quote\" slash\\ nl\n tab\t ctrl\u{1} unicode\u{00e9}";
        let wrapped = format!("\"{}\"", esc(nasty));
        assert_eq!(parse(&wrapped).unwrap().as_str(), Some(nasty));
    }
}
