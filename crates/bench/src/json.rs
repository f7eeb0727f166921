//! JSON emit for the table row types.
//!
//! Rows are flat records of strings, numbers, bools and optionals,
//! rendered from `octo_codec`'s [`JsonValue`] with its escaper; reading a
//! row back goes through `octo_codec::parse_json`.

use std::fmt::Write as _;

use octo_codec::{json_escape, JsonValue};

/// Rows that can emit themselves as ordered `(key, value)` JSON fields.
pub trait JsonRow {
    /// The row's fields in declaration order.
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)>;
}

/// Writes one scalar cell; non-finite numbers render as `null`.
fn write_value(out: &mut String, v: &JsonValue) {
    match v {
        JsonValue::Str(s) => {
            let _ = write!(out, "\"{}\"", json_escape(s));
        }
        JsonValue::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        JsonValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(_) | JsonValue::Null => out.push_str("null"),
        JsonValue::Array(_) | JsonValue::Object(_) => unreachable!("rows are flat"),
    }
}

/// Serialises one row as a compact JSON object.
pub fn to_json<R: JsonRow>(row: &R) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in row.json_fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        write_value(&mut out, v);
    }
    out.push('}');
    out
}

/// Serialises a slice of rows as a pretty-printed JSON array (2-space
/// indent), the shape `serde_json::to_string_pretty` produced before.
pub fn to_json_pretty<R: JsonRow>(rows: &[R]) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[\n");
    for (ri, row) in rows.iter().enumerate() {
        out.push_str("  {\n");
        let fields = row.json_fields();
        for (fi, (k, v)) in fields.iter().enumerate() {
            let _ = write!(out, "    \"{k}\": ");
            write_value(&mut out, v);
            if fi + 1 < fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  }");
        if ri + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_codec::parse_json;

    struct Demo;

    impl JsonRow for Demo {
        fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
            vec![
                ("name", JsonValue::Str("a \"quoted\" name".into())),
                ("count", JsonValue::Num(3.0)),
                ("ok", JsonValue::Bool(true)),
                ("missing", JsonValue::Null),
            ]
        }
    }

    #[test]
    fn emit_and_parse_round_trip() {
        let json = to_json(&Demo);
        assert_eq!(
            json,
            "{\"name\":\"a \\\"quoted\\\" name\",\"count\":3,\"ok\":true,\"missing\":null}"
        );
        let doc = parse_json(&json).expect("parses");
        assert_eq!(
            doc.get("name").and_then(JsonValue::as_str),
            Some("a \"quoted\" name")
        );
        assert_eq!(doc.get("count").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("missing"), Some(&JsonValue::Null));
    }

    #[test]
    fn pretty_array_shape() {
        let text = to_json_pretty(&[Demo, Demo]);
        assert!(text.starts_with("[\n  {\n"));
        assert!(text.ends_with("  }\n]"));
        assert_eq!(text.matches("\"name\"").count(), 2);
        assert_eq!(to_json_pretty::<Demo>(&[]), "[]");
    }
}
