//! A dependency-free JSON writer for the committed `BENCH_*.json` tables.
//!
//! The workspace builds without registry access, so the figure driver
//! renders its tables through this one value type instead of each
//! harness placing its own commas. The layout is the one the committed
//! tables already use, so regenerating a table with unchanged numbers
//! leaves `git diff` empty:
//!
//! * the top-level object is expanded, one member per line;
//! * an array holding any object or array is expanded, one element per
//!   line, two spaces deeper than the line that opened it;
//! * everything else — arrays of scalars, and every nested object (one
//!   load point per line) — stays on its line.
//!
//! Numbers keep the two styles the tables mix: [`Json::Fixed`] is
//! `{:.N}` (measured values, fixed columns) and [`Json::Float`] is
//! Rust's shortest round-trip `{}` (configuration echoes such as
//! `0.00001`). A non-finite float has no JSON spelling and renders as
//! `null`.
//!
//! # Example
//!
//! ```
//! use simcore::json::{document, Json};
//! let doc = [
//!     ("seeds", Json::Array(vec![Json::Int(1), Json::Int(2)])),
//!     ("points", Json::Array(vec![Json::Object(vec![
//!         ("x", Json::Float(0.5)),
//!         ("y", Json::Fixed(1.0, 2)),
//!         ("gap", Json::Null),
//!     ])])),
//! ];
//! assert_eq!(
//!     document(&doc),
//!     "{\n  \"seeds\": [1, 2],\n  \"points\": [\n    {\"x\": 0.5, \"y\": 1.00, \"gap\": null}\n  ]\n}\n"
//! );
//! ```

use std::fmt::Write as _;

/// A JSON value. Object members keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A float in shortest round-trip form (`{}`).
    Float(f64),
    /// A float with a fixed number of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in insertion order.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// A string value from anything printable (labels, topology names).
    pub fn str(s: impl ToString) -> Json {
        Json::Str(s.to_string())
    }

    /// `Some(v)` as a fixed-decimal float, `None` as `null`.
    pub fn opt_fixed(v: Option<f64>, decimals: usize) -> Json {
        v.map_or(Json::Null, |v| Json::Fixed(v, decimals))
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Array(_) | Json::Object(_))
    }

    /// Writes the value as it appears on a line indented by `indent`.
    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(v) | Json::Fixed(v, _) if !v.is_finite() => out.push_str("null"),
            Json::Float(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Fixed(v, decimals) => {
                let _ = write!(out, "{v:.decimals$}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Array(items) if items.iter().any(Json::is_container) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&" ".repeat(indent + 2));
                    item.write(out, indent + 2);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&" ".repeat(indent));
                out.push(']');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, indent);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, key);
                    out.push_str(": ");
                    value.write(out, indent);
                }
                out.push('}');
            }
        }
    }
}

/// Renders a whole document: the top-level object of `members`,
/// expanded one member per line, newline-terminated.
pub fn document(members: &[(&'static str, Json)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str("  ");
        write_str(&mut out, key);
        out.push_str(": ");
        value.write(&mut out, 2);
        out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal recursive-descent JSON validator: consumes one value
    /// from `s` and returns the rest, or `None` if `s` is not JSON.
    fn value(s: &str) -> Option<&str> {
        let s = s.trim_start();
        match s.chars().next()? {
            '{' => items(&s[1..], '}', |m| {
                value(string(m)?.trim_start().strip_prefix(':')?)
            }),
            '[' => items(&s[1..], ']', value),
            '"' => string(s),
            _ => {
                let word = |w| s.strip_prefix(w);
                let number = |c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E');
                let end = s.find(number).unwrap_or(s.len());
                let rest = s[..end].parse::<f64>().ok().map(|_| &s[end..]);
                word("null").or(word("true")).or(word("false")).or(rest)
            }
        }
    }

    /// Comma-separated `item`s up to `close`.
    fn items<'a>(s: &'a str, close: char, item: fn(&'a str) -> Option<&'a str>) -> Option<&'a str> {
        let mut s = s.trim_start();
        if let Some(rest) = s.strip_prefix(close) {
            return Some(rest);
        }
        loop {
            s = item(s.trim_start())?.trim_start();
            match s.strip_prefix(',') {
                Some(rest) => s = rest,
                None => return s.strip_prefix(close),
            }
        }
    }

    /// A string literal: no raw control characters, known escapes only.
    fn string(s: &str) -> Option<&str> {
        let mut chars = s.strip_prefix('"')?.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Some(&s[i + 2..]),
                '\\' => match chars.next()?.1 {
                    'u' => (0..4)
                        .try_for_each(|_| chars.next()?.1.is_ascii_hexdigit().then_some(()))?,
                    e => "\"\\/bfnrt".contains(e).then_some(())?,
                },
                c if (c as u32) < 0x20 => return None,
                _ => {}
            }
        }
        None
    }

    fn is_json(s: &str) -> bool {
        value(s).is_some_and(|rest| rest.trim().is_empty())
    }

    #[test]
    fn the_validator_tells_json_from_near_misses() {
        for good in [
            "{}",
            "[]",
            " [1, 2.50, -3e-5, null, true, \"a\\n\\u00e9\"] ",
            "{\"a\": {\"b\": []}}",
        ] {
            assert!(is_json(good), "{good}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{a: 1}",
            "\"a\nb\"",
            "\"\\q\"",
            "NaN",
            "[1] x",
        ] {
            assert!(!is_json(bad), "{bad}");
        }
    }

    fn obj(members: Vec<(&'static str, Json)>) -> Json {
        Json::Object(members)
    }

    #[test]
    fn commas_sit_between_members_and_elements_only() {
        let point = |x| obj(vec![("x", Json::Int(x))]);
        let text = document(&[
            ("empty", Json::Array(vec![])),
            ("one", Json::Array(vec![Json::Int(7)])),
            (
                "scalars",
                Json::Array(vec![Json::Int(1), Json::Int(2), Json::Int(3)]),
            ),
            ("no_points", obj(vec![("points", Json::Array(vec![]))])),
            ("one_point", Json::Array(vec![point(1)])),
            ("two_points", Json::Array(vec![point(1), point(2)])),
            ("last", obj(vec![])),
        ]);
        assert_eq!(
            text,
            "{\n  \"empty\": [],\n  \"one\": [7],\n  \"scalars\": [1, 2, 3],\n  \
             \"no_points\": {\"points\": []},\n  \
             \"one_point\": [\n    {\"x\": 1}\n  ],\n  \
             \"two_points\": [\n    {\"x\": 1},\n    {\"x\": 2}\n  ],\n  \
             \"last\": {}\n}\n"
        );
        assert!(is_json(&text));
    }

    #[test]
    fn the_committed_table_layout_is_reproduced() {
        // One load point per line, containers of containers expanded two
        // spaces deeper than the line that opened them, the closing
        // bracket back at that line's indent — and the same under an
        // inline top-level member (`BENCH_bigtorus.json`'s speedup block).
        let point = obj(vec![
            ("offered", Json::Fixed(0.001, 4)),
            ("gap", Json::Null),
        ]);
        let curve = obj(vec![
            ("algorithm", Json::str("PIM1")),
            ("points", Json::Array(vec![point.clone(), point.clone()])),
        ]);
        let panel = obj(vec![
            ("torus", Json::str("4x4")),
            ("curves", Json::Array(vec![curve])),
        ]);
        let text = document(&[
            ("burst_cycles", obj(vec![("mean_on", Json::Float(60.0))])),
            ("figures", Json::Array(vec![panel])),
            ("speedup", obj(vec![("runs", Json::Array(vec![point]))])),
        ]);
        assert_eq!(
            text,
            r#"{
  "burst_cycles": {"mean_on": 60},
  "figures": [
    {"torus": "4x4", "curves": [
      {"algorithm": "PIM1", "points": [
        {"offered": 0.0010, "gap": null},
        {"offered": 0.0010, "gap": null}
      ]}
    ]}
  ],
  "speedup": {"runs": [
    {"offered": 0.0010, "gap": null}
  ]}
}
"#
        );
        assert!(is_json(&text));
    }

    #[test]
    fn numbers_keep_both_styles_and_never_leave_json() {
        let render = |v: Json| {
            let mut out = String::new();
            v.write(&mut out, 0);
            out
        };
        assert_eq!(render(Json::Fixed(1.0, 5)), "1.00000");
        assert_eq!(render(Json::Fixed(118.184, 2)), "118.18");
        assert_eq!(render(Json::Fixed(786619.4, 0)), "786619");
        assert_eq!(render(Json::Float(0.00001)), "0.00001");
        assert_eq!(render(Json::Float(0.0)), "0");
        assert_eq!(render(Json::Float(0.25)), "0.25");
        assert_eq!(render(Json::Int(u64::MAX)), "18446744073709551615");
        assert_eq!(render(Json::opt_fixed(Some(0.97171), 4)), "0.9717");
        assert_eq!(render(Json::opt_fixed(None, 4)), "null");
        assert_eq!(render(Json::Bool(true)), "true");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(render(Json::Float(v)), "null");
            assert_eq!(render(Json::Fixed(v, 2)), "null");
        }
    }

    #[test]
    fn strings_are_escaped() {
        let text = document(&[("k\"ey", Json::str("a\"b\\c\nd\te\r\u{1}\u{1f}é"))]);
        assert_eq!(
            text,
            "{\n  \"k\\\"ey\": \"a\\\"b\\\\c\\nd\\te\\r\\u0001\\u001fé\"\n}\n"
        );
        assert!(is_json(&text));
    }

    #[test]
    fn every_committed_bench_table_is_json() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut seen = 0;
        for entry in std::fs::read_dir(root).expect("read the workspace root") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).expect("read a committed table");
                assert!(is_json(&text), "{name} is not valid JSON");
                seen += 1;
            }
        }
        assert!(seen >= 7, "found only {seen} committed BENCH_*.json tables");
    }
}
