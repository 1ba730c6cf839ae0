//! Minimal JSON writer/parser for figure series.
//!
//! The bench-smoke CI gate needs machine-readable series: `repro_figures`
//! writes each figure as one JSON document and `check_baselines` reads the
//! fresh run plus the committed `baselines/` copies back. The build
//! environment has no serde, so this module hand-rolls the tiny subset the
//! schema needs:
//!
//! ```json
//! {
//!   "name": "<file stem>",
//!   "series": [
//!     { "label": "<legend label>", "points": [[1, 123.5], [2, 110.0]] }
//!   ]
//! }
//! ```

use std::fmt::Write as _;

use zstm_workload::Series;

/// One figure: a name and its series, the unit stored per JSON file.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    /// The file stem (a [`Measure::stem`](crate::Measure::stem)).
    pub name: String,
    /// The plotted series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Looks up a series by its legend label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

fn escape(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders a figure as a JSON document (stable field order, one series per
/// line — diff-friendly for the committed baselines).
pub fn to_json(figure: &Figure) -> String {
    let mut out = String::from("{\n  \"name\": \"");
    escape(&mut out, &figure.name);
    out.push_str("\",\n  \"series\": [\n");
    for (i, series) in figure.series.iter().enumerate() {
        out.push_str("    { \"label\": \"");
        escape(&mut out, &series.label);
        out.push_str("\", \"points\": [");
        for (j, &(x, y)) in series.points.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{x}, {y}]");
        }
        out.push_str("] }");
        if i + 1 < figure.series.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// A parsed JSON value ([`parse`]); objects keep their fields in document
/// order.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)]
pub enum Value {
    Str(String),
    Num(f64),
    Bool(bool),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Obj(fields) = self else {
            return None;
        };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("JSON parse error at byte {}: {what}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected '{}'", byte as char))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return self.fail("expected ',' or ']'"),
                    }
                }
            }
            Some(b'{') => {
                self.expect(b'{')?;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return self.fail("expected ',' or '}'"),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b't' | b'f') => {
                let rest = &self.bytes[self.pos..];
                let truth = rest.starts_with(b"true");
                if !truth && !rest.starts_with(b"false") {
                    return self.fail("expected a value");
                }
                self.pos += if truth { 4 } else { 5 };
                Ok(Value::Bool(truth))
            }
            _ => self.fail("expected a value"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            match hex {
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.fail("bad \\u escape"),
                            }
                        }
                        _ => return self.fail("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >> 5 == 0b110 => 2,
                        _ if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok());
                    match chunk {
                        Some(c) => {
                            out.push_str(c);
                            self.pos += len;
                        }
                        None => return self.fail("bad UTF-8"),
                    }
                }
                None => return self.fail("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("JSON parse error at byte {start}: bad number"))
    }
}

/// Parses one JSON document (no `null`: nothing this repository writes
/// holds one).
///
/// # Errors
///
/// Returns a human-readable message when the text is not valid JSON.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser::new(text);
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.fail("trailing garbage");
    }
    Ok(root)
}

/// Parses a figure document produced by [`to_json`].
///
/// # Errors
///
/// Returns a human-readable message when the text is not valid JSON or
/// does not follow the figure schema.
pub fn from_json(text: &str) -> Result<Figure, String> {
    let root = parse(text)?;
    if !matches!(root, Value::Obj(_)) {
        return Err("figure document must be a JSON object".into());
    }
    let Some(Value::Str(name)) = root.get("name") else {
        return Err("missing string field \"name\"".into());
    };
    let Some(Value::Arr(raw_series)) = root.get("series") else {
        return Err("missing array field \"series\"".into());
    };
    let mut series = Vec::with_capacity(raw_series.len());
    for entry in raw_series {
        if !matches!(entry, Value::Obj(_)) {
            return Err("series entries must be objects".into());
        }
        let Some(Value::Str(label)) = entry.get("label") else {
            return Err("series entry missing string \"label\"".into());
        };
        let Some(Value::Arr(raw_points)) = entry.get("points") else {
            return Err("series entry missing array \"points\"".into());
        };
        let mut s = Series::new(label.clone());
        for point in raw_points {
            match point {
                Value::Arr(xy) => match (xy.first(), xy.get(1), xy.len()) {
                    (Some(Value::Num(x)), Some(Value::Num(y)), 2) => s.push(*x, *y),
                    _ => return Err("points must be [x, y] number pairs".into()),
                },
                _ => return Err("points must be [x, y] number pairs".into()),
            }
        }
        series.push(s);
    }
    Ok(Figure {
        name: name.clone(),
        series,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut a = Series::new("LSA-STM (no readsets)");
        a.push(1.0, 100.5);
        a.push(32.0, 12.25);
        let mut b = Series::new("Z-STM");
        b.push(1.0, 90.0);
        let figure = Figure {
            name: "fig6_totals".into(),
            series: vec![a, b],
        };
        let text = to_json(&figure);
        let parsed = from_json(&text).expect("round trip parses");
        assert_eq!(parsed, figure);
    }

    #[test]
    fn escapes_round_trip() {
        let mut s = Series::new("weird \"label\" \\ with\ttabs");
        s.push(-1.5, 2e9);
        let figure = Figure {
            name: "x".into(),
            series: vec![s],
        };
        let parsed = from_json(&to_json(&figure)).expect("parses");
        assert_eq!(parsed, figure);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_json("").is_err());
        assert!(from_json("[1, 2]").is_err());
        assert!(from_json("{\"name\": \"x\"}").is_err());
        assert!(from_json("{\"name\": \"x\", \"series\": []} trailing").is_err());
    }

    #[test]
    fn lookup_by_label() {
        let figure = Figure {
            name: "f".into(),
            series: vec![Series::new("a"), Series::new("b")],
        };
        assert!(figure.series("b").is_some());
        assert!(figure.series("c").is_none());
    }
}
