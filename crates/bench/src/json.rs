//! A figure's series, and a minimal JSON parser.
//!
//! [`Figure`] is the unit a figure's gates judge: one file stem and its
//! series, as `repro_figures` saves them. [`parse`] reads the committed
//! `BENCH_*.json` documents back (`tests/trajectory.rs`); the build
//! environment has no serde, so it hand-rolls the subset those documents
//! use: objects, arrays, strings, numbers and booleans.

use zstm_workload::Series;

/// One figure file: a stem and its series.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let text = r#"{ "name": "fig6_totals", "series": [
            { "label": "LSA-STM (no readsets)", "points": [[1, 100.5], [32, 12.25]] },
            { "label": "Z-STM", "ok": true, "points": [] } ] }"#;
        let doc = parse(text).expect("a document");
        assert_eq!(doc.get("name"), Some(&Value::Str("fig6_totals".into())));
        let Some(Value::Arr(series)) = doc.get("series") else {
            panic!("no series in {doc:?}");
        };
        let point = |x: f64, y: f64| Value::Arr(vec![Value::Num(x), Value::Num(y)]);
        let points = Value::Arr(vec![point(1.0, 100.5), point(32.0, 12.25)]);
        assert_eq!(series[0].get("points"), Some(&points));
        assert_eq!(series[1].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(series[1].get("points"), Some(&Value::Arr(vec![])));
    }

    #[test]
    fn escapes_round_trip() {
        let text = r#"["weird \"label\" \\ with\ttabs\n", "\u00e9 \/ é", -1.5, 2e9]"#;
        let expected = Value::Arr(vec![
            Value::Str("weird \"label\" \\ with\ttabs\n".into()),
            Value::Str("é / é".into()),
            Value::Num(-1.5),
            Value::Num(2e9),
        ]);
        assert_eq!(parse(text), Ok(expected));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"name\": }").is_err());
        assert!(parse("{\"name\": \"x\"} trailing").is_err());
        assert!(parse("\"bad \\q escape\"").is_err());
        assert!(parse("null").is_err());
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
