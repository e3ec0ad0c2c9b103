//! The workspace's one JSON codec, std only: an escaper, a streaming
//! [`Writer`] behind every export (`BENCH_report.json`, `report
//! --metrics`, Chrome traces, crash dumps, `datapath_ns`) and a
//! reader, [`parse`], behind `report --compare` and `datapath`.
//!
//! The writer lays each container out one of two ways:
//! [`Layout::Pretty`] puts one member per line, `"k": v`, indented by
//! the writer's step once per enclosing pretty container;
//! [`Layout::Line`] puts the whole container on one line,
//! `{"k":v,...}`. Number text stays with the caller ([`Writer::num`]
//! takes any `Display`), so each exporter keeps the digits its goldens
//! pin; the reader likewise keeps each number's source text.

use std::fmt::{self, Display, Write as _};

/// Appends `s` to `out` as a quoted, escaped JSON string.
fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => drop(write!(out, "\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How a container lays out its members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented, `"k": v`.
    Pretty,
    /// Every member on the container's own line, `{"k":v,...}`.
    Line,
}

/// A streaming JSON writer. It owns commas, indentation and key
/// quoting; the caller supplies structure, strings and number text.
/// An empty container renders as `{}` or `[]` in either layout.
#[derive(Default)]
pub struct Writer {
    out: String,
    /// Spaces of indent per enclosing pretty container.
    step: usize,
    /// Open containers: layout, closing bracket, still empty.
    open: Vec<(Layout, char, bool)>,
    /// A key was just written, so the next value follows it directly.
    keyed: bool,
}

impl Writer {
    /// A writer that indents pretty members by `step` spaces per
    /// enclosing pretty container.
    pub fn new(step: usize) -> Self {
        Writer {
            step,
            ..Writer::default()
        }
    }

    fn newline(&mut self) {
        let pretty = self.open.iter().filter(|o| o.0 == Layout::Pretty).count();
        self.out.push('\n');
        self.out
            .extend(std::iter::repeat_n(' ', pretty * self.step));
    }

    /// Starts a key or value: nothing after a key, else the comma that
    /// separates it from the previous member and, if pretty, its line.
    fn start(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        if let Some((layout, _, empty)) = self.open.last_mut() {
            let pretty = *layout == Layout::Pretty;
            if !std::mem::replace(empty, false) {
                self.out.push(',');
            }
            if pretty {
                self.newline();
            }
        }
    }

    /// Writes an object member's key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.start();
        escape(&mut self.out, k);
        let pretty = matches!(self.open.last(), Some((Layout::Pretty, ..)));
        self.out.push_str(if pretty { ": " } else { ":" });
        self.keyed = true;
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.start();
        escape(&mut self.out, s);
        self
    }

    /// Writes `text` verbatim: a number the caller formatted, or a
    /// `true`/`false`/`null` literal.
    pub fn num(&mut self, text: impl Display) -> &mut Self {
        self.start();
        let _ = write!(self.out, "{text}");
        self
    }

    /// Opens an object; [`Writer::end`] closes it.
    pub fn object(&mut self, layout: Layout) -> &mut Self {
        self.open(layout, '{', '}')
    }

    /// Opens an array; [`Writer::end`] closes it.
    pub fn array(&mut self, layout: Layout) -> &mut Self {
        self.open(layout, '[', ']')
    }

    fn open(&mut self, layout: Layout, open: char, close: char) -> &mut Self {
        self.start();
        self.out.push(open);
        self.open.push((layout, close, true));
        self
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        let (layout, close, empty) = self.open.pop().expect("json::Writer::end: nothing open");
        if layout == Layout::Pretty && !empty {
            self.newline();
        }
        self.out.push(close);
        self
    }

    /// Writes a parsed value back: a container in `layout`, anything
    /// nested inside it in [`Layout::Line`].
    pub fn value(&mut self, v: &Json, layout: Layout) -> &mut Self {
        match v {
            Json::Null => self.num("null"),
            Json::Bool(b) => self.num(b),
            Json::Num(text) => self.num(text),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.array(layout);
                for v in items {
                    self.value(v, Layout::Line);
                }
                self.end()
            }
            Json::Obj(members) => {
                self.object(layout);
                for (k, v) in members {
                    self.key(k).value(v, Layout::Line);
                }
                self.end()
            }
        }
    }

    /// The finished document, newline-terminated.
    pub fn finish(mut self) -> String {
        assert!(self.open.is_empty(), "json::Writer: unclosed container");
        self.out.push('\n');
        self.out
    }
}

/// A parsed JSON value. Numbers keep their source text; objects keep
/// their members in document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(members) = self else {
            return None;
        };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value of a number.
    pub fn as_f64(&self) -> Option<f64> {
        let Json::Num(text) = self else { return None };
        text.parse().ok()
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }
}

/// Why a document failed to parse, and the byte offset where it did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document.
    pub offset: usize,
    /// What the reader expected or found there.
    pub what: &'static str,
}

impl Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

/// Nesting deeper than this is rejected rather than recursed into.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Whitespace may surround the value;
/// anything else after it is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.ws();
    match p.peek() {
        Some(_) => Err(p.err("trailing characters")),
        None => Ok(v),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        let offset = self.pos;
        JsonError { offset, what }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it comes next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.ws();
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.items(b'}', |p| {
                    p.ws();
                    let k = p.string()?;
                    p.ws();
                    p.expect(b':', "expected ':'")?;
                    members.push((k, p.value(depth + 1)?));
                    Ok(())
                })?;
                Json::Obj(members)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Json::Arr(items)
            }
            Some(b'"') => Json::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            None => return Err(self.err("unexpected end of input")),
            Some(_) => {
                let rest = &self.text[self.pos..];
                let words = [("true", Json::Bool(true)), ("false", Json::Bool(false))];
                let mut words = words.into_iter().chain([("null", Json::Null)]);
                let (word, v) = words
                    .find(|(w, _)| rest.starts_with(w))
                    .ok_or(self.err("expected a value"))?;
                self.pos += word.len();
                v
            }
        })
    }

    /// Parses the comma-separated members of the container whose
    /// opening bracket is at `pos`, through its `close` bracket.
    fn items<F>(&mut self, close: u8, mut item: F) -> Result<(), JsonError>
    where
        F: FnMut(&mut Self) -> Result<(), JsonError>,
    {
        self.pos += 1;
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',', "expected ',' or a closing bracket")?;
        }
    }

    /// Consumes a run of digits; false when there is none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let int = self.eat(b'0') || self.digits();
        let frac = !self.eat(b'.') || self.digits();
        let exp = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()
        };
        if !(int && frac && exp) {
            return Err(self.err("expected a digit"));
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected a string key")?;
        let mut out = String::new();
        loop {
            // A run of plain characters ends on an ASCII byte or the
            // end of input, so both ends are char boundaries.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escaped()?);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The char an escape sequence stands for, from just after its
    /// backslash; a `\u` surrogate pair joins into one char.
    fn escaped(&mut self) -> Result<char, JsonError> {
        let at = self.err("invalid escape");
        self.pos += 1;
        Ok(match self.text.as_bytes().get(at.offset) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.text[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    // An out-of-range low half leaves the lone high
                    // half, which `char::from_u32` rejects.
                    let low = self.hex4()?.wrapping_sub(0xdc00);
                    if low < 0x400 {
                        code = 0x10000 + ((code - 0xd800) << 10) + low;
                    }
                }
                let what = "unpaired surrogate";
                char::from_u32(code).ok_or(JsonError { what, ..at })?
            }
            _ => return Err(at),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
        let hex = hex.ok_or(self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_every_ascii_char_and_non_ascii_text() {
        let quoted = |s: &str| {
            let mut out = String::new();
            escape(&mut out, s);
            out
        };
        for b in 0u8..=0x7f {
            let s = format!("a{}b", b as char);
            assert_eq!(parse(&quoted(&s)), Ok(Json::Str(s.clone())), "{b:#04x}");
        }
        for s in ["\"", "\\", "\\\"", "", "héllo wörld ✓ 🦀", "tab\there\r\n"] {
            assert_eq!(parse(&quoted(s)), Ok(Json::Str(s.to_string())), "{s:?}");
        }
        assert_eq!(quoted("a\"b\\c\n\t\u{1}"), r#""a\"b\\c\n\t\u0001""#);
    }

    #[test]
    fn reader_decodes_escapes_and_keeps_number_text() {
        let v = parse(r#"{"s": "é🦀\/\ud83e\udd80", "n": [-0.50, 1e3, 0, 12.000]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("é🦀/🦀"));
        let Some(Json::Arr(nums)) = v.get("n") else {
            panic!("{v:?}")
        };
        let text: Vec<_> = nums
            .iter()
            .map(|n| match n {
                Json::Num(t) => t.as_str(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(text, ["-0.50", "1e3", "0", "12.000"]);
        assert_eq!(nums[1].as_f64(), Some(1000.0));
        assert_eq!(
            parse(" [true, false, null] \n"),
            Ok(Json::Arr(vec![
                Json::Bool(true),
                Json::Bool(false),
                Json::Null
            ]))
        );
    }

    #[test]
    fn reader_keeps_member_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let Json::Obj(members) = v else { panic!() };
        let keys: Vec<_> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn reader_rejects_malformed_documents_with_their_offset() {
        let cases = [
            (r#"{"a": "open"#, 11, "unterminated string"),
            ("[1, 2,]", 6, "expected a value"),
            (r#"{"a": 1,}"#, 8, "expected a string key"),
            (r#"{"a": 1} x"#, 9, "trailing characters"),
            ("not json at all", 0, "expected a value"),
            ("", 0, "unexpected end of input"),
            ("[1 2]", 3, "expected ',' or a closing bracket"),
            (r#"{"a" 1}"#, 5, "expected ':'"),
            ("01", 1, "trailing characters"),
            ("1.", 2, "expected a digit"),
            (r#""\x""#, 2, "invalid escape"),
            ("\"a\u{1}\"", 2, "control character in string"),
            (r#""\ud800""#, 2, "unpaired surrogate"),
            (r#""\ud800\u0041""#, 2, "unpaired surrogate"),
            (r#""\ud800\ue000""#, 2, "unpaired surrogate"),
            (r#""\u12g4""#, 3, "expected four hex digits"),
        ];
        for (doc, offset, what) in cases {
            assert_eq!(parse(doc), Err(JsonError { offset, what }), "{doc:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert_eq!(parse(&deep).unwrap_err().what, "nesting too deep");
        let e = parse("[1,]").unwrap_err();
        assert_eq!(e.to_string(), "expected a value at byte 3");
    }

    #[test]
    fn writer_renders_nested_pretty_and_line_layouts() {
        let mut w = Writer::new(2);
        w.object(Layout::Pretty)
            .key("n")
            .num(1)
            .key("s")
            .str("a\"b");
        w.key("rows").array(Layout::Pretty);
        w.object(Layout::Line)
            .key("x")
            .num(format_args!("{:.3}", 0.5));
        w.key("tags")
            .array(Layout::Line)
            .str("p")
            .num(2)
            .end()
            .end();
        w.object(Layout::Line).key("ev").array(Layout::Pretty);
        w.num(7).num(8).end().end();
        w.end();
        w.key("empty").array(Layout::Pretty).end();
        w.key("none").object(Layout::Line).end();
        w.end();
        let want = r#"{
  "n": 1,
  "s": "a\"b",
  "rows": [
    {"x":0.500,"tags":["p",2]},
    {"ev":[
      7,
      8
    ]}
  ],
  "empty": [],
  "none": {}
}
"#;
        assert_eq!(w.finish(), want);
    }

    #[test]
    fn writer_round_trips_a_parsed_document() {
        let doc = "{\n  \"a\": [\n    {\"b\":1.50,\"c\":[\"x\",null,true]}\n  ],\n  \"d\": {\n    \"e\": -2\n  }\n}\n";
        let v = parse(doc).unwrap();
        let mut w = Writer::new(2);
        w.object(Layout::Pretty);
        let Json::Obj(members) = &v else { panic!() };
        for (k, m) in members {
            w.key(k).value(m, Layout::Pretty);
        }
        w.end();
        assert_eq!(w.finish(), doc);
    }
}
