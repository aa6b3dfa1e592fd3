//! JSON for the trace subsystem: a streaming `Writer`, a pull `Reader`,
//! and a small document model ([`Value`]) built on the two.
//!
//! The build environment has no crates.io access, so this stands in for
//! `serde_json` where the trace subsystem needs *real* JSON: full string
//! escaping, non-finite floats written as `null`, and a strict parser that
//! rejects truncated input and trailing garbage.
//!
//! * `Writer` appends tokens to one `String` and tracks the commas
//!   itself. Integers are written without `fmt`; floats use `Display` plus
//!   a `".0"` suffix when that prints no point, so a float reads back as a
//!   float. `Writer::thousandths` writes the trace's microsecond
//!   timestamps as the same text, from integer digits.
//! * `Reader` pulls one value at a time from a `&str`, walking containers
//!   through `Reader::object` / `Reader::array` callbacks. Strings without
//!   escapes come back borrowed from the input; `Reader::skip` validates
//!   a value without keeping it. Numbers keep their lexical class
//!   (unsigned, negative or float), so `u64` virtual-time nanoseconds
//!   survive bit-exactly.
//!
//! The Chrome-trace exporter and importer (`Trace::to_chrome_json` /
//! `Trace::from_chrome_json`) stream through these two directly and never
//! build a [`Value`]. `Value` is for small documents (reports, benchmark
//! snapshots); its [`Value::to_json`] and [`Value::parse`] are the same
//! writer and reader, so there is one serializer and one lexer. Object
//! member order is preserved (members are a `Vec`, not a map).

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value.
///
/// Numbers keep their lexical class: integers parse to [`Value::UInt`] /
/// [`Value::Int`], everything else to [`Value::Float`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A non-integral (or out-of-range) number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            Value::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an `f64` (any number).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(v) => Some(v as f64),
            Value::Int(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut w = Writer::default();
        w.value(self);
        w.finish()
    }

    /// Parses a JSON document. Trailing whitespace is allowed; trailing
    /// garbage is an error.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut r = Reader::new(input);
        let value = r.value()?;
        r.finish()?;
        Ok(value)
    }
}

/// Builds an object value from `(key, value)` pairs (order preserved).
pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Streaming JSON writer: values go straight into one output `String`.
///
/// Separators are tracked by the writer, so callers only open and close
/// containers and emit keys and values in order.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    out: String,
    /// A value was just completed, so the next key or item needs a comma.
    comma: bool,
}

// The token methods are `#[inline(always)]`: with a literal key the escape
// check folds away, so an exported record is a run of short copies.
impl Writer {
    /// A writer whose output buffer starts with `bytes` of capacity.
    #[inline(always)]
    pub(crate) fn with_capacity(bytes: usize) -> Writer {
        Writer {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// The document written so far.
    #[inline(always)]
    pub(crate) fn finish(self) -> String {
        self.out
    }

    /// Starts a value: the comma before it, when one is due.
    #[inline(always)]
    fn sep(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    /// Opens an object.
    #[inline(always)]
    pub(crate) fn begin_object(&mut self) -> &mut Self {
        self.sep().push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object.
    #[inline(always)]
    pub(crate) fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array.
    #[inline(always)]
    pub(crate) fn begin_array(&mut self) -> &mut Self {
        self.sep().push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array.
    #[inline(always)]
    pub(crate) fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes an object key; the member's value comes next.
    #[inline(always)]
    pub(crate) fn key(&mut self, key: &str) -> &mut Self {
        push_escaped(self.sep(), key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes `null`.
    #[inline(always)]
    pub(crate) fn null(&mut self) -> &mut Self {
        self.sep().push_str("null");
        self
    }

    /// Writes `true` or `false`.
    #[inline(always)]
    pub(crate) fn bool(&mut self, b: bool) -> &mut Self {
        self.sep().push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes an unsigned integer.
    #[inline(always)]
    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        push_u64(self.sep(), v);
        self
    }

    /// Writes `v`, or `null` when it is `None`.
    #[inline(always)]
    pub(crate) fn opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            Some(v) => self.u64(v),
            None => self.null(),
        }
    }

    /// Writes a signed integer.
    pub(crate) fn i64(&mut self, v: i64) -> &mut Self {
        let out = self.sep();
        if v < 0 {
            out.push('-');
        }
        push_u64(out, v.unsigned_abs());
        self
    }

    /// Writes a float: its `Display` form, plus `".0"` when that has no
    /// point (so it reads back as a float). JSON has no NaN or infinity;
    /// non-finite values are written as `null` rather than emitting an
    /// invalid document.
    pub(crate) fn f64(&mut self, v: f64) -> &mut Self {
        let out = self.sep();
        if v.is_finite() {
            let start = out.len();
            let _ = write!(out, "{v}");
            if !out[start..].contains('.') {
                out.push_str(".0");
            }
        } else {
            out.push_str("null");
        }
        self
    }

    /// Writes `n / 1000` as a float: the same text as
    /// `self.f64(n as f64 / 1e3)`, built from integer digits when `n` has
    /// at most 15 digits. Below 10^15 the decimal `n / 1000` is the
    /// shortest text that reads back as that float (two decimals of at
    /// most 15 significant digits never round to the same `f64`), and that
    /// shortest text is what `Display` prints.
    #[inline]
    pub(crate) fn thousandths(&mut self, n: u64) -> &mut Self {
        if n >= 1_000_000_000_000_000 {
            return self.f64(n as f64 / 1e3);
        }
        let out = self.sep();
        push_u64(out, n / 1000);
        out.push('.');
        let frac = n % 1000;
        if frac == 0 {
            out.push('0');
        } else {
            // Three digits, trailing zeros dropped.
            let digits = [frac / 100, frac / 10 % 10, frac % 10].map(|d| b'0' + d as u8);
            let len = if frac.is_multiple_of(100) {
                1
            } else if frac.is_multiple_of(10) {
                2
            } else {
                3
            };
            out.push_str(std::str::from_utf8(&digits[..len]).expect("ASCII digits"));
        }
        self
    }

    /// Writes a string with full escaping.
    #[inline(always)]
    pub(crate) fn str(&mut self, s: &str) -> &mut Self {
        push_escaped(self.sep(), s);
        self
    }

    /// Writes a document-model value.
    pub(crate) fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::UInt(v) => self.u64(*v),
            Value::Int(v) => self.i64(*v),
            Value::Float(v) => self.f64(*v),
            Value::Str(s) => self.str(s),
            Value::Arr(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            Value::Obj(members) => {
                self.begin_object();
                for (k, v) in members {
                    self.key(k).value(v);
                }
                self.end_object()
            }
        }
    }
}

/// Appends the decimal digits of `v`.
#[inline(always)]
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Appends `s` as a JSON string literal with full escaping.
#[inline(always)]
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// One non-container value pulled by [`Reader::scalar`]. Containers are
/// validated and skipped; they read as [`Scalar::Container`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string, borrowed from the input unless it had escapes.
    Str(Cow<'a, str>),
    /// An array or object (contents skipped).
    Container,
}

impl Scalar<'_> {
    /// The value as a `u64`, if it is a non-negative integer.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match *self {
            Scalar::UInt(v) => Some(v),
            Scalar::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match *self {
            Scalar::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Pull reader over one JSON document.
///
/// [`Reader::object`] and [`Reader::array`] walk a container, handing each
/// member or item to a callback that must consume its value (read it or
/// [`Reader::skip`] it). Call [`Reader::finish`] at the end to reject
/// trailing garbage.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0 }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    /// The next significant byte (whitespace skipped), not consumed.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes().get(self.pos).map(|&b| b as char)
            ))
        }
    }

    /// Reads one value as an object, handing each member's key to
    /// `member`, which must consume the member's value. Returns `false`
    /// when the value is not an object; it is then validated and skipped.
    pub(crate) fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.peek() != Some(b'{') {
            self.skip()?;
            return Ok(false);
        }
        self.pos += 1;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(true);
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {other:?}",
                        self.pos
                    ))
                }
            }
        }
    }

    /// Reads one value as an array, handing each item to `item`, which
    /// must consume it. Returns `false` when the value is not an array; it
    /// is then validated and skipped.
    pub(crate) fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.peek() != Some(b'[') {
            self.skip()?;
            return Ok(false);
        }
        self.pos += 1;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(true);
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {other:?}",
                        self.pos
                    ))
                }
            }
        }
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let bytes = self.bytes();
        let start = self.pos;
        let mut run = start;
        while run < bytes.len() && bytes[run] != b'"' && bytes[run] != b'\\' {
            run += 1;
        }
        if bytes.get(run) == Some(&b'"') {
            self.pos = run + 1;
            return Ok(Cow::Borrowed(&self.text[start..run]));
        }
        // Escapes: decode into an owned copy. `run` always sits on an
        // ASCII byte or the end, so every slice below is on a char
        // boundary.
        let mut out = String::from(&self.text[start..run]);
        self.pos = run;
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                    self.pos += 1;
                }
                Some(_) => {
                    let from = self.pos;
                    while self.pos < bytes.len()
                        && bytes[self.pos] != b'"'
                        && bytes[self.pos] != b'\\'
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[from..self.pos]);
                }
            }
        }
    }

    /// Decodes the escape whose letter is at `self.pos` (the backslash is
    /// consumed), leaving `self.pos` on its last byte.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let bytes = self.bytes();
        match bytes.get(self.pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = |at: usize| -> Result<u32, String> {
                    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
                };
                let mut code = hex(self.pos + 1)?;
                self.pos += 4;
                // Surrogate pair?
                if (0xD800..0xDC00).contains(&code)
                    && bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                    && bytes.get(self.pos + 3..self.pos + 7).is_some()
                {
                    let low = std::str::from_utf8(&bytes[self.pos + 3..self.pos + 7])
                        .map_err(|e| e.to_string())?;
                    if let Ok(low) = u32::from_str_radix(low, 16) {
                        if (0xDC00..0xE000).contains(&low) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            self.pos += 6;
                        }
                    }
                }
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            other => return Err(format!("bad escape {other:?}")),
        }
        Ok(())
    }

    /// Reads a number. The lexer takes the longest run of digits and
    /// `.eE+-`; an integer token becomes [`Scalar::UInt`] or
    /// [`Scalar::Int`] when it fits, anything else must parse as `f64`.
    fn number(&mut self) -> Result<Scalar<'a>, String> {
        self.peek();
        let bytes = self.bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(format!("invalid number at byte {start}"));
        }
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Scalar::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Scalar::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Scalar::Float)
            .map_err(|e| format!("invalid number {text:?}: {e}"))
    }

    fn literal<T>(&mut self, lit: &str, value: T) -> Result<T, String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Reads any value, keeping it only if it is not a container.
    pub(crate) fn scalar(&mut self) -> Result<Scalar<'a>, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{' | b'[') => self.skip().map(|()| Scalar::Container),
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(_) => self.number(),
        }
    }

    /// Validates one value of any kind and discards it.
    pub(crate) fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip()).map(drop),
            Some(b'[') => self.array(Self::skip).map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// Reads one value into the document model.
    pub(crate) fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|r, key| {
                    members.push((key.into_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            _ => Ok(match self.scalar()? {
                Scalar::Null => Value::Null,
                Scalar::Bool(b) => Value::Bool(b),
                Scalar::UInt(v) => Value::UInt(v),
                Scalar::Int(v) => Value::Int(v),
                Scalar::Float(v) => Value::Float(v),
                Scalar::Str(s) => Value::Str(s.into_owned()),
                Scalar::Container => unreachable!("containers are read above"),
            }),
        }
    }

    /// Ends the document: only whitespace may follow.
    pub(crate) fn finish(mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing garbage at byte {}", self.pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_hostile_strings() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab\rand\u{8}bs",
            "control \u{1} char",
            "unicode: héllo ✓ 数",
        ] {
            let json = Value::Str(s.into()).to_json();
            assert_eq!(Value::parse(&json).unwrap(), Value::Str(s.into()), "{json}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Float(f64::INFINITY).to_json(), "null");
        assert_eq!(Value::Float(f64::NEG_INFINITY).to_json(), "null");
        assert_eq!(Value::Float(1.5).to_json(), "1.5");
    }

    #[test]
    fn floats_keep_their_class() {
        for (v, text) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (2.0, "2.0"),
            (1e21, "1000000000000000000000.0"),
            (0.001, "0.001"),
            (-7.25, "-7.25"),
        ] {
            assert_eq!(Value::Float(v).to_json(), text);
            assert_eq!(Value::parse(text).unwrap(), Value::Float(v));
        }
    }

    #[test]
    fn writer_places_commas() {
        let mut w = Writer::default();
        w.begin_object();
        w.key("ts").f64(1.0);
        w.key("tags").begin_array();
        w.str("a").opt_u64(None).i64(-3).begin_object().end_object();
        w.end_array();
        w.key("e").begin_array().end_array();
        w.end_object();
        assert_eq!(w.finish(), r#"{"ts":1.0,"tags":["a",null,-3,{}],"e":[]}"#);
    }

    #[test]
    fn thousandths_match_the_float_text() {
        let float = |n: u64| {
            let mut w = Writer::default();
            w.f64(n as f64 / 1e3);
            w.finish()
        };
        let fast = |n: u64| {
            let mut w = Writer::default();
            w.thousandths(n);
            w.finish()
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut cases: Vec<u64> = vec![
            0,
            1,
            10,
            100,
            999,
            1000,
            1001,
            1010,
            1500,
            123_456_789,
            999_999_999_999_999,
            1_000_000_000_000_000,
            1_000_000_000_000_001,
            1 << 53,
            u64::MAX,
        ];
        for _ in 0..200_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Every magnitude up to 10^16, with trailing-zero patterns.
            let n = (state >> 11) % 10u64.pow(1 + (state % 16) as u32);
            cases.push(n);
            cases.push(n / 10 * 10);
            cases.push(n / 100 * 100);
        }
        for n in cases {
            assert_eq!(fast(n), float(n), "n = {n}");
        }
    }

    #[test]
    fn integers_survive_bit_exactly() {
        for v in [
            Value::UInt(0),
            Value::UInt(u64::MAX),
            Value::Int(-42),
            Value::Int(i64::MIN),
        ] {
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        }
        assert_eq!(Value::UInt(1_234_567_890).to_json(), "1234567890");
        assert_eq!(Value::Int(i64::MIN).to_json(), i64::MIN.to_string());
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = obj(vec![
            (
                "a",
                Value::Arr(vec![Value::UInt(1), Value::Null, Value::Bool(true)]),
            ),
            ("b", obj(vec![("nested", Value::Str("x\"y".into()))])),
            ("c", Value::Float(0.125)),
            ("d", Value::Arr(vec![])),
            ("e", obj(vec![])),
        ]);
        let text = doc.to_json();
        assert_eq!(
            text,
            r#"{"a":[1,null,true],"b":{"nested":"x\"y"},"c":0.125,"d":[],"e":{}}"#
        );
        assert_eq!(Value::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parser_accepts_whitespace_and_rejects_garbage() {
        assert!(Value::parse(" { \"k\" : [ 1 , 2 ] } ").is_ok());
        assert!(Value::parse(" [ ] ").is_ok());
        for bad in [
            "{} trailing",
            "{\"k\":}",
            "[1,]",
            "{\"k\":1,}",
            "{,\"k\":1}",
            "[,1]",
            "{\"k\" 1}",
            "{\"k\":1 \"j\":2}",
            "[1 2]",
            "",
            "-",
            "nul",
            "\"open",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap(),
            Value::Str("😀".into())
        );
        assert_eq!(
            Value::parse("\"a\\ud83dz\"").unwrap(),
            Value::Str("a\u{FFFD}z".into())
        );
    }

    #[test]
    fn reader_borrows_plain_strings_and_skips_values() {
        let mut r = Reader::new(r#"{"plain":"abc","esc":"a\nb","skip":[{"x":[1,"A"]}],"n":-0}"#);
        let mut seen = Vec::new();
        let is_object = r
            .object(|r, key| {
                match &*key {
                    "plain" => assert!(matches!(r.scalar()?, Scalar::Str(Cow::Borrowed("abc")))),
                    "esc" => assert_eq!(r.scalar()?, Scalar::Str(Cow::Owned("a\nb".into()))),
                    // "-0" lexes as a negative-class integer that reads as 0.
                    "n" => assert_eq!(r.scalar()?.as_u64(), Some(0)),
                    _ => r.skip()?,
                }
                seen.push(key);
                Ok(())
            })
            .unwrap();
        assert!(is_object);
        assert_eq!(seen, ["plain", "esc", "skip", "n"]);
        r.finish().unwrap();
        // A non-container is validated and skipped.
        let mut r = Reader::new(" 12 ");
        assert_eq!(r.array(|_| unreachable!()), Ok(false));
        r.finish().unwrap();
    }
}
