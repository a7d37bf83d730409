//! The workspace's one JSON reader and writer.
//!
//! * [`Value`] keeps object members in document order and integers
//!   exact (`u64`/`i64`): manifest `cluster_fingerprint`s exceed 2^53.
//! * [`parse`] is strict RFC 8259 — no trailing characters, leading
//!   zeros, raw control characters or lone surrogates — and refuses
//!   nesting deeper than [`MAX_DEPTH`], so outside input (serve request
//!   bodies) cannot overflow a worker's stack. Every failure is a named
//!   [`ErrorKind`], never a panic.
//! * Writing uses serde_json's compact layout ([`Value`]'s `Display`)
//!   and its 2-space pretty one ([`Value::to_string_pretty`]), with its
//!   float form, so files first written through serde_json stay
//!   byte-identical. Every document the workspace emits is built as a
//!   [`Value`] and written here: string escaping and number form are
//!   private to this module.
//! * [`ToJson`] covers the std types documents are built from.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`parse`] accepts (serde_json's
/// default recursion limit).
pub const MAX_DEPTH: usize = 128;

/// The body of a JSON string literal holding `s` (no surrounding
/// quotes): quote, backslash, newline, carriage return and tab get
/// their short escapes, other control characters become `\u00XX`, and
/// everything else — non-ASCII included — passes through as UTF-8.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A JSON number literal for `v` in serde_json's layout (ryu's, over
/// the shortest round-trip digits): plain decimals with a fraction for
/// magnitudes in `[1e-5, 1e16)` (`1.0`, `0.125`, `0.00001`), exponent
/// form outside it (`1e-7`, `1.5e16`). NaN and infinities, which JSON
/// cannot carry, become `null`.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let magnitude = v.abs();
    if magnitude != 0.0 && !(1e-5..1e16).contains(&magnitude) {
        return format!("{v:e}");
    }
    // `Display` prints the shortest round-trip digits without an
    // exponent; ryu's layout adds `.0` to integral values.
    let mut s = format!("{v}");
    if !s.contains('.') {
        s.push_str(".0");
    }
    s
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A number with a fraction or exponent, or an integer beyond the
    /// 64-bit ranges.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members, in document order.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// An object with `members` in the given order.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The member `key` of an object (the last one, should the key
    /// repeat); `None` for absent keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as `f64` (integers convert, possibly rounding).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Member `key` converted by `read`, for decoding a typed record: an
    /// absent member is [`ErrorKind::MissingField`], one `read` rejects
    /// is [`ErrorKind::InvalidType`] naming `expected`.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        expected: &'static str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, Error> {
        match self.get(key) {
            Some(v) => read(v).ok_or_else(|| {
                Error::shape(ErrorKind::InvalidType {
                    field: key.to_string(),
                    expected,
                })
            }),
            None if matches!(self, Value::Object(_)) => {
                Err(Error::shape(ErrorKind::MissingField(key.to_string())))
            }
            None => Err(Error::shape(ErrorKind::NotAnObject)),
        }
    }

    /// [`Value::field`] for an optional member: `default` when absent.
    pub fn field_or<'a, T>(
        &'a self,
        key: &str,
        expected: &'static str,
        default: T,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, Error> {
        match self.get(key) {
            None if matches!(self, Value::Object(_)) => Ok(default),
            _ => self.field(key, expected, read),
        }
    }

    /// JSON indented by two spaces, as `serde_json::to_string_pretty`
    /// writes it.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Appends this value to `out`: compact when `indent` is `None`,
    /// else pretty-printed at nesting level `indent`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => out.push_str(&json_f64(*v)),
            Value::String(s) => write_str(out, s),
            Value::Array(items) => {
                write_container(out, indent, '[', ']', items, |out, v, i| v.write(out, i))
            }
            Value::Object(members) => {
                write_container(out, indent, '{', '}', members, |out, (k, v), i| {
                    write_str(out, k);
                    out.push_str(if i.is_some() { ": " } else { ":" });
                    v.write(out, i);
                })
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&json_escape(s));
    out.push('"');
}

fn write_container<T>(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    items: &[T],
    mut item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|i| i + 1);
    for (n, x) in items.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        item(out, x, inner);
    }
    if let (Some(level), false) = (indent, items.is_empty()) {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
}

/// Compact JSON, as `serde_json::to_string` writes it.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

/// Missing keys and non-objects index as `null`.
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// Out-of-range positions and non-arrays index as `null`.
impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

/// What went wrong reading a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside the named construct.
    Eof(&'static str),
    /// A byte that cannot appear here; names what was expected.
    Expected(&'static str),
    /// Non-whitespace after the document.
    TrailingCharacters,
    /// A malformed number (leading zero, missing digits) or one beyond
    /// `f64` range.
    InvalidNumber,
    /// A raw control character inside a string.
    ControlCharacter,
    /// An unknown escape or malformed `\u` digits.
    InvalidEscape,
    /// A `\u` surrogate without its other half.
    LoneSurrogate,
    /// String bytes that are not UTF-8.
    InvalidUtf8,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    RecursionLimit,
    /// A typed record's required member is absent.
    MissingField(String),
    /// A typed record's member has the wrong type.
    InvalidType {
        /// The member's key.
        field: String,
        /// What it should have been, e.g. `"a number"`.
        expected: &'static str,
    },
    /// A typed record is not a JSON object.
    NotAnObject,
}

/// A parse or decode failure. Syntax errors carry the 1-based line and
/// column of the offending byte; decode errors (missing or mistyped
/// members) carry line 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// What went wrong.
    pub kind: ErrorKind,
    /// 1-based line, or 0 when the error has no position.
    pub line: usize,
    /// 1-based column, or 0 when the error has no position.
    pub column: usize,
}

impl Error {
    fn shape(kind: ErrorKind) -> Self {
        Error {
            kind,
            line: 0,
            column: 0,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::Eof(what) => write!(f, "EOF while parsing {what}")?,
            ErrorKind::Expected(what) => write!(f, "expected {what}")?,
            ErrorKind::TrailingCharacters => f.write_str("trailing characters")?,
            ErrorKind::InvalidNumber => f.write_str("invalid number")?,
            ErrorKind::ControlCharacter => {
                f.write_str("control character (\\u0000-\\u001F) found while parsing a string")?
            }
            ErrorKind::InvalidEscape => f.write_str("invalid escape")?,
            ErrorKind::LoneSurrogate => f.write_str("lone surrogate in hex escape")?,
            ErrorKind::InvalidUtf8 => f.write_str("invalid UTF-8 in string")?,
            ErrorKind::RecursionLimit => write!(f, "nesting deeper than {MAX_DEPTH} levels")?,
            ErrorKind::MissingField(key) => write!(f, "missing field `{key}`")?,
            ErrorKind::InvalidType { field, expected } => {
                write!(f, "invalid type: `{field}` must be {expected}")?
            }
            ErrorKind::NotAnObject => f.write_str("invalid type: expected an object")?,
        }
        if self.line > 0 {
            write!(f, " at line {} column {}", self.line, self.column)?;
        }
        Ok(())
    }
}

impl std::error::Error for Error {}

/// Parses one JSON document; whitespace may surround it, nothing else.
pub fn parse(text: &str) -> Result<Value, Error> {
    parse_bytes(text.as_bytes())
}

/// [`parse`] over raw bytes (an HTTP body); strings must be UTF-8.
pub fn parse_bytes(bytes: &[u8]) -> Result<Value, Error> {
    let mut p = Parser { bytes, pos: 0 };
    let v = p.value(0)?;
    if p.peek().is_some() {
        return Err(p.error(ErrorKind::TrailingCharacters));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// An error at the byte being read.
    fn error(&self, kind: ErrorKind) -> Error {
        let upto = &self.bytes[..self.pos.min(self.bytes.len())];
        let line_start = upto.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        Error {
            kind,
            line: upto.iter().filter(|&&b| b == b'\n').count() + 1,
            column: upto.len() - line_start + 1,
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    /// `depth` counts the arrays and objects enclosing this value.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek() {
            None => Err(self.error(ErrorKind::Eof("a value"))),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error(ErrorKind::Expected("value"))),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        let rest = &self.bytes[self.pos..];
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else if word.as_bytes().starts_with(rest) {
            self.pos = self.bytes.len();
            Err(self.error(ErrorKind::Eof("a value")))
        } else {
            Err(self.error(ErrorKind::Expected("value")))
        }
    }

    /// Consumes the opening bracket of a container at `depth`.
    fn open(&mut self, depth: usize) -> Result<(), Error> {
        if depth >= MAX_DEPTH {
            return Err(self.error(ErrorKind::RecursionLimit));
        }
        self.pos += 1;
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.open(depth)?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                Some(_) => return Err(self.error(ErrorKind::Expected("`,` or `]`"))),
                None => return Err(self.error(ErrorKind::Eof("a list"))),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.open(depth)?;
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            match self.peek() {
                Some(b'"') => {}
                Some(_) => return Err(self.error(ErrorKind::Expected("a string key"))),
                None => return Err(self.error(ErrorKind::Eof("an object"))),
            }
            let key = self.string()?;
            match self.peek() {
                Some(b':') => self.pos += 1,
                Some(_) => return Err(self.error(ErrorKind::Expected("`:`"))),
                None => return Err(self.error(ErrorKind::Eof("an object"))),
            }
            members.push((key, self.value(depth + 1)?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                Some(_) => return Err(self.error(ErrorKind::Expected("`,` or `}`"))),
                None => return Err(self.error(ErrorKind::Eof("an object"))),
            }
        }
    }

    /// Consumes a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - from
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let negative = self.bytes[self.pos] == b'-';
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return Err(self.error(ErrorKind::InvalidNumber)),
            n if n > 1 && self.bytes[int_start] == b'0' => {
                self.pos = int_start + 1;
                return Err(self.error(ErrorKind::InvalidNumber));
            }
            _ => {}
        }
        let mut integer = true;
        if self.bytes.get(self.pos) == Some(&b'.') {
            integer = false;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error(ErrorKind::InvalidNumber));
            }
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            integer = false;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error(ErrorKind::InvalidNumber));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if integer {
            if !negative {
                if let Ok(v) = text.parse::<u64>() {
                    return Ok(Value::U64(v));
                }
            } else if let Ok(v @ ..=-1) = text.parse::<i64>() {
                return Ok(Value::I64(v));
            }
        }
        // Fractions, exponents, `-0` and integers beyond 64 bits.
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::F64(v)),
            _ => Err(self.error(ErrorKind::InvalidNumber)),
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, Error> {
        let Some(hex) = self.bytes.get(self.pos..self.pos + 4) else {
            self.pos = self.bytes.len();
            return Err(self.error(ErrorKind::Eof("a string")));
        };
        let code = std::str::from_utf8(hex)
            .ok()
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.error(ErrorKind::InvalidEscape))?;
        self.pos += 4;
        Ok(code)
    }

    /// The code point of a `\u` escape whose `u` was just consumed,
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(self.error(ErrorKind::LoneSurrogate));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.error(ErrorKind::LoneSurrogate));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.error(ErrorKind::LoneSurrogate)),
            _ => hi,
        };
        Ok(char::from_u32(code).expect("a scalar value outside the surrogate range"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.extend_from_slice(&self.bytes[self.pos..self.pos + run]);
            self.pos += run;
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error(ErrorKind::Eof("a string")));
            };
            if b < 0x20 {
                return Err(self.error(ErrorKind::ControlCharacter));
            }
            self.pos += 1;
            if b == b'"' {
                break;
            }
            let Some(&e) = self.bytes.get(self.pos) else {
                return Err(self.error(ErrorKind::Eof("a string")));
            };
            self.pos += 1;
            let c = match e {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => self.unicode_escape()?,
                _ => {
                    self.pos -= 1;
                    return Err(self.error(ErrorKind::InvalidEscape));
                }
            };
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
        String::from_utf8(out).map_err(|_| self.error(ErrorKind::InvalidUtf8))
    }
}

/// A value that writes itself as JSON; implemented for the std types
/// experiment results are assembled from.
pub trait ToJson {
    /// This value as a JSON [`Value`].
    fn to_value(&self) -> Value;
}

impl ToJson for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

/// NaN and infinities write as `null`, as in serde_json.
impl ToJson for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::F64(*self)
        } else {
            Value::Null
        }
    }
}

impl ToJson for u64 {
    fn to_value(&self) -> Value {
        Value::U64(*self)
    }
}

impl ToJson for u32 {
    fn to_value(&self) -> Value {
        Value::U64(u64::from(*self))
    }
}

impl ToJson for usize {
    fn to_value(&self) -> Value {
        Value::U64(*self as u64)
    }
}

impl ToJson for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_value)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_value).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

/// What a [`json_object!`](crate::json_object) member accepts: a built
/// [`Value`] (moved in) or anything [`ToJson`] that is `Copy` — numbers,
/// booleans and references such as `&String` or `&Vec<f64>`.
pub trait IntoValue {
    /// This value as a JSON [`Value`].
    fn into_value(self) -> Value;
}

impl IntoValue for Value {
    fn into_value(self) -> Value {
        self
    }
}

impl<T: ToJson + Copy> IntoValue for T {
    fn into_value(self) -> Value {
        self.to_value()
    }
}

/// A JSON object [`Value`] written like the document it builds, members
/// in the given order: `json_object! { "model" => &r.model, "batch" => r.batch }`.
/// Each value is [`IntoValue`].
#[macro_export]
macro_rules! json_object {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::json::Value::Object(vec![
            $(($key.to_string(), $crate::json::IntoValue::into_value($value))),*
        ])
    };
}

/// A pair writes as a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_table() {
        for (raw, escaped) in [
            ("plain", "plain"),
            ("say \"hi\"", "say \\\"hi\\\""),
            ("C:\\dir", "C:\\\\dir"),
            ("line\nbreak", "line\\nbreak"),
            ("cr\rhere", "cr\\rhere"),
            ("tab\there", "tab\\there"),
            (
                "\u{0}\u{1}\u{8}\u{c}\u{1f}",
                "\\u0000\\u0001\\u0008\\u000c\\u001f",
            ),
            (
                "\u{7f} is not a JSON control",
                "\u{7f} is not a JSON control",
            ),
            ("GTX 1080Ti — 12 µs ✓ 日本", "GTX 1080Ti — 12 µs ✓ 日本"),
        ] {
            assert_eq!(json_escape(raw), escaped, "{raw:?}");
        }
    }

    /// serde_json's float layout, including the table its offline
    /// stand-in pins.
    #[test]
    fn json_f64_table() {
        for (v, text) in [
            (1.0, "1.0"),
            (3.0, "3.0"),
            (1.5, "1.5"),
            (-0.25, "-0.25"),
            (0.5, "0.5"),
            (123456.0, "123456.0"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (1.5e17, "1.5e17"),
            (0.0001, "0.0001"),
            (0.00001, "0.00001"),
            (0.000001, "1e-6"),
            (0.0000001, "1e-7"),
            (1.25e-7, "1.25e-7"),
            (-2.5, "-2.5"),
            (0.1 + 0.2, "0.30000000000000004"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (f64::MAX, "1.7976931348623157e308"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(json_f64(v), text, "{v:?}");
        }
    }

    #[test]
    fn documents_round_trip_in_both_layouts() {
        for text in [
            r#"{"b":[1,-2,3.5,1e-7,18446744073709551615,-9223372036854775808],"a":{"s":"x\"yé\n"},"n":null,"t":true,"f":false,"e":[],"o":{}}"#,
            "[]",
            "\"\"",
            "0",
            "-1.5",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string(), text);
            assert_eq!(parse(&v.to_string_pretty()).unwrap(), v);
        }
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(
            v.to_string(),
            r#"{"z":1,"a":2}"#,
            "members keep document order"
        );
        assert_eq!(v["z"].as_u64(), Some(1));
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(parse("[7]").unwrap()[0].as_u64(), Some(7));
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let v = parse(r#"{"a":[1,2],"b":{},"c":[],"d":{"e":null}}"#).unwrap();
        assert_eq!(
            v.to_string_pretty(),
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {},\n  \"c\": [],\n  \"d\": {\n    \"e\": null\n  }\n}"
        );
    }

    #[test]
    fn numbers_keep_their_kind() {
        let big = u64::MAX - 1;
        assert_eq!(parse(&big.to_string()).unwrap(), Value::U64(big));
        assert_eq!(parse("-3").unwrap(), Value::I64(-3));
        assert_eq!(parse("2.0").unwrap(), Value::F64(2.0));
        assert_eq!(parse("1E2").unwrap(), Value::F64(100.0));
        assert_eq!(
            parse("-0").unwrap().as_f64().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Value::F64(18446744073709551616.0)
        );
        assert_eq!(Value::U64(10).as_f64(), Some(10.0));
        assert_eq!(Value::F64(10.0).as_u64(), None);
        assert_eq!(
            parse(r#""\ud83d\ude00\u00e9\/""#).unwrap(),
            Value::String("😀é/".into())
        );
    }

    #[test]
    fn malformed_input_is_a_named_error() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let too_deep = deep(MAX_DEPTH + 1);
        let unclosed = "[".repeat(100_000);
        let nested_objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&nested_objects).is_ok());
        for (text, kind) in [
            ("[1] 2", ErrorKind::TrailingCharacters),
            ("{} x", ErrorKind::TrailingCharacters),
            ("01", ErrorKind::InvalidNumber),
            ("-012", ErrorKind::InvalidNumber),
            ("1.", ErrorKind::InvalidNumber),
            ("1e", ErrorKind::InvalidNumber),
            ("-", ErrorKind::InvalidNumber),
            ("1e999", ErrorKind::InvalidNumber),
            ("\"a\u{1}b\"", ErrorKind::ControlCharacter),
            ("\"tab\there\"", ErrorKind::ControlCharacter),
            (r#""\ud800""#, ErrorKind::LoneSurrogate),
            (r#""\ud800\u0041""#, ErrorKind::LoneSurrogate),
            (r#""\udc00""#, ErrorKind::LoneSurrogate),
            (r#""\x""#, ErrorKind::InvalidEscape),
            (r#""\u12g4""#, ErrorKind::InvalidEscape),
            ("", ErrorKind::Eof("a value")),
            ("{\"servers\": [", ErrorKind::Eof("a value")),
            ("[1", ErrorKind::Eof("a list")),
            ("{\"a\":1", ErrorKind::Eof("an object")),
            ("\"abc", ErrorKind::Eof("a string")),
            ("tru", ErrorKind::Eof("a value")),
            ("[1,]", ErrorKind::Expected("value")),
            ("{1:2}", ErrorKind::Expected("a string key")),
            ("{\"a\" 1}", ErrorKind::Expected("`:`")),
            ("[1 2]", ErrorKind::Expected("`,` or `]`")),
            ("nul!", ErrorKind::Expected("value")),
            ("NaN", ErrorKind::Expected("value")),
            (too_deep.as_str(), ErrorKind::RecursionLimit),
            (unclosed.as_str(), ErrorKind::RecursionLimit),
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!(err.kind, kind, "{text:?}");
            assert!(err.line >= 1, "{text:?} has a position");
        }
        assert_eq!(
            parse_bytes(b"\"\xff\"").unwrap_err().kind,
            ErrorKind::InvalidUtf8
        );
        let located = parse("{\"a\":\n  x}").unwrap_err();
        assert_eq!(located.to_string(), "expected value at line 2 column 3");
    }

    #[test]
    fn fields_decode_with_named_errors() {
        let v = parse(r#"{"n":3,"s":"x"}"#).unwrap();
        assert_eq!(v.field("n", "an integer", Value::as_u64), Ok(3));
        assert_eq!(
            v.field_or("flag", "a boolean", true, Value::as_bool),
            Ok(true)
        );
        let missing = v.field("m", "a number", Value::as_f64).unwrap_err();
        assert_eq!(missing.kind, ErrorKind::MissingField("m".into()));
        assert_eq!(missing.to_string(), "missing field `m`");
        let wrong = v.field_or("s", "a number", 0.0, Value::as_f64).unwrap_err();
        assert_eq!(wrong.to_string(), "invalid type: `s` must be a number");
        let not_object = Value::U64(1)
            .field("n", "a number", Value::as_f64)
            .unwrap_err();
        assert_eq!(not_object.kind, ErrorKind::NotAnObject);
    }

    #[test]
    fn json_object_keeps_member_order_and_moves_values_in() {
        let name = String::from("a\"b");
        let nested = crate::json_object! { "n" => 1u32 };
        let v = crate::json_object! {
            "s" => &name, "u" => 7usize, "f" => 0.5, "b" => true, "o" => nested,
            "none" => &None::<f64>, "xs" => &vec![2u64, 3],
        };
        assert_eq!(
            v.to_string(),
            r#"{"s":"a\"b","u":7,"f":0.5,"b":true,"o":{"n":1},"none":null,"xs":[2,3]}"#
        );
    }

    #[test]
    fn std_types_write_like_serde_json() {
        let mut times = BTreeMap::new();
        times.insert("b".to_string(), Some(0.5));
        times.insert("a".to_string(), None);
        let rows = vec![("8GPUs", times)];
        assert_eq!(
            rows.to_value().to_string(),
            r#"[["8GPUs",{"a":null,"b":0.5}]]"#
        );
        assert_eq!(f64::NAN.to_value(), Value::Null);
        assert_eq!(vec![1.0, 2.5].to_value().to_string(), "[1.0,2.5]");
        assert_eq!(true.to_value().to_string(), "true");
    }
}
