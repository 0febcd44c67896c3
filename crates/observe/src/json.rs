//! Hand-rolled JSON values, serialization and typed reading — no
//! external crates.
//!
//! The flow must emit machine-readable metrics in offline environments
//! where `serde` cannot even be resolved, so escaping and formatting are
//! done in-crate. The emitter produces strictly valid JSON: non-finite
//! floats become `null`, strings are escaped per RFC 8259.
//!
//! Every artifact decoder in the workspace reads through one API:
//! [`JsonValue::req`] and [`JsonValue::opt`] read a field as any
//! [`FromJson`] type, [`JsonValue::check_schema`] checks the schema tag,
//! and every failure is a [`ReadError`] naming the field. An integer
//! holds every `i64` and `u64` exactly and is read through `TryFrom`, so
//! a value outside the target type is an error, never a wrapped, clamped
//! or rounded value.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point), wide enough for
    /// every `i64` and `u64`.
    Int(i128),
    /// A float (non-finite values serialize as `null`).
    Float(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Creates an empty object.
    pub fn object() -> Self {
        Self::Object(Vec::new())
    }

    /// Inserts a key into an object (panics on non-objects: builder misuse
    /// is a programming error, not a data error).
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) -> &mut Self {
        match self {
            Self::Object(entries) => entries.push((key.to_string(), value.into())),
            other => panic!("JsonValue::set on non-object {other:?}"),
        }
        self
    }

    /// Builder-style [`Self::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean content, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer content, when this is an integer that fits an `i64`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Self::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The numeric content as a float, when this is a number (integers
    /// are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Float(f) => Some(*f),
            Self::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty-printed serialization with two-space indentation.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Self::Float(f) => write_f64(out, *f),
            Self::Str(s) => write_escaped(out, s),
            Self::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Self::Object(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                    let (key, value) = &entries[i];
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

/// Writes a float as a valid JSON number (`null` for NaN/∞).
fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{}` on f64 never produces exponents for ordinary magnitudes and
        // round-trips the value; "1" is a valid JSON number.
        let _ = write!(out, "{f}");
    } else {
        out.push_str("null");
    }
}

/// Writes a string with RFC 8259 escaping.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(i: $t) -> Self {
                Self::Int(i128::from(i))
            }
        }
    )*};
}

int_to_json!(u16, u32, u64, i32, i64);

impl From<usize> for JsonValue {
    fn from(i: usize) -> Self {
        Self::from(i as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(f: f64) -> Self {
        Self::Float(f)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        Self::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        Self::Str(s)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(o: Option<T>) -> Self {
        o.map_or(Self::Null, Into::into)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        Self::Array(v.into_iter().map(Into::into).collect())
    }
}

/// A typed read failure: the path of the offending field and what was
/// wrong with it. Displays as ``field `path`: problem``.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    path: String,
    problem: String,
}

impl ReadError {
    fn new(problem: impl Into<String>) -> Self {
        Self {
            path: String::new(),
            problem: problem.into(),
        }
    }

    /// Expected `what`, found `value`.
    fn mismatch(what: &str, value: &JsonValue) -> Self {
        let found = match value {
            JsonValue::Str(_) => "a string".to_string(),
            JsonValue::Array(_) => "an array".to_string(),
            JsonValue::Object(_) => "an object".to_string(),
            scalar => scalar.to_compact_string(),
        };
        Self::new(format!("expected {what}, found {found}"))
    }

    /// Prefixes the path with the enclosing key (or `[index]`).
    fn within(mut self, key: &str) -> Self {
        self.path = match self.path.as_str() {
            "" => key.to_string(),
            rest if rest.starts_with('[') => format!("{key}{rest}"),
            rest => format!("{key}.{rest}"),
        };
        self
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.problem)
        } else {
            write!(f, "field `{}`: {}", self.path, self.problem)
        }
    }
}

impl std::error::Error for ReadError {}

impl From<ReadError> for String {
    fn from(e: ReadError) -> Self {
        e.to_string()
    }
}

/// A type a JSON value can be read as.
pub trait FromJson<'a>: Sized {
    /// Reads `value`, or says what was expected and what was found.
    ///
    /// # Errors
    ///
    /// A [`ReadError`] when `value` has the wrong type or range.
    fn from_json(value: &'a JsonValue) -> Result<Self, ReadError>;
}

macro_rules! int_from_json {
    ($($t:ty),*) => {$(
        impl FromJson<'_> for $t {
            fn from_json(value: &JsonValue) -> Result<Self, ReadError> {
                match value {
                    JsonValue::Int(i) => Self::try_from(*i).ok(),
                    _ => None,
                }
                .ok_or_else(|| ReadError::mismatch(stringify!($t), value))
            }
        }
    )*};
}

int_from_json!(u16, u32, u64, usize, i32, i64);

impl<'a> FromJson<'a> for &'a JsonValue {
    fn from_json(value: &'a JsonValue) -> Result<Self, ReadError> {
        Ok(value)
    }
}

impl FromJson<'_> for f64 {
    fn from_json(value: &JsonValue) -> Result<Self, ReadError> {
        value
            .as_f64()
            .ok_or_else(|| ReadError::mismatch("a number", value))
    }
}

impl FromJson<'_> for bool {
    fn from_json(value: &JsonValue) -> Result<Self, ReadError> {
        value
            .as_bool()
            .ok_or_else(|| ReadError::mismatch("a boolean", value))
    }
}

impl<'a> FromJson<'a> for &'a str {
    fn from_json(value: &'a JsonValue) -> Result<Self, ReadError> {
        value
            .as_str()
            .ok_or_else(|| ReadError::mismatch("a string", value))
    }
}

impl FromJson<'_> for String {
    fn from_json(value: &JsonValue) -> Result<Self, ReadError> {
        <&str>::from_json(value).map(str::to_string)
    }
}

impl<'a> FromJson<'a> for &'a [JsonValue] {
    fn from_json(value: &'a JsonValue) -> Result<Self, ReadError> {
        value
            .as_array()
            .ok_or_else(|| ReadError::mismatch("an array", value))
    }
}

impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    fn from_json(value: &'a JsonValue) -> Result<Self, ReadError> {
        <&[JsonValue]>::from_json(value)?
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.within(&format!("[{i}]"))))
            .collect()
    }
}

/// An object read as a sorted map (the number maps of the QoR, perf
/// and ledger documents). Duplicate keys keep the first occurrence,
/// matching [`JsonValue::get`].
impl<'a, T: FromJson<'a>> FromJson<'a> for BTreeMap<String, T> {
    fn from_json(value: &'a JsonValue) -> Result<Self, ReadError> {
        let JsonValue::Object(entries) = value else {
            return Err(ReadError::mismatch("an object", value));
        };
        let mut map = BTreeMap::new();
        for (key, item) in entries {
            if !map.contains_key(key) {
                map.insert(key.clone(), T::from_json(item).map_err(|e| e.within(key))?);
            }
        }
        Ok(map)
    }
}

impl JsonValue {
    /// A required field of an object.
    ///
    /// # Errors
    ///
    /// When the field is absent (or `self` is not an object).
    pub fn field(&self, key: &str) -> Result<&JsonValue, ReadError> {
        self.get(key)
            .ok_or_else(|| ReadError::new("missing").within(key))
    }

    /// A required field read as `T`.
    ///
    /// # Errors
    ///
    /// When the field is absent or not a `T`.
    pub fn req<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<T, ReadError> {
        T::from_json(self.field(key)?).map_err(|e| e.within(key))
    }

    /// An optional field read as `T`: `None` when absent or `null`.
    ///
    /// # Errors
    ///
    /// When the field is present but not a `T`.
    pub fn opt<'a, T: FromJson<'a>>(&'a self, key: &str) -> Result<Option<T>, ReadError> {
        match self.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(value) => T::from_json(value).map(Some).map_err(|e| e.within(key)),
        }
    }

    /// Checks the document's `schema` tag.
    ///
    /// # Errors
    ///
    /// When the tag is absent, not a string, or not `expected`; the
    /// message names the tag found.
    pub fn check_schema(&self, expected: &str) -> Result<(), ReadError> {
        match self.req::<&str>("schema")? {
            found if found == expected => Ok(()),
            found => Err(
                ReadError::new(format!("expected `{expected}`, found `{found}`")).within("schema"),
            ),
        }
    }
}

/// Parses JSON text into a value tree: integer literals that fit an
/// `i128` become [`JsonValue::Int`], every other number a
/// [`JsonValue::Float`].
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(text, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Maximum container nesting the parser accepts. Every value this
/// workspace emits is a handful of levels deep; the cap exists so a
/// corrupt or adversarial input (`[[[[…`) yields a typed parse error
/// instead of exhausting the thread stack — callers like `--resume`
/// and the daemon's cache loader treat that error as "torn file".
pub const MAX_PARSE_DEPTH: usize = 512;

fn parse_value(
    text: &str,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<JsonValue, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} at byte {pos}"
        ));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(text, bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    other => return Err(format!("expected , or ] at byte {pos}, got {other:?}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected : at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(entries));
                    }
                    other => return Err(format!("expected , or }} at byte {pos}, got {other:?}")),
                }
            }
        }
        Some(_) => {
            // Number.
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let slice = &text[start..*pos];
            if let Ok(i) = slice.parse::<i128>() {
                Ok(JsonValue::Int(i))
            } else {
                slice
                    .parse::<f64>()
                    .map(JsonValue::Float)
                    .map_err(|e| format!("bad number {slice:?} at byte {start}: {e}"))
            }
        }
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".into());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{08}'),
                    b'f' => out.push('\u{0C}'),
                    b'u' => {
                        let hex = text
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            _ => {
                // Consume one full UTF-8 character (`pos` is in bounds
                // and on a character boundary).
                let Some(c) = text[*pos..].chars().next() else {
                    return Err("unterminated string".into());
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        // Anything at or under the cap still parses.
        let ok = "[".repeat(MAX_PARSE_DEPTH) + &"]".repeat(MAX_PARSE_DEPTH);
        parse(&ok).unwrap();
    }

    #[test]
    fn escaping_edge_cases_round_trip() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand\ttab\rand\u{08}bs\u{0C}ff",
            "control \u{01}\u{1f} chars",
            "unicode: caffè ☕ 図",
            "",
        ] {
            let emitted = JsonValue::from(s).to_compact_string();
            let parsed = parse(&emitted).expect("valid JSON");
            assert_eq!(parsed.as_str(), Some(s), "round-trip of {s:?}");
        }
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(JsonValue::from(f64::NAN).to_compact_string(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).to_compact_string(), "null");
        assert_eq!(JsonValue::from(1.5f64).to_compact_string(), "1.5");
    }

    #[test]
    fn object_and_array_shape() {
        let v = JsonValue::object()
            .with("a", 1u32)
            .with("b", vec![1i64, 2, 3])
            .with("c", JsonValue::Null)
            .with("d", Some("x"));
        let compact = v.to_compact_string();
        assert_eq!(compact, r#"{"a":1,"b":[1,2,3],"c":null,"d":"x"}"#);
        let parsed = parse(&compact).unwrap();
        assert_eq!(parsed.get("a").and_then(JsonValue::as_int), Some(1));
        assert_eq!(parsed.get("d").and_then(JsonValue::as_str), Some("x"));
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = JsonValue::object()
            .with("nested", JsonValue::object().with("k", "v"))
            .with("empty", JsonValue::Array(vec![]));
        let pretty = v.to_pretty_string();
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integer_reads_are_range_checked() {
        let doc = parse(r#"{"a":-1,"b":4294967296,"c":1.5,"d":"7","e":7}"#).unwrap();
        for (key, want) in [
            ("a", "field `a`: expected u32, found -1"),
            ("b", "field `b`: expected u32, found 4294967296"),
            ("c", "field `c`: expected u32, found 1.5"),
            ("d", "field `d`: expected u32, found a string"),
            ("z", "field `z`: missing"),
        ] {
            assert_eq!(doc.req::<u32>(key).unwrap_err().to_string(), want);
        }
        assert_eq!(doc.req::<u32>("e"), Ok(7));
        assert_eq!(doc.req::<u64>("b"), Ok(1 << 32));
        assert_eq!(doc.req::<i32>("a"), Ok(-1));
        assert!(doc.req::<u16>("b").is_err());
        assert_eq!(doc.req::<f64>("e"), Ok(7.0));
    }

    #[test]
    fn optional_reads_accept_absent_and_null_but_not_mistyped() {
        let doc = parse(r#"{"n":null,"s":"x","i":3}"#).unwrap();
        assert_eq!(doc.opt::<u32>("n"), Ok(None));
        assert_eq!(doc.opt::<u32>("absent"), Ok(None));
        assert_eq!(doc.opt::<u32>("i"), Ok(Some(3)));
        assert_eq!(doc.opt::<&str>("s"), Ok(Some("x")));
        assert!(doc.opt::<u32>("s").is_err());
        assert!(doc.opt::<bool>("i").is_err());
    }

    #[test]
    fn container_errors_name_the_element() {
        let doc = parse(r#"{"v":[1,2,-3],"m":{"x":1,"y":{"z":true},"x":"dup"}}"#).unwrap();
        let err = doc.req::<Vec<u32>>("v").unwrap_err();
        assert_eq!(err.to_string(), "field `v[2]`: expected u32, found -3");
        // Duplicate keys keep the first occurrence, like `get`.
        let err = doc.req::<BTreeMap<String, f64>>("m").unwrap_err();
        assert_eq!(
            err.to_string(),
            "field `m.y`: expected a number, found an object"
        );
        let nested = parse(r#"{"m":{"x":1,"x":"dup"}}"#).unwrap();
        let map: BTreeMap<String, f64> = nested.req("m").unwrap();
        assert_eq!(map.get("x"), Some(&1.0));
    }

    #[test]
    fn schema_check_names_what_it_found() {
        let doc = parse(r#"{"schema":"other-v9"}"#).unwrap();
        assert_eq!(doc.check_schema("other-v9"), Ok(()));
        let err = doc.check_schema("mine-v1").unwrap_err().to_string();
        assert_eq!(err, "field `schema`: expected `mine-v1`, found `other-v9`");
        let err = JsonValue::object().check_schema("mine-v1").unwrap_err();
        assert_eq!(err.to_string(), "field `schema`: missing");
    }

    #[test]
    fn every_u64_round_trips_exactly() {
        for n in [0, 42, i64::MAX as u64, 1 << 63, u64::MAX] {
            let text = JsonValue::from(n).to_compact_string();
            assert_eq!(text, n.to_string());
            let back = parse(&text).unwrap();
            assert_eq!(back, JsonValue::Int(i128::from(n)));
            assert_eq!(back.as_f64(), Some(n as f64));
            assert_eq!(u64::from_json(&back), Ok(n));
        }
        // One past either end is an error, not a wrapped value.
        let past = parse("18446744073709551616").unwrap();
        assert!(u64::from_json(&past).is_err());
        assert_eq!(past.as_int(), None);
        assert!(i64::from_json(&parse("-9223372036854775809").unwrap()).is_err());
    }
}
