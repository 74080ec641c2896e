//! Minimal JSON support for the `hslb-cli` wire format.
//!
//! This replaces the external `serde`/`serde_json` dependency with a small
//! local implementation. The wire format is kept byte-compatible with what
//! the serde derives produced for the CLI:
//!
//! * structs → objects with the field names as keys;
//! * enums with data → externally tagged: `{"Range": {"min": 1, "max": 12}}`;
//! * unit enum variants → plain strings: `"MinMax"`;
//! * `Option<T>` → the value or `null`, and a *missing* key decodes as
//!   `None` (matching serde's special case for `Option` fields).
//!
//! The crate deliberately stays tiny: one [`Json`] value enum, a
//! recursive-descent [`Json::parse`] with line/column diagnostics, compact
//! and pretty writers, and a handful of typed accessors used by the CLI and
//! its black-box tests.

mod parse;
mod write;

pub use parse::ParseError;

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document. Errors carry 1-based line/column positions.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        parse::parse(text)
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Member lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element lookup on arrays.
    pub fn idx(&self, i: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(i),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Numeric value if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // lint:allow(float-eq): fract() of an integer-valued double is exactly 0.0 — this tests exact representability, not closeness
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Numeric value if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            // lint:allow(float-eq): fract() of an integer-valued double is exactly 0.0 — this tests exact representability, not closeness
            Json::Num(x) if x.fract() == 0.0 && *x >= i64::MIN as f64 && *x <= i64::MAX as f64 => {
                Some(*x as i64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write::compact(self, &mut out);
        out
    }

    /// Pretty rendering with two-space indentation (serde_json style).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write::pretty(self, 0, &mut out);
        out
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_compact())
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Error produced by typed decoding ([`FromJson`]): a human-readable path
/// plus what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Dotted path into the document, e.g. `spec.ice.allowed`.
    pub path: String,
    /// What the decoder expected to find there.
    pub expected: String,
}

impl DecodeError {
    pub fn new(path: impl Into<String>, expected: impl Into<String>) -> Self {
        DecodeError {
            path: path.into(),
            expected: expected.into(),
        }
    }

    /// Prefixes the path with a parent segment (used when bubbling out of
    /// nested decoders).
    pub fn in_field(mut self, field: &str) -> Self {
        self.path = if self.path.is_empty() {
            field.to_string()
        } else {
            format!("{field}.{}", self.path)
        };
        self
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.path.is_empty() {
            write!(f, "expected {}", self.expected)
        } else {
            write!(f, "expected {} at `{}`", self.expected, self.path)
        }
    }
}

impl std::error::Error for DecodeError {}

/// Types that render to a [`Json`] value.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// Types that decode from a [`Json`] value.
pub trait FromJson: Sized {
    fn from_json(v: &Json) -> Result<Self, DecodeError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, DecodeError> {
        v.as_f64().ok_or_else(|| DecodeError::new("", "a number"))
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<u64, DecodeError> {
        v.as_u64()
            .ok_or_else(|| DecodeError::new("", "a non-negative integer"))
    }
}

impl FromJson for i64 {
    fn from_json(v: &Json) -> Result<i64, DecodeError> {
        v.as_i64().ok_or_else(|| DecodeError::new("", "an integer"))
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<usize, DecodeError> {
        v.as_u64()
            .map(|x| x as usize)
            .ok_or_else(|| DecodeError::new("", "an index"))
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, DecodeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DecodeError::new("", "a string"))
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, DecodeError> {
        let items = v
            .as_array()
            .ok_or_else(|| DecodeError::new("", "an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| e.in_field(&format!("[{i}]"))))
            .collect()
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, DecodeError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

/// Fetches and decodes a required object field.
pub fn field<T: FromJson>(obj: &Json, key: &str) -> Result<T, DecodeError> {
    match obj.get(key) {
        Some(v) => T::from_json(v).map_err(|e| e.in_field(key)),
        None => Err(DecodeError::new(key, "a value (field missing)")),
    }
}

/// Fetches an optional field: missing or `null` both decode to `None`
/// (serde's behavior for `Option` struct fields).
pub fn opt_field<T: FromJson>(obj: &Json, key: &str) -> Result<Option<T>, DecodeError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => T::from_json(v).map(Some).map_err(|e| e.in_field(key)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let src = r#"{"a":[1,2.5,-3e2],"b":"hi\n","c":null,"d":true,"e":{}}"#;
        let v = Json::parse(src).unwrap();
        let again = Json::parse(&v.to_compact()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn round_trip_pretty() {
        let v = Json::obj([
            (
                "model",
                Json::obj([("a", Json::from(27_180.0)), ("b", Json::from(5e-4))]),
            ),
            ("nodes", Json::from(vec![9u64, 3])),
            ("tag", Json::from("MinMax")),
        ]);
        let again = Json::parse(&v.to_pretty()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = Json::parse("{\"a\": 1,\n  oops}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\"b\\cA\t""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\cA\t"));
        let out = v.to_compact();
        assert_eq!(Json::parse(&out).unwrap(), v);
    }

    #[test]
    fn typed_accessors() {
        let v = Json::parse(r#"{"n": 12, "x": 1.5, "neg": -3}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("x").unwrap().as_u64(), None);
        assert_eq!(v.get("neg").unwrap().as_i64(), Some(-3));
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
    }

    #[test]
    fn decode_error_paths_compose() {
        let v = Json::parse(r#"{"spec": {"total_nodes": "nope"}}"#).unwrap();
        let spec = v.get("spec").unwrap();
        let err = field::<i64>(spec, "total_nodes").unwrap_err();
        assert_eq!(err.path, "total_nodes");
        let bubbled = err.in_field("spec");
        assert_eq!(bubbled.path, "spec.total_nodes");
    }

    #[test]
    fn opt_field_treats_missing_and_null_alike() {
        let v = Json::parse(r#"{"a": null}"#).unwrap();
        assert_eq!(opt_field::<f64>(&v, "a").unwrap(), None);
        assert_eq!(opt_field::<f64>(&v, "b").unwrap(), None);
        let w = Json::parse(r#"{"a": 3.0}"#).unwrap();
        assert_eq!(opt_field::<f64>(&w, "a").unwrap(), Some(3.0));
    }

    #[test]
    fn numbers_render_round_trippably() {
        for x in [0.0, -0.0, 1.0, 1.5, 5e-4, 1e300, -2.2250738585072014e-308] {
            let s = Json::Num(x).to_compact();
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{s}");
        }
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_compact(), "null");
    }
}
