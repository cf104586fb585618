//! Offline shim for the subset of `serde_json` the bnff workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`] (a full JSON parser),
//! the [`json!`] macro, and the [`Value`] tree (re-exported from the serde
//! shim).

pub use serde::value::Value;

use std::fmt;

/// Serialization error. The shim's tree-based serializer is infallible, but
/// the real `serde_json` API returns `Result`, so call sites use `?`.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(err: serde::DeError) -> Self {
        Error(err.to_string())
    }
}

/// Lowers any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serializes a value as compact single-line JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json())
}

/// Serializes a value as 2-space-indented pretty JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_json_pretty())
}

/// Lifts a [`Value`] tree into any deserializable type.
///
/// # Errors
/// Returns an error when the value's shape does not match the type.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T, Error> {
    Ok(T::from_value(value)?)
}

/// Parses a JSON document into any deserializable type.
///
/// # Errors
/// Returns an error on malformed JSON or a shape mismatch.
pub fn from_str<T: serde::Deserialize>(input: &str) -> Result<T, Error> {
    from_value(&parse(input)?)
}

/// How deep arrays and objects may nest (`serde_json`'s own default). The
/// parser recurses once per level, so this is what keeps a hostile body of
/// `[[[[…` from overflowing the stack of the thread that parses it.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document into a [`Value`] tree.
///
/// # Errors
/// Returns an error on malformed JSON, trailing non-whitespace input, or
/// containers nested more than 128 deep.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut parser = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!("trailing input at byte {}", parser.pos)));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!("expected {:?} at byte {}", char::from(byte), self.pos)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    /// Parses one container, one level deeper — or refuses to, past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!("recursion limit exceeded at byte {}", self.pos)));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected ',' or ']' at byte {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::new(format!("expected ',' or '}}' at byte {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape =
                        self.peek().ok_or_else(|| Error::new("unterminated escape".to_string()))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.parse_hex4()?;
                            // Combine UTF-16 surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if !self.eat_literal("\\u") {
                                    return Err(Error::new("unpaired surrogate".to_string()));
                                }
                                let low = self.parse_hex4()?;
                                let combined = 0x10000
                                    + ((u32::from(unit) - 0xD800) << 10)
                                    + (u32::from(low) - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(u32::from(unit))
                            };
                            out.push(
                                c.ok_or_else(|| Error::new("invalid \\u escape".to_string()))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!(
                                "invalid escape '\\{}'",
                                char::from(other)
                            )))
                        }
                    }
                }
                Some(_) => {
                    // Bulk-copy the run of plain bytes up to the next quote
                    // or escape, validating it as UTF-8 exactly once.
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::new("invalid UTF-8 in string".to_string()))?;
                    out.push_str(chunk);
                }
                None => return Err(Error::new("unterminated string".to_string())),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u16, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape".to_string()));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("invalid \\u escape".to_string()))?;
        let unit = u16::from_str_radix(hex, 16)
            .map_err(|_| Error::new(format!("invalid \\u escape '{hex}'")))?;
        self.pos += 4;
        Ok(unit)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number".to_string()))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number '{text}'")))
    }
}

/// Builds a [`Value`] from object/array/expression syntax.
///
/// Supports the flat forms the workspace uses: `json!({ "k": expr, ... })`,
/// `json!([expr, ...])` and `json!(expr)`. Values are anything implementing
/// the shim's `Serialize` (including `Value` itself, so calls compose).
#[macro_export]
macro_rules! json {
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (($key).to_string(), $crate::to_value(&$value)) ),*
        ])
    };
    ([ $($value:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$value) ),* ])
    };
    (null) => { $crate::Value::Null };
    ($value:expr) => { $crate::to_value(&$value) };
}

#[cfg(test)]
mod tests {
    use serde::{Deserialize, Serialize};

    #[derive(Serialize)]
    struct Row {
        name: String,
        score: f64,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Nested {
        id: usize,
        tag: Option<String>,
        values: Vec<f32>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Unit,
        Newtype(u32),
        Pair(i32, bool),
        Named { x: f64, label: String },
    }

    #[test]
    fn parser_handles_all_value_shapes() {
        let v = super::parse(
            r#" { "a": [1, -2, 3.5, 1e3], "b": null, "c": true, "s": "q\"\u0041\n" } "#,
        )
        .unwrap();
        assert_eq!(v.get("b"), Some(&super::Value::Null));
        assert_eq!(v.get("c"), Some(&super::Value::Bool(true)));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0], super::Value::UInt(1));
        assert_eq!(arr[1], super::Value::Int(-2));
        assert_eq!(arr[2], super::Value::Float(3.5));
        assert_eq!(arr[3], super::Value::Float(1e3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"A\n"));
        // Malformed documents are rejected, not mis-parsed.
        assert!(super::parse("{").is_err());
        assert!(super::parse("[1,]").is_err());
        assert!(super::parse("1 2").is_err());
        assert!(super::parse(r#"{"k" 1}"#).is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        // Arrays, objects, and the two alternating (two levels per repeat).
        for (open, close, levels) in [("[", "]", 1), ("{\"k\":", "}", 1), ("[{\"k\":", "}]", 2)] {
            assert!(super::parse(&nest(open, close, 128 / levels)).is_ok(), "{open} at 128");
            let err = super::parse(&nest(open, close, 128 / levels + 1)).unwrap_err();
            assert!(err.to_string().contains("recursion limit"), "{open} at 129+: {err}");
            // Unclosed and a million deep: the bound is hit on the way
            // down, long before the stack runs out.
            assert!(super::parse(&open.repeat(1_000_000)).is_err(), "{open} at 1e6");
            assert!(super::from_str::<Vec<f32>>(&open.repeat(1_000_000)).is_err());
        }
        // Siblings do not count as depth.
        assert!(super::parse(&format!("[{}[]]", "[],".repeat(1000))).is_ok());
    }

    #[test]
    fn derived_struct_round_trips() {
        let nested = Nested { id: 7, tag: None, values: vec![0.1, -2.5e-8, 3.4e38, 0.0, -1.5e-42] };
        let json = super::to_string(&nested).unwrap();
        let back: Nested = super::from_str(&json).unwrap();
        assert_eq!(back, nested);
        // Bit-exactness of the f32 payload specifically.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.values), bits(&nested.values));
    }

    #[test]
    fn derived_enum_round_trips_every_variant_shape() {
        for kind in [
            Kind::Unit,
            Kind::Newtype(42),
            Kind::Pair(-3, true),
            Kind::Named { x: 2.75, label: "hi".into() },
        ] {
            let json = super::to_string(&kind).unwrap();
            let back: Kind = super::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
        // Unknown variants fail instead of guessing.
        assert!(super::from_str::<Kind>("\"Bogus\"").is_err());
        assert!(super::from_str::<Kind>(r#"{"Bogus": 1}"#).is_err());
    }

    #[test]
    fn non_finite_floats_fail_loudly_instead_of_corrupting() {
        // The serializer prints Inf/NaN as null; lifting that back must be
        // an error, not a silent NaN.
        let json = super::to_string(&vec![1.0f32, f32::INFINITY]).unwrap();
        assert_eq!(json, "[1.0,null]");
        assert!(super::from_str::<Vec<f32>>(&json).is_err());
        assert!(super::from_str::<Vec<f64>>("[null]").is_err());
        // Option still treats null as None.
        assert_eq!(
            super::from_str::<Vec<Option<f32>>>("[null,2.5]").unwrap(),
            vec![None, Some(2.5)]
        );
    }

    #[test]
    fn maps_round_trip_with_integer_keys() {
        use std::collections::HashMap;
        let mut m: HashMap<usize, Vec<f32>> = HashMap::new();
        m.insert(10, vec![1.0, 2.0]);
        m.insert(2, vec![-0.5]);
        let json = super::to_string(&m).unwrap();
        let back: HashMap<usize, Vec<f32>> = super::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn derived_struct_serializes_in_field_order() {
        let row = Row { name: "a\"b".into(), score: 1.5 };
        assert_eq!(super::to_string(&row).unwrap(), r#"{"name":"a\"b","score":1.5}"#);
    }

    #[test]
    fn json_macro_builds_objects() {
        let rows = vec![Row { name: "x".into(), score: 2.0 }];
        let v = json!({ "batch": 4usize, "rows": rows });
        let s = super::to_string(&v).unwrap();
        assert_eq!(s, r#"{"batch":4,"rows":[{"name":"x","score":2.0}]}"#);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = json!({ "a": 1u32 });
        assert_eq!(super::to_string_pretty(&v).unwrap(), "{\n  \"a\": 1\n}");
    }
}
