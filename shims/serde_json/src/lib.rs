//! Offline stand-in for `serde_json` (see `shims/README.md`): renders the
//! shimmed [`serde::Value`] tree as JSON text and parses it back.
//!
//! Numbers keep integer/float identity (integers never pass through `f64`),
//! floats use Rust's shortest round-trip formatting, and non-finite floats
//! serialize as `null` (matching real serde_json). `\uXXXX` escapes are
//! decoded including surrogate pairs.

use serde::{Deserialize, Error, Serialize, Value};

/// Serializes a value to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: for<'de> Deserialize<'de>>(s: &str) -> Result<T, Error> {
    T::from_value(&parse(s)?)
}

/// Serializes a value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Deserializes a typed value out of a [`Value`] tree.
pub fn from_value<T: for<'de> Deserialize<'de>>(v: &Value) -> Result<T, Error> {
    T::from_value(v)
}

// ---- writer ----------------------------------------------------------------

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `{:?}` is Rust's shortest exact round-trip formatting and
                // always includes a fractional part or exponent.
                out.push_str(&format!("{f:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser ----------------------------------------------------------------

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so without a bound one line of `[[[[…` from a network peer
/// overflows the thread's stack and aborts the process; the deepest
/// document this workspace writes (a checkpoint) nests about 5 levels.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`] tree. Input nesting deeper than
/// [`MAX_DEPTH`] is an error.
pub fn parse(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error(format!("trailing characters at byte {pos}")));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), Error> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(Error(format!(
            "expected `{}` at byte {} of JSON input",
            b as char, *pos
        )))
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays or
/// objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(Error(format!(
            "JSON nests deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )));
    }
    match bytes.get(*pos) {
        None => Err(Error("unexpected end of JSON input".into())),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    _ => {
                        return Err(Error(format!(
                            "expected `,` or `]` at byte {pos}",
                            pos = *pos
                        )))
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Map(entries));
                    }
                    _ => {
                        return Err(Error(format!(
                            "expected `,` or `}}` at byte {pos}",
                            pos = *pos
                        )))
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, kw: &str, v: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(kw.as_bytes()) {
        *pos += kw.len();
        Ok(v)
    } else {
        Err(Error(format!("invalid literal at byte {pos}", pos = *pos)))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| Error("invalid UTF-8 in number".into()))?;
    if is_float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error(format!("invalid number `{text}`")))
    } else {
        text.parse::<i128>()
            .map(Value::Int)
            .map_err(|_| Error(format!("invalid integer `{text}`")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut pending_surrogate: Option<u16> = None;
    loop {
        // Copy the run of plain bytes up to the next quote or backslash,
        // validating it once, so a string costs time linear in its length.
        // Both delimiters are ASCII, so a run ends on a char boundary.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        if run > 0 {
            if pending_surrogate.is_some() {
                return Err(Error("unpaired surrogate escape".into()));
            }
            let text = std::str::from_utf8(&bytes[*pos..*pos + run])
                .map_err(|_| Error("invalid UTF-8 in string".into()))?;
            out.push_str(text);
            *pos += run;
        }
        match bytes.get(*pos) {
            None => return Err(Error("unterminated string".into())),
            Some(b'"') => {
                *pos += 1;
                if pending_surrogate.is_some() {
                    return Err(Error("unpaired surrogate escape".into()));
                }
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *bytes
                    .get(*pos)
                    .ok_or_else(|| Error("unterminated escape".into()))?;
                *pos += 1;
                let simple = match esc {
                    b'"' => Some('"'),
                    b'\\' => Some('\\'),
                    b'/' => Some('/'),
                    b'n' => Some('\n'),
                    b'r' => Some('\r'),
                    b't' => Some('\t'),
                    b'b' => Some('\u{8}'),
                    b'f' => Some('\u{c}'),
                    b'u' => None,
                    other => return Err(Error(format!("invalid escape `\\{}`", other as char))),
                };
                match simple {
                    Some(c) => {
                        if pending_surrogate.is_some() {
                            return Err(Error("unpaired surrogate escape".into()));
                        }
                        out.push(c);
                    }
                    None => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| Error("truncated \\u escape".into()))?;
                        *pos += 4;
                        let code = u16::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|_| Error("invalid \\u escape".into()))?,
                            16,
                        )
                        .map_err(|_| Error("invalid \\u escape".into()))?;
                        match (pending_surrogate.take(), code) {
                            (None, 0xD800..=0xDBFF) => pending_surrogate = Some(code),
                            (None, c) => out.push(
                                char::from_u32(c as u32)
                                    .ok_or_else(|| Error("invalid codepoint".into()))?,
                            ),
                            (Some(hi), 0xDC00..=0xDFFF) => {
                                let c = 0x10000
                                    + (((hi as u32) - 0xD800) << 10)
                                    + ((code as u32) - 0xDC00);
                                out.push(
                                    char::from_u32(c)
                                        .ok_or_else(|| Error("invalid codepoint".into()))?,
                                );
                            }
                            (Some(_), _) => return Err(Error("unpaired surrogate escape".into())),
                        }
                    }
                }
            }
            Some(_) => unreachable!("a run stops only at a quote, a backslash or the end"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(to_string(&-1.5f64).unwrap(), "-1.5");
        assert_eq!(from_str::<f64>("-1.5").unwrap(), -1.5);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("7").unwrap(), Some(7));
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![1u32, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&json).unwrap(), v);
        let t = (1u32, 2.5f64);
        assert_eq!(from_str::<(u32, f64)>(&to_string(&t).unwrap()).unwrap(), t);
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "line\nquote\" backslash\\ unicode ✓".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(from_str::<String>(r#""é😀""#).unwrap(), "é😀");
    }

    #[test]
    fn float_precision_is_exact() {
        for f in [0.1f64, 1e-300, 123_456_789.123_456_78, f64::MIN_POSITIVE] {
            assert_eq!(from_str::<f64>(&to_string(&f).unwrap()).unwrap(), f);
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v: Vec<u32> = from_str(" [ 1 , 2 ,\n3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn nesting_is_bounded_without_exhausting_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("deeper than"), "{}", err.0);
        // Deep enough to overflow a default 2 MiB thread stack if the
        // parser recursed without a bound — run on such a thread.
        let hostile = format!("{{\"id\":{}", "[".repeat(100_000));
        let parsed = std::thread::spawn(move || parse(&hostile).is_err())
            .join()
            .unwrap();
        assert!(parsed, "a hostile line is an error, not an abort");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 2 MiB of plain runs, multi-byte characters and escapes. A parser
        // that re-validates the rest of the input per character needs ~100 s
        // for this in release; a linear one, milliseconds even in debug.
        let unit = "plain text é ✓ \\n \\\" \\u00e9 ";
        let json = format!("\"{}\"", unit.repeat((2 << 20) / unit.len()));
        let started = std::time::Instant::now();
        let parsed: String = from_str(&json).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        assert_eq!(
            parsed,
            "plain text é ✓ \n \" é ".repeat((2 << 20) / unit.len())
        );
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<String>("\"\\ud800 lone surrogate\"").is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<u32>("{").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<u32>("\"x\"").is_err());
        assert!(from_str::<u32>("-1").is_err());
    }
}
