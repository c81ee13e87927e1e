//! Hand-written recursive-descent parser for ADM text.
//!
//! Accepts standard JSON plus the ADM extensions the paper's examples use:
//!
//! * multisets: `{{ v1, v2, … }}`
//! * constructor literals: `date("2018-09-20")`, `time("13:30:00")`,
//!   `datetime("2018-09-20T13:30:00")`, `duration(ms)`, `uuid("hex…")`,
//!   `point(x, y)`, `line(x1,y1,x2,y2)`, `rectangle(x1,y1,x2,y2)`,
//!   `circle(x,y,r)`, `binary("hex")`
//! * integer-width suffixes: `5i8`, `5i16`, `5i32`, refused when the value
//!   does not fit (bare integers parse to `bigint`/Int64, bare decimals to
//!   `double`, matching SQL++ defaults)
//! * `missing` as a literal (useful in tests)

use crate::error::AdmError;
use crate::value::Value;
use crate::MAX_NESTING;

/// Recursive-descent parser over a byte buffer.
pub struct Parser<'a> {
    /// The input; `text` is its bytes. Every position the parser stops at
    /// between tokens is next to an ASCII byte, so slicing `src` there is
    /// always on a char boundary.
    src: &'a str,
    text: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

/// The bit a field name sets in an object's 64-bit name mask: the object
/// scans its fields for a duplicate only when a name's bit is already set.
pub(crate) fn name_bit(name: &str) -> u64 {
    1 << (tc_util::hash::hash_bytes(name.as_bytes()) & 63)
}

impl<'a> Parser<'a> {
    pub fn new(text: &'a str) -> Self {
        Parser { src: text, text: text.as_bytes(), pos: 0, depth: 0 }
    }

    /// Parse exactly one value; trailing whitespace allowed, trailing
    /// content rejected.
    pub fn parse_single(mut self) -> Result<Value, AdmError> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing content after value"));
        }
        Ok(v)
    }

    fn err(&self, msg: impl Into<String>) -> AdmError {
        AdmError::Parse { offset: self.pos, message: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), AdmError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, AdmError> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(open @ (b'{' | b'[')) => {
                // The parser recurses per container: a cap, not the stack,
                // bounds how deep a text may nest.
                if self.depth == MAX_NESTING {
                    return Err(self.err(format!("nested deeper than {MAX_NESTING} levels")));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else if self.text.get(self.pos + 1) == Some(&b'{') {
                    self.parse_multiset()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) if c.is_ascii_alphabetic() => self.parse_word(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn parse_object(&mut self) -> Result<Value, AdmError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        if self.eat(b'}') {
            return Ok(Value::Object(fields));
        }
        let mut names = 0u64;
        loop {
            self.skip_ws();
            let name = self.parse_string()?;
            let bit = name_bit(&name);
            if names & bit != 0 && fields.iter().any(|(n, _)| *n == name) {
                return Err(self.err(format!("duplicate field name '{name}'")));
            }
            names |= bit;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((name, value));
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(Value::Object(fields));
        }
    }

    fn parse_multiset(&mut self) -> Result<Value, AdmError> {
        self.expect(b'{')?;
        self.expect(b'{')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') && self.text.get(self.pos + 1) == Some(&b'}') {
            self.pos += 2;
            return Ok(Value::Multiset(items));
        }
        loop {
            items.push(self.parse_value()?);
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            self.expect(b'}')?;
            return Ok(Value::Multiset(items));
        }
    }

    fn parse_array(&mut self) -> Result<Value, AdmError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(Value::Array(items));
        }
    }

    /// A quoted string. The text between escapes is copied a run at a time
    /// (the input is a `str`, so a run is already UTF-8); a string without
    /// escapes is one exact-size copy.
    fn parse_string(&mut self) -> Result<String, AdmError> {
        self.skip_ws();
        if self.bump() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        let mut escaped: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(len) = self.text[start..].iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            let run = self.src.get(start..start + len).ok_or_else(|| self.err("invalid UTF-8"))?;
            self.pos = start + len + 1;
            if self.text[start + len] == b'"' {
                return Ok(match escaped {
                    None => run.to_owned(),
                    Some(mut out) => {
                        out.push_str(run);
                        out
                    }
                });
            }
            let out = escaped.get_or_insert_with(|| String::with_capacity(len + 16));
            out.push_str(run);
            let ch = self.parse_escape()?;
            out.push(ch);
        }
    }

    /// The character an escape stands for, the backslash already consumed.
    fn parse_escape(&mut self) -> Result<char, AdmError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let cp = self.parse_hex4()?;
                // Surrogate pair handling.
                if (0xD800..0xDC00).contains(&cp) {
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let low = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"))?
                } else {
                    char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                }
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, AdmError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, AdmError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'-' if is_float => self.pos += 1,
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            let v: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
            // Optional float suffix: 1.5f
            if self.peek() == Some(b'f') {
                self.pos += 1;
                return Ok(Value::Float(v as f32));
            }
            return Ok(Value::Double(v));
        }
        let v: i64 = text.parse().map_err(|_| self.err("integer out of range"))?;
        // Width suffixes: i8 / i16 / i32 / i64. A value the width cannot
        // hold is an error, not a wrapped value.
        if self.peek() == Some(b'i') {
            let save = self.pos;
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
            let range = |_| self.err(format!("{v} out of range for {}", &self.src[save..self.pos]));
            match &self.src[save + 1..self.pos] {
                "8" => return i8::try_from(v).map(Value::Int8).map_err(range),
                "16" => return i16::try_from(v).map(Value::Int16).map_err(range),
                "32" => return i32::try_from(v).map(Value::Int32).map_err(range),
                "64" => return Ok(Value::Int64(v)),
                _ => self.pos = save,
            }
        }
        if self.peek() == Some(b'f') {
            self.pos += 1;
            return Ok(Value::Float(v as f32));
        }
        Ok(Value::Int64(v))
    }

    fn parse_word(&mut self) -> Result<Value, AdmError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
            self.pos += 1;
        }
        let word = &self.src[start..self.pos];
        match word {
            "true" => Ok(Value::Boolean(true)),
            "false" => Ok(Value::Boolean(false)),
            "null" => Ok(Value::Null),
            "missing" => Ok(Value::Missing),
            "date" => {
                let s = self.constructor_string()?;
                Ok(Value::Date(parse_date(&s).ok_or_else(|| self.err("bad date literal"))?))
            }
            "time" => {
                let s = self.constructor_string()?;
                Ok(Value::Time(parse_time(&s).ok_or_else(|| self.err("bad time literal"))?))
            }
            "datetime" => {
                let s = self.constructor_string()?;
                Ok(Value::DateTime(
                    parse_datetime(&s).ok_or_else(|| self.err("bad datetime literal"))?,
                ))
            }
            "duration" => {
                // Parsed as an exact integer — going through f64 would lose
                // precision beyond 2^53 milliseconds.
                self.expect(b'(')?;
                self.skip_ws();
                let v = self.parse_number()?;
                let ms =
                    v.as_i64().ok_or_else(|| self.err("duration(ms) takes an integer argument"))?;
                self.expect(b')')?;
                Ok(Value::Duration(ms))
            }
            "uuid" => {
                let s = self.constructor_string()?;
                let hex: Vec<u8> = s.bytes().filter(|&b| b != b'-').collect();
                let bytes: [u8; 16] = hex_bytes(&hex)
                    .ok_or_else(|| self.err("bad uuid hex"))?
                    .try_into()
                    .map_err(|_| self.err("uuid needs 32 hex digits"))?;
                Ok(Value::Uuid(bytes))
            }
            "binary" => {
                let s = self.constructor_string()?;
                if !s.len().is_multiple_of(2) {
                    return Err(self.err("binary hex must have even length"));
                }
                Ok(Value::Binary(
                    hex_bytes(s.as_bytes()).ok_or_else(|| self.err("bad binary hex"))?,
                ))
            }
            "point" => {
                let args = self.constructor_numbers()?;
                if args.len() != 2 {
                    return Err(self.err("point(x, y) takes two arguments"));
                }
                Ok(Value::Point(args[0], args[1]))
            }
            "line" => {
                let args = self.constructor_numbers()?;
                let arr: [f64; 4] =
                    args.try_into().map_err(|_| self.err("line takes four arguments"))?;
                Ok(Value::Line(arr))
            }
            "rectangle" => {
                let args = self.constructor_numbers()?;
                let arr: [f64; 4] =
                    args.try_into().map_err(|_| self.err("rectangle takes four arguments"))?;
                Ok(Value::Rectangle(arr))
            }
            "circle" => {
                let args = self.constructor_numbers()?;
                let arr: [f64; 3] =
                    args.try_into().map_err(|_| self.err("circle takes three arguments"))?;
                Ok(Value::Circle(arr))
            }
            other => Err(self.err(format!("unknown keyword '{other}'"))),
        }
    }

    fn constructor_string(&mut self) -> Result<String, AdmError> {
        self.expect(b'(')?;
        let s = self.parse_string()?;
        self.expect(b')')?;
        Ok(s)
    }

    fn constructor_numbers(&mut self) -> Result<Vec<f64>, AdmError> {
        self.expect(b'(')?;
        let mut args = Vec::new();
        loop {
            self.skip_ws();
            let v = self.parse_number()?;
            #[expect(clippy::expect_used, reason = "`parse_number` returns only numbers")]
            let x = v.as_f64().expect("numeric literal");
            args.push(x);
            if self.eat(b',') {
                continue;
            }
            self.expect(b')')?;
            return Ok(args);
        }
    }
}

/// The bytes a run of hex digit pairs spells, read byte by byte: `None` if
/// a byte is not an ASCII hex digit or the last one has no pair.
fn hex_bytes(hex: &[u8]) -> Option<Vec<u8>> {
    let digit = |b: u8| (b as char).to_digit(16);
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    hex.chunks_exact(2).map(|pair| Some((digit(pair[0])? * 16 + digit(pair[1])?) as u8)).collect()
}

/// Days from the civil epoch for `YYYY-MM-DD` (proleptic Gregorian).
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.split('-');
    // Handle a possible leading '-' for negative years.
    let (y, m, d): (i64, u32, u32) = if let Some(stripped) = s.strip_prefix('-') {
        let mut p = stripped.split('-');
        (-(p.next()?.parse::<i64>().ok()?), p.next()?.parse().ok()?, p.next()?.parse().ok()?)
    } else {
        (parts.next()?.parse().ok()?, parts.next()?.parse().ok()?, parts.next()?.parse().ok()?)
    };
    // Beyond ten million years the day count overflows `i32` anyway; the
    // bound keeps the `i64` arithmetic from overflowing first.
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) || y.unsigned_abs() > 10_000_000 {
        return None;
    }
    i32::try_from(days_from_civil(y, m, d)).ok()
}

/// Howard Hinnant's days_from_civil.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = ((m as i64) + 9) % 12;
    let doy = (153 * mp + 2) / 5 + (d as i64) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

/// Milliseconds since midnight for `HH:MM:SS[.mmm]`.
pub fn parse_time(s: &str) -> Option<i32> {
    let mut parts = s.split(':');
    let h: i32 = parts.next()?.parse().ok()?;
    let m: i32 = parts.next()?.parse().ok()?;
    let sec_part = parts.next()?;
    let (sec, ms) = match sec_part.split_once('.') {
        Some((s, frac)) => {
            // Milliseconds are the first three fraction digits, zero-padded.
            let ms: String = frac.chars().chain(std::iter::repeat('0')).take(3).collect();
            (s.parse::<i32>().ok()?, ms.parse().ok()?)
        }
        None => (sec_part.parse().ok()?, 0),
    };
    if !(0..24).contains(&h) || !(0..60).contains(&m) || !(0..60).contains(&sec) {
        return None;
    }
    Some(((h * 60 + m) * 60 + sec) * 1000 + ms)
}

/// Milliseconds since the epoch for `YYYY-MM-DDTHH:MM:SS[.mmm]`.
pub fn parse_datetime(s: &str) -> Option<i64> {
    let (d, t) = s.split_once('T')?;
    let days = parse_date(d)? as i64;
    let ms = parse_time(t)? as i64;
    Some(days * 86_400_000 + ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn parses_plain_json() {
        let v = parse(r#"{"id": 1, "name": "Ann", "tags": ["a", "b"], "ok": true, "x": null}"#)
            .unwrap();
        assert_eq!(v.get_field("id").unwrap().as_i64(), Some(1));
        assert_eq!(v.get_field("name").unwrap().as_str(), Some("Ann"));
        assert_eq!(v.get_field("tags").unwrap().as_items().unwrap().len(), 2);
        assert_eq!(v.get_field("ok").unwrap().as_bool(), Some(true));
        assert_eq!(*v.get_field("x").unwrap(), Value::Null);
    }

    #[test]
    fn parses_paper_figure10_record() {
        let v = parse(
            r#"{
            "id": 1,
            "name": "Ann",
            "dependents": {{
                {"name": "Bob", "age": 6},
                {"name": "Carol", "age": 10} }},
            "employment_date": date("2018-09-20"),
            "branch_location": point(24.0, -56.12),
            "working_shifts": [[8, 16], [9, 17], [10, 18], "on_call"]
        }"#,
        )
        .unwrap();
        assert_eq!(v.get_field("dependents").unwrap().type_tag(), crate::TypeTag::Multiset);
        assert_eq!(*v.get_field("branch_location").unwrap(), Value::Point(24.0, -56.12));
        // 2018-09-20 is 17794 days after 1970-01-01.
        assert_eq!(*v.get_field("employment_date").unwrap(), Value::Date(17_794));
        // id, name, 4 dependent scalars, date, point, 6 shift ints + "on_call".
        assert_eq!(v.count_scalars(), 15);
    }

    #[test]
    fn parses_numbers() {
        assert_eq!(parse("42").unwrap(), Value::Int64(42));
        assert_eq!(parse("-7").unwrap(), Value::Int64(-7));
        assert_eq!(parse("1.5").unwrap(), Value::Double(1.5));
        assert_eq!(parse("-2.5e3").unwrap(), Value::Double(-2500.0));
        assert_eq!(parse("5i8").unwrap(), Value::Int8(5));
        assert_eq!(parse("5i16").unwrap(), Value::Int16(5));
        assert_eq!(parse("5i32").unwrap(), Value::Int32(5));
        assert_eq!(parse("5i64").unwrap(), Value::Int64(5));
        assert_eq!(parse("1.5f").unwrap(), Value::Float(1.5));
    }

    /// A width suffix the value does not fit is an error (`300i8` used to
    /// wrap to `Int8(44)`); both edges of each width still parse.
    #[test]
    fn width_suffixes_reject_out_of_range_values() {
        for (min, max, suffix) in [
            (i8::MIN as i64, i8::MAX as i64, "i8"),
            (i16::MIN as i64, i16::MAX as i64, "i16"),
            (i32::MIN as i64, i32::MAX as i64, "i32"),
        ] {
            for ok in [min, max, 0] {
                let v = parse(&format!("{ok}{suffix}")).unwrap();
                assert_eq!(v.as_i64(), Some(ok), "{ok}{suffix}");
                assert_eq!(v.type_tag(), parse(&format!("1{suffix}")).unwrap().type_tag());
            }
            for bad in [min - 1, max + 1] {
                let err = parse(&format!("{bad}{suffix}")).unwrap_err();
                assert!(err.to_string().contains("out of range"), "{bad}{suffix}: {err}");
            }
        }
        assert!(parse("300i8").is_err());
        assert!(parse(r#"{"a": [1, 70000i16]}"#).is_err());
        assert_eq!(parse("9223372036854775807i64").unwrap(), Value::Int64(i64::MAX));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(parse(r#""a\nb""#).unwrap(), Value::string("a\nb"));
        assert_eq!(parse(r#""A""#).unwrap(), Value::string("A"));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::string("😀"));
        assert_eq!(parse("\"héllo\"").unwrap(), Value::string("héllo"));
    }

    #[test]
    fn parses_temporal_and_spatial() {
        assert_eq!(parse(r#"date("1970-01-01")"#).unwrap(), Value::Date(0));
        assert_eq!(parse(r#"date("1970-01-02")"#).unwrap(), Value::Date(1));
        assert_eq!(parse(r#"time("00:00:01")"#).unwrap(), Value::Time(1000));
        assert_eq!(
            parse(r#"datetime("1970-01-02T00:00:00")"#).unwrap(),
            Value::DateTime(86_400_000)
        );
        assert_eq!(parse("duration(500)").unwrap(), Value::Duration(500));
        assert_eq!(parse("circle(0.0, 0.0, 2.0)").unwrap(), Value::Circle([0.0, 0.0, 2.0]));
        assert_eq!(parse("line(0.0, 0.0, 1.0, 1.0)").unwrap(), Value::Line([0.0, 0.0, 1.0, 1.0]));
        assert_eq!(
            parse(r#"binary("deadbeef")"#).unwrap(),
            Value::Binary(vec![0xde, 0xad, 0xbe, 0xef])
        );
        assert_eq!(
            parse(r#"uuid("00112233-4455-6677-8899-aabbccddeeff")"#).unwrap(),
            Value::Uuid([
                0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
                0xee, 0xff
            ])
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse(r#"{"a": 1,}"#).is_err());
        assert!(parse("1 2").is_err());
        assert!(parse(r#"{"a": 1, "a": 2}"#).is_err());
        assert!(parse("bogus").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{{}}").unwrap(), Value::Multiset(vec![]));
    }

    #[test]
    fn date_math_spot_checks() {
        assert_eq!(parse_date("2000-03-01"), Some(11017));
        assert_eq!(parse_date("1969-12-31"), Some(-1));
        assert_eq!(parse_date("2018-09-20"), Some(17794));
        assert_eq!(parse_date("2018-13-01"), None);
    }

    #[test]
    fn strings_copy_runs_between_escapes() {
        assert_eq!(parse(r#""""#).unwrap(), Value::string(""));
        assert_eq!(parse(r#""\\""#).unwrap(), Value::string("\\"));
        assert_eq!(parse(r#""ab\"cd\"""#).unwrap(), Value::string("ab\"cd\""));
        assert_eq!(parse(r#""éé\t😀😀x""#).unwrap(), Value::string("éé\t😀😀x"));
        assert_eq!(parse("\"raw\u{1}ctl\"").unwrap(), Value::string("raw\u{1}ctl"));
        for bad in [r#""abc"#, r#""ab\"#, r#""\q""#, r#""\ud83d""#, r#""\ud83dx""#, r#""\u12""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// Two names per mask bit: the generator's pool holds pairs that
    /// collide in the 64-bit name mask and names that do not.
    fn colliding_pair() -> (String, String) {
        let mut by_bit: std::collections::HashMap<u64, String> = Default::default();
        for i in 0.. {
            let name = format!("k{i}");
            if let Some(first) = by_bit.insert(name_bit(&name), name.clone()) {
                return (first, name);
            }
        }
        panic!("names past 64 always share a mask bit")
    }

    #[test]
    fn duplicate_names_are_caught_whether_or_not_their_bits_collide() {
        let (a, b) = colliding_pair();
        assert_ne!(a, b);
        assert_eq!(name_bit(&a), name_bit(&b));
        // Colliding bits, distinct names: a scan that finds nothing.
        let v = parse(&format!(r#"{{"{a}": 1, "{b}": 2}}"#)).unwrap();
        assert_eq!(v.get_field(&b).unwrap().as_i64(), Some(2));
        // A real duplicate, after a colliding name and among other fields.
        let text = format!(r#"{{"{a}": 1, "x": 0, "{b}": 2, "y": 3, "{b}": 4}}"#);
        assert!(parse(&text).unwrap_err().to_string().contains("duplicate"));
        assert!(parse(r#"{"a": {"b": 1, "b": 2}}"#).is_err());
        assert!(parse(r#"{"a": {"b": 1}, "b": {"a": 2}}"#).is_ok(), "names are per object");
    }

    /// Hex literals are read byte by byte: a multi-byte character in one is
    /// a parse error, never a panic, at the top level and inside a record.
    #[test]
    fn hex_literals_with_multibyte_characters_are_errors() {
        let uuid = format!(r#"uuid("a{}b")"#, "é".repeat(15));
        for literal in [r#"binary("aéb")"#, r#"binary("éé")"#, uuid.as_str(), r#"uuid("😀😀")"#]
        {
            for text in [literal.to_string(), format!(r#"{{"id": 1, "v": [{literal}]}}"#)] {
                assert!(matches!(parse(&text), Err(AdmError::Parse { .. })), "{text}");
            }
        }
        assert_eq!(parse(r#"binary("0aFf")"#).unwrap(), Value::Binary(vec![0x0a, 0xff]));
        assert!(parse(r#"binary("0a0")"#).is_err());
        assert!(parse(r#"uuid("00112233-4455-6677-8899-aabbccddeeff00")"#).is_err());
    }

    /// Time fractions and date years from client text are bounded, not
    /// sliced or multiplied past their range.
    #[test]
    fn temporal_literals_out_of_range_are_errors() {
        assert_eq!(parse(r#"time("00:00:01.5")"#).unwrap(), Value::Time(1500));
        assert_eq!(parse(r#"time("00:00:01.1239")"#).unwrap(), Value::Time(1123));
        for text in [
            r#"time("12:00:00.éé")"#,
            r#"time("12:00:00.1é")"#,
            r#"date("9223372036854775807-01-01")"#,
            r#"date("-99999999-01-01")"#,
            r#"datetime("99999999999-01-01T00:00:00")"#,
        ] {
            assert!(matches!(parse(text), Err(AdmError::Parse { .. })), "{text}");
        }
    }

    /// `{"a": [[…1…]]}` with `depth` containers on the way down, the root
    /// object counted; `multiset` nests `{{ }}` instead of `[ ]`.
    fn nested_text(depth: usize, multiset: bool) -> String {
        let (open, close) = if multiset { ("{{", "}}") } else { ("[", "]") };
        let inner = depth - 1;
        format!(r#"{{"a": {}1{}}}"#, open.repeat(inner), close.repeat(inner))
    }

    /// Nesting is capped at `MAX_NESTING`: a text that deep parses, one level
    /// more is a parse error, and so is one far deeper than a thread's stack
    /// could recurse through.
    #[test]
    fn nesting_past_the_cap_is_a_parse_error() {
        for multiset in [false, true] {
            let v = parse(&nested_text(crate::MAX_NESTING, multiset)).unwrap();
            assert_eq!(v.max_depth(), crate::MAX_NESTING);
            let err = parse(&nested_text(crate::MAX_NESTING + 1, multiset)).unwrap_err();
            assert!(matches!(err, AdmError::Parse { .. }), "{err:?}");
        }
        let objects = format!("{}1{}", r#"{"a": "#.repeat(100_000), "}".repeat(100_000));
        for text in [nested_text(100_000, false), objects] {
            assert!(matches!(parse(&text), Err(AdmError::Parse { .. })));
        }
    }

    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Values of every type the parser has a literal for, constructors
    /// included, within the ranges the printer round-trips.
    fn arb_any_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            arb_text().prop_map(Value::String),
            any::<i64>().prop_map(Value::Int64),
            any::<i8>().prop_map(Value::Int8),
            any::<f32>().prop_map(Value::Float),
            any::<f64>().prop_map(Value::Double),
            Just(Value::Null),
            (-3_000_000..3_000_000i32).prop_map(Value::Date),
            (0..86_400_000i32).prop_map(Value::Time),
            (-100_000_000_000_000..100_000_000_000_000i64).prop_map(Value::DateTime),
            any::<i64>().prop_map(Value::Duration),
            any::<[u8; 16]>().prop_map(Value::Uuid),
            proptest::collection::vec(any::<u8>(), 0..6).prop_map(Value::Binary),
            (any::<f64>(), any::<f64>()).prop_map(|(x, y)| Value::Point(x, y)),
            (any::<f64>(), any::<f64>(), any::<f64>())
                .prop_map(|(x, y, r)| Value::Circle([x, y, r])),
            (any::<f64>(), any::<f64>()).prop_map(|(a, b)| Value::Rectangle([a, b, b, a])),
        ];
        leaf.prop_recursive(3, 32, 5, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::Multiset),
                proptest::collection::btree_map(arb_text(), inner, 0..6)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        })
    }

    /// Indexes of the characters strictly inside string and constructor
    /// literals' quotes.
    fn quoted_chars(text: &str) -> Vec<usize> {
        let mut out = Vec::new();
        let (mut in_string, mut escaped) = (false, false);
        for (i, c) in text.chars().enumerate() {
            match c {
                _ if escaped => {
                    escaped = false;
                    out.push(i);
                }
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                _ if in_string => out.push(i),
                _ => {}
            }
        }
        out
    }

    /// Fragments random text is built from: structure, literal keywords and
    /// multi-byte characters.
    const FRAGMENTS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        "{{",
        "}}",
        "\"",
        ":",
        ",",
        " ",
        "-",
        "0",
        "7",
        ".",
        "e",
        "i8",
        "i16",
        "f",
        "true",
        "null",
        "missing",
        "date(",
        "time(",
        "datetime(",
        "uuid(",
        "binary(",
        "point(",
        "circle(",
        "duration(",
        ")",
        "\"ab\"",
        "\"é😀\"",
        "\\u00e9",
        "\\ud800",
        "\\",
        "é",
        "😀",
        "12:00:00.",
        "2020-01-01",
        "T",
    ];

    /// Printed random values, truncated, with a bit flipped, and with
    /// characters inside quotes replaced by multi-byte ones; and random
    /// text. Every input parses to a value or an error, never a panic.
    /// `TC_FAULT_SEED` reseeds the inputs so CI can loop it.
    #[test]
    fn parse_never_panics() {
        let seed =
            std::env::var("TC_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xAD3);
        eprintln!("parse_never_panics: TC_FAULT_SEED={seed}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let values = arb_any_value();
        let check = |text: &str| {
            let parsed = std::panic::catch_unwind(|| parse(text));
            assert!(parsed.is_ok(), "parse panicked on {text:?} (TC_FAULT_SEED={seed})");
        };
        for _ in 0..400 {
            let text = crate::to_string(&values.new_value(&mut rng));
            assert!(parse(&text).is_ok(), "{text}");
            for _ in 0..3 {
                let mut cut = rng.gen_range(0..=text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                check(&text[..cut]);
            }
            for _ in 0..3 {
                let mut bytes = text.clone().into_bytes();
                let bit = rng.gen_range(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                check(&String::from_utf8_lossy(&bytes));
            }
            let quoted = quoted_chars(&text);
            for _ in 0..if quoted.is_empty() { 0 } else { 3 } {
                let mut chars: Vec<char> = text.chars().collect();
                for _ in 0..rng.gen_range(1..4) {
                    let at = quoted[rng.gen_range(0..quoted.len())];
                    chars[at] = ['é', 'Σ', '€', '😀', '\u{a0}'][rng.gen_range(0..5usize)];
                }
                check(&chars.into_iter().collect::<String>());
            }
            let noise: String = (0..rng.gen_range(0..24))
                .map(|_| FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())])
                .collect();
            check(&noise);
        }
        // Deep texts, closed or cut anywhere: the cap answers them before
        // the parser's recursion can overflow the test thread's stack.
        for _ in 0..20 {
            let text = nested_text(rng.gen_range(100..20_000), rng.gen());
            check(&text);
            check(&text[..rng.gen_range(0..=text.len())]);
            check(&"[{\"a\": {{".repeat(rng.gen_range(1..10_000)));
        }
    }

    fn arb_text() -> impl Strategy<Value = String> {
        // Quotes, backslashes, control characters, BMP and astral chars.
        "[a-z\"\\\\/\u{1}\u{8}\u{c}\n\r\t\u{1f}é€😀𝄞 ]{0,12}"
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            arb_text().prop_map(Value::String),
            any::<i64>().prop_map(Value::Int64),
            any::<i8>().prop_map(Value::Int8),
            any::<i16>().prop_map(Value::Int16),
            any::<i32>().prop_map(Value::Int32),
            any::<f64>().prop_map(Value::Double),
            any::<bool>().prop_map(Value::Boolean),
            Just(Value::Null),
        ];
        leaf.prop_recursive(3, 32, 5, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::Multiset),
                proptest::collection::btree_map(arb_text(), inner, 0..6)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        })
    }

    /// `text` with every string literal's characters escaped as `\uXXXX`
    /// (surrogate pairs above the BMP) wherever `pick` says so.
    fn escape_more(text: &str, mut pick: impl FnMut() -> bool) -> String {
        let mut out = String::new();
        let mut in_string = false;
        let mut chars = text.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    in_string = !in_string;
                    out.push(c);
                }
                // The printer's own escapes pass through whole.
                '\\' if in_string => {
                    let e = chars.next().expect("printed escapes are complete");
                    out.extend([c, e]);
                    if e == 'u' {
                        out.extend(chars.by_ref().take(4));
                    }
                }
                c if in_string && pick() => {
                    for unit in c.encode_utf16(&mut [0u16; 2]) {
                        out.push_str(&format!("\\u{unit:04x}"));
                    }
                }
                c => out.push(c),
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Printing then parsing is the identity, with the printer's own
        /// escapes and with any character of any string (field names
        /// included) spelled as a `\u` escape or surrogate pair.
        #[test]
        fn parse_inverts_print_through_any_escapes(v in arb_value(), seed in any::<u64>()) {
            let text = crate::to_string(&v);
            prop_assert_eq!(parse(&text).unwrap(), v.clone());
            let mut state = seed | 1;
            let escaped = escape_more(&text, || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 3 == 0
            });
            prop_assert_eq!(parse(&escaped).unwrap(), v);
        }

        /// An object parses iff its names are distinct, for names drawn from
        /// a pool of mask-colliding pairs and non-colliding names.
        #[test]
        fn duplicates_fail_exactly_when_present(picks in proptest::collection::vec(0usize..6, 0..8)) {
            let (a, b) = colliding_pair();
            let pool = [a, b, "p".to_string(), "q".to_string(), "é".to_string(), "r".to_string()];
            let names: Vec<&str> = picks.iter().map(|&i| pool[i].as_str()).collect();
            let body: Vec<String> =
                names.iter().enumerate().map(|(i, n)| format!("\"{n}\": {i}")).collect();
            let parsed = parse(&format!("{{{}}}", body.join(", ")));
            let distinct = names.iter().collect::<std::collections::BTreeSet<_>>().len();
            prop_assert_eq!(parsed.is_ok(), distinct == names.len());
            if let Ok(Value::Object(fields)) = parsed {
                let got: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
                prop_assert_eq!(got, names);
            }
        }
    }
}
