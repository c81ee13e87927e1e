//! Render a [`Value`] back to ADM text (the inverse of [`crate::parser`]).

use crate::value::Value;
use std::fmt::Write as _;

/// Render `value` as ADM text. `parse(print(v)) == v` for all values this
/// model can represent (verified by property test), with one bound:
/// datetimes must stay within ±~10^15 ms of the epoch (±~100k years) so the
/// civil-date conversion does not overflow. Binary formats have no such
/// bound.
pub fn print(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Missing => out.push_str("missing"),
        Value::Null => out.push_str("null"),
        Value::Boolean(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int8(v) => {
            let _ = write!(out, "{v}i8");
        }
        Value::Int16(v) => {
            let _ = write!(out, "{v}i16");
        }
        Value::Int32(v) => {
            let _ = write!(out, "{v}i32");
        }
        Value::Int64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Float(v) => write_float(out, *v as f64, true),
        Value::Double(v) => write_float(out, *v, false),
        Value::String(s) => write_string(out, s),
        Value::Binary(b) => {
            out.push_str("binary(\"");
            for byte in b {
                let _ = write!(out, "{byte:02x}");
            }
            out.push_str("\")");
        }
        Value::Date(days) => {
            let (y, m, d) = civil_from_days(*days as i64);
            let _ = write!(out, "date(\"{y:04}-{m:02}-{d:02}\")");
        }
        Value::Time(ms) => {
            let total = *ms;
            let h = total / 3_600_000;
            let m = (total / 60_000) % 60;
            let s = (total / 1000) % 60;
            let frac = total % 1000;
            if frac == 0 {
                let _ = write!(out, "time(\"{h:02}:{m:02}:{s:02}\")");
            } else {
                let _ = write!(out, "time(\"{h:02}:{m:02}:{s:02}.{frac:03}\")");
            }
        }
        Value::DateTime(ms) => {
            let days = ms.div_euclid(86_400_000);
            let rem = ms.rem_euclid(86_400_000);
            let (y, mo, d) = civil_from_days(days);
            let h = rem / 3_600_000;
            let mi = (rem / 60_000) % 60;
            let s = (rem / 1000) % 60;
            let frac = rem % 1000;
            if frac == 0 {
                let _ = write!(out, "datetime(\"{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}\")");
            } else {
                let _ = write!(
                    out,
                    "datetime(\"{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}.{frac:03}\")"
                );
            }
        }
        Value::Duration(ms) => {
            let _ = write!(out, "duration({ms})");
        }
        Value::Uuid(bytes) => {
            out.push_str("uuid(\"");
            for (i, byte) in bytes.iter().enumerate() {
                if matches!(i, 4 | 6 | 8 | 10) {
                    out.push('-');
                }
                let _ = write!(out, "{byte:02x}");
            }
            out.push_str("\")");
        }
        Value::Point(x, y) => {
            out.push_str("point(");
            write_float(out, *x, false);
            out.push_str(", ");
            write_float(out, *y, false);
            out.push(')');
        }
        Value::Line(a) => write_float_ctor(out, "line", &a[..]),
        Value::Rectangle(a) => write_float_ctor(out, "rectangle", &a[..]),
        Value::Circle(a) => write_float_ctor(out, "circle", &a[..]),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Multiset(items) => {
            out.push_str("{{");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push_str("}}");
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (name, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_string(out, name);
                out.push_str(": ");
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

fn write_float_ctor(out: &mut String, name: &str, vals: &[f64]) {
    out.push_str(name);
    out.push('(');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_float(out, *v, false);
    }
    out.push(')');
}

fn write_float(out: &mut String, v: f64, is_f32: bool) {
    // Always include a decimal point or exponent so the parser sees a float.
    let mut s = format!("{v}");
    if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
        s.push_str(".0");
    }
    out.push_str(&s);
    if is_f32 {
        out.push('f');
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Inverse of `days_from_civil`: (year, month, day) from days since epoch.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn prints_scalars() {
        assert_eq!(print(&Value::Int64(42)), "42");
        assert_eq!(print(&Value::Double(1.5)), "1.5");
        assert_eq!(print(&Value::Double(2.0)), "2.0");
        assert_eq!(print(&Value::Boolean(true)), "true");
        assert_eq!(print(&Value::Null), "null");
        assert_eq!(print(&Value::string("hi")), "\"hi\"");
        assert_eq!(print(&Value::Date(0)), "date(\"1970-01-01\")");
        assert_eq!(print(&Value::Date(17794)), "date(\"2018-09-20\")");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(print(&Value::string("a\"b\\c\nd")), r#""a\"b\\c\nd""#);
        assert_eq!(print(&Value::string("\u{1}")), "\"\\u0001\"");
    }

    #[test]
    fn roundtrips_nested() {
        let src = r#"{"id": 1, "xs": [1, 2.5, {"y": {{true, null}}}], "p": point(1.0, -2.0)}"#;
        let v = parse(src).unwrap();
        let printed = print(&v);
        let v2 = parse(&printed).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn roundtrips_temporal() {
        for src in [
            r#"date("2020-02-29")"#,
            r#"time("23:59:59.123")"#,
            r#"datetime("1999-12-31T23:59:59")"#,
            "duration(123456)",
        ] {
            let v = parse(src).unwrap();
            assert_eq!(parse(&print(&v)).unwrap(), v, "src={src}");
        }
    }

    #[test]
    fn civil_roundtrip_sweep() {
        // Every 97th day over ±60 years round-trips through the printer.
        for days in (-22_000..22_000).step_by(97) {
            let v = Value::Date(days);
            let printed = print(&v);
            assert_eq!(parse(&printed).unwrap(), v, "days={days} printed={printed}");
        }
    }
}
