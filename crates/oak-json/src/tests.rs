//! Unit tests for the JSON substrate.

use std::borrow::Cow;

use crate::lex::{scan_number, scan_string};
use crate::{parse, Cursor, ParseError, Value};

#[test]
fn parses_literals() {
    assert_eq!(parse("null").unwrap(), Value::Null);
    assert_eq!(parse("true").unwrap(), Value::Bool(true));
    assert_eq!(parse("false").unwrap(), Value::Bool(false));
}

#[test]
fn parses_numbers() {
    assert_eq!(parse("0").unwrap(), Value::Number(0.0));
    assert_eq!(parse("-0").unwrap(), Value::Number(-0.0));
    assert_eq!(parse("42").unwrap(), Value::Number(42.0));
    assert_eq!(parse("-17.5").unwrap(), Value::Number(-17.5));
    assert_eq!(parse("1e3").unwrap(), Value::Number(1000.0));
    assert_eq!(parse("2.5E-2").unwrap(), Value::Number(0.025));
}

#[test]
fn rejects_malformed_numbers() {
    for bad in ["01", "1.", ".5", "+1", "1e", "1e+", "--2", "1f3"] {
        assert!(parse(bad).is_err(), "{bad:?} should not parse");
    }
}

#[test]
fn rejects_nonfinite_numbers() {
    assert!(parse("1e999").is_err());
    assert!(parse("NaN").is_err());
    assert!(parse("Infinity").is_err());
}

#[test]
fn parses_strings_with_escapes() {
    let v = parse(r#""a\"b\\c\/d\n\t\r\b\f""#).unwrap();
    assert_eq!(v.as_str(), Some("a\"b\\c/d\n\t\r\u{8}\u{c}"));
}

#[test]
fn parses_unicode_escapes() {
    assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    assert_eq!(parse("\"\\u00e9\"").unwrap().as_str(), Some("é"));
    assert_eq!(parse("\"\\uD83D\\uDE00\"").unwrap().as_str(), Some("😀"));
    assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
    assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
    // Surrogate pair → U+1F600.
    assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    // Raw UTF-8 passes through untouched.
    assert_eq!(parse(r#""héllo 😀""#).unwrap().as_str(), Some("héllo 😀"));
}

#[test]
fn rejects_bad_surrogates() {
    assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
    assert!(parse(r#""\ude00""#).is_err(), "unpaired low surrogate");
    assert!(
        parse(r#""\ud83dx""#).is_err(),
        "high surrogate then raw char"
    );
    assert!(parse(r#""\ud83dA""#).is_err(), "high then non-surrogate");
}

#[test]
fn rejects_control_chars_in_strings() {
    assert!(parse("\"a\u{1}b\"").is_err());
    assert!(parse("\"a\nb\"").is_err(), "raw newline must be escaped");
}

#[test]
fn parses_nested_structures() {
    let doc =
        parse(r#"{"objects": [{"url": "http://a.com/x", "bytes": 512, "ms": 12.5}], "ok": true}"#)
            .unwrap();
    let objects = doc.get("objects").and_then(Value::as_array).unwrap();
    assert_eq!(objects.len(), 1);
    assert_eq!(objects[0].get("bytes").and_then(Value::as_u64), Some(512));
    assert_eq!(objects[0].get("ms").and_then(Value::as_f64), Some(12.5));
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
}

#[test]
fn rejects_trailing_garbage() {
    assert!(parse("{} x").is_err());
    assert!(parse("1 2").is_err());
}

#[test]
fn allows_surrounding_whitespace() {
    assert_eq!(parse(" \t\n {} \r\n ").unwrap(), Value::object());
}

#[test]
fn rejects_trailing_commas_and_unclosed() {
    assert!(parse("[1,2,]").is_err());
    assert!(parse(r#"{"a":1,}"#).is_err());
    assert!(parse("[1,2").is_err());
    assert!(parse(r#"{"a":1"#).is_err());
    assert!(parse(r#""abc"#).is_err());
}

#[test]
fn rejects_overly_deep_nesting() {
    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(parse(&deep).is_err());
    let ok = "[".repeat(100) + &"]".repeat(100);
    assert!(parse(&ok).is_ok());
}

#[test]
fn error_reports_offset() {
    let err = parse(r#"{"a": @}"#).unwrap_err();
    assert_eq!(err.offset, 6);
    assert!(err.to_string().contains("byte 6"));
}

/// A document cut short fails where the input ends, not one byte before.
#[test]
fn truncated_documents_fail_at_their_end() {
    for (doc, message) in [
        (r#"{"a":1"#, "expected ',' or '}' in object"),
        ("[1", "expected ',' or ']' in array"),
        ("[1, 2 ", "expected ',' or ']' in array"),
        (r#"{"a"#, "unterminated string"),
        (r#"{"a""#, "expected ':'"),
        (r#"{"a":"#, "unexpected end of input"),
        (r#""abc"#, "unterminated string"),
    ] {
        let err = parse(doc).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (doc.len(), message),
            "{doc:?}"
        );
    }
}

#[test]
fn cursor_borrows_escape_free_strings() {
    let mut cur = Cursor::new(r#" {"plain": "x", "esc\/aped": "a\nb"} "#);
    let mut seen = Vec::new();
    cur.object(|cur, key| {
        seen.push((key, cur.str()?));
        Ok::<_, ParseError>(())
    })
    .unwrap();
    cur.finish().unwrap();
    assert!(matches!(
        seen[0],
        (Cow::Borrowed("plain"), Cow::Borrowed("x"))
    ));
    assert!(matches!(&seen[1], (Cow::Owned(k), Cow::Owned(v)) if k == "esc/aped" && v == "a\nb"));
}

/// Nesting is refused at the first container past [`crate::MAX_DEPTH`],
/// however deep the input goes, before the recursion could exhaust the
/// stack.
#[test]
fn skipping_refuses_runaway_nesting() {
    let text = "[".repeat(100_000);
    let err = Cursor::new(&text).skip_value().unwrap_err();
    assert_eq!(err.message, "document nested too deeply");
    assert_eq!(err.offset, crate::MAX_DEPTH);
    let nested = "[".repeat(crate::MAX_DEPTH) + &"]".repeat(crate::MAX_DEPTH);
    assert!(parse(&nested).is_ok());
}

/// The bytewise lexers the eight-byte and fast-path ones replaced, kept
/// as the reference they must agree with.
mod reference {
    use std::borrow::Cow;

    use crate::lex::{err_at, unescape};
    use crate::ParseError;

    /// Escape decoding is shared: the eight-byte scan changed how plain
    /// runs are found, not what an escape means.
    pub(super) fn scan_string<'a>(
        text: &'a str,
        pos: &mut usize,
    ) -> Result<Cow<'a, str>, ParseError> {
        let bytes = text.as_bytes();
        *pos += 1;
        let start = *pos;
        while let Some(&b) = bytes.get(*pos) {
            match b {
                b'"' => {
                    let slice = &text[start..*pos];
                    *pos += 1;
                    return Ok(Cow::Borrowed(slice));
                }
                b'\\' => break,
                _ if b < 0x20 => return Err(err_at(*pos, "raw control character in string")),
                _ => *pos += 1,
            }
        }
        let mut out = text[start..*pos].to_owned();
        loop {
            match bytes.get(*pos).copied() {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    *pos += 1;
                    unescape(bytes, pos, &mut out)?;
                }
                Some(b) if b < 0x20 => return Err(err_at(*pos, "raw control character in string")),
                Some(_) => {
                    let c = text[*pos..].chars().next().expect("a char boundary");
                    out.push(c);
                    *pos += c.len_utf8();
                }
                None => return Err(err_at(*pos, "unterminated string")),
            }
        }
    }

    pub(super) fn scan_number(bytes: &[u8], pos: &mut usize) -> Result<f64, ParseError> {
        let start = *pos;
        let digits = |pos: &mut usize| {
            let from = *pos;
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            *pos - from
        };
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        match bytes.get(*pos) {
            Some(b'0') => *pos += 1,
            Some(b'1'..=b'9') => {
                digits(pos);
            }
            _ => return Err(err_at(*pos, "expected digit")),
        }
        if bytes.get(*pos) == Some(&b'.') {
            *pos += 1;
            if digits(pos) == 0 {
                return Err(err_at(*pos, "expected digit after decimal point"));
            }
        }
        if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if digits(pos) == 0 {
                return Err(err_at(*pos, "expected digit in exponent"));
            }
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(err_at(*pos, "number out of range")),
        }
    }
}

/// Runs both string lexers from `start`; they must agree on the result,
/// on borrowing, and on where they stopped.
fn strings_agree(text: &str, start: usize) {
    let (mut fast_end, mut slow_end) = (start, start);
    let fast = scan_string(text, &mut fast_end);
    let slow = reference::scan_string(text, &mut slow_end);
    match (&fast, &slow) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "{text:?}");
            assert_eq!(
                matches!(a, Cow::Borrowed(_)),
                matches!(b, Cow::Borrowed(_)),
                "{text:?}"
            );
            assert_eq!(fast_end, slow_end, "{text:?}");
        }
        _ => assert_eq!(fast, slow, "{text:?}"),
    }
}

/// Pieces a string body is built from: each byte the eight-byte scan
/// must stop on, multibyte characters it must step over, and escapes.
const PIECES: [&str; 12] = [
    "a",
    "é",
    "中",
    "🦀",
    "\"",
    "\\",
    "\\n",
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\x",
    "\u{1}",
    "\u{1f}",
];

/// Every piece at every offset mod 8 from the opening quote (and from
/// the start of the input), in bodies of 0–40 bytes.
#[test]
fn string_lexer_agrees_with_the_bytewise_reference_at_every_offset() {
    for lead in 0..8 {
        for before in 0..=32 {
            for piece in PIECES {
                for after in [0, 1, 7, 8] {
                    let text = format!(
                        "{}\"{}{piece}{}\"",
                        " ".repeat(lead),
                        "a".repeat(before),
                        "b".repeat(after)
                    );
                    strings_agree(&text, lead);
                    // Unterminated: the input ends inside the string.
                    strings_agree(&text[..text.len() - 1], lead);
                }
            }
        }
    }
}

#[test]
fn number_lexer_matches_str_parse() {
    for text in [
        "0",
        "-0",
        "-0.0",
        "7",
        "-7",
        "0.1",
        "0.000000000000001",
        "0.0000000000000001",
        "123456789012345",
        "1234567890123456",
        "12345678901234567890",
        "99999999999999.9",
        "999999999999999.9",
        "9007199254740993",
        "1.7976931348623157",
        "3.141592653589793",
        "-140.25",
        "4.35",
        "1e3",
        "1E-3",
        "2.5e+2",
        "-0e0",
        "1e308",
        "1e-400",
    ] {
        let mut end = 0;
        let n = scan_number(text.as_bytes(), &mut end).expect(text);
        let want: f64 = text.parse().expect(text);
        assert_eq!(n.to_bits(), want.to_bits(), "{text}");
        assert_eq!(end, text.len(), "{text}");
    }
    for (text, stop) in [("01", 1), ("-01", 2), ("00.5", 1), ("1.5.2", 3)] {
        let mut end = 0;
        scan_number(text.as_bytes(), &mut end).expect(text);
        assert_eq!(end, stop, "{text}");
        assert!(parse(text).is_err(), "{text}");
    }
}

mod lexer_properties {
    use super::*;
    use proptest::prelude::*;

    fn piece() -> impl Strategy<Value = &'static str> {
        (0..PIECES.len()).prop_map(|i| PIECES[i])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Mixed bodies: the string lexer agrees with the reference.
        #[test]
        fn string_lexer_agrees_with_the_reference(
            lead in 0usize..8,
            pieces in prop::collection::vec(piece(), 0..16),
            terminated in any::<bool>(),
        ) {
            let mut text = " ".repeat(lead) + "\"" + &pieces.concat();
            if terminated {
                text.push('"');
            }
            strings_agree(&text, lead);
        }

        /// Number-shaped text, valid or not: the same value to the bit,
        /// the same end, or the same error.
        #[test]
        fn number_lexer_agrees_with_the_reference(
            text in "-?[0-9]{0,20}(\\.[0-9]{0,20})?([eE][-+]?[0-9]{0,3})?[x,]?",
        ) {
            let (mut fast_end, mut slow_end) = (0, 0);
            let fast = scan_number(text.as_bytes(), &mut fast_end);
            let slow = reference::scan_number(text.as_bytes(), &mut slow_end);
            match (fast, slow) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{}", text);
                    prop_assert_eq!(fast_end, slow_end, "{}", text);
                }
                (a, b) => prop_assert_eq!(a, b, "{}", text),
            }
        }
    }
}

#[test]
fn compact_roundtrip() {
    let mut report = Value::object();
    report.set("page", "http://origin.example/index.html");
    report.set("user", "u-123");
    let mut obj = Value::object();
    obj.set("url", "http://cdn.example/app.js");
    obj.set("bytes", 90_112u64);
    obj.set("time_ms", 140.25);
    report.set("objects", Value::Array(vec![obj]));

    let text = report.to_string();
    assert_eq!(parse(&text).unwrap(), report);
    assert!(!text.contains('\n'));
}

#[test]
fn pretty_roundtrip() {
    let doc = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
    let pretty = doc.to_pretty_string();
    assert!(pretty.contains('\n'));
    assert_eq!(parse(&pretty).unwrap(), doc);
}

#[test]
fn integers_serialize_without_fraction() {
    assert_eq!(Value::Number(3.0).to_string(), "3");
    assert_eq!(Value::Number(3.5).to_string(), "3.5");
    assert_eq!(Value::Number(-2.0).to_string(), "-2");
}

#[test]
fn string_escaping_roundtrip() {
    let v = Value::String("quote \" slash \\ newline \n ctl \u{1} tab \t".into());
    assert_eq!(parse(&v.to_string()).unwrap(), v);
}

#[test]
fn accessors_are_total() {
    let v = parse(r#"{"a": [10, "s"]}"#).unwrap();
    assert!(v.get("missing").is_none());
    assert!(v.at(0).is_none(), "object is not an array");
    let arr = v.get("a").unwrap();
    assert_eq!(arr.at(0).and_then(Value::as_u64), Some(10));
    assert_eq!(arr.at(1).and_then(Value::as_str), Some("s"));
    assert!(arr.at(2).is_none());
    assert!(Value::Null.is_null());
    assert_eq!(Value::default(), Value::Null);
}

#[test]
fn as_u64_rejects_fractions_and_negatives() {
    assert_eq!(Value::Number(1.5).as_u64(), None);
    assert_eq!(Value::Number(-1.0).as_u64(), None);
    assert_eq!(Value::Number(1.0).as_u64(), Some(1));
}

#[test]
fn from_impls() {
    assert_eq!(Value::from(true), Value::Bool(true));
    assert_eq!(Value::from(1u32), Value::Number(1.0));
    assert_eq!(Value::from(-1i64), Value::Number(-1.0));
    assert_eq!(Value::from("x"), Value::String("x".into()));
    assert_eq!(
        Value::from(vec![1u64, 2]),
        Value::Array(vec![Value::Number(1.0), Value::Number(2.0)])
    );
    assert_eq!(Value::from(None::<u64>), Value::Null);
    assert_eq!(Value::from(Some(2u64)), Value::Number(2.0));
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Strategy producing arbitrary JSON trees of bounded depth.
    fn value_strategy() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            // Finite doubles that survive text round-trip exactly.
            (-1e12f64..1e12).prop_map(Value::Number),
            "[a-zA-Z0-9 _/:.\\\\\"\n\t\u{e9}]{0,20}".prop_map(Value::String),
        ];
        leaf.prop_recursive(4, 64, 8, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
                prop::collection::btree_map("[a-z]{1,8}", inner, 0..6).prop_map(Value::Object),
            ]
        })
    }

    proptest! {
        /// Serialize → parse is the identity for all generated documents.
        #[test]
        fn roundtrip_compact(v in value_strategy()) {
            prop_assert_eq!(parse(&v.to_string()).unwrap(), v);
        }

        /// Pretty output parses back to the same document.
        #[test]
        fn roundtrip_pretty(v in value_strategy()) {
            prop_assert_eq!(parse(&v.to_pretty_string()).unwrap(), v);
        }

        /// The parser never panics on arbitrary input.
        #[test]
        fn parser_is_total(s in "\\PC{0,64}") {
            let _ = parse(&s);
        }
    }
}
