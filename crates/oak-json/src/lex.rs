//! String and number lexing for the [`crate::Cursor`].
//!
//! Both lexers stop only on ASCII bytes, so every slice they take of the
//! input starts and ends on a char boundary, and escape-free strings come
//! back borrowed from it.

use std::borrow::Cow;

use crate::ParseError;

pub(crate) fn err_at(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        offset,
        message: message.into(),
    }
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// High bit set in each byte of `word` that is `"`, `\` or below 0x20.
///
/// Each of the three tests may also flag bytes *above* (later than) a
/// true hit, where a borrow ran on, but never one below it, so the lowest
/// set bit always marks the first true hit.
fn special_bytes(word: u64) -> u64 {
    let zero_byte = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS;
    let control = word.wrapping_sub(0x20 * ONES) & !word & HIGHS;
    zero_byte(word ^ (b'"' as u64 * ONES)) | zero_byte(word ^ (b'\\' as u64 * ONES)) | control
}

/// The offset of the first `"`, `\` or control byte at or after `pos`, or
/// the input's length: eight bytes per step, then bytewise for the tail.
fn skip_plain(bytes: &[u8], mut pos: usize) -> usize {
    while let Some(chunk) = bytes.get(pos..pos + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("an eight-byte slice"));
        let hits = special_bytes(word);
        if hits != 0 {
            return pos + (hits.trailing_zeros() / 8) as usize;
        }
        pos += 8;
    }
    while let Some(&b) = bytes.get(pos) {
        if b == b'"' || b == b'\\' || b < 0x20 {
            break;
        }
        pos += 1;
    }
    pos
}

/// Lexes one JSON string starting at `pos` (which must point at the
/// opening quote), advancing `pos` past the closing quote.
///
/// Escape-free strings are returned as a borrowed slice of the input —
/// no allocation, no copy, no second UTF-8 validation. Strings with
/// escapes are decoded into an owned buffer.
///
/// # Errors
///
/// Returns a [`ParseError`] on raw control characters, bad escapes,
/// broken surrogate pairs, or an unterminated string.
pub(crate) fn scan_string<'a>(text: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, ParseError> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let start = *pos;
    *pos = skip_plain(bytes, *pos);
    match bytes.get(*pos) {
        Some(b'"') => {
            let slice = &text[start..*pos];
            *pos += 1;
            return Ok(Cow::Borrowed(slice));
        }
        Some(b'\\') => {}
        Some(_) => return Err(err_at(*pos, "raw control character in string")),
        None => return Err(err_at(*pos, "unterminated string")),
    }
    // Slow path: an escape appeared; decode into an owned buffer,
    // seeding it with the escape-free prefix.
    let mut out = String::with_capacity(*pos - start + 16);
    out.push_str(&text[start..*pos]);
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
                let run = *pos;
                *pos = skip_plain(bytes, *pos);
                out.push_str(&text[run..*pos]);
            }
            None => return Err(err_at(*pos, "unterminated string")),
        }
    }
}

/// Decodes one escape sequence (the backslash is already consumed).
pub(crate) fn unescape(bytes: &[u8], pos: &mut usize, out: &mut String) -> Result<(), ParseError> {
    let b = bytes.get(*pos).copied();
    *pos += 1;
    match b {
        Some(b'"') => out.push('"'),
        Some(b'\\') => out.push('\\'),
        Some(b'/') => out.push('/'),
        Some(b'b') => out.push('\u{0008}'),
        Some(b'f') => out.push('\u{000C}'),
        Some(b'n') => out.push('\n'),
        Some(b'r') => out.push('\r'),
        Some(b't') => out.push('\t'),
        Some(b'u') => {
            let first = hex4(bytes, pos)?;
            let scalar = if (0xD800..0xDC00).contains(&first) {
                // High surrogate: a low surrogate escape must follow.
                if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u') {
                    return Err(err_at(*pos, "high surrogate not followed by \\u escape"));
                }
                *pos += 2;
                let second = hex4(bytes, pos)?;
                if !(0xDC00..0xE000).contains(&second) {
                    return Err(err_at(*pos, "invalid low surrogate"));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            } else if (0xDC00..0xE000).contains(&first) {
                return Err(err_at(*pos, "unpaired low surrogate"));
            } else {
                first
            };
            match char::from_u32(scalar) {
                Some(c) => out.push(c),
                None => return Err(err_at(*pos, "escape is not a Unicode scalar")),
            }
        }
        _ => return Err(err_at(*pos, "invalid escape sequence")),
    }
    Ok(())
}

fn hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, ParseError> {
    let mut v = 0u32;
    for _ in 0..4 {
        let d = match bytes.get(*pos).copied() {
            Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
            Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
            Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
            _ => return Err(err_at(*pos, "expected four hex digits")),
        };
        *pos += 1;
        v = v * 16 + d;
    }
    Ok(v)
}

/// Most significant digits (and most fraction digits) the exact fast
/// path takes: below 10^15 < 2^53 every mantissa is an exact `f64`, and
/// so is every power of ten it is divided by.
const FAST_DIGITS: usize = 15;

const POWERS_OF_TEN: [f64; FAST_DIGITS + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// Lexes one JSON number starting at `pos`, advancing past it.
///
/// A number with at most [`FAST_DIGITS`] significant digits, at most as
/// many fraction digits and no exponent is `m / 10^k` with both operands
/// exact, so the one correctly rounded division gives the bits
/// `str::parse` gives (Clinger's fast path). Every other number goes to
/// `str::parse`.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed digits or a value that does not
/// fit a finite `f64`.
pub(crate) fn scan_number(bytes: &[u8], pos: &mut usize) -> Result<f64, ParseError> {
    let start = *pos;
    let negative = bytes.get(*pos) == Some(&b'-');
    if negative {
        *pos += 1;
    }
    // Digits accumulate into `mantissa` while they fit; it is only read
    // when `significant` stayed within FAST_DIGITS.
    let mut mantissa = 0u64;
    let mut significant = 0usize;
    let mut digits = |pos: &mut usize| {
        let first = *pos;
        while let Some(&b @ b'0'..=b'9') = bytes.get(*pos) {
            let d = u64::from(b - b'0');
            if mantissa != 0 || d != 0 {
                significant += 1;
            }
            mantissa = mantissa.wrapping_mul(10).wrapping_add(d);
            *pos += 1;
        }
        *pos - first
    };
    // Integer part: a lone zero or a nonzero digit followed by digits.
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(err_at(*pos, "expected digit")),
    }
    let mut fraction = 0;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        fraction = digits(pos);
        if fraction == 0 {
            return Err(err_at(*pos, "expected digit after decimal point"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            return Err(err_at(*pos, "expected digit in exponent"));
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    } else if significant <= FAST_DIGITS && fraction <= FAST_DIGITS {
        let magnitude = mantissa as f64 / POWERS_OF_TEN[fraction];
        return Ok(if negative { -magnitude } else { magnitude });
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(n),
        _ => Err(err_at(*pos, "number out of range")),
    }
}
