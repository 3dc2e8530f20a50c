//! Streaming (pull) JSON scanner with zero-copy strings.
//!
//! [`crate::parse`] builds an owned [`crate::Value`] tree — convenient,
//! but every string in the document costs an allocation even when the
//! caller immediately copies the few fields it wants. The report-ingest
//! hot path in `oak-core` instead pulls [`Event`]s from a [`Scanner`]:
//! escape-free strings are borrowed straight from the input slice
//! ([`std::borrow::Cow::Borrowed`]), and only the fields the caller keeps
//! are ever materialized.
//!
//! The scanner accepts exactly the same grammar as [`crate::parse`]
//! (RFC 8259, [`MAX_DEPTH`] nesting, trailing garbage rejected) and the
//! tree parser's string/number lexing is implemented on top of the same
//! [`scan_string`]/[`scan_number`] routines, so the two front ends cannot
//! drift apart.

use std::borrow::Cow;

use crate::ParseError;

/// Nesting deeper than this is rejected to keep state bounded; real
/// performance reports nest exactly three levels.
pub const MAX_DEPTH: usize = 128;

/// One grammar event pulled from a [`Scanner`].
#[derive(Clone, Debug, PartialEq)]
pub enum Event<'a> {
    /// `{` — an object opened.
    ObjectStart,
    /// `}` — the innermost object closed.
    ObjectEnd,
    /// `[` — an array opened.
    ArrayStart,
    /// `]` — the innermost array closed.
    ArrayEnd,
    /// An object key. Borrowed from the input when escape-free.
    Key(Cow<'a, str>),
    /// A string value. Borrowed from the input when escape-free.
    Str(Cow<'a, str>),
    /// A number value (finite; the grammar has no NaN/Infinity).
    Number(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// What the grammar allows at the scanner's cursor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// A value must follow (document root, after `:`, after `,` in an array).
    Value,
    /// A value or `]` (immediately after `[`).
    ValueOrEnd,
    /// A key or `}` (immediately after `{`).
    KeyOrEnd,
    /// A key must follow (after `,` in an object).
    Key,
    /// `,` or the closing bracket of the innermost container.
    CommaOrEnd,
    /// The root value is complete; only trailing whitespace may remain.
    Done,
}

/// A pull parser over one JSON document.
pub struct Scanner<'a> {
    /// The document, kept as the `str` it arrived as: borrowed strings
    /// are slices of it, never bytes validated a second time.
    text: &'a str,
    pos: usize,
    /// One byte per open container: `b'{'` or `b'['`.
    stack: Vec<u8>,
    state: State,
}

impl<'a> Scanner<'a> {
    /// Starts scanning `input` from the first byte.
    pub fn new(input: &'a str) -> Scanner<'a> {
        Scanner {
            text: input,
            pos: 0,
            stack: Vec::new(),
            state: State::Value,
        }
    }

    /// Byte offset of the cursor (for error reporting by callers).
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        err_at(self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(format!("expected '{kw}'")))
        }
    }

    /// The state after a complete value at the current nesting.
    fn after_value(&self) -> State {
        if self.stack.is_empty() {
            State::Done
        } else {
            State::CommaOrEnd
        }
    }

    /// Pulls the next event, or `None` once the document (plus trailing
    /// whitespace) is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] at the first byte that violates the
    /// grammar; the scanner must not be used after an error.
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>, ParseError> {
        loop {
            self.skip_ws();
            match self.state {
                State::Done => {
                    if self.pos != self.text.len() {
                        return Err(self.err("trailing characters after document"));
                    }
                    return Ok(None);
                }
                State::Value | State::ValueOrEnd => {
                    if self.state == State::ValueOrEnd && self.peek() == Some(b']') {
                        self.pos += 1;
                        self.stack.pop();
                        self.state = self.after_value();
                        return Ok(Some(Event::ArrayEnd));
                    }
                    return self.value_event().map(Some);
                }
                State::KeyOrEnd | State::Key => {
                    if self.state == State::KeyOrEnd && self.peek() == Some(b'}') {
                        self.pos += 1;
                        self.stack.pop();
                        self.state = self.after_value();
                        return Ok(Some(Event::ObjectEnd));
                    }
                    if self.peek() != Some(b'"') {
                        return Err(self.err("expected object key"));
                    }
                    let key = scan_string(self.text, &mut self.pos)?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(self.err("expected ':'"));
                    }
                    self.pos += 1;
                    self.state = State::Value;
                    return Ok(Some(Event::Key(key)));
                }
                State::CommaOrEnd => {
                    let container = *self.stack.last().expect("non-empty in CommaOrEnd");
                    match (self.peek(), container) {
                        (Some(b','), b'{') => {
                            self.pos += 1;
                            self.state = State::Key;
                        }
                        (Some(b','), _) => {
                            self.pos += 1;
                            self.state = State::Value;
                        }
                        (Some(b'}'), b'{') => {
                            self.pos += 1;
                            self.stack.pop();
                            self.state = self.after_value();
                            return Ok(Some(Event::ObjectEnd));
                        }
                        (Some(b']'), b'[') => {
                            self.pos += 1;
                            self.stack.pop();
                            self.state = self.after_value();
                            return Ok(Some(Event::ArrayEnd));
                        }
                        _ => {
                            let end = if container == b'{' { '}' } else { ']' };
                            return Err(self.err(format!("expected ',' or '{end}'")));
                        }
                    }
                }
            }
        }
    }

    /// One value-start event (the cursor sits on the value's first byte).
    fn value_event(&mut self) -> Result<Event<'a>, ParseError> {
        match self.peek() {
            Some(b'{') => {
                if self.stack.len() >= MAX_DEPTH {
                    return Err(self.err("document nested too deeply"));
                }
                self.pos += 1;
                self.stack.push(b'{');
                self.state = State::KeyOrEnd;
                Ok(Event::ObjectStart)
            }
            Some(b'[') => {
                if self.stack.len() >= MAX_DEPTH {
                    return Err(self.err("document nested too deeply"));
                }
                self.pos += 1;
                self.stack.push(b'[');
                self.state = State::ValueOrEnd;
                Ok(Event::ArrayStart)
            }
            Some(b'"') => {
                let s = scan_string(self.text, &mut self.pos)?;
                self.state = self.after_value();
                Ok(Event::Str(s))
            }
            Some(b't') => {
                self.expect_keyword("true")?;
                self.state = self.after_value();
                Ok(Event::Bool(true))
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                self.state = self.after_value();
                Ok(Event::Bool(false))
            }
            Some(b'n') => {
                self.expect_keyword("null")?;
                self.state = self.after_value();
                Ok(Event::Null)
            }
            Some(b'-' | b'0'..=b'9') => {
                let n = scan_number(self.text.as_bytes(), &mut self.pos)?;
                self.state = self.after_value();
                Ok(Event::Number(n))
            }
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Consumes one complete value (scalar or whole container) without
    /// handing its events to the caller — how a reader skips fields it
    /// does not recognize.
    ///
    /// # Errors
    ///
    /// Propagates any grammar error inside the skipped value.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        let mut depth = 0usize;
        loop {
            match self.next_event()? {
                Some(Event::ObjectStart | Event::ArrayStart) => depth += 1,
                Some(Event::ObjectEnd | Event::ArrayEnd) => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                Some(Event::Key(_)) => {}
                Some(_) => {
                    if depth == 0 {
                        return Ok(());
                    }
                }
                None => return Err(self.err("unexpected end of input")),
            }
        }
    }
}

fn err_at(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        offset,
        message: message.into(),
    }
}

/// Lexes one JSON string starting at `pos` (which must point at the
/// opening quote), advancing `pos` past the closing quote.
///
/// Escape-free strings are returned as a borrowed slice of the input —
/// no allocation, no copy, no second UTF-8 validation: lexing only stops
/// on ASCII bytes, so every slice taken below starts and ends on a char
/// boundary of `text`. Strings with escapes are decoded into an owned
/// buffer.
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
    // Fast path: find the closing quote without touching an escape.
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
    if bytes.get(*pos).is_none() {
        return Err(err_at(*pos, "unterminated string"));
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
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    *pos += 1;
                }
                out.push_str(&text[run..*pos]);
            }
            None => return Err(err_at(*pos, "unterminated string")),
        }
    }
}

/// Decodes one escape sequence (the backslash is already consumed).
fn unescape(bytes: &[u8], pos: &mut usize, out: &mut String) -> Result<(), ParseError> {
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

/// Lexes one JSON number starting at `pos`, advancing past it.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed digits or a value that does not
/// fit a finite `f64`.
pub(crate) fn scan_number(bytes: &[u8], pos: &mut usize) -> Result<f64, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: a lone zero or a nonzero digit followed by digits.
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return Err(err_at(*pos, "expected digit")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            return Err(err_at(*pos, "expected digit after decimal point"));
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
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
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(n),
        _ => Err(err_at(*pos, "number out of range")),
    }
}
