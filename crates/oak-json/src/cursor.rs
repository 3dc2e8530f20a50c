//! The crate's one grammar walker: a recursive-descent cursor over a
//! document, which [`parse`] builds [`Value`]s on and decoders descend
//! directly.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::lex::{err_at, scan_number, scan_string};
use crate::Value;

/// Containers may nest this deep and no deeper, which bounds the
/// cursor's recursion; real performance reports nest three levels.
pub const MAX_DEPTH: usize = 128;

/// An error produced while parsing JSON, with the byte offset where the
/// input stopped making sense.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description of what was expected.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl Error for ParseError {}

/// Parses a complete JSON document.
///
/// The entire input must be consumed (trailing whitespace is allowed);
/// trailing garbage is an error, which protects the report endpoint from
/// concatenated or truncated uploads.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the byte offset of the first invalid
/// input.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut cur = Cursor::new(input);
    let value = cur.value()?;
    cur.finish()?;
    Ok(value)
}

/// A position in one JSON document, read one value at a time.
///
/// Each reader consumes exactly one value (and the whitespace before it)
/// or fails; containers hand each member to a closure, which must consume
/// that member's value with one reader, [`Cursor::skip_value`] included.
/// Strings are borrowed from the document unless they hold an escape.
/// After an error the cursor must not be used again.
///
/// ```
/// use oak_json::{Cursor, ParseError};
///
/// let mut cur = Cursor::new(r#"{"ms": [1.5, 2], "skip": {"x": null}}"#);
/// let mut total = 0.0;
/// cur.object(|cur, key| match key.as_ref() {
///     "ms" => cur.array(|cur| Ok::<_, ParseError>(total += cur.number()?)),
///     _ => cur.skip_value(),
/// })?;
/// cur.finish()?;
/// assert_eq!(total, 3.5);
/// # Ok::<(), ParseError>(())
/// ```
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor before the first value of `text`.
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Byte offset of the cursor.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The first byte of the next value, past any whitespace; `None` at
    /// the end of the input. How a decoder tells a value's type before
    /// choosing a reader.
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.text.as_bytes().get(self.pos) {
            self.pos += 1;
        }
        self.text.as_bytes().get(self.pos).copied()
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        err_at(self.pos, message)
    }

    /// Consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        if next {
            self.pos += 1;
        }
        next
    }

    /// Steps into a container opened by `open`.
    fn enter(&mut self, open: u8) -> Result<(), ParseError> {
        if self.peek() != Some(open) {
            return Err(self.err(format!("expected '{}'", open as char)));
        }
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    /// Reads an object, handing each member's key to `member`, which must
    /// consume the member's value. Duplicate keys are handed over in
    /// document order.
    ///
    /// # Errors
    ///
    /// The first [`ParseError`] in the object, converted, or the first
    /// error `member` returns.
    pub fn object<E: From<ParseError>>(
        &mut self,
        mut member: impl FnMut(&mut Cursor<'a>, Cow<'a, str>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.enter(b'{')?;
        if !self.eat(b'}') {
            loop {
                let key = self.str()?;
                if !self.eat(b':') {
                    return Err(self.err("expected ':'").into());
                }
                member(self, key)?;
                if self.eat(b',') {
                    continue;
                }
                if self.eat(b'}') {
                    break;
                }
                return Err(self.err("expected ',' or '}' in object").into());
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads an array, calling `element` once per element; each call must
    /// consume that element.
    ///
    /// # Errors
    ///
    /// The first [`ParseError`] in the array, converted, or the first
    /// error `element` returns.
    pub fn array<E: From<ParseError>>(
        &mut self,
        mut element: impl FnMut(&mut Cursor<'a>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.enter(b'[')?;
        if !self.eat(b']') {
            loop {
                element(self)?;
                if self.eat(b',') {
                    continue;
                }
                if self.eat(b']') {
                    break;
                }
                return Err(self.err("expected ',' or ']' in array").into());
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads a string: borrowed from the document when it holds no
    /// escape, decoded into an owned buffer when it does.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] if the next value is not a well-formed string.
    pub fn str(&mut self) -> Result<Cow<'a, str>, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        scan_string(self.text, &mut self.pos)
    }

    /// Reads a number (always finite: the grammar has no NaN or
    /// Infinity, and out-of-range literals are refused).
    ///
    /// # Errors
    ///
    /// A [`ParseError`] if the next value is not a well-formed number.
    pub fn number(&mut self) -> Result<f64, ParseError> {
        self.peek();
        scan_number(self.text.as_bytes(), &mut self.pos)
    }

    /// Consumes one value of any type, checking its whole grammar and
    /// nesting depth — how a decoder passes over a member it does not
    /// read. Only a string holding an escape allocates.
    ///
    /// # Errors
    ///
    /// The first [`ParseError`] inside the value.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(b'{') => self.object(|cur, _| cur.skip_value()),
            Some(b'[') => self.array(Cursor::skip_value),
            Some(b'"') => self.str().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// Checks that only whitespace remains.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] at the first byte past the document.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters after document")),
        }
    }

    /// Reads one value of any type into a [`Value`] tree.
    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object(|cur, key| {
                    map.insert(key.into_owned(), cur.value()?);
                    Ok::<_, ParseError>(())
                })?;
                Ok(Value::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|cur| {
                    items.push(cur.value()?);
                    Ok::<_, ParseError>(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => Ok(Value::String(self.str()?.into_owned())),
            _ => self.scalar(),
        }
    }

    /// A number or literal, or the error for whatever else comes next.
    fn scalar(&mut self) -> Result<Value, ParseError> {
        let (word, value) = match self.peek() {
            Some(b'-' | b'0'..=b'9') => return self.number().map(Value::Number),
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            Some(b'n') => ("null", Value::Null),
            Some(other) => return Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => return Err(self.err("unexpected end of input")),
        };
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(self.err(format!("expected '{word}'")));
        }
        self.pos += word.len();
        Ok(value)
    }
}
