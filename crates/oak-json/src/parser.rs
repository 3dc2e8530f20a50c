//! Recursive-descent JSON parser.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::Value;

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
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

use crate::scan::MAX_DEPTH;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
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

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => {
                self.expect_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'n') => {
                self.expect_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => {
                    self.pos -= 1;
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Object(map))
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => {
                    self.pos -= 1;
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Array(items))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        // Shared lexer with the streaming scanner: escape-free strings come
        // back borrowed, so the `into_owned` below is the only copy.
        crate::scan::scan_string(self.text, &mut self.pos).map(std::borrow::Cow::into_owned)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        crate::scan::scan_number(self.text.as_bytes(), &mut self.pos).map(Value::Number)
    }
}
