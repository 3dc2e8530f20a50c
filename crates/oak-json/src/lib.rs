//! A small, dependency-free JSON implementation.
//!
//! Oak's performance reports travel as JSON (the paper describes a
//! HAR-like format with a limited set of fields). Rather than pulling in a
//! serialization framework, this crate implements the subset of JSON that the
//! wire format needs, from scratch:
//!
//! - [`Cursor`]: the one grammar walker, a recursive-descent reader that
//!   hands a decoder one value at a time and borrows escape-free strings
//!   from the input; the report decoder in `oak-core` descends it
//!   directly, so a report is never built as a tree first,
//! - [`Value`] and [`parse`]: an owned document tree built on the cursor,
//!   with byte-offset error positions,
//! - `Value::to_string` (via [`std::fmt::Display`]) / [`Value::to_pretty_string`]: writers,
//! - convenience accessors ([`Value::get`], [`Value::as_f64`], ...).
//!
//! The implementation accepts exactly RFC 8259 JSON: no comments, no trailing
//! commas, no `NaN`/`Infinity` literals, containers nested at most
//! [`MAX_DEPTH`] deep.
//!
//! # Examples
//!
//! ```
//! use oak_json::{parse, Value};
//!
//! let doc = parse(r#"{"url": "http://a.com/x.js", "bytes": 1024}"#).unwrap();
//! assert_eq!(doc.get("bytes").and_then(Value::as_u64), Some(1024));
//!
//! let round = parse(&doc.to_string()).unwrap();
//! assert_eq!(doc, round);
//! ```

mod cursor;
mod lex;
mod value;
mod writer;

pub use cursor::{parse, Cursor, ParseError, MAX_DEPTH};
pub use value::Value;

#[cfg(test)]
mod tests;
