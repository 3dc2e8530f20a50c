//! A from-scratch HTTP/1.1 implementation.
//!
//! The paper's Oak server "serves a dual purpose as both the web server and
//! the Oak server platform" (§5, Implementation), speaking plain HTTP/1.1
//! to clients and reading client performance reports POSTed back to it.
//! This crate supplies that transport layer:
//!
//! - [`Url`]: absolute/relative URL parsing and resolution,
//! - [`Request`] / [`Response`] / [`Headers`]: message types with
//!   case-insensitive headers,
//! - wire codecs ([`Request::parse`], [`Response::to_bytes`], …) for
//!   `Content-Length`-framed HTTP/1.1,
//! - [`cookie`]: the identifying-cookie plumbing Oak uses to tie reports
//!   to users,
//! - [`ServerLimits`] / [`TransportStats`] / [`fetch_tcp`]: the bounds
//!   (connection cap, head/body byte ceilings, read/write deadlines) and
//!   counters of the server that lives in `oak-edge`, and a blocking
//!   client over real `std::net` sockets,
//! - [`framing`]: how that server learns where a request ends,
//! - [`fault`]: a scripted chaos client (slowloris, mid-body disconnects,
//!   oversized heads/bodies) for deterministic resilience testing,
//! - [`Handler`]: the request-handling trait shared by the server and
//!   the in-memory transport that experiments use for determinism.
//!
//! Scope: `Content-Length` and `Transfer-Encoding: chunked` bodies, no
//! TLS, no HTTP/2 — matching the unmodified "multi-threaded Python
//! servers … employ\[ing\] HTTP 1.1" of the paper's testbed.
//!
//! # Examples
//!
//! ```
//! use oak_http::{Method, Request, Response, StatusCode};
//!
//! let req = Request::new(Method::Get, "/index.html");
//! let bytes = req.to_bytes();
//! let parsed = Request::parse(&bytes).unwrap();
//! assert_eq!(parsed.path(), "/index.html");
//!
//! let resp = Response::new(StatusCode::OK).with_body(b"hi".to_vec(), "text/plain");
//! assert_eq!(resp.header("content-length"), Some("2"));
//! ```

pub mod cookie;
mod error;
pub mod fault;
pub mod framing;
mod headers;
mod message;
mod obs;
mod tcp;
mod url;

pub use error::HttpError;
pub use headers::Headers;
pub use message::{encode_chunked, Method, Request, Response, StatusCode};
pub use obs::{HttpMetrics, Stage};
pub use tcp::{
    fetch_tcp, over_capacity_response, queue_shed_response, Handler, ServerLimits, TransportEvent,
    TransportSnapshot, TransportStats, PEER_ADDR_HEADER, SHED_RETRY_AFTER_SECS,
};
pub use url::{host_of, Url};

#[cfg(test)]
mod tests;
