//! HTTP/1.1 request and response types with wire codecs.

use crate::error::HttpError;
use crate::headers::Headers;

/// Request methods Oak's traffic uses. Pages are GETs; performance reports
/// arrive "via HTTP POST" (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET.
    Get,
    /// HEAD.
    Head,
    /// POST.
    Post,
    /// PUT.
    Put,
    /// DELETE.
    Delete,
    /// OPTIONS.
    Options,
}

impl Method {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
        }
    }

    /// Parses a wire token (case-sensitive, per RFC 9110).
    pub fn parse(token: &str) -> Option<Method> {
        Some(match token {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "OPTIONS" => Method::Options,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A response status code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 204 No Content (Oak's report endpoint acknowledgment).
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    /// 400 Bad Request.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 408 Request Timeout (slowloris and half-sent requests).
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    /// 413 Content Too Large (body over the server's limit).
    pub const PAYLOAD_TOO_LARGE: StatusCode = StatusCode(413);
    /// 429 Too Many Requests (report admission control).
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// 431 Request Header Fields Too Large (head over the server's limit).
    pub const HEADERS_TOO_LARGE: StatusCode = StatusCode(431);
    /// 500 Internal Server Error.
    pub const INTERNAL_ERROR: StatusCode = StatusCode(500);
    /// 503 Service Unavailable (connection limit reached).
    pub const UNAVAILABLE: StatusCode = StatusCode(503);

    /// The standard reason phrase (a fixed subset; anything unknown says
    /// "Unknown").
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Content Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// True for 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An HTTP request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// The request target (origin-form: path plus optional query).
    pub target: String,
    /// Header lines.
    pub headers: Headers,
    /// The body (empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// A bodyless request for `target`.
    pub fn new(method: Method, target: impl Into<String>) -> Request {
        Request {
            method,
            target: target.into(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Builder-style: attach a body and set `Content-Type` +
    /// `Content-Length`.
    pub fn with_body(mut self, body: Vec<u8>, content_type: &str) -> Request {
        self.headers.set("Content-Type", content_type);
        self.headers.set("Content-Length", body.len().to_string());
        self.body = body;
        self
    }

    /// Builder-style: set a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers.set(name, value);
        self
    }

    /// The path portion of the target (query stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// First header value, case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }

    /// Serializes to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut headers = self.headers.clone();
        if !self.body.is_empty() && !headers.contains("content-length") {
            headers.set("Content-Length", self.body.len().to_string());
        }
        let mut out =
            format!("{} {} HTTP/1.1\r\n{headers}\r\n", self.method, self.target).into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes into a request.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] for bad syntax, [`HttpError::Truncated`]
    /// when the body is shorter than `Content-Length`.
    pub fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        let (head, body) = split_message(bytes)?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or_else(|| HttpError::Malformed(format!("bad method in {request_line:?}")))?;
        let target = parts
            .next()
            .filter(|t| !t.is_empty())
            .ok_or_else(|| HttpError::Malformed("missing request target".into()))?
            .to_owned();
        match parts.next() {
            Some(v) if v.starts_with("HTTP/1.") => {}
            other => {
                return Err(HttpError::Malformed(format!("bad version {other:?}")));
            }
        }
        let headers = parse_headers(lines)?;
        let body = read_body(&headers, body)?;
        Ok(Request {
            method,
            target,
            headers,
            body,
        })
    }
}

/// An HTTP response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The status code.
    pub status: StatusCode,
    /// Header lines.
    pub headers: Headers,
    /// The body (empty when absent).
    pub body: Vec<u8>,
}

impl Response {
    /// A bodyless response.
    pub fn new(status: StatusCode) -> Response {
        Response {
            status,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Builder-style: attach a body and set `Content-Type` +
    /// `Content-Length`.
    pub fn with_body(mut self, body: Vec<u8>, content_type: &str) -> Response {
        self.headers.set("Content-Type", content_type);
        self.headers.set("Content-Length", body.len().to_string());
        self.body = body;
        self
    }

    /// Builder-style: set a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.set(name, value);
        self
    }

    /// Convenience: an HTML page response.
    pub fn html(markup: impl Into<Vec<u8>>) -> Response {
        Response::new(StatusCode::OK).with_body(markup.into(), "text/html; charset=utf-8")
    }

    /// Convenience: a 404.
    pub fn not_found() -> Response {
        Response::new(StatusCode::NOT_FOUND).with_body(b"not found".to_vec(), "text/plain")
    }

    /// First header value, case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }

    /// The body interpreted as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Serializes to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut headers = self.headers.clone();
        if !headers.contains("content-length") {
            headers.set("Content-Length", self.body.len().to_string());
        }
        let mut out = format!(
            "HTTP/1.1 {} {}\r\n{headers}\r\n",
            self.status.0,
            self.status.reason()
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes into a response.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] for bad syntax, [`HttpError::Truncated`]
    /// when the body is shorter than `Content-Length`.
    pub fn parse(bytes: &[u8]) -> Result<Response, HttpError> {
        let (head, body) = split_message(bytes)?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let mut parts = status_line.splitn(3, ' ');
        match parts.next() {
            Some(v) if v.starts_with("HTTP/1.") => {}
            other => return Err(HttpError::Malformed(format!("bad version {other:?}"))),
        }
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| HttpError::Malformed(format!("bad status in {status_line:?}")))?;
        let headers = parse_headers(lines)?;
        let body = read_body(&headers, body)?;
        Ok(Response {
            status: StatusCode(code),
            headers,
            body,
        })
    }
}

/// Splits raw bytes at the header/body boundary; the head must be ASCII.
fn split_message(bytes: &[u8]) -> Result<(&str, &[u8]), HttpError> {
    let boundary = find_subslice(bytes, b"\r\n\r\n").ok_or(HttpError::Truncated)?;
    let head = std::str::from_utf8(&bytes[..boundary])
        .map_err(|_| HttpError::Malformed("non-UTF-8 header block".into()))?;
    Ok((head, &bytes[boundary + 4..]))
}

fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Headers, HttpError> {
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line without colon: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name: {name:?}")));
        }
        headers.append(name, value.trim());
    }
    Ok(headers)
}

fn read_body(headers: &Headers, body: &[u8]) -> Result<Vec<u8>, HttpError> {
    if headers
        .get("transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    {
        return decode_chunked(body);
    }
    match headers.get("content-length") {
        None => Ok(Vec::new()),
        Some(len) => {
            let len: usize = len
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {len:?}")))?;
            if body.len() < len {
                return Err(HttpError::Truncated);
            }
            Ok(body[..len].to_vec())
        }
    }
}

/// Decodes a `Transfer-Encoding: chunked` body (RFC 9112 §7.1). Chunk
/// extensions are tolerated and ignored; trailers are discarded.
fn decode_chunked(mut body: &[u8]) -> Result<Vec<u8>, HttpError> {
    let mut out = Vec::new();
    loop {
        let line_end = find_subslice(body, b"\r\n").ok_or(HttpError::Truncated)?;
        let size_line = std::str::from_utf8(&body[..line_end])
            .map_err(|_| HttpError::Malformed("non-ASCII chunk size line".into()))?;
        let size_text = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| HttpError::Malformed(format!("bad chunk size {size_text:?}")))?;
        body = &body[line_end + 2..];
        if size == 0 {
            // Optional trailers up to the final blank line are discarded.
            return Ok(out);
        }
        if body.len() < size + 2 {
            return Err(HttpError::Truncated);
        }
        out.extend_from_slice(&body[..size]);
        if &body[size..size + 2] != b"\r\n" {
            return Err(HttpError::Malformed("chunk missing CRLF terminator".into()));
        }
        body = &body[size + 2..];
    }
}

/// Encodes `data` as a chunked body with chunks of `chunk_size` bytes —
/// used by tests and by handlers that stream large mirrored objects.
pub fn encode_chunked(data: &[u8], chunk_size: usize) -> Vec<u8> {
    let chunk_size = chunk_size.max(1);
    let mut out = Vec::with_capacity(data.len() + data.len() / chunk_size * 8 + 8);
    for chunk in data.chunks(chunk_size) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// Naive subslice search (messages are small; no need for anything fancy).
pub(crate) fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
