//! Request framing rules: how a request head ends, how its body length
//! is learned, and what counts as malformed. The `oak-edge` reactor and
//! the [`crate::fault`] client both call these functions, so the rules
//! live in exactly one place.

use crate::error::HttpError;

/// Finds the end of a request head inside `buf`, scanning line by line
/// from `from` (a line-start offset from a previous partial scan).
///
/// The head ends at the first *blank line*, where a line is everything
/// up to and including a `\n` and blank means the line is `"\n"` or
/// `"\r\n"`.
///
/// Returns `(Some(end), _)` with `end` one past the terminator when the
/// head is complete, else `(None, resume)` where `resume` is the offset
/// of the first unterminated line — pass it back as `from` once more
/// bytes arrive so scanning never revisits completed lines.
pub fn head_end(buf: &[u8], from: usize) -> (Option<usize>, usize) {
    let mut line_start = from;
    for (i, &b) in buf.iter().enumerate().skip(from) {
        if b == b'\n' {
            let line = &buf[line_start..=i];
            if line == b"\n" || line == b"\r\n" {
                return (Some(i + 1), line_start);
            }
            line_start = i + 1;
        }
    }
    (None, line_start)
}

/// True if the raw head block declares `Transfer-Encoding: chunked`.
///
/// # Errors
///
/// [`HttpError::Malformed`] when the head is not UTF-8.
pub fn head_is_chunked(head: &[u8]) -> Result<bool, HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("non-UTF-8 header block".into()))?;
    Ok(text.split("\r\n").any(|line| {
        line.split_once(':').is_some_and(|(name, value)| {
            name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
        })
    }))
}

/// Extracts Content-Length from a raw head block (0 when absent).
///
/// Strict by design — the body length decides how many bytes the server
/// buffers, so anything ambiguous is rejected rather than defaulted:
/// non-digit values (including signs and whitespace padding beyond a
/// trim) and duplicate declarations that disagree are malformed.
/// Duplicate *identical* declarations are tolerated per RFC 9110 §8.6.
///
/// # Errors
///
/// [`HttpError::Malformed`] for non-UTF-8 heads and ambiguous or
/// non-numeric declarations.
pub fn content_length_of(head: &[u8]) -> Result<usize, HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("non-UTF-8 header block".into()))?;
    let mut found: Option<usize> = None;
    for line in text.split("\r\n") {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(HttpError::Malformed(format!(
                        "bad content-length {value:?}"
                    )));
                }
                let parsed: usize = value
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?;
                match found {
                    Some(prior) if prior != parsed => {
                        return Err(HttpError::Malformed(format!(
                            "conflicting content-length declarations ({prior} vs {parsed})"
                        )));
                    }
                    _ => found = Some(parsed),
                }
            }
        }
    }
    Ok(found.unwrap_or(0))
}

/// Extracts `(method-token, target)` from the request line of a raw
/// head block, without parsing the full message.
///
/// The server consults [`crate::Handler::admit`] between head
/// completion and body read; this is the minimal peek that makes
/// the decision possible before any body byte is buffered. `None` for
/// heads whose first line is not `token SP token …` — such requests fall
/// through to the full parser and earn their 400 there.
pub fn request_line_of(head: &[u8]) -> Option<(&str, &str)> {
    let end = head.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&head[..end])
        .ok()?
        .trim_end_matches('\r');
    let mut parts = line.split(' ');
    let method = parts.next().filter(|t| !t.is_empty())?;
    let target = parts.next().filter(|t| !t.is_empty())?;
    Some((method, target))
}

/// Incremental `Transfer-Encoding: chunked` progress over a growing
/// buffer of raw (still-encoded) body bytes.
///
/// A non-blocking reader cannot re-scan the body from the start on every
/// readiness event, so this state machine remembers where it stopped.
/// Feed it the raw bytes after the head each time more arrive; it
/// reports how many raw bytes the complete chunked body occupies once
/// the terminating zero-size chunk and its trailer section have landed.
/// The *decoded* running total is bounded by `max_body_bytes`.
#[derive(Clone, Copy, Debug)]
pub struct ChunkedScan {
    /// Raw-byte offset (relative to the body start) scanning resumes at.
    cursor: usize,
    /// Offset where the current (incomplete) line began.
    line_start: usize,
    /// Decoded body bytes consumed so far, for the limit check.
    decoded: usize,
    phase: ChunkPhase,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChunkPhase {
    /// Expecting a `<hex-size>[;ext]\r\n` line.
    SizeLine,
    /// Consuming a chunk's payload plus its trailing CRLF.
    Data { remaining: usize },
    /// After the zero-size chunk: discarding trailer lines to the blank.
    Trailer,
}

/// Outcome of one [`ChunkedScan::advance`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkedProgress {
    /// The body is complete and occupies this many raw bytes.
    Complete(usize),
    /// More bytes are needed.
    Incomplete,
}

impl ChunkedScan {
    /// A scanner positioned at the first chunk-size line.
    pub fn new() -> ChunkedScan {
        ChunkedScan {
            cursor: 0,
            line_start: 0,
            decoded: 0,
            phase: ChunkPhase::SizeLine,
        }
    }

    /// Consumes as much of `body` (raw bytes after the head) as possible.
    ///
    /// # Errors
    ///
    /// [`HttpError::Malformed`] on an unparseable chunk-size line,
    /// [`HttpError::BodyTooLarge`] when the decoded total would exceed
    /// `max_body_bytes`.
    pub fn advance(
        &mut self,
        body: &[u8],
        max_body_bytes: usize,
    ) -> Result<ChunkedProgress, HttpError> {
        loop {
            match self.phase {
                ChunkPhase::SizeLine => {
                    let Some(line_end) = find_lf(body, self.cursor) else {
                        self.cursor = body.len();
                        return Ok(ChunkedProgress::Incomplete);
                    };
                    let line = &body[self.line_start..=line_end];
                    // Only a literal `0` line ends the body — `0;ext`
                    // falls through to the data path.
                    let terminator = line == b"0\r\n" || line == b"0\n";
                    let text = String::from_utf8_lossy(line);
                    let size_text = text.trim_end().split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(size_text, 16).map_err(|_| {
                        HttpError::Malformed(format!("bad chunk size {size_text:?}"))
                    })?;
                    self.cursor = line_end + 1;
                    self.line_start = self.cursor;
                    if terminator {
                        self.phase = ChunkPhase::Trailer;
                        continue;
                    }
                    if self.decoded.saturating_add(size) > max_body_bytes {
                        return Err(HttpError::BodyTooLarge {
                            limit: max_body_bytes,
                        });
                    }
                    self.decoded += size;
                    // The payload is followed by its CRLF terminator.
                    self.phase = ChunkPhase::Data {
                        remaining: size + 2,
                    };
                }
                ChunkPhase::Data { remaining } => {
                    let available = body.len().saturating_sub(self.cursor);
                    if available < remaining {
                        self.cursor = body.len();
                        self.phase = ChunkPhase::Data {
                            remaining: remaining - available,
                        };
                        return Ok(ChunkedProgress::Incomplete);
                    }
                    self.cursor += remaining;
                    self.line_start = self.cursor;
                    self.phase = ChunkPhase::SizeLine;
                }
                ChunkPhase::Trailer => {
                    let Some(line_end) = find_lf(body, self.cursor) else {
                        self.cursor = body.len();
                        return Ok(ChunkedProgress::Incomplete);
                    };
                    let line = &body[self.line_start..=line_end];
                    let blank = line == b"\r\n" || line == b"\n";
                    self.cursor = line_end + 1;
                    self.line_start = self.cursor;
                    if blank {
                        return Ok(ChunkedProgress::Complete(self.cursor));
                    }
                }
            }
        }
    }
}

impl Default for ChunkedScan {
    fn default() -> ChunkedScan {
        ChunkedScan::new()
    }
}

fn find_lf(buf: &[u8], from: usize) -> Option<usize> {
    buf.iter()
        .enumerate()
        .skip(from)
        .find(|(_, &b)| b == b'\n')
        .map(|(i, _)| i)
}
