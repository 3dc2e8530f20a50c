//! The binary report wire format (`application/x-oak-report`).
//!
//! JSON stays the lingua franca for debuggability, but the hot ingest
//! path gets a length-prefixed binary encoding that both ends handle
//! cheaply: the client writes length-prefixed raw bytes (no escaping
//! pass), and the decoder *slices* the request body — url/ip/user/page
//! are borrowed from the buffer, so a decoded report allocates its entry
//! vector and nothing else.
//!
//! Layout (all multi-byte integers are LEB128 varints unless noted;
//! DESIGN.md §12 is the normative spec):
//!
//! ```text
//! u8      version          — 0x01 or WIRE_VERSION (0x02)
//! u8      device           — version 0x02 only: the DeviceClass wire
//!                            byte (0 unknown, 1 desktop, 2 mid-mobile,
//!                            3 low-end-mobile); v1 frames have no
//!                            device byte and decode as `unknown`
//! varint  user_len         + user_len bytes of UTF-8
//! varint  page_len         + page_len bytes of UTF-8
//! varint  entry_count      — must be ≤ PerfReport::MAX_ENTRIES
//! entry_count × {
//!   varint url_len         + url_len bytes of UTF-8
//!   varint ip_len          + ip_len bytes of UTF-8, ≤ PerfReport::MAX_IP_BYTES
//!   varint bytes           — must be ≤ PerfReport::MAX_BYTES
//!   f64le  time_ms         — must be finite, 0 ≤ t ≤ MAX_TIME_MS
//! }
//! ```
//!
//! Version negotiation is encoder-side: a report whose device class is
//! `unknown` is emitted as a v1 frame, byte-identical to what pre-device
//! encoders produced, so old decoders keep accepting everything a
//! device-free client sends. Only a report that actually carries a
//! device class pays the v2 byte — and only v2-aware decoders see those.
//!
//! Decoding enforces exactly the bounds [`PerfReport::decode_json`]
//! enforces, with the same error text, so the two encodings accept the
//! same set of reports. Every length is validated against the bytes
//! actually remaining before any allocation is sized from it — a lying
//! prefix or an entry-count bomb costs the attacker nothing but an error.

use std::borrow::Cow;

use crate::report::{check_ip, DeviceClass, ObjectTiming, PerfReport, ReportDecodeError};

/// The negotiated media type for binary reports.
pub const OAK_REPORT_CONTENT_TYPE: &str = "application/x-oak-report";

/// The current wire version: v2 added the device-class byte.
pub const WIRE_VERSION: u8 = 0x02;

/// The original device-free layout; still decoded, and still what the
/// encoder emits for reports without a device hint.
pub const WIRE_VERSION_V1: u8 = 0x01;

/// Smallest possible encoded entry: two empty strings (1 varint byte
/// each), a 1-byte `bytes` varint, and the fixed 8-byte time. Used to
/// cap speculative `Vec` capacity from a claimed entry count.
const MIN_ENTRY_BYTES: usize = 11;

/// Encodes `report` into the binary wire format.
pub fn encode(report: &PerfReport<impl AsRef<str>>) -> Vec<u8> {
    let (user, page) = (report.user.as_ref(), report.page.as_ref());
    // Exact-ish preallocation: strings + worst-case varints + fixed parts.
    let mut out = Vec::with_capacity(
        2 + 10
            + user.len()
            + page.len()
            + 20
            + report
                .entries
                .iter()
                .map(|e| e.url.as_ref().len() + e.ip.as_ref().len() + 20 + 8)
                .sum::<usize>(),
    );
    if report.device == DeviceClass::Unknown {
        // No hint to carry: stay on the v1 layout so the frame is
        // byte-identical to pre-device encoders.
        out.push(WIRE_VERSION_V1);
    } else {
        out.push(WIRE_VERSION);
        out.push(report.device.wire_byte());
    }
    put_bytes(&mut out, user.as_bytes());
    put_bytes(&mut out, page.as_bytes());
    put_varint(&mut out, report.entries.len() as u64);
    for e in &report.entries {
        put_bytes(&mut out, e.url.as_ref().as_bytes());
        put_bytes(&mut out, e.ip.as_ref().as_bytes());
        put_varint(&mut out, e.bytes);
        out.extend_from_slice(&e.time_ms.to_le_bytes());
    }
    out
}

/// Decodes a binary report where it lies in `bytes`, enforcing the same
/// bounds as [`PerfReport::decode_json`]; every string borrows from the
/// frame.
///
/// # Errors
///
/// Returns [`ReportDecodeError`] on a version mismatch, truncated or
/// trailing bytes, lengths exceeding the buffer, invalid UTF-8, or any
/// out-of-bounds field value. Never panics, and never allocates more
/// than the input could legitimately describe.
pub fn decode(bytes: &[u8]) -> Result<PerfReport<Cow<'_, str>>, ReportDecodeError> {
    let mut r = Reader { bytes, pos: 0 };
    let version = r.u8("version")?;
    let device = match version {
        WIRE_VERSION_V1 => DeviceClass::Unknown,
        WIRE_VERSION => {
            let byte = r.u8("device")?;
            DeviceClass::from_wire_byte(byte).ok_or_else(|| {
                ReportDecodeError::new(format!("unknown device class 0x{byte:02x}"))
            })?
        }
        _ => {
            return Err(ReportDecodeError::new(format!(
                "unsupported wire version 0x{version:02x} \
                 (expected 0x{WIRE_VERSION_V1:02x} or 0x{WIRE_VERSION:02x})"
            )))
        }
    };
    let user = r.str("user")?;
    let page = r.str("page")?;
    let count = r.varint("entry count")? as usize;
    if count > PerfReport::MAX_ENTRIES {
        return Err(ReportDecodeError::new(format!(
            "{} entries exceed the {} limit",
            count,
            PerfReport::MAX_ENTRIES
        )));
    }
    // A lying count can still pass the MAX_ENTRIES check; never size the
    // Vec beyond what the remaining bytes could actually hold.
    let mut entries = Vec::with_capacity(count.min(r.remaining() / MIN_ENTRY_BYTES));
    for i in 0..count {
        let url = r.str("url").map_err(|e| e.in_entry(i))?;
        let ip = r.str("ip").map_err(|e| e.in_entry(i))?;
        check_ip(ip).map_err(|e| e.in_entry(i))?;
        let object_bytes = r.varint("bytes").map_err(|e| e.in_entry(i))?;
        if object_bytes > PerfReport::MAX_BYTES {
            return Err(ReportDecodeError::new(format!(
                "entry {i}: bytes not a non-negative integer within 2^53"
            )));
        }
        let time_ms = r.f64("time_ms").map_err(|e| e.in_entry(i))?;
        if !time_ms.is_finite() || !(0.0..=PerfReport::MAX_TIME_MS).contains(&time_ms) {
            return Err(ReportDecodeError::new(format!(
                "entry {i}: time_ms not a finite non-negative number within bounds"
            )));
        }
        entries.push(ObjectTiming {
            url: Cow::Borrowed(url),
            ip: Cow::Borrowed(ip),
            bytes: object_bytes,
            time_ms,
        });
    }
    if r.remaining() != 0 {
        return Err(ReportDecodeError::new(format!(
            "{} trailing bytes after the last entry",
            r.remaining()
        )));
    }
    Ok(PerfReport {
        user: Cow::Borrowed(user),
        page: Cow::Borrowed(page),
        device,
        entries,
    })
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A bounds-checked cursor over the frame. All reads are borrowed.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self, what: &str) -> Result<u8, ReportDecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| truncated(what, self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    /// LEB128, at most 10 bytes, rejecting bits past u64.
    fn varint(&mut self, what: &str) -> Result<u64, ReportDecodeError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(what)?;
            let payload = u64::from(byte & 0x7f);
            if shift == 63 && payload > 1 {
                return Err(ReportDecodeError::new(format!(
                    "{what} varint overflows 64 bits at byte {}",
                    self.pos
                )));
            }
            value |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(ReportDecodeError::new(format!(
            "{what} varint longer than 10 bytes at byte {}",
            self.pos
        )))
    }

    /// A varint length prefix followed by that many UTF-8 bytes, borrowed.
    fn str(&mut self, what: &str) -> Result<&'a str, ReportDecodeError> {
        let len = self.varint(what)? as usize;
        if len > self.remaining() {
            return Err(ReportDecodeError::new(format!(
                "{what} length {len} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        std::str::from_utf8(slice)
            .map_err(|_| ReportDecodeError::new(format!("{what} is not valid UTF-8")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, ReportDecodeError> {
        if self.remaining() < 8 {
            return Err(truncated(what, self.pos));
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_le_bytes(raw))
    }
}

fn truncated(what: &str, pos: usize) -> ReportDecodeError {
    ReportDecodeError::new(format!("frame truncated reading {what} at byte {pos}"))
}
