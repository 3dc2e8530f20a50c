//! Client performance reports.
//!
//! "This report contains information on which external servers the client
//! communicated with, the size of the objects loaded from each of those
//! servers, and download times for each loaded object" (§4). The
//! implementation section adds that reports use HAR-style infrastructure
//! but carry "only a limited set of fields: the loaded URL, the size of
//! the loaded object, and the timing information of that object" (§5) —
//! deliberately small, since Fig. 15 sizes the median report under 10 KB.
//!
//! A report's strings are stored as `S`: `String` for a report built or
//! kept ([`PerfReport`] names that one), `Cow<'b, str>` for one decoded
//! where it lies in a request body, which is what the serving path reads.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use oak_json::{Cursor, ParseError, Value};

/// The reporting client's device cohort.
///
/// Mobile CPUs execute script an order of magnitude slower than desktop
/// parts ("What slows you down? Your network or your device?"), so the
/// same healthy ad server produces very different object timings across
/// device classes. Reports carry the class as a hint; the
/// [`crate::detect::DetectorPolicy::Cohort`] detector keys its baselines
/// on it. Reports from clients that predate the field — or that choose
/// not to disclose — decode as [`DeviceClass::Unknown`], which behaves
/// as its own cohort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceClass {
    /// No hint: pre-field encodings and privacy-conscious clients.
    #[default]
    Unknown,
    /// Desktop-class CPU on a wired or wifi link.
    Desktop,
    /// Mid-range mobile hardware on a cellular radio.
    MidMobile,
    /// Low-end mobile hardware on a cellular radio.
    LowEndMobile,
}

impl DeviceClass {
    /// Every class, in wire-byte order.
    pub const ALL: [DeviceClass; 4] = [
        DeviceClass::Unknown,
        DeviceClass::Desktop,
        DeviceClass::MidMobile,
        DeviceClass::LowEndMobile,
    ];

    /// The canonical wire spelling (JSON `device` field, CLI flags).
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceClass::Unknown => "unknown",
            DeviceClass::Desktop => "desktop",
            DeviceClass::MidMobile => "mid-mobile",
            DeviceClass::LowEndMobile => "low-end-mobile",
        }
    }

    /// Parses the canonical spelling; `None` for anything else.
    pub fn parse(text: &str) -> Option<DeviceClass> {
        DeviceClass::ALL.into_iter().find(|c| c.as_str() == text)
    }

    /// The binary wire byte (see [`crate::wire`]).
    pub(crate) fn wire_byte(self) -> u8 {
        match self {
            DeviceClass::Unknown => 0,
            DeviceClass::Desktop => 1,
            DeviceClass::MidMobile => 2,
            DeviceClass::LowEndMobile => 3,
        }
    }

    /// Inverts [`DeviceClass::wire_byte`]; `None` for unassigned bytes.
    pub(crate) fn from_wire_byte(byte: u8) -> Option<DeviceClass> {
        DeviceClass::ALL.get(byte as usize).copied()
    }
}

/// One fetched object, as measured by the client.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectTiming<S = String> {
    /// The loaded URL.
    pub url: S,
    /// The server IP the client ultimately connected to (dotted quad).
    /// This is the grouping key for analysis (§4.2).
    pub ip: S,
    /// Object size in bytes.
    pub bytes: u64,
    /// Download time in milliseconds.
    pub time_ms: f64,
}

impl ObjectTiming {
    /// Creates a timing entry.
    pub fn new(url: impl Into<String>, ip: impl Into<String>, bytes: u64, time_ms: f64) -> Self {
        ObjectTiming {
            url: url.into(),
            ip: ip.into(),
            bytes,
            time_ms,
        }
    }
}

impl<S: AsRef<str>> ObjectTiming<S> {
    /// Achieved throughput in kbit/s (bits per millisecond).
    pub fn throughput_kbps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.time_ms.max(1e-9)
    }

    /// The hostname portion of the URL, if the URL parses — borrowed
    /// from the URL string, in its original case. Callers that need the
    /// canonical lowercase form fold it themselves (and the analysis
    /// layer does so without allocating when the host is already
    /// lowercase, the overwhelmingly common case).
    pub fn host(&self) -> Option<&str> {
        oak_http::host_of(self.url.as_ref())
    }
}

impl ObjectTiming<Cow<'_, str>> {
    /// Copies whatever the entry still borrows.
    pub fn into_owned(self) -> ObjectTiming {
        ObjectTiming {
            url: self.url.into_owned(),
            ip: self.ip.into_owned(),
            bytes: self.bytes,
            time_ms: self.time_ms,
        }
    }
}

/// A complete report for one page load by one user.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfReport<S = String> {
    /// The reporting user's Oak cookie value.
    pub user: S,
    /// The page path the report describes.
    pub page: S,
    /// The reporting device's cohort hint. [`DeviceClass::Unknown`] for
    /// encodings that predate the field; serialization omits it in that
    /// case, so device-free reports are byte-identical to the old format.
    pub device: DeviceClass,
    /// Per-object measurements.
    pub entries: Vec<ObjectTiming<S>>,
}

/// A report that failed to decode.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportDecodeError(String);

impl ReportDecodeError {
    /// Crate-internal constructor (the JSON and binary decoders live in
    /// separate modules but share this error type).
    pub(crate) fn new(message: impl Into<String>) -> ReportDecodeError {
        ReportDecodeError(message.into())
    }

    /// Prefixes the message with the entry index it occurred in.
    pub(crate) fn in_entry(self, i: usize) -> ReportDecodeError {
        ReportDecodeError(format!("entry {i}: {}", self.0))
    }
}

impl From<ParseError> for ReportDecodeError {
    fn from(e: ParseError) -> ReportDecodeError {
        ReportDecodeError(e.to_string())
    }
}

impl fmt::Display for ReportDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad performance report: {}", self.0)
    }
}

impl Error for ReportDecodeError {}

impl PerfReport {
    /// Most entries one report may carry. A real page loads hundreds of
    /// objects at the extreme (Fig. 15 sizes the median report under
    /// 10 KB); tens of thousands is a hostile client inflating per-user
    /// state.
    pub const MAX_ENTRIES: usize = 10_000;

    /// Largest accepted `bytes` value: 2^53, the biggest integer the
    /// JSON double carries exactly. Beyond it the value is both
    /// physically implausible for one object and imprecise, so it is
    /// rejected rather than rounded into the throughput statistics.
    pub const MAX_BYTES: u64 = 1 << 53;

    /// Largest accepted `time_ms`: about a year. MAD detection compares
    /// medians, but aggregates average raw values — one absurd timing
    /// must not be able to drag a server's mean.
    pub const MAX_TIME_MS: f64 = 3.2e10;

    /// An empty report.
    pub fn new(user: impl Into<String>, page: impl Into<String>) -> PerfReport {
        PerfReport {
            user: user.into(),
            page: page.into(),
            device: DeviceClass::Unknown,
            entries: Vec::new(),
        }
    }

    /// Decodes the JSON wire format into an owned report:
    /// [`PerfReport::decode_json`], then a copy of each string.
    ///
    /// # Errors
    ///
    /// As [`PerfReport::decode_json`], less the UTF-8 check `text` has
    /// already passed.
    pub fn from_json(text: &str) -> Result<PerfReport, ReportDecodeError> {
        decode_json_text(text).map(PerfReport::into_owned)
    }

    /// Decodes a JSON report from request-body bytes into an owned report.
    ///
    /// # Errors
    ///
    /// As [`PerfReport::decode_json`].
    pub fn from_json_bytes(body: &[u8]) -> Result<PerfReport, ReportDecodeError> {
        PerfReport::decode_json(body).map(PerfReport::into_owned)
    }

    /// Decodes the binary wire format into an owned report; see
    /// [`crate::wire::decode`].
    ///
    /// # Errors
    ///
    /// Returns [`ReportDecodeError`] on malformed frames or any value
    /// [`PerfReport::decode_json`] would reject.
    pub fn from_binary(bytes: &[u8]) -> Result<PerfReport, ReportDecodeError> {
        crate::wire::decode(bytes).map(PerfReport::into_owned)
    }
}

impl<S> PerfReport<S> {
    /// Sets the device-cohort hint, builder style.
    pub fn with_device(mut self, device: DeviceClass) -> PerfReport<S> {
        self.device = device;
        self
    }

    /// Appends a measurement.
    pub fn push(&mut self, entry: ObjectTiming<S>) {
        self.entries.push(entry);
    }
}

impl<S: AsRef<str>> PerfReport<S> {
    /// Serializes to the JSON wire format clients POST.
    pub fn to_json(&self) -> String {
        let mut doc = Value::object();
        doc.set("user", self.user.as_ref());
        doc.set("page", self.page.as_ref());
        // Omitted for Unknown: a device-free report serializes exactly as
        // it did before the field existed.
        if self.device != DeviceClass::Unknown {
            doc.set("device", self.device.as_str());
        }
        let mut entries = Value::array();
        for e in &self.entries {
            let mut obj = Value::object();
            obj.set("url", e.url.as_ref());
            obj.set("ip", e.ip.as_ref());
            obj.set("bytes", e.bytes);
            obj.set("time_ms", e.time_ms);
            entries.push(obj);
        }
        doc.set("entries", entries);
        doc.to_string()
    }

    /// Encodes into the binary wire format (`application/x-oak-report`).
    pub fn to_binary(&self) -> Vec<u8> {
        crate::wire::encode(self)
    }

    /// Serialized size in bytes — the quantity Fig. 15 distributes.
    pub fn wire_size(&self) -> usize {
        self.to_json().len()
    }
}

impl<'b> PerfReport<Cow<'b, str>> {
    /// Decodes the JSON wire format where it lies in `body`: `user`,
    /// `page`, and each entry's `url` and `ip` borrow from it unless they
    /// hold an escape, so a report allocates its entry vector and nothing
    /// else. Keys are compared where they lie, and unknown keys are
    /// skipped with their whole grammar checked.
    ///
    /// # Errors
    ///
    /// Returns [`ReportDecodeError`] on a body that is not UTF-8 or not
    /// JSON, missing fields, non-finite/negative numbers (a hostile client
    /// must not be able to poison the MAD statistics with NaN), values
    /// beyond [`PerfReport::MAX_BYTES`]/[`PerfReport::MAX_TIME_MS`], or
    /// more than [`PerfReport::MAX_ENTRIES`] entries.
    pub fn decode_json(body: &'b [u8]) -> Result<PerfReport<Cow<'b, str>>, ReportDecodeError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ReportDecodeError::new("report body is not valid UTF-8"))?;
        decode_json_text(text)
    }

    /// Copies whatever the report still borrows.
    pub fn into_owned(self) -> PerfReport {
        PerfReport {
            user: self.user.into_owned(),
            page: self.page.into_owned(),
            device: self.device,
            entries: self
                .entries
                .into_iter()
                .map(ObjectTiming::into_owned)
                .collect(),
        }
    }
}

/// Fewest bytes a valid JSON entry and its separating comma can take —
/// `{"url":"","ip":"","bytes":0,"time_ms":0},` — so the bytes left at the
/// `entries` array bound how many it can hold.
const MIN_JSON_ENTRY_BYTES: usize = 41;

/// One descent over the document. Errors surface in document order: an
/// entry's at its closing brace, a missing top-level field once the whole
/// document has parsed.
fn decode_json_text(text: &str) -> Result<PerfReport<Cow<'_, str>>, ReportDecodeError> {
    let mut cur = Cursor::new(text);
    let mut user = None;
    let mut page = None;
    // `Some(None)` marks a `device` key whose value was not a string —
    // distinct from an absent key, which is simply Unknown.
    let mut device = None;
    let mut entries = None;
    if cur.peek() != Some(b'{') {
        // Any other document has no fields at all.
        cur.skip_value()?;
        cur.finish()?;
        return Err(ReportDecodeError::new("missing user"));
    }
    cur.object(|cur, key| {
        // Duplicate keys: the last occurrence wins, whatever its type.
        match key.as_ref() {
            // A mistyped `user` or `page` reads as missing.
            "user" => user = string_or_skip(cur)?,
            "page" => page = string_or_skip(cur)?,
            "device" => device = Some(string_or_skip(cur)?),
            "entries" => entries = decode_entries(cur, text.len())?,
            _ => cur.skip_value()?,
        }
        Ok::<_, ReportDecodeError>(())
    })?;
    cur.finish()?;
    let missing = |field: &str| ReportDecodeError::new(format!("missing {field}"));
    let user = user.ok_or_else(|| missing("user"))?;
    let page = page.ok_or_else(|| missing("page"))?;
    let entries = entries.ok_or_else(|| missing("entries"))?;
    let device = match device {
        None => DeviceClass::Unknown,
        Some(Some(name)) => DeviceClass::parse(&name)
            .ok_or_else(|| ReportDecodeError::new(format!("unknown device class {name:?}")))?,
        Some(None) => return Err(ReportDecodeError::new("device not a string")),
    };
    Ok(PerfReport {
        user,
        page,
        device,
        entries,
    })
}

/// A string value, or `None` (the value skipped) when it has another type.
fn string_or_skip<'b>(cur: &mut Cursor<'b>) -> Result<Option<Cow<'b, str>>, ParseError> {
    if cur.peek() == Some(b'"') {
        cur.str().map(Some)
    } else {
        cur.skip_value().map(|()| None)
    }
}

/// A number value, or `None` (the value skipped) when it has another type.
fn number_or_skip(cur: &mut Cursor<'_>) -> Result<Option<f64>, ParseError> {
    if matches!(cur.peek(), Some(b'-' | b'0'..=b'9')) {
        cur.number().map(Some)
    } else {
        cur.skip_value().map(|()| None)
    }
}

/// The `entries` array, or `None` when the value is not an array. `end`
/// is the document's length.
fn decode_entries<'b>(
    cur: &mut Cursor<'b>,
    end: usize,
) -> Result<Option<Vec<ObjectTiming<Cow<'b, str>>>>, ReportDecodeError> {
    if cur.peek() != Some(b'[') {
        cur.skip_value()?;
        return Ok(None);
    }
    // Sized once from the bytes left: the entry vector is the decode's
    // one allocation.
    let room = (end - cur.offset()) / MIN_JSON_ENTRY_BYTES;
    let mut entries = Vec::with_capacity(room.min(PerfReport::MAX_ENTRIES));
    let mut count = 0;
    cur.array(|cur| {
        let i = count;
        count += 1;
        let object = cur.peek() == Some(b'{');
        if i > PerfReport::MAX_ENTRIES || (i == PerfReport::MAX_ENTRIES && object) {
            // Past the limit: only counted, so the error names the total.
            return Ok(cur.skip_value()?);
        }
        if !object {
            // A non-object entry has no fields at all.
            cur.skip_value()?;
            return Err(ReportDecodeError::new(format!("entry {i}: missing url")));
        }
        entries.push(decode_entry(cur, i)?);
        Ok(())
    })?;
    if count > PerfReport::MAX_ENTRIES {
        return Err(ReportDecodeError::new(format!(
            "{count} entries exceed the {} limit",
            PerfReport::MAX_ENTRIES
        )));
    }
    Ok(Some(entries))
}

/// Entry `i`, validated field by field with the same bounds and error
/// text as the binary decoder.
fn decode_entry<'b>(
    cur: &mut Cursor<'b>,
    i: usize,
) -> Result<ObjectTiming<Cow<'b, str>>, ReportDecodeError> {
    // `Some(None)` marks a field present with the wrong type, a distinct
    // error from a missing one.
    let (mut url, mut ip, mut bytes, mut time_ms) = (None, None, None, None);
    cur.object(|cur, key| {
        match key.as_ref() {
            "url" => url = Some(string_or_skip(cur)?),
            "ip" => ip = Some(string_or_skip(cur)?),
            "bytes" => bytes = Some(number_or_skip(cur)?),
            "time_ms" => time_ms = Some(number_or_skip(cur)?),
            _ => cur.skip_value()?,
        }
        Ok::<_, ParseError>(())
    })?;
    let fail = |message: &str| ReportDecodeError::new(format!("entry {i}: {message}"));
    let string = |field: &str, value: Option<Option<Cow<'b, str>>>| match value {
        Some(Some(s)) => Ok(s),
        Some(None) => Err(fail(&format!("{field} not a string"))),
        None => Err(fail(&format!("missing {field}"))),
    };
    let url = string("url", url)?;
    let ip = string("ip", ip)?;
    // As `Value::as_u64`, then the report's own cap: a non-negative
    // integer no larger than 2^53.
    let bytes = match bytes {
        Some(Some(n)) if n >= 0.0 && n.fract() == 0.0 && n <= PerfReport::MAX_BYTES as f64 => {
            n as u64
        }
        None => return Err(fail("missing bytes")),
        _ => return Err(fail("bytes not a non-negative integer within 2^53")),
    };
    let time_ms = match time_ms {
        Some(Some(t)) if (0.0..=PerfReport::MAX_TIME_MS).contains(&t) => t,
        None => return Err(fail("missing time_ms")),
        _ => {
            return Err(fail(
                "time_ms not a finite non-negative number within bounds",
            ))
        }
    };
    Ok(ObjectTiming {
        url,
        ip,
        bytes,
        time_ms,
    })
}
