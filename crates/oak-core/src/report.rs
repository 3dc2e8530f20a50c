//! Client performance reports.
//!
//! "This report contains information on which external servers the client
//! communicated with, the size of the objects loaded from each of those
//! servers, and download times for each loaded object" (§4). The
//! implementation section adds that reports use HAR-style infrastructure
//! but carry "only a limited set of fields: the loaded URL, the size of
//! the loaded object, and the timing information of that object" (§5) —
//! deliberately small, since Fig. 15 sizes the median report under 10 KB.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use oak_json::{Event, ParseError, Scanner, Value};

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
pub struct ObjectTiming {
    /// The loaded URL.
    pub url: String,
    /// The server IP the client ultimately connected to (dotted quad).
    /// This is the grouping key for analysis (§4.2).
    pub ip: String,
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
        oak_http::host_of(&self.url)
    }
}

/// A complete report for one page load by one user.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfReport {
    /// The reporting user's Oak cookie value.
    pub user: String,
    /// The page path the report describes.
    pub page: String,
    /// The reporting device's cohort hint. [`DeviceClass::Unknown`] for
    /// encodings that predate the field; serialization omits it in that
    /// case, so device-free reports are byte-identical to the old format.
    pub device: DeviceClass,
    /// Per-object measurements.
    pub entries: Vec<ObjectTiming>,
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

    /// Sets the device-cohort hint, builder style.
    pub fn with_device(mut self, device: DeviceClass) -> PerfReport {
        self.device = device;
        self
    }

    /// Appends a measurement.
    pub fn push(&mut self, entry: ObjectTiming) {
        self.entries.push(entry);
    }

    /// Serializes to the JSON wire format clients POST.
    pub fn to_json(&self) -> String {
        let mut doc = Value::object();
        doc.set("user", self.user.as_str());
        doc.set("page", self.page.as_str());
        // Omitted for Unknown: a device-free report serializes exactly as
        // it did before the field existed.
        if self.device != DeviceClass::Unknown {
            doc.set("device", self.device.as_str());
        }
        let mut entries = Value::array();
        for e in &self.entries {
            let mut obj = Value::object();
            obj.set("url", e.url.as_str());
            obj.set("ip", e.ip.as_str());
            obj.set("bytes", e.bytes);
            obj.set("time_ms", e.time_ms);
            entries.push(obj);
        }
        doc.set("entries", entries);
        doc.to_string()
    }

    /// Decodes the JSON wire format.
    ///
    /// Implemented over the streaming [`Scanner`] rather than a
    /// [`Value`] tree: keys and escape-free strings are borrowed from
    /// the input and compared where they lie, so a well-formed report
    /// allocates its `user` and `page`, the entry vector, and the `url`
    /// and `ip` of each entry — nothing per key, nothing per number.
    ///
    /// # Errors
    ///
    /// Returns [`ReportDecodeError`] on JSON errors, missing fields,
    /// non-finite/negative numbers (a hostile client must not be able to
    /// poison the MAD statistics with NaN), values beyond
    /// [`PerfReport::MAX_BYTES`]/[`PerfReport::MAX_TIME_MS`], or more
    /// than [`PerfReport::MAX_ENTRIES`] entries.
    pub fn from_json(text: &str) -> Result<PerfReport, ReportDecodeError> {
        let mut scanner = Scanner::new(text);
        let mut user: Option<String> = None;
        let mut page: Option<String> = None;
        // `Some(None)` marks a `device` key whose value was not a string
        // — distinct from an absent key, which is simply Unknown.
        let mut device: Option<Option<String>> = None;
        let mut entries: Option<Vec<ObjectTiming>> = None;
        match next(&mut scanner)? {
            Some(Event::ObjectStart) => {}
            // Any other well-formed document has no fields at all.
            Some(_) => {
                scanner.skip_value().ok();
                return Err(ReportDecodeError("missing user".into()));
            }
            None => return Err(ReportDecodeError("empty report".into())),
        }
        loop {
            match next(&mut scanner)? {
                Some(Event::Key(key)) => match key.as_ref() {
                    // Duplicate keys behave like the old tree parser:
                    // the last occurrence wins, whatever its type.
                    "user" => user = scan_string_value(&mut scanner)?,
                    "page" => page = scan_string_value(&mut scanner)?,
                    "device" => device = Some(scan_string_value(&mut scanner)?),
                    "entries" => entries = scan_entries(&mut scanner)?,
                    _ => scanner
                        .skip_value()
                        .map_err(|e| ReportDecodeError(e.to_string()))?,
                },
                Some(Event::ObjectEnd) => break,
                _ => return Err(ReportDecodeError("malformed report object".into())),
            }
        }
        // Rejects trailing garbage, exactly as the tree parser does.
        next(&mut scanner)?;
        let user = user.ok_or_else(|| ReportDecodeError("missing user".into()))?;
        let page = page.ok_or_else(|| ReportDecodeError("missing page".into()))?;
        let entries = entries.ok_or_else(|| ReportDecodeError("missing entries".into()))?;
        let device = match device {
            None => DeviceClass::Unknown,
            Some(Some(name)) => DeviceClass::parse(&name)
                .ok_or_else(|| ReportDecodeError(format!("unknown device class {name:?}")))?,
            Some(None) => return Err(ReportDecodeError("device not a string".into())),
        };
        Ok(PerfReport {
            user,
            page,
            device,
            entries,
        })
    }

    /// Decodes a JSON report straight from request-body bytes, without
    /// the lossy UTF-8 copy the server used to make.
    ///
    /// # Errors
    ///
    /// As [`PerfReport::from_json`], plus invalid UTF-8 is rejected
    /// outright (previously it was silently replaced with U+FFFD).
    pub fn from_json_bytes(body: &[u8]) -> Result<PerfReport, ReportDecodeError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ReportDecodeError("report body is not valid UTF-8".into()))?;
        PerfReport::from_json(text)
    }

    /// Encodes into the binary wire format (`application/x-oak-report`).
    pub fn to_binary(&self) -> Vec<u8> {
        crate::wire::encode(self)
    }

    /// Decodes the binary wire format; see [`crate::wire`].
    ///
    /// # Errors
    ///
    /// Returns [`ReportDecodeError`] on malformed frames or any value
    /// [`PerfReport::from_json`] would reject.
    pub fn from_binary(bytes: &[u8]) -> Result<PerfReport, ReportDecodeError> {
        crate::wire::decode(bytes)
    }

    /// Serialized size in bytes — the quantity Fig. 15 distributes.
    pub fn wire_size(&self) -> usize {
        self.to_json().len()
    }
}

/// Pulls one event, converting parse errors.
fn next<'a>(scanner: &mut Scanner<'a>) -> Result<Option<Event<'a>>, ReportDecodeError> {
    scanner
        .next_event()
        .map_err(|e: ParseError| ReportDecodeError(e.to_string()))
}

/// Reads one value in value position; container values are consumed to
/// their matching end so the scanner stays aligned.
fn next_value<'a>(scanner: &mut Scanner<'a>) -> Result<Event<'a>, ReportDecodeError> {
    let event = next(scanner)?.ok_or_else(|| ReportDecodeError("truncated report".into()))?;
    if matches!(event, Event::ObjectStart | Event::ArrayStart) {
        skip_open_container(scanner)?;
    }
    Ok(event)
}

/// Consumes a container whose opening bracket was already read.
fn skip_open_container(scanner: &mut Scanner<'_>) -> Result<(), ReportDecodeError> {
    let mut depth = 1usize;
    loop {
        match next(scanner)? {
            Some(Event::ObjectStart | Event::ArrayStart) => depth += 1,
            Some(Event::ObjectEnd | Event::ArrayEnd) => {
                depth -= 1;
                if depth == 0 {
                    return Ok(());
                }
            }
            Some(_) => {}
            None => return Err(ReportDecodeError("truncated report".into())),
        }
    }
}

/// A string field value, or `None` if the value has another type (which
/// surfaces later as the field's "missing" error, like the tree parser).
fn scan_string_value(scanner: &mut Scanner<'_>) -> Result<Option<String>, ReportDecodeError> {
    match next_value(scanner)? {
        Event::Str(s) => Ok(Some(s.into_owned())),
        _ => Ok(None),
    }
}

/// The `entries` array, or `None` when the value is not an array.
fn scan_entries(scanner: &mut Scanner<'_>) -> Result<Option<Vec<ObjectTiming>>, ReportDecodeError> {
    match next(scanner)?.ok_or_else(|| ReportDecodeError("truncated report".into()))? {
        Event::ArrayStart => {}
        Event::ObjectStart => {
            skip_open_container(scanner)?;
            return Ok(None);
        }
        _ => return Ok(None),
    }
    let mut entries = Vec::new();
    loop {
        match next(scanner)?.ok_or_else(|| ReportDecodeError("truncated report".into()))? {
            Event::ArrayEnd => return Ok(Some(entries)),
            Event::ObjectStart => {
                let i = entries.len();
                if i >= PerfReport::MAX_ENTRIES {
                    // Count the rest so the error names the real total.
                    skip_open_container(scanner)?;
                    let mut total = i + 1;
                    loop {
                        match next(scanner)?
                            .ok_or_else(|| ReportDecodeError("truncated report".into()))?
                        {
                            Event::ArrayEnd => break,
                            Event::ObjectStart | Event::ArrayStart => {
                                skip_open_container(scanner)?;
                                total += 1;
                            }
                            _ => total += 1,
                        }
                    }
                    return Err(ReportDecodeError(format!(
                        "{total} entries exceed the {} limit",
                        PerfReport::MAX_ENTRIES
                    )));
                }
                entries.push(scan_entry(scanner, i)?);
            }
            Event::ArrayStart => {
                // A non-object entry has no fields at all.
                skip_open_container(scanner)?;
                return Err(ReportDecodeError(format!(
                    "entry {}: missing url",
                    entries.len()
                )));
            }
            _ => {
                return Err(ReportDecodeError(format!(
                    "entry {}: missing url",
                    entries.len()
                )))
            }
        }
    }
}

/// One entry object (its `{` already consumed), validated field-by-field
/// with the same bounds and error text as the binary decoder.
fn scan_entry(scanner: &mut Scanner<'_>, i: usize) -> Result<ObjectTiming, ReportDecodeError> {
    // `Some(value)` once seen with the right type; `bad` marks a field
    // present with the wrong type (distinct error from "missing").
    let mut url: (Option<Cow<'_, str>>, bool) = (None, false);
    let mut ip: (Option<Cow<'_, str>>, bool) = (None, false);
    let mut bytes: (Option<f64>, bool) = (None, false);
    let mut time_ms: (Option<f64>, bool) = (None, false);
    loop {
        match next(scanner)?.ok_or_else(|| ReportDecodeError("truncated report".into()))? {
            Event::ObjectEnd => break,
            Event::Key(key) => {
                // The key borrows the request body, not the scanner: it
                // is compared where it lies, once its value is read.
                let value = next_value(scanner)?;
                match key.as_ref() {
                    "url" => {
                        url = match value {
                            Event::Str(s) => (Some(s), false),
                            _ => (None, true),
                        }
                    }
                    "ip" => {
                        ip = match value {
                            Event::Str(s) => (Some(s), false),
                            _ => (None, true),
                        }
                    }
                    "bytes" => {
                        bytes = match value {
                            Event::Number(n) => (Some(n), false),
                            _ => (None, true),
                        }
                    }
                    "time_ms" => {
                        time_ms = match value {
                            Event::Number(n) => (Some(n), false),
                            _ => (None, true),
                        }
                    }
                    _ => {}
                }
            }
            _ => return Err(ReportDecodeError("malformed entry object".into())),
        }
    }
    let require = |field: &str, pair: &(Option<Cow<'_, str>>, bool)| match pair {
        (Some(_), _) => Ok(()),
        (None, true) => Err(ReportDecodeError(format!(
            "entry {i}: {field} not a string"
        ))),
        (None, false) => Err(ReportDecodeError(format!("entry {i}: missing {field}"))),
    };
    require("url", &url)?;
    require("ip", &ip)?;
    // Mirrors `Value::as_u64`: a non-negative integer representable
    // exactly in an f64, then the report's own cap.
    let object_bytes = match bytes {
        (Some(n), _) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => {
            let b = n as u64;
            if b > PerfReport::MAX_BYTES {
                return Err(ReportDecodeError(format!(
                    "entry {i}: bytes not a non-negative integer within 2^53"
                )));
            }
            b
        }
        (None, false) => return Err(ReportDecodeError(format!("entry {i}: missing bytes"))),
        _ => {
            return Err(ReportDecodeError(format!(
                "entry {i}: bytes not a non-negative integer within 2^53"
            )))
        }
    };
    let time = match time_ms {
        (Some(t), _) if t.is_finite() && (0.0..=PerfReport::MAX_TIME_MS).contains(&t) => t,
        (None, false) => return Err(ReportDecodeError(format!("entry {i}: missing time_ms"))),
        _ => {
            return Err(ReportDecodeError(format!(
                "entry {i}: time_ms not a finite non-negative number within bounds"
            )))
        }
    };
    Ok(ObjectTiming::new(
        url.0.expect("validated above").into_owned(),
        ip.0.expect("validated above").into_owned(),
        object_bytes,
        time,
    ))
}
