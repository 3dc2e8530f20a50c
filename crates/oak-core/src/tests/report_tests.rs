use crate::report::{DeviceClass, ObjectTiming, PerfReport};

fn sample_report() -> PerfReport {
    let mut r = PerfReport::new("u-42", "/shop/index.html");
    r.push(ObjectTiming::new(
        "http://cdn.example/app.js",
        "10.0.0.1",
        90_000,
        420.5,
    ));
    r.push(ObjectTiming::new(
        "http://ads.example/pixel.gif",
        "10.0.0.2",
        43,
        95.0,
    ));
    r
}

#[test]
fn json_roundtrip() {
    let r = sample_report();
    let decoded = PerfReport::from_json(&r.to_json()).unwrap();
    assert_eq!(decoded, r);
}

/// The device field round-trips through JSON, is omitted when unknown
/// (so device-free output is byte-identical to the pre-device encoder),
/// and rejects unrecognized class names.
#[test]
fn device_json_roundtrip() {
    for device in DeviceClass::ALL {
        let r = sample_report().with_device(device);
        let json = r.to_json();
        if device == DeviceClass::Unknown {
            assert!(!json.contains("device"), "unexpected device key: {json}");
            assert_eq!(json, sample_report().to_json());
        } else {
            assert!(json.contains(&format!("\"device\":\"{}\"", device.as_str())));
        }
        assert_eq!(PerfReport::from_json(&json).unwrap(), r);
    }

    let bad = r#"{"user":"u","page":"/p","device":"toaster","entries":[]}"#;
    let err = PerfReport::from_json(bad).unwrap_err();
    assert_eq!(
        err.to_string(),
        "bad performance report: unknown device class \"toaster\""
    );
}

/// The CLI/JSON spellings and the wire bytes both round-trip the enum.
#[test]
fn device_class_spellings() {
    for device in DeviceClass::ALL {
        assert_eq!(DeviceClass::parse(device.as_str()), Some(device));
    }
    assert_eq!(DeviceClass::parse("phone"), None);
}

#[test]
fn throughput_is_bits_per_ms() {
    let t = ObjectTiming::new("http://h/x", "1.2.3.4", 1_000, 80.0);
    // 8000 bits / 80 ms = 100 kbit/s.
    assert!((t.throughput_kbps() - 100.0).abs() < 1e-9);
}

#[test]
fn host_extraction() {
    // `host()` borrows from the URL in its original case; the analysis
    // layer folds to lowercase where domains are tracked.
    assert_eq!(
        ObjectTiming::new("http://A.Example/z", "1.1.1.1", 1, 1.0).host(),
        Some("A.Example")
    );
    assert_eq!(
        ObjectTiming::new("not a url", "1.1.1.1", 1, 1.0).host(),
        None
    );
}

#[test]
fn host_agrees_with_url_parse() {
    // The borrowed extractor must accept/reject exactly what Url::parse
    // does, and agree (case-folded) on the host when both accept.
    for url in [
        "http://a.example/z",
        "http://A.Example:8080/z?q=1#frag",
        "https://x.y.z.example",
        "http://user@host/",
        "http://host:notaport/",
        "http://:80/",
        "http:///path",
        "ftp+ssh://mixed.example/x",
        "nocolon.example/x",
        "://empty.scheme/",
        "http://sp ace.example/",
        "http://host:+80/",
        "http://host:65536/",
        "http://host:/",
        "http://host: 80/",
        "http://a:b:80/x",
        "http://host/pa th@x:y",
        "http://host?q=a@b:c",
        "http://host#f:rag@",
        "http://host:80?q#f",
        "a:b://c",
        "http:://x",
        "http//x://y",
        "x://y://z",
        "http://",
        "http:/x",
        "héllo://x",
        "http://hé.example/é",
        "HTTP://UP.Example:00080",
        "a+b-c.d://x/",
    ] {
        let timing = ObjectTiming::new(url, "1.1.1.1", 1, 1.0);
        let parsed = oak_http::Url::parse(url).ok();
        assert_eq!(
            timing.host().map(str::to_ascii_lowercase),
            parsed.map(|u| u.host().to_owned()),
            "host_of and Url::parse disagree on {url:?}"
        );
    }
}

#[test]
fn decode_rejects_missing_fields() {
    for bad in [
        r#"{}"#,
        r#"{"user":"u"}"#,
        r#"{"user":"u","page":"/"}"#,
        r#"{"user":"u","page":"/","entries":[{}]}"#,
        r#"{"user":"u","page":"/","entries":[{"url":"x","ip":"i","bytes":1}]}"#,
    ] {
        assert!(PerfReport::from_json(bad).is_err(), "{bad}");
    }
}

#[test]
fn decode_rejects_poisoned_numbers() {
    // A hostile client must not smuggle NaN/negatives into the statistics.
    let neg = r#"{"user":"u","page":"/","entries":[{"url":"x","ip":"i","bytes":1,"time_ms":-5}]}"#;
    assert!(PerfReport::from_json(neg).is_err());
    let frac_bytes =
        r#"{"user":"u","page":"/","entries":[{"url":"x","ip":"i","bytes":1.5,"time_ms":5}]}"#;
    assert!(PerfReport::from_json(frac_bytes).is_err());
}

#[test]
fn decode_rejects_bad_json() {
    assert!(PerfReport::from_json("{not json").is_err());
    assert!(PerfReport::from_json("").is_err());
}

/// Every schema error keeps the text the streaming decoder gave it, and
/// grammar errors carry the parser's message and offset.
#[test]
fn decode_errors_keep_their_text() {
    let entry = |body: &str| format!(r#"{{"user":"u","page":"/","entries":[{body}]}}"#);
    for (doc, message) in [
        (
            "".to_owned(),
            "JSON parse error at byte 0: unexpected end of input",
        ),
        (
            " \n ".to_owned(),
            "JSON parse error at byte 3: unexpected end of input",
        ),
        ("[1]".to_owned(), "missing user"),
        (r#""u""#.to_owned(), "missing user"),
        ("{}".to_owned(), "missing user"),
        (
            r#"{"user":7,"page":"/","entries":[]}"#.to_owned(),
            "missing user",
        ),
        (r#"{"user":"u","entries":[]}"#.to_owned(), "missing page"),
        (
            r#"{"user":"u","page":"/","entries":{}}"#.to_owned(),
            "missing entries",
        ),
        (
            r#"{"user":"u","page":"/","device":1,"entries":[]}"#.to_owned(),
            "device not a string",
        ),
        (entry("{}"), "entry 0: missing url"),
        (entry("[]"), "entry 0: missing url"),
        (entry("null"), "entry 0: missing url"),
        (entry(r#"{"url":1}"#), "entry 0: url not a string"),
        (entry(r#"{"url":"x"}"#), "entry 0: missing ip"),
        (entry(r#"{"url":"x","ip":[]}"#), "entry 0: ip not a string"),
        (entry(r#"{"url":"x","ip":"i"}"#), "entry 0: missing bytes"),
        (
            entry(r#"{"url":"x","ip":"i","bytes":"1"}"#),
            "entry 0: bytes not a non-negative integer within 2^53",
        ),
        (
            entry(r#"{"url":"x","ip":"i","bytes":-1,"time_ms":1}"#),
            "entry 0: bytes not a non-negative integer within 2^53",
        ),
        (
            entry(r#"{"url":"x","ip":"i","bytes":1}"#),
            "entry 0: missing time_ms",
        ),
        (
            entry(r#"{"url":"x","ip":"i","bytes":1,"time_ms":null}"#),
            "entry 0: time_ms not a finite non-negative number within bounds",
        ),
        // An entry's error is raised at its closing brace, before the
        // rest of the document is read.
        (
            r#"{"user":"u","page":"/","entries":[{"url":"x"}] garbage"#.to_owned(),
            "entry 0: missing ip",
        ),
        (
            "{\"user\":\"u\",\"page\":\"/\",\"entries\":[] garbage".to_owned(),
            "JSON parse error at byte 36: expected ',' or '}' in object",
        ),
        (
            r#"{"user":"u","page":"/","entries":[]"#.to_owned(),
            "JSON parse error at byte 35: expected ',' or '}' in object",
        ),
        (
            r#"{"user":"u","page":"/","x":[1,],"entries":[]}"#.to_owned(),
            "JSON parse error at byte 30: unexpected byte 0x5d",
        ),
    ] {
        let err = PerfReport::from_json(&doc).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("bad performance report: {message}"),
            "{doc}"
        );
        assert_eq!(PerfReport::decode_json(doc.as_bytes()).unwrap_err(), err);
    }
    let err = PerfReport::decode_json(b"{\"user\":\"\xff\"}").unwrap_err();
    assert_eq!(
        err.to_string(),
        "bad performance report: report body is not valid UTF-8"
    );
}

/// Unknown keys are skipped with their grammar and depth checked: a
/// nesting bomb under one is refused, not a stack overflow.
#[test]
fn nesting_bomb_under_an_unknown_key_is_refused() {
    let body = format!(
        r#"{{"user":"u","page":"/","junk":{}}}"#,
        "[".repeat(100_000)
    );
    let err = PerfReport::decode_json(body.as_bytes()).unwrap_err();
    assert!(
        err.to_string().ends_with("document nested too deeply"),
        "{err}"
    );
}

#[test]
fn wire_size_tracks_entry_count() {
    // Fig. 15's premise: report size grows with objects fetched.
    let mut small = PerfReport::new("u", "/");
    let mut large = PerfReport::new("u", "/");
    for i in 0..5 {
        small.push(ObjectTiming::new(
            format!("http://h/{i}"),
            "1.1.1.1",
            100,
            10.0,
        ));
    }
    for i in 0..200 {
        large.push(ObjectTiming::new(
            format!("http://h/{i}"),
            "1.1.1.1",
            100,
            10.0,
        ));
    }
    assert!(large.wire_size() > small.wire_size() * 10);
}

/// Reports written the way no encoder of ours writes them, for checking
/// that every decode of one report agrees.
mod messy {
    use proptest::rng::TestRng;

    use crate::report::{DeviceClass, ObjectTiming, PerfReport};

    const SPACE: [&str; 5] = ["", " ", "\n", "\t ", "\r\n  "];

    /// Values for unknown keys and for decoys that a later duplicate
    /// key overrides — so no array holds anything: a decoy `entries`
    /// is decoded, and must decode.
    const JUNK: [&str; 7] = [
        "null",
        "true",
        "-0.5e3",
        r#""sk\u00eep""#,
        "[]",
        r#"{"a":[1,{"b":[null,"\\"]}],"c":{}}"#,
        r#"{"e":[[[{"d":false}]], 12345678901234567890]}"#,
    ];

    /// Characters strings are drawn from: multibyte ones, and ones JSON
    /// must escape.
    const CHARS: [&str; 8] = ["a", "Z", "/", "é", "🦀", "\"", "\\", "\n"];

    fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
        from[rng.in_range(0, from.len())]
    }

    fn text(rng: &mut TestRng, most: usize) -> String {
        (0..rng.in_range(0, most + 1))
            .map(|_| pick(rng, &CHARS))
            .collect()
    }

    /// A report with escapes wanted in user, page, url and ip, uppercase
    /// hosts, and servers shared between entries.
    pub(super) fn report(rng: &mut TestRng) -> PerfReport {
        let device = DeviceClass::ALL[rng.in_range(0, DeviceClass::ALL.len())];
        let mut report =
            PerfReport::new(text(rng, 6), format!("/{}", text(rng, 6))).with_device(device);
        for _ in 0..rng.in_range(0, 9) {
            let host = pick(
                rng,
                &["cdn.example", "CDN.Example", "img.example", "A.b.example"],
            );
            let scale = [1.0, 1e3, 1e7][rng.in_range(0, 3)];
            report.push(ObjectTiming::new(
                format!("http://{host}/{}", text(rng, 4)),
                format!("10.0.0.{}{}", rng.in_range(1, 4), text(rng, 1)),
                rng.below(PerfReport::MAX_BYTES + 1),
                (rng.unit_f64() * scale).min(PerfReport::MAX_TIME_MS),
            ));
        }
        report
    }

    fn string(rng: &mut TestRng, s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                // Now and then, a character JSON does not require escaped.
                c if rng.chance(1, 8) => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn number(rng: &mut TestRng, n: f64) -> String {
        if rng.chance(1, 4) {
            format!("{n:e}")
        } else {
            oak_json::Value::Number(n).to_string()
        }
    }

    /// An object of `members` in any order, with whitespace anywhere,
    /// unknown keys, and decoys ahead of real keys.
    fn object(rng: &mut TestRng, members: Vec<(&str, String)>) -> String {
        let mut members: Vec<(String, String)> = members
            .into_iter()
            .map(|(key, value)| (string(rng, key), value))
            .collect();
        for i in (1..members.len()).rev() {
            members.swap(i, rng.in_range(0, i + 1));
        }
        for _ in 0..rng.in_range(0, 3) {
            let junk = pick(rng, &JUNK).to_owned();
            if !members.is_empty() && rng.chance(1, 2) {
                // First, so the real member after it wins.
                let key = members[rng.in_range(0, members.len())].0.clone();
                members.insert(0, (key, junk));
            } else {
                let key = string(rng, "x-unknown");
                members.insert(rng.in_range(0, members.len() + 1), (key, junk));
            }
        }
        let mut out = format!("{{{}", pick(rng, &SPACE));
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ws: Vec<&str> = (0..3).map(|_| pick(rng, &SPACE)).collect();
            out.push_str(&format!("{}{key}{}:{}{value}", ws[0], ws[1], ws[2]));
        }
        out.push_str(pick(rng, &SPACE));
        out.push('}');
        out
    }

    /// `report` as messy JSON, and for each string the decoder returns —
    /// `user`, `page`, then each entry's `url` and `ip` — whether its
    /// token holds an escape.
    pub(super) fn json(rng: &mut TestRng, report: &PerfReport) -> (String, Vec<bool>) {
        let mut escaped = Vec::new();
        let mut token = |rng: &mut TestRng, s: &str| {
            let token = string(rng, s);
            escaped.push(token.contains('\\'));
            token
        };
        let mut members = vec![
            ("user", token(rng, &report.user)),
            ("page", token(rng, &report.page)),
        ];
        let mut entries = Vec::new();
        for e in &report.entries {
            let fields = vec![
                ("url", token(rng, &e.url)),
                ("ip", token(rng, &e.ip)),
                ("bytes", number(rng, e.bytes as f64)),
                ("time_ms", number(rng, e.time_ms)),
            ];
            entries.push(object(rng, fields));
        }
        let space = pick(rng, &SPACE);
        members.push(("entries", format!("[{space}{}]", entries.join(","))));
        if report.device != DeviceClass::Unknown {
            members.push(("device", string(rng, report.device.as_str())));
        }
        (object(rng, members), escaped)
    }
}

mod properties {
    use std::borrow::Cow;

    use super::*;
    use crate::analysis::PageAnalysis;
    use crate::wire;
    use proptest::prelude::*;
    use proptest::rng::TestRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One report, three decodes: where it lies in messy JSON, owned
        /// from the same text, and from its binary frame. Every string
        /// without an escape comes back borrowed.
        #[test]
        fn one_decoder_three_forms_agree(seed in any::<u64>()) {
            let mut rng = TestRng::for_case(seed, 0);
            let report = messy::report(&mut rng);
            let (text, escaped) = messy::json(&mut rng, &report);
            let borrowed = PerfReport::decode_json(text.as_bytes()).expect(&text);
            let owned: Vec<bool> = [&borrowed.user, &borrowed.page]
                .into_iter()
                .chain(borrowed.entries.iter().flat_map(|e| [&e.url, &e.ip]))
                .map(|s| matches!(s, Cow::Owned(_)))
                .collect();
            prop_assert_eq!(owned, escaped, "{}", text);
            prop_assert_eq!(
                PageAnalysis::from_report(&borrowed),
                PageAnalysis::from_report(&report)
            );
            prop_assert_eq!(&borrowed.into_owned(), &report, "{}", text);
            prop_assert_eq!(&PerfReport::from_json(&text).expect(&text), &report);
            let frame = report.to_binary();
            let from_frame = wire::decode(&frame).expect("own frame decodes");
            prop_assert!(from_frame.entries.iter().all(|e| {
                matches!((&e.url, &e.ip), (Cow::Borrowed(_), Cow::Borrowed(_)))
            }));
            prop_assert_eq!(from_frame.into_owned(), report);
        }
    }

    proptest! {
        /// Serialize → decode is the identity for valid reports.
        #[test]
        fn report_roundtrip(
            user in "[a-z0-9-]{1,12}",
            page in "/[a-z0-9/]{0,20}",
            entries in prop::collection::vec(
                ("[a-z:/.]{1,30}", "[0-9.]{7,15}", any::<u32>(), 0.0f64..1e7),
                0..20,
            ),
        ) {
            let mut r = PerfReport::new(user, page);
            for (url, ip, bytes, time) in entries {
                r.push(ObjectTiming::new(url, ip, u64::from(bytes), time));
            }
            prop_assert_eq!(PerfReport::from_json(&r.to_json()).unwrap(), r);
        }

        /// Neither decoder panics on arbitrary input.
        #[test]
        fn decode_is_total(
            text in "\\PC{0,128}",
            bytes in prop::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = PerfReport::decode_json(text.as_bytes());
            let _ = wire::decode(&bytes);
        }
    }
}
