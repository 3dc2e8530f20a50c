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

mod properties {
    use super::*;
    use proptest::prelude::*;

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

        /// from_json never panics on arbitrary input.
        #[test]
        fn decode_is_total(text in "\\PC{0,128}") {
            let _ = PerfReport::from_json(&text);
        }
    }
}
