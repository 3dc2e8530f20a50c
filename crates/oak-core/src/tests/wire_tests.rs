//! The binary wire format: round-trip equivalence with JSON and the
//! hostile-frame suite (truncation, lying lengths, bombs — error, never
//! panic, never over-allocate).

use proptest::prelude::*;

use crate::report::{DeviceClass, ObjectTiming, PerfReport};
use crate::wire;

/// Strategy: any device class, including `Unknown` (which exercises the
/// v1-frame emission path in the encoder).
fn any_device() -> impl Strategy<Value = DeviceClass> {
    (0usize..DeviceClass::ALL.len()).prop_map(|i| DeviceClass::ALL[i])
}

/// Strategy: a report whose every field is within bounds, with printable
/// unicode strings (`\PC` mixes in multi-byte characters) and
/// integer-valued times (so the JSON decimal round-trip is exact and
/// `==` comparison is meaningful).
fn valid_report() -> impl Strategy<Value = PerfReport> {
    let text = || "\\PC{0,12}";
    let entry = (
        text(),
        // At most 4 bytes a character: within `MAX_IP_BYTES`.
        "\\PC{0,11}",
        0u64..PerfReport::MAX_BYTES + 1,
        0u64..32_000_000_001,
    );
    (
        text(),
        text(),
        any_device(),
        prop::collection::vec(entry, 0..6),
    )
        .prop_map(|(user, page, device, entries)| {
            let mut report = PerfReport::new(user, page).with_device(device);
            for (url, ip, bytes, time) in entries {
                report.push(ObjectTiming::new(url, ip, bytes, time as f64));
            }
            report
        })
}

/// LEB128, mirroring the encoder, for hand-crafting hostile frames.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return out;
        }
        out.push(byte | 0x80);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// decode ∘ encode is the identity on valid reports.
    #[test]
    fn binary_round_trips(report in valid_report()) {
        let decoded = PerfReport::from_binary(&report.to_binary()).expect("valid round trip");
        prop_assert_eq!(decoded, report);
    }

    /// The two wire formats decode to the same report — JSON and binary
    /// clients are indistinguishable past the decoder.
    #[test]
    fn json_and_binary_agree(report in valid_report()) {
        let via_json = PerfReport::from_json(&report.to_json()).expect("json round trip");
        let via_binary = PerfReport::from_binary(&report.to_binary()).expect("binary round trip");
        prop_assert_eq!(&via_json, &via_binary);
        prop_assert_eq!(via_json, report);
    }

    /// Every strict prefix of a valid frame is an error — truncation can
    /// never produce a report, and never panics.
    #[test]
    fn every_truncation_errors(report in valid_report()) {
        let frame = report.to_binary();
        for len in 0..frame.len() {
            prop_assert!(PerfReport::from_binary(&frame[..len]).is_err());
        }
    }
}

/// Bound violations produce the *same* error text on both wire formats,
/// so a client debugging a rejection sees one vocabulary.
#[test]
fn bounds_rejected_identically() {
    // Too many entries.
    let mut big = PerfReport::new("u", "/p");
    for _ in 0..=PerfReport::MAX_ENTRIES {
        big.push(ObjectTiming::new("http://h.example/o", "10.0.0.1", 1, 1.0));
    }
    let json_err = PerfReport::from_json(&big.to_json()).unwrap_err();
    let bin_err = PerfReport::from_binary(&big.to_binary()).unwrap_err();
    assert_eq!(json_err.to_string(), bin_err.to_string());
    assert!(json_err.to_string().contains("entries exceed"));

    // Object bytes past 2^53 (1 << 60 is exactly representable in both
    // a JSON double and a varint, so the two decoders see one value).
    let mut fat = PerfReport::new("u", "/p");
    fat.push(ObjectTiming::new(
        "http://h.example/o",
        "10.0.0.1",
        1 << 60,
        1.0,
    ));
    let json_err = PerfReport::from_json(&fat.to_json()).unwrap_err();
    let bin_err = PerfReport::from_binary(&fat.to_binary()).unwrap_err();
    assert_eq!(json_err.to_string(), bin_err.to_string());
    assert_eq!(
        json_err.to_string(),
        "bad performance report: entry 0: bytes not a non-negative integer within 2^53"
    );

    // An ip past the longest IPv6 text form; that form itself passes.
    let longest = "ffff:ffff:ffff:ffff:ffff:ffff:255.255.255.255";
    assert_eq!(longest.len(), PerfReport::MAX_IP_BYTES);
    let mut named = PerfReport::new("u", "/p");
    named.push(ObjectTiming::new("http://h.example/o", longest, 1, 1.0));
    assert_eq!(PerfReport::from_json(&named.to_json()).unwrap(), named);
    assert_eq!(PerfReport::from_binary(&named.to_binary()).unwrap(), named);
    named.entries[0].ip = format!("{longest}0");
    let json_err = PerfReport::from_json(&named.to_json()).unwrap_err();
    let bin_err = PerfReport::from_binary(&named.to_binary()).unwrap_err();
    assert_eq!(json_err.to_string(), bin_err.to_string());
    assert_eq!(
        json_err.to_string(),
        "bad performance report: entry 0: ip longer than 45 bytes"
    );

    // Time out of range.
    let mut slow = PerfReport::new("u", "/p");
    slow.push(ObjectTiming::new(
        "http://h.example/o",
        "10.0.0.1",
        1,
        PerfReport::MAX_TIME_MS * 2.0,
    ));
    let json_err = PerfReport::from_json(&slow.to_json()).unwrap_err();
    let bin_err = PerfReport::from_binary(&slow.to_binary()).unwrap_err();
    assert_eq!(json_err.to_string(), bin_err.to_string());
    assert_eq!(
        json_err.to_string(),
        "bad performance report: entry 0: time_ms not a finite non-negative number within bounds"
    );
}

#[test]
fn rejects_wrong_version() {
    let err = PerfReport::from_binary(&[0x03]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "bad performance report: unsupported wire version 0x03 (expected 0x01 or 0x02)"
    );
    assert!(PerfReport::from_binary(&[]).is_err());
}

/// A v1 frame — no device byte — decodes with the `Unknown` cohort, so
/// pre-device clients keep working against a v2 decoder.
#[test]
fn v1_frames_decode_as_unknown_device() {
    let mut frame = vec![wire::WIRE_VERSION_V1];
    frame.extend(varint(1));
    frame.push(b'u');
    frame.extend(varint(2));
    frame.extend(b"/p");
    frame.extend(varint(0)); // no entries
    let report = PerfReport::from_binary(&frame).expect("v1 frame decodes");
    assert_eq!(report.device, DeviceClass::Unknown);
    assert_eq!(report.user, "u");
}

/// The encoder downgrades device-free reports to the v1 layout — the
/// frame is byte-identical to what a pre-device encoder produced.
#[test]
fn unknown_device_emits_v1_frames() {
    let report = PerfReport::new("u", "/p");
    assert_eq!(report.device, DeviceClass::Unknown);
    let frame = report.to_binary();
    assert_eq!(frame[0], wire::WIRE_VERSION_V1);

    let hinted = PerfReport::new("u", "/p").with_device(DeviceClass::MidMobile);
    let hinted_frame = hinted.to_binary();
    assert_eq!(hinted_frame[0], wire::WIRE_VERSION);
    assert_eq!(hinted_frame.len(), frame.len() + 1);
}

/// A v2 frame cut off right at the device byte is a truncation error.
#[test]
fn rejects_v2_frame_truncated_at_device() {
    let err = PerfReport::from_binary(&[wire::WIRE_VERSION]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "bad performance report: frame truncated reading device at byte 1"
    );
}

/// Device bytes past the known classes are rejected, not aliased.
#[test]
fn rejects_unknown_device_byte() {
    for byte in [0x04u8, 0x7f, 0xff] {
        let err = PerfReport::from_binary(&[wire::WIRE_VERSION, byte]).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("bad performance report: unknown device class 0x{byte:02x}")
        );
    }
}

#[test]
fn rejects_lying_length_prefix() {
    // Claims a 200-byte user name; only 2 bytes follow.
    let mut frame = vec![wire::WIRE_VERSION, 0x02];
    frame.extend(varint(200));
    frame.extend(b"hi");
    let err = PerfReport::from_binary(&frame).unwrap_err();
    assert!(
        err.to_string().contains("exceeds the"),
        "unexpected error: {err}"
    );
}

#[test]
fn rejects_non_utf8_strings() {
    let mut frame = vec![wire::WIRE_VERSION, 0x02];
    frame.extend(varint(2));
    frame.extend([0xff, 0xfe]);
    let err = PerfReport::from_binary(&frame).unwrap_err();
    assert_eq!(
        err.to_string(),
        "bad performance report: user is not valid UTF-8"
    );
}

/// An entry-count bomb: the header claims the maximum entry count with an
/// empty body. Must fail fast on the missing first entry — and the
/// decoder's capacity clamp means the claimed count never sizes an
/// allocation the remaining bytes couldn't justify.
#[test]
fn rejects_entry_count_bomb() {
    let mut frame = vec![wire::WIRE_VERSION, 0x02];
    frame.extend(varint(0)); // user ""
    frame.extend(varint(0)); // page ""
    frame.extend(varint(PerfReport::MAX_ENTRIES as u64));
    let err = PerfReport::from_binary(&frame).unwrap_err();
    assert!(
        err.to_string().contains("truncated"),
        "unexpected error: {err}"
    );

    // Over the limit entirely: same message as the JSON bound.
    let mut frame = vec![wire::WIRE_VERSION, 0x02];
    frame.extend(varint(0));
    frame.extend(varint(0));
    frame.extend(varint(PerfReport::MAX_ENTRIES as u64 + 1));
    let err = PerfReport::from_binary(&frame).unwrap_err();
    assert_eq!(
        err.to_string(),
        "bad performance report: 10001 entries exceed the 10000 limit"
    );
}

#[test]
fn rejects_varint_overflow() {
    let mut frame = vec![wire::WIRE_VERSION, 0x02];
    frame.extend([0xff; 10]); // user-length varint with bits past u64
    assert!(PerfReport::from_binary(&frame).is_err());
}

#[test]
fn rejects_trailing_bytes() {
    let mut frame = PerfReport::new("u", "/p").to_binary();
    frame.push(0x00);
    let err = PerfReport::from_binary(&frame).unwrap_err();
    assert_eq!(
        err.to_string(),
        "bad performance report: 1 trailing bytes after the last entry"
    );
}

#[test]
fn binary_is_smaller_than_json() {
    let mut report = PerfReport::new("u-1", "/index.html");
    for i in 0..50 {
        report.push(ObjectTiming::new(
            format!("http://cdn{i}.example/asset-{i}.js"),
            format!("10.0.0.{i}"),
            10_000 + i,
            120.0,
        ));
    }
    assert!(report.to_binary().len() < report.to_json().len());
}
