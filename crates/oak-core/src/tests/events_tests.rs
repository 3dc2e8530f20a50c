//! The event byte layout: canonical round trips over every variant, the
//! hostile-payload suite (truncation, bit flips, lying counts — error,
//! never panic, never over-allocate) and a golden file that makes a
//! layout change a deliberate re-bless.
//!
//! Regenerate the golden file after an intentional layout change with
//! `OAK_BLESS=1 cargo test -p oak-core golden`.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use super::peak_alloc_during;
use crate::aggregates::ServerFold;
use crate::engine::{LogAction, LogEvent};
use crate::events::{EngineEvent, IngestEffect, SequencedEvent, EVENT_HEADER_LEN, EVENT_VERSION};
use crate::rule::{Rule, RuleId, SelectionPolicy};
use crate::time::Instant;

/// Strategy: every `f64` there is, by its bits — NaN payloads included —
/// with the values a decimal codec gets wrong mixed in.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
        Just(f64::from_bits(0xFFF0_0000_0000_0001)),
        0.0f64..60_000.0,
    ]
}

/// Strategy: sequence numbers and epochs, edges first.
fn any_seq() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]
}

/// Strategy: a user or host name — empty, ASCII or multi-byte.
fn name() -> impl Strategy<Value = String> {
    prop_oneof![Just(String::new()), "\\PC{0,12}", "u-[0-9]{1,5}"]
}

fn fold() -> impl Strategy<Value = ServerFold> {
    // Mostly a handful of samples; sometimes the 1,000 a large page has.
    let samples = || {
        prop_oneof![
            prop::collection::vec(any_f64(), 0..6),
            prop::collection::vec(any_f64(), 1_000..1_001),
        ]
    };
    (
        prop::collection::vec(name(), 0..3),
        (any::<u64>(), any::<u64>(), any::<bool>()),
        samples(),
        samples(),
    )
        .prop_map(
            |(domains, (objects, bytes, violated), small_times_ms, large_tputs_kbps)| ServerFold {
                domains: domains.into_iter().map(Arc::from).collect(),
                objects,
                bytes,
                small_times_ms,
                large_tputs_kbps,
                violated,
            },
        )
}

fn log_event() -> impl Strategy<Value = LogEvent> {
    let action = prop_oneof![
        (name(), any_f64()).prop_map(|(violator_ip, severity)| LogAction::Activated {
            violator_ip,
            severity,
        }),
        any::<usize>().prop_map(|to_index| LogAction::Advanced { to_index }),
        Just(LogAction::Deactivated),
        Just(LogAction::Expired),
    ];
    (any::<u64>(), name(), any::<u32>(), action).prop_map(|(time, user, rule, action)| LogEvent {
        time: Instant(time),
        user,
        rule: RuleId(rule),
        action,
    })
}

fn rule() -> impl Strategy<Value = Rule> {
    (
        "[ -~]{1,24}",
        prop::collection::vec("[ -~]{1,24}", 0..3),
        prop::option::of(1u64..1_000_000),
        (1u32..4, any::<bool>()),
    )
        .prop_map(
            |(default_text, alternatives, ttl, (violations, user_hash))| {
                // An alternative containing the default text is the one
                // shape validation rejects.
                let alternatives: Vec<String> = alternatives
                    .into_iter()
                    .filter(|alt| !alt.contains(&default_text))
                    .collect();
                let rule = if alternatives.is_empty() {
                    Rule::remove(default_text)
                } else {
                    Rule::replace_identical(default_text, alternatives)
                };
                let rule = rule
                    .with_ttl_ms(ttl)
                    .with_violations_required(violations)
                    .with_sub_rule("find \"me\"", "replace\nme");
                if user_hash {
                    rule.with_selection(SelectionPolicy::UserHash)
                } else {
                    rule
                }
            },
        )
}

/// Strategy: all seven variants, equally likely.
fn engine_event() -> impl Strategy<Value = EngineEvent> {
    let ingest = (
        (any::<u64>(), name()),
        // Empty, a page's worth, or 1,000 folds.
        prop_oneof![
            prop::collection::vec(fold(), 0..4),
            prop::collection::vec(
                Just(ServerFold {
                    domains: vec![Arc::from("cdn.example")],
                    objects: 1,
                    bytes: 30_000,
                    small_times_ms: vec![81.5],
                    large_tputs_kbps: Vec::new(),
                    violated: false,
                }),
                1_000..1_001,
            ),
        ],
        prop::collection::vec(any::<u32>().prop_map(RuleId), 0..4),
        prop::collection::vec((any::<u64>(), log_event()), 0..4),
    )
        .prop_map(|((time, user), folds, pending, records)| {
            EngineEvent::Ingest(IngestEffect {
                time: Instant(time),
                user,
                folds,
                pending,
                records,
            })
        });
    prop_oneof![
        (any::<u32>(), rule()).prop_map(|(id, rule)| EngineEvent::RuleAdded {
            id: RuleId(id),
            rule,
        }),
        any::<u32>().prop_map(|id| EngineEvent::RuleRemoved { id: RuleId(id) }),
        ingest,
        (any::<u64>(), name(), any::<u32>()).prop_map(|(time, user, rule)| {
            EngineEvent::ForceActivate {
                time: Instant(time),
                user,
                rule: RuleId(rule),
            }
        }),
        (name(), any::<u32>()).prop_map(|(user, rule)| EngineEvent::ForceDeactivate {
            user,
            rule: RuleId(rule),
        }),
        (
            any::<u64>(),
            name(),
            prop::collection::vec((any::<u64>(), any::<u32>().prop_map(RuleId)), 0..5),
        )
            .prop_map(|(time, user, expired)| EngineEvent::ServeExpiry {
                time: Instant(time),
                user,
                expired,
            }),
        prop::collection::vec(name(), 0..6).prop_map(|users| EngineEvent::Pruned { users }),
    ]
}

fn sequenced_event() -> impl Strategy<Value = SequencedEvent> {
    (any_seq(), any_seq(), engine_event()).prop_map(|(seq, epoch, event)| SequencedEvent {
        seq,
        epoch,
        event,
    })
}

/// One event per variant, every field populated — the golden file's
/// contents and the hostile-payload suite's victims.
fn sample_events() -> Vec<(&'static str, SequencedEvent)> {
    let at = |seq, event| SequencedEvent {
        seq,
        epoch: 3,
        event,
    };
    vec![
        (
            "rule_added",
            at(
                0,
                EngineEvent::RuleAdded {
                    id: RuleId(7),
                    rule: Rule::replace_identical(
                        r#"<script src="http://cdn.example/lib.js">"#,
                        [
                            r#"<script src="http://m1.example/lib.js">"#,
                            r#"<script src="http://m2.example/lib.js">"#,
                        ],
                    )
                    .with_ttl_ms(Some(60_000))
                    .with_violations_required(2)
                    .with_selection(SelectionPolicy::UserHash)
                    .with_client_prefix("10.3.")
                    .with_sub_rule("cdn.example", "m1.example"),
                },
            ),
        ),
        (
            "rule_removed",
            at(1, EngineEvent::RuleRemoved { id: RuleId(7) }),
        ),
        (
            "ingest",
            at(
                2,
                EngineEvent::Ingest(IngestEffect {
                    time: Instant(1_500),
                    user: "u-1".to_owned(),
                    folds: vec![
                        ServerFold {
                            domains: vec![Arc::from("cdn.example"), Arc::from("alias.example")],
                            objects: 2,
                            bytes: 60_000,
                            small_times_ms: vec![900.25, 0.1],
                            large_tputs_kbps: vec![1234.5],
                            violated: true,
                        },
                        ServerFold {
                            domains: vec![Arc::from("good.example")],
                            objects: 1,
                            bytes: 30_000,
                            small_times_ms: vec![80.0],
                            large_tputs_kbps: Vec::new(),
                            violated: false,
                        },
                    ],
                    pending: vec![RuleId(4), RuleId(9)],
                    records: vec![
                        (
                            10,
                            LogEvent {
                                time: Instant(1_500),
                                user: "u-1".to_owned(),
                                rule: RuleId(7),
                                action: LogAction::Activated {
                                    violator_ip: "10.0.0.1".to_owned(),
                                    severity: 11.25,
                                },
                            },
                        ),
                        (
                            11,
                            LogEvent {
                                time: Instant(1_500),
                                user: "u-1".to_owned(),
                                rule: RuleId(8),
                                action: LogAction::Advanced { to_index: 1 },
                            },
                        ),
                        (
                            12,
                            LogEvent {
                                time: Instant(1_500),
                                user: "u-1".to_owned(),
                                rule: RuleId(5),
                                action: LogAction::Deactivated,
                            },
                        ),
                        (
                            13,
                            LogEvent {
                                time: Instant(1_500),
                                user: "u-1".to_owned(),
                                rule: RuleId(6),
                                action: LogAction::Expired,
                            },
                        ),
                    ],
                }),
            ),
        ),
        (
            "force_activate",
            at(
                3,
                EngineEvent::ForceActivate {
                    time: Instant(2_000),
                    user: "u-2".to_owned(),
                    rule: RuleId(7),
                },
            ),
        ),
        (
            "force_deactivate",
            at(
                4,
                EngineEvent::ForceDeactivate {
                    user: "u-2".to_owned(),
                    rule: RuleId(7),
                },
            ),
        ),
        (
            "serve_expiry",
            at(
                5,
                EngineEvent::ServeExpiry {
                    time: Instant(90_000),
                    user: "u-1".to_owned(),
                    expired: vec![(14, RuleId(7)), (15, RuleId(8))],
                },
            ),
        ),
        (
            "pruned",
            at(
                6,
                EngineEvent::Pruned {
                    users: vec!["u-1".to_owned(), "ü-2".to_owned()],
                },
            ),
        ),
    ]
}

/// A current-version header (`seq` 0, `epoch` 0) for hand-built bodies.
fn header(kind: u8) -> Vec<u8> {
    let mut bytes = vec![EVENT_VERSION];
    bytes.extend_from_slice(&[0; 16]);
    bytes.push(kind);
    bytes
}

/// The fattest thing four encoded bytes can stand for is an empty
/// `String` behind its length prefix, so no allocation a decode makes
/// is larger than the payload times this.
const EXPANSION: usize = std::mem::size_of::<String>() / 4;
/// Room for an error message, which is not sized by the payload.
const ERROR_TEXT: usize = 256;

/// Decodes `bytes`: an error or an event whose encoding round-trips,
/// without a panic and without an allocation the payload cannot justify.
fn decode_hostile(bytes: &[u8]) {
    let (decoded, peak) = peak_alloc_during(|| SequencedEvent::decode(bytes));
    assert!(
        peak <= EXPANSION * bytes.len() + ERROR_TEXT,
        "decoding {} bytes allocated {peak} at once",
        bytes.len()
    );
    if let Ok(event) = decoded {
        let again = SequencedEvent::decode(&event.encode()).expect("a decoded event re-encodes");
        assert_eq!(again.encode(), event.encode());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The layout is canonical: decoding an encoded event and encoding
    /// the result reproduces the bytes — every float bit, every empty
    /// string, every edge sequence number.
    #[test]
    fn encode_decode_encode_is_the_identity(event in sequenced_event()) {
        let bytes = event.encode();
        prop_assert_eq!(bytes[0], EVENT_VERSION);
        prop_assert_eq!(SequencedEvent::encoded_seq(&bytes), Some(event.seq));
        let decoded = SequencedEvent::decode(&bytes).expect("an encoded event decodes");
        prop_assert_eq!(decoded.seq, event.seq);
        prop_assert_eq!(decoded.epoch, event.epoch);
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Arbitrary bytes behind a valid header decode to an error or an
    /// event, never a panic.
    #[test]
    fn arbitrary_bodies_never_panic(
        kind in 0u8..8,
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = header(kind);
        bytes.extend_from_slice(&body);
        decode_hostile(&bytes);
    }
}

#[test]
fn every_truncation_is_an_error() {
    for (name, event) in sample_events() {
        let bytes = event.encode();
        for cut in 0..bytes.len() {
            let (decoded, peak) = peak_alloc_during(|| SequencedEvent::decode(&bytes[..cut]));
            assert!(decoded.is_err(), "{name} cut at {cut} still decodes");
            assert!(peak <= EXPANSION * cut + ERROR_TEXT, "{name} cut at {cut}");
        }
    }
}

#[test]
fn every_single_bit_flip_is_an_error_or_another_event() {
    for (_, event) in sample_events() {
        let bytes = event.encode();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                decode_hostile(&flipped);
            }
        }
    }
}

#[test]
fn lying_counts_fail_before_they_allocate() {
    // The meter reads what it should.
    let (_, peak) = peak_alloc_during(|| Vec::<u8>::with_capacity(4096));
    assert_eq!(peak, 4096);

    // An ingest whose fold count claims four billion folds, with nothing
    // behind it — and the same lie in every other count the layout has.
    let mut ingest = header(2);
    ingest.extend_from_slice(&[0; 8]); // time
    ingest.extend_from_slice(&0u32.to_le_bytes()); // user ""
    ingest.extend_from_slice(&u32::MAX.to_le_bytes());
    let (decoded, peak) = peak_alloc_during(|| SequencedEvent::decode(&ingest));
    assert_eq!(
        decoded.unwrap_err(),
        "4294967295 folds cannot fit in the 0 bytes that remain"
    );
    assert!(peak <= ERROR_TEXT);

    let mut pruned = header(6);
    pruned.extend_from_slice(&1_000u32.to_le_bytes());
    pruned.extend_from_slice(&[0; 400]); // room for 100 empty names
    let err = SequencedEvent::decode(&pruned).unwrap_err();
    assert_eq!(
        err,
        "1000 pruned users cannot fit in the 400 bytes that remain"
    );
}

#[test]
fn rejects_what_is_not_this_layout() {
    let good = sample_events().remove(1).1.encode();
    assert_eq!(good.len(), EVENT_HEADER_LEN + 4);

    let mut future = good.clone();
    future[0] = 2;
    assert_eq!(
        SequencedEvent::decode(&future).unwrap_err(),
        "unsupported event version 0x02 (expected 0x01)"
    );
    assert_eq!(SequencedEvent::encoded_seq(&future), None);
    // The byte that marks a legacy JSON frame is not a version.
    assert!(SequencedEvent::decode(b"{\"seq\":0}").is_err());

    let mut kind = good.clone();
    kind[17] = 7;
    assert_eq!(
        SequencedEvent::decode(&kind).unwrap_err(),
        "unknown event kind 0x07"
    );

    let mut trailing = good.clone();
    trailing.push(0);
    assert_eq!(
        SequencedEvent::decode(&trailing).unwrap_err(),
        "1 trailing bytes after the event"
    );

    // One encoding per value: a `violated` flag of 2 is not `true`.
    let mut odd = header(2);
    odd.extend_from_slice(&[0; 8]); // time
    odd.extend_from_slice(&0u32.to_le_bytes()); // user ""
    odd.extend_from_slice(&1u32.to_le_bytes()); // one fold:
    odd.extend_from_slice(&[0; 4 + 8 + 8 + 4 + 4]); // no domains, no samples
    odd.push(2);
    odd.extend_from_slice(&[0; 8]); // no pending, no records
    assert_eq!(
        SequencedEvent::decode(&odd).unwrap_err(),
        "fold violated flag is 0x02, not 0 or 1"
    );
    *odd.iter_mut().rev().nth(8).expect("the flag") = 1;
    assert!(SequencedEvent::decode(&odd).is_ok());

    let mut not_utf8 = sample_events().remove(3).1.encode();
    let user = EVENT_HEADER_LEN + 8 + 4;
    not_utf8[user] = 0xFF;
    assert_eq!(
        SequencedEvent::decode(&not_utf8).unwrap_err(),
        "activated user is not valid UTF-8"
    );
}

#[test]
fn seq_and_epoch_sit_at_fixed_offsets() {
    for (_, event) in sample_events() {
        let bytes = event.encode();
        assert_eq!(bytes[1..9], event.seq.to_le_bytes());
        assert_eq!(bytes[9..17], event.epoch.to_le_bytes());
        assert_eq!(SequencedEvent::encoded_seq(&bytes), Some(event.seq));
        assert_eq!(SequencedEvent::encoded_seq(&bytes[..17]), None);
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/event_frames.hex")
}

/// One `name hex` line per variant. A layout change shows up here as a
/// diff to bless on purpose — journals already on disk hold these bytes.
#[test]
fn golden_frames_are_unchanged() {
    let mut text = String::from(
        "# One encoded SequencedEvent per EngineEvent variant (crates/oak-core/src/events.rs).\n\
         # Re-bless on purpose: OAK_BLESS=1 cargo test -p oak-core golden\n",
    );
    for (name, event) in sample_events() {
        let hex: String = event.encode().iter().map(|b| format!("{b:02x}")).collect();
        text.push_str(&format!("{name} {hex}\n"));
    }
    if std::env::var_os("OAK_BLESS").is_some() {
        std::fs::write(golden_path(), &text).unwrap();
    }
    let expected = std::fs::read_to_string(golden_path())
        .expect("golden file missing — regenerate with OAK_BLESS=1 cargo test -p oak-core golden");
    assert_eq!(
        text, expected,
        "the event byte layout drifted from the golden file; journals on disk hold the old \
         bytes — if intentional, bump EVENT_VERSION and regenerate with OAK_BLESS=1"
    );
    // And the checked-in bytes still decode to the same events.
    for (line, (_, event)) in expected.lines().skip(2).zip(sample_events()) {
        let hex = line.split_once(' ').expect("name, then hex").1;
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect();
        let decoded = SequencedEvent::decode(&bytes).expect("golden frame decodes");
        assert_eq!(decoded.encode(), event.encode());
    }
}
