//! Cluster wire messages and their codec.
//!
//! Everything replicas say to each other — lease traffic, WAL shipping,
//! snapshot transfer — is one [`Message`] inside one [`Envelope`], and
//! every envelope is one `[len][crc32][payload]` frame, the *same* frame
//! the WAL uses ([`oak_store::segment`]): self-delimiting and
//! checksummed, so the TCP transport can stream them back-to-back and a
//! corrupt frame is detected, not applied. The sim transport skips the
//! bytes and passes [`Envelope`] values directly — codec round-trip
//! tests keep the two paths equivalent.
//!
//! # Byte layout
//!
//! The payload is one flat little-endian record with one header for
//! every message kind (DESIGN.md §14 carries the same table):
//!
//! ```text
//! offset  size  field
//! 0       1     version    ENVELOPE_VERSION (0x01)
//! 1       1     kind       0 heartbeat … 7 snapshot_ack
//! 2       4     from       u32 node id
//! 6       4     to         u32 node id
//! 10      4     partition  u32
//! 14      8     epoch      u64
//! 22      …     body, by kind
//!
//! 0 heartbeat      commit:u64
//! 1 heartbeat_ack  acked:u64
//! 2 vote_request   branch_epoch:u64  watermark:u64
//! 3 vote_granted   (nothing)
//! 4 append         commit:u64  count:u32  count × (len:u32, event)
//! 5 append_ack     acked:u64
//! 6 snapshot       watermark:u64  len:u32, the state image
//! 7 snapshot_ack   watermark:u64
//! ```
//!
//! An `event` is [`SequencedEvent::encode_into`]'s bytes — what the
//! primary's WAL frame holds, and what the follower's will. The state
//! image is [`oak_core::engine::Oak::state_image`]'s — what the primary's
//! snapshot file holds, and what the follower's will; the envelope decoder
//! reads its version byte and no further, the install decodes the rest,
//! and an image the install refuses installs nothing. All members of a
//! replication group upgrade together: replicas do not negotiate a stream
//! version, and an envelope with any other version byte poisons the link
//! like any other undecodable frame.

use std::sync::Arc;

use oak_core::engine::{STATE_IMAGE_V2, STATE_IMAGE_VERSION};
use oak_core::events::{
    put_len, put_sized, put_u32, put_u64, Reader, SequencedEvent, EVENT_HEADER_LEN,
};
use oak_store::segment::{build_frame, decode_frame_step, FrameStep};

use crate::lease::LeaseMsg;
use crate::NodeId;

/// First payload byte of every envelope.
pub const ENVELOPE_VERSION: u8 = 1;

/// The name of each message kind, indexed by its kind byte
/// ([`Message::kind`]).
pub const MESSAGE_KINDS: [&str; 8] = [
    "heartbeat",
    "heartbeat_ack",
    "vote_request",
    "vote_granted",
    "append",
    "append_ack",
    "snapshot",
    "snapshot_ack",
];

/// One cluster message, scoped to a partition.
///
/// (No `PartialEq` — [`SequencedEvent`] carries compiled rule patterns
/// that do not compare; tests compare encoded frames instead.)
#[derive(Debug, Clone)]
pub enum Message {
    /// Lease-protocol traffic (heartbeats, votes).
    Lease { partition: u32, msg: LeaseMsg },
    /// Primary → follower: WAL events starting exactly at the
    /// follower's acked head, plus the current replication watermark.
    Append {
        partition: u32,
        epoch: u64,
        commit: u64,
        events: Vec<SequencedEvent>,
    },
    /// Follower → primary: durable applied head after an append.
    AppendAck {
        partition: u32,
        epoch: u64,
        acked: u64,
    },
    /// Primary → follower: full state transfer. `state` is the engine's
    /// state image ([`oak_core::engine::Oak::state_image`]), one buffer
    /// shared by every follower owed it; `watermark` its event-seq head.
    Snapshot {
        partition: u32,
        epoch: u64,
        watermark: u64,
        state: Arc<[u8]>,
    },
    /// Follower → primary: snapshot installed up to `watermark`.
    SnapshotAck {
        partition: u32,
        epoch: u64,
        watermark: u64,
    },
}

impl Message {
    /// The message's kind byte in the envelope header, an index into
    /// [`MESSAGE_KINDS`].
    pub fn kind(&self) -> u8 {
        match self {
            Message::Lease { msg, .. } => match msg {
                LeaseMsg::Heartbeat { .. } => 0,
                LeaseMsg::HeartbeatAck { .. } => 1,
                LeaseMsg::VoteRequest { .. } => 2,
                LeaseMsg::VoteRequestGranted { .. } => 3,
            },
            Message::Append { .. } => 4,
            Message::AppendAck { .. } => 5,
            Message::Snapshot { .. } => 6,
            Message::SnapshotAck { .. } => 7,
        }
    }

    /// The partition this message concerns.
    pub fn partition(&self) -> u32 {
        match self {
            Message::Lease { partition, .. }
            | Message::Append { partition, .. }
            | Message::AppendAck { partition, .. }
            | Message::Snapshot { partition, .. }
            | Message::SnapshotAck { partition, .. } => *partition,
        }
    }
}

/// A routed message: sender, recipient, payload.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: Message,
}

/// Smallest `len:u32, event` element of an `Append`.
const MIN_APPEND_ITEM_BYTES: usize = 4 + EVENT_HEADER_LEN;

impl Envelope {
    /// Encodes the envelope as one CRC frame (the TCP unit of exchange).
    pub fn encode(&self) -> Vec<u8> {
        build_frame(|out| self.encode_payload(out))
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        let header = |out: &mut Vec<u8>, epoch: u64| {
            out.push(ENVELOPE_VERSION);
            out.push(self.msg.kind());
            put_u32(out, self.from.0);
            put_u32(out, self.to.0);
            put_u32(out, self.msg.partition());
            put_u64(out, epoch);
        };
        match &self.msg {
            Message::Lease { msg, .. } => match *msg {
                LeaseMsg::Heartbeat { epoch, commit } => {
                    header(out, epoch);
                    put_u64(out, commit);
                }
                LeaseMsg::HeartbeatAck { epoch, acked } => {
                    header(out, epoch);
                    put_u64(out, acked);
                }
                LeaseMsg::VoteRequest {
                    epoch,
                    branch_epoch,
                    watermark,
                } => {
                    header(out, epoch);
                    put_u64(out, branch_epoch);
                    put_u64(out, watermark);
                }
                LeaseMsg::VoteRequestGranted { epoch } => header(out, epoch),
            },
            Message::Append {
                epoch,
                commit,
                events,
                ..
            } => {
                header(out, *epoch);
                put_u64(out, *commit);
                put_len(out, events.len());
                for event in events {
                    put_sized(out, |out| event.encode_into(out));
                }
            }
            Message::AppendAck { epoch, acked, .. } => {
                header(out, *epoch);
                put_u64(out, *acked);
            }
            Message::Snapshot {
                epoch,
                watermark,
                state,
                ..
            } => {
                header(out, *epoch);
                put_u64(out, *watermark);
                put_sized(out, |out| out.extend_from_slice(state));
            }
            Message::SnapshotAck {
                epoch, watermark, ..
            } => {
                header(out, *epoch);
                put_u64(out, *watermark);
            }
        }
    }

    fn decode_payload(payload: &[u8]) -> Result<Envelope, String> {
        let mut r = Reader::new(payload);
        let version = r.u8("envelope version")?;
        if version != ENVELOPE_VERSION {
            return Err(format!(
                "unsupported envelope version 0x{version:02x} (expected 0x{ENVELOPE_VERSION:02x})"
            ));
        }
        let kind = r.u8("message kind")?;
        let from = NodeId(r.u32("sender")?);
        let to = NodeId(r.u32("recipient")?);
        let partition = r.u32("partition")?;
        let epoch = r.u64("epoch")?;
        let lease = |msg| Message::Lease { partition, msg };
        let msg = match kind {
            0 => lease(LeaseMsg::Heartbeat {
                epoch,
                commit: r.u64("commit")?,
            }),
            1 => lease(LeaseMsg::HeartbeatAck {
                epoch,
                acked: r.u64("acked head")?,
            }),
            2 => lease(LeaseMsg::VoteRequest {
                epoch,
                branch_epoch: r.u64("branch epoch")?,
                watermark: r.u64("watermark")?,
            }),
            3 => lease(LeaseMsg::VoteRequestGranted { epoch }),
            4 => Message::Append {
                partition,
                epoch,
                commit: r.u64("commit")?,
                events: r.list(MIN_APPEND_ITEM_BYTES, "appended events", |r| {
                    SequencedEvent::decode(r.bytes("appended event")?)
                })?,
            },
            5 => Message::AppendAck {
                partition,
                epoch,
                acked: r.u64("acked head")?,
            },
            6 => {
                let watermark = r.u64("watermark")?;
                let state = r.bytes("state image")?;
                // Anything but an image version this build reads — the
                // `{` of the snapshot document a build before the image
                // sent included — is not a peer of this one.
                if !matches!(state.first(), Some(&(STATE_IMAGE_V2..=STATE_IMAGE_VERSION))) {
                    return Err("the snapshot is not a state image of this version".to_owned());
                }
                Message::Snapshot {
                    partition,
                    epoch,
                    watermark,
                    state: Arc::from(state),
                }
            }
            7 => Message::SnapshotAck {
                partition,
                epoch,
                watermark: r.u64("watermark")?,
            },
            other => return Err(format!("unknown message kind 0x{other:02x}")),
        };
        r.finish("the message")?;
        Ok(Envelope { from, to, msg })
    }

    /// Classifies the bytes at `offset` as an incomplete, whole, or
    /// corrupt envelope frame. A stream reader keeps buffering on
    /// [`DecodeStep::Incomplete`] and drops the connection on
    /// [`DecodeStep::Corrupt`] — the two must not be conflated, or a
    /// single corrupt frame wedges the link forever (the reader waits
    /// for bytes that can never help while the peer's writes keep
    /// succeeding, so it never reconnects).
    pub fn decode_step(buf: &[u8], offset: usize) -> DecodeStep {
        let (payload, next) = match decode_frame_step(buf, offset) {
            FrameStep::Incomplete => return DecodeStep::Incomplete,
            FrameStep::Corrupt => return DecodeStep::Corrupt,
            FrameStep::Frame(payload, next) => (payload, next),
        };
        // The frame is whole and CRC-valid, so undecodable contents are
        // corruption (a buggy, hostile or differently-versioned peer),
        // never a short read.
        match Envelope::decode_payload(payload) {
            Ok(envelope) => DecodeStep::Frame(envelope, next),
            Err(_) => DecodeStep::Corrupt,
        }
    }

    /// Decodes one framed envelope starting at `offset`; returns the
    /// envelope and the offset one past the frame. `None` collapses
    /// [`DecodeStep::Incomplete`] and [`DecodeStep::Corrupt`] — callers
    /// that must tell them apart (the TCP read loop) use
    /// [`Envelope::decode_step`].
    pub fn decode(buf: &[u8], offset: usize) -> Option<(Envelope, usize)> {
        match Envelope::decode_step(buf, offset) {
            DecodeStep::Frame(envelope, next) => Some((envelope, next)),
            DecodeStep::Incomplete | DecodeStep::Corrupt => None,
        }
    }
}

/// Outcome of [`Envelope::decode_step`] on an in-progress byte stream.
#[derive(Debug)]
pub enum DecodeStep {
    /// A valid prefix of a frame still in flight: read more bytes.
    Incomplete,
    /// A whole envelope and the offset one past its frame.
    Frame(Envelope, usize),
    /// Bytes that can never decode (bad length, CRC mismatch, or a
    /// valid frame around an undecodable payload): drop the connection.
    Corrupt,
}

#[cfg(test)]
mod tests {
    //! Regenerate the golden file after an intentional layout change with
    //! `OAK_BLESS=1 cargo test -p oak-cluster golden`.

    use std::path::PathBuf;

    use oak_core::engine::{Oak, OakConfig};
    use oak_core::events::{EngineEvent, Fold, IngestEffect};
    use oak_core::rule::RuleId;
    use oak_core::Instant;
    use oak_store::segment::{encode_frame, FRAME_OVERHEAD};
    use proptest::prelude::*;

    use super::*;

    fn removed(seq: u64, epoch: u64) -> SequencedEvent {
        SequencedEvent {
            seq,
            epoch,
            event: EngineEvent::RuleRemoved {
                id: RuleId(seq as u32),
            },
        }
    }

    /// A report's worth of event: eight servers, a handful of samples each.
    fn ingest(seq: u64, epoch: u64) -> SequencedEvent {
        let domains: Vec<[String; 1]> = (0..8).map(|s| [format!("cdn{s}.example")]).collect();
        let small: Vec<[f64; 3]> = (0..8).map(|s| [80.5 + s as f64, 95.25, 71.0]).collect();
        let folds = (0..8).map(|server| Fold {
            domains: &domains[server],
            objects: 3,
            bytes: 90_000,
            small_times_ms: &small[server],
            large_tputs_kbps: &[2_400.0],
            violated: server == 0,
        });
        let effect = IngestEffect::from_parts(
            Instant(seq * 10),
            &format!("u-{seq}"),
            folds,
            &[RuleId(2)],
            &[],
        );
        SequencedEvent {
            seq,
            epoch,
            event: EngineEvent::Ingest(effect),
        }
    }

    /// One envelope per message kind — the golden file's contents and
    /// the hostile-payload suite's victims.
    fn sample_envelopes() -> Vec<(&'static str, Envelope)> {
        let lease = |msg| Message::Lease { partition: 2, msg };
        let state: Arc<[u8]> = Oak::new(OakConfig::default()).state_image().1.into();
        let messages = vec![
            (
                "heartbeat",
                lease(LeaseMsg::Heartbeat {
                    epoch: 5,
                    commit: 40,
                }),
            ),
            (
                "heartbeat_ack",
                lease(LeaseMsg::HeartbeatAck {
                    epoch: 5,
                    acked: 39,
                }),
            ),
            (
                "vote_request",
                lease(LeaseMsg::VoteRequest {
                    epoch: 6,
                    branch_epoch: 5,
                    watermark: 41,
                }),
            ),
            (
                "vote_granted",
                lease(LeaseMsg::VoteRequestGranted { epoch: 6 }),
            ),
            (
                "append",
                Message::Append {
                    partition: 1,
                    epoch: 6,
                    commit: 40,
                    events: vec![removed(41, 6), ingest(42, 6)],
                },
            ),
            (
                "append_ack",
                Message::AppendAck {
                    partition: 1,
                    epoch: 6,
                    acked: 43,
                },
            ),
            (
                "snapshot",
                Message::Snapshot {
                    partition: 3,
                    epoch: 7,
                    watermark: 42,
                    state,
                },
            ),
            (
                "snapshot_ack",
                Message::SnapshotAck {
                    partition: 3,
                    epoch: 7,
                    watermark: 42,
                },
            ),
        ];
        let envelope = |(name, msg)| {
            let (from, to) = (NodeId(3), NodeId(7));
            (name, Envelope { from, to, msg })
        };
        messages.into_iter().map(envelope).collect()
    }

    fn payload_of(envelope: &Envelope) -> Vec<u8> {
        envelope.encode()[FRAME_OVERHEAD..].to_vec()
    }

    /// Decodes a payload that may have been tampered with: an error or
    /// an envelope whose encoding round-trips, never a panic.
    fn decode_hostile(payload: &[u8]) {
        if let Ok(envelope) = Envelope::decode_payload(payload) {
            let again = Envelope::decode_payload(&payload_of(&envelope)).expect("re-decodes");
            assert_eq!(again.encode(), envelope.encode());
        }
    }

    fn message() -> impl Strategy<Value = Message> {
        let ids = || (any::<u32>(), any::<u64>(), any::<u64>());
        fn lease(partition: u32, msg: LeaseMsg) -> Message {
            Message::Lease { partition, msg }
        }
        prop_oneof![
            ids().prop_map(|(partition, epoch, commit)| {
                lease(partition, LeaseMsg::Heartbeat { epoch, commit })
            }),
            ids().prop_map(|(partition, epoch, acked)| {
                lease(partition, LeaseMsg::HeartbeatAck { epoch, acked })
            }),
            (ids(), any::<u64>()).prop_map(|((partition, epoch, watermark), branch_epoch)| {
                lease(
                    partition,
                    LeaseMsg::VoteRequest {
                        epoch,
                        branch_epoch,
                        watermark,
                    },
                )
            }),
            ids().prop_map(|(partition, epoch, _)| {
                lease(partition, LeaseMsg::VoteRequestGranted { epoch })
            }),
            (ids(), prop::collection::vec(any::<bool>(), 0..5)).prop_map(
                |((partition, epoch, commit), kinds)| Message::Append {
                    partition,
                    epoch,
                    commit,
                    events: kinds
                        .into_iter()
                        .zip(commit..)
                        .map(|(full, seq)| if full {
                            ingest(seq % 1_000, epoch)
                        } else {
                            removed(seq, epoch)
                        })
                        .collect(),
                }
            ),
            ids().prop_map(|(partition, epoch, acked)| Message::AppendAck {
                partition,
                epoch,
                acked,
            }),
            (ids(), prop::collection::vec(any::<u8>(), 0..24)).prop_map(
                |((partition, epoch, watermark), body)| {
                    // Whatever follows the version byte is the install's
                    // to judge, not the envelope's.
                    let mut state = vec![STATE_IMAGE_VERSION];
                    state.extend_from_slice(&body);
                    Message::Snapshot {
                        partition,
                        epoch,
                        watermark,
                        state: state.into(),
                    }
                }
            ),
            ids().prop_map(|(partition, epoch, watermark)| Message::SnapshotAck {
                partition,
                epoch,
                watermark,
            }),
        ]
    }

    proptest! {
        /// The codec is canonical: re-encoding a decoded envelope
        /// reproduces the frame exactly, for every message kind.
        #[test]
        fn encode_decode_encode_is_the_identity(
            from in any::<u32>(),
            to in any::<u32>(),
            msg in message(),
        ) {
            let envelope = Envelope { from: NodeId(from), to: NodeId(to), msg };
            let bytes = envelope.encode();
            let (decoded, end) = Envelope::decode(&bytes, 0).expect("decodes");
            prop_assert_eq!(end, bytes.len());
            prop_assert_eq!(decoded.from, envelope.from);
            prop_assert_eq!(decoded.to, envelope.to);
            prop_assert_eq!(decoded.encode(), bytes);
        }

        /// Arbitrary bytes behind a valid header never panic the decoder.
        #[test]
        fn arbitrary_bodies_never_panic(
            kind in 0u8..9,
            body in prop::collection::vec(any::<u8>(), 0..128),
        ) {
            let mut payload = vec![ENVELOPE_VERSION, kind];
            payload.extend_from_slice(&[0; 20]);
            payload.extend_from_slice(&body);
            decode_hostile(&payload);
        }
    }

    #[test]
    fn every_truncation_of_a_payload_is_an_error() {
        for (name, envelope) in sample_envelopes() {
            let payload = payload_of(&envelope);
            for cut in 0..payload.len() {
                assert!(
                    Envelope::decode_payload(&payload[..cut]).is_err(),
                    "{name} cut at {cut} still decodes"
                );
            }
        }
    }

    fn flip_every_bit(payload: &[u8]) {
        for at in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.to_vec();
                flipped[at] ^= 1 << bit;
                decode_hostile(&flipped);
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_payload_is_an_error_or_another_envelope() {
        for (_, envelope) in sample_envelopes() {
            flip_every_bit(&payload_of(&envelope));
        }
    }

    /// The exhaustive form of the two tests above, over the largest
    /// `Append` a primary ships. Minutes, not seconds: the nightly CI job
    /// runs it (`cargo test --release -p oak-cluster -- --ignored`).
    #[test]
    #[ignore = "exhaustive sweep; run by the nightly CI job"]
    fn exhaustive_mutation_sweep_of_a_full_append_batch() {
        let batch = crate::node::APPEND_BATCH as u64;
        let payload = payload_of(&Envelope {
            from: NodeId(0),
            to: NodeId(1),
            msg: Message::Append {
                partition: 0,
                epoch: 9,
                commit: 1_000,
                events: (0..batch).map(|i| ingest(1_000 + i, 9)).collect(),
            },
        });
        for cut in 0..payload.len() {
            assert!(Envelope::decode_payload(&payload[..cut]).is_err());
        }
        flip_every_bit(&payload);
    }

    #[test]
    fn a_lying_event_count_fails_before_it_allocates() {
        let mut payload = vec![ENVELOPE_VERSION, 4];
        payload.extend_from_slice(&[0; 20 + 8]); // header, commit
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Envelope::decode_payload(&payload).unwrap_err(),
            "4294967295 appended events cannot fit in the 0 bytes that remain"
        );
    }

    #[test]
    fn rejects_what_is_not_this_layout() {
        let good = payload_of(&sample_envelopes().remove(5).1);

        let mut future = good.clone();
        future[0] = 2;
        assert_eq!(
            Envelope::decode_payload(&future).unwrap_err(),
            "unsupported envelope version 0x02 (expected 0x01)"
        );
        let mut kind = good.clone();
        kind[1] = 8;
        assert_eq!(
            Envelope::decode_payload(&kind).unwrap_err(),
            "unknown message kind 0x08"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            Envelope::decode_payload(&trailing).unwrap_err(),
            "1 trailing bytes after the message"
        );
        // An `Append` carries the byte layout only: replicas upgrade
        // together, so a JSON event is not something a peer may send.
        let mut legacy = vec![ENVELOPE_VERSION, 4];
        legacy.extend_from_slice(&[0; 20 + 8]);
        legacy.extend_from_slice(&1u32.to_le_bytes());
        let json = br#"{"id":1,"seq":0,"t":"rule_removed"}"#;
        legacy.extend_from_slice(&(json.len() as u32).to_le_bytes());
        legacy.extend_from_slice(json);
        assert_eq!(
            Envelope::decode_payload(&legacy).unwrap_err(),
            "unsupported event version 0x7b (expected 0x01)"
        );
        // Nor is a snapshot document: this is the frame the golden file
        // held for `snapshot` while a transfer carried JSON text. The
        // link is dropped; nothing reaches the install.
        let hex = "32000000669daa98010603000000070000000300000007000000000000002a00000000000000\
                   100000007b226576656e745f736571223a34327d";
        let frame: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect();
        assert_eq!(
            Envelope::decode_payload(&frame[FRAME_OVERHEAD..]).unwrap_err(),
            "the snapshot is not a state image of this version"
        );
        assert!(matches!(
            Envelope::decode_step(&frame, 0),
            DecodeStep::Corrupt
        ));
        let empty = [&frame[FRAME_OVERHEAD..][..30], &[0; 4][..]].concat();
        assert!(Envelope::decode_payload(&empty).is_err(), "no image at all");
    }

    fn golden_path() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/envelope_frames.hex")
    }

    /// One `name hex` line per message kind, frame header included. Every
    /// member of a group must speak these bytes, so a change here is a
    /// deliberate re-bless.
    #[test]
    fn golden_frames_are_unchanged() {
        let mut text = String::from(
            "# One framed Envelope per Message kind (crates/oak-cluster/src/msg.rs).\n\
             # Re-bless on purpose: OAK_BLESS=1 cargo test -p oak-cluster golden\n",
        );
        for (name, envelope) in sample_envelopes() {
            let hex: String = envelope
                .encode()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            text.push_str(&format!("{name} {hex}\n"));
        }
        if std::env::var_os("OAK_BLESS").is_some() {
            std::fs::write(golden_path(), &text).unwrap();
        }
        let expected = std::fs::read_to_string(golden_path()).expect(
            "golden file missing — regenerate with OAK_BLESS=1 cargo test -p oak-cluster golden",
        );
        assert_eq!(
            text, expected,
            "the envelope byte layout drifted from the golden file; if intentional, bump \
             ENVELOPE_VERSION and regenerate with OAK_BLESS=1"
        );
    }

    #[test]
    fn truncated_frames_do_not_decode() {
        let (_, envelope) = sample_envelopes().remove(5);
        let bytes = envelope.encode();
        for cut in 0..bytes.len() {
            assert!(Envelope::decode(&bytes[..cut], 0).is_none());
        }
        // A flipped byte fails the CRC.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(Envelope::decode(&corrupt, 0).is_none());
    }

    #[test]
    fn decode_step_separates_short_reads_from_corruption() {
        let (_, envelope) = sample_envelopes().remove(5);
        let bytes = envelope.encode();
        // Every truncation could still complete: keep reading.
        for cut in 0..bytes.len() {
            assert!(matches!(
                Envelope::decode_step(&bytes[..cut], 0),
                DecodeStep::Incomplete
            ));
        }
        // A flipped payload byte fails the CRC: the link is poisoned.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            Envelope::decode_step(&corrupt, 0),
            DecodeStep::Corrupt
        ));
        // An impossible length can never complete, even with one byte
        // of header visible past the length field.
        let mut bad_len = bytes.clone();
        bad_len[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Envelope::decode_step(&bad_len, 0),
            DecodeStep::Corrupt
        ));
        // A CRC-valid frame around something that is not an envelope is
        // corruption too, not a short read.
        let junk = encode_frame(b"{\"not\":\"an envelope\"}");
        assert!(matches!(
            Envelope::decode_step(&junk, 0),
            DecodeStep::Corrupt
        ));
    }

    #[test]
    fn frames_stream_back_to_back() {
        let mut envelopes = sample_envelopes();
        let (_, a) = envelopes.remove(5);
        let (_, b) = envelopes.remove(0);
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let (first, mid) = Envelope::decode(&stream, 0).unwrap();
        let (second, end) = Envelope::decode(&stream, mid).unwrap();
        assert_eq!(first.encode(), a.encode());
        assert_eq!(second.encode(), b.encode());
        assert_eq!(end, stream.len());
    }
}
