//! Cluster wire messages and their codec.
//!
//! Everything replicas say to each other — lease traffic, WAL shipping,
//! snapshot transfer — is one [`Message`] inside one [`Envelope`].
//! Envelopes encode as JSON framed by the *same* `[len][crc32][payload]`
//! frame the WAL uses ([`oak_store::segment`]): frames are
//! self-delimiting and checksummed, so the TCP transport can stream them
//! back-to-back and a corrupt frame is detected, not applied. The sim
//! transport skips the bytes and passes [`Envelope`] values directly —
//! codec round-trip tests keep the two paths equivalent.
//!
//! Sequence numbers, epochs, and watermarks all fit comfortably below
//! 2^53, so they ride as native JSON numbers (the same choice the WAL
//! codec makes for `seq`).

use oak_core::events::SequencedEvent;
use oak_json::Value;
use oak_store::segment::{decode_frame_step, encode_frame, FrameStep};

use crate::lease::LeaseMsg;
use crate::NodeId;

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
    /// Primary → follower: full state transfer. `state` is the engine
    /// snapshot document; `watermark` its event-seq head.
    Snapshot {
        partition: u32,
        epoch: u64,
        watermark: u64,
        state: Value,
    },
    /// Follower → primary: snapshot installed up to `watermark`.
    SnapshotAck {
        partition: u32,
        epoch: u64,
        watermark: u64,
    },
}

impl Message {
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

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

impl Message {
    /// Encodes as a self-describing JSON object.
    pub fn to_value(&self) -> Value {
        let mut doc = Value::object();
        doc.set("p", u64::from(self.partition()));
        match self {
            Message::Lease { msg, .. } => match *msg {
                LeaseMsg::Heartbeat { epoch, commit } => {
                    doc.set("t", "hb");
                    doc.set("epoch", epoch);
                    doc.set("commit", commit);
                }
                LeaseMsg::HeartbeatAck { epoch, acked } => {
                    doc.set("t", "hb_ack");
                    doc.set("epoch", epoch);
                    doc.set("acked", acked);
                }
                LeaseMsg::VoteRequest {
                    epoch,
                    branch_epoch,
                    watermark,
                } => {
                    doc.set("t", "vote_req");
                    doc.set("epoch", epoch);
                    doc.set("branch", branch_epoch);
                    doc.set("watermark", watermark);
                }
                LeaseMsg::VoteRequestGranted { epoch } => {
                    doc.set("t", "vote_grant");
                    doc.set("epoch", epoch);
                }
            },
            Message::Append {
                epoch,
                commit,
                events,
                ..
            } => {
                doc.set("t", "append");
                doc.set("epoch", *epoch);
                doc.set("commit", *commit);
                let mut list = Value::array();
                for event in events {
                    list.push(event.to_value());
                }
                doc.set("events", list);
            }
            Message::AppendAck { epoch, acked, .. } => {
                doc.set("t", "append_ack");
                doc.set("epoch", *epoch);
                doc.set("acked", *acked);
            }
            Message::Snapshot {
                epoch,
                watermark,
                state,
                ..
            } => {
                doc.set("t", "snapshot");
                doc.set("epoch", *epoch);
                doc.set("watermark", *watermark);
                doc.set("state", state.clone());
            }
            Message::SnapshotAck {
                epoch, watermark, ..
            } => {
                doc.set("t", "snapshot_ack");
                doc.set("epoch", *epoch);
                doc.set("watermark", *watermark);
            }
        }
        doc
    }

    /// Decodes a message object.
    pub fn from_value(v: &Value) -> Result<Message, String> {
        let partition = u64_field(v, "p")? as u32;
        let msg = match str_field(v, "t")? {
            "hb" => Message::Lease {
                partition,
                msg: LeaseMsg::Heartbeat {
                    epoch: u64_field(v, "epoch")?,
                    commit: u64_field(v, "commit")?,
                },
            },
            "hb_ack" => Message::Lease {
                partition,
                msg: LeaseMsg::HeartbeatAck {
                    epoch: u64_field(v, "epoch")?,
                    acked: u64_field(v, "acked")?,
                },
            },
            "vote_req" => Message::Lease {
                partition,
                msg: LeaseMsg::VoteRequest {
                    epoch: u64_field(v, "epoch")?,
                    // Absent from a pre-branch-epoch peer: branch 0.
                    branch_epoch: v.get("branch").and_then(Value::as_u64).unwrap_or(0),
                    watermark: u64_field(v, "watermark")?,
                },
            },
            "vote_grant" => Message::Lease {
                partition,
                msg: LeaseMsg::VoteRequestGranted {
                    epoch: u64_field(v, "epoch")?,
                },
            },
            "append" => {
                let mut events = Vec::new();
                let list = v
                    .get("events")
                    .and_then(Value::as_array)
                    .ok_or("append without events array")?;
                for item in list {
                    events.push(SequencedEvent::from_value(item)?);
                }
                Message::Append {
                    partition,
                    epoch: u64_field(v, "epoch")?,
                    commit: u64_field(v, "commit")?,
                    events,
                }
            }
            "append_ack" => Message::AppendAck {
                partition,
                epoch: u64_field(v, "epoch")?,
                acked: u64_field(v, "acked")?,
            },
            "snapshot" => Message::Snapshot {
                partition,
                epoch: u64_field(v, "epoch")?,
                watermark: u64_field(v, "watermark")?,
                state: v.get("state").ok_or("snapshot without state")?.clone(),
            },
            "snapshot_ack" => Message::SnapshotAck {
                partition,
                epoch: u64_field(v, "epoch")?,
                watermark: u64_field(v, "watermark")?,
            },
            other => return Err(format!("unknown cluster message type {other:?}")),
        };
        Ok(msg)
    }
}

impl Envelope {
    /// Encodes the envelope as one CRC frame (the TCP unit of exchange).
    pub fn encode(&self) -> Vec<u8> {
        let mut doc = Value::object();
        doc.set("from", u64::from(self.from.0));
        doc.set("to", u64::from(self.to.0));
        doc.set("msg", self.msg.to_value());
        encode_frame(doc.to_string().as_bytes())
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
        // corruption (a buggy or hostile peer), never a short read.
        let parse = || -> Option<Envelope> {
            let text = std::str::from_utf8(payload).ok()?;
            let doc = oak_json::parse(text).ok()?;
            let from = NodeId(doc.get("from").and_then(Value::as_u64)? as u32);
            let to = NodeId(doc.get("to").and_then(Value::as_u64)? as u32);
            let msg = Message::from_value(doc.get("msg")?).ok()?;
            Some(Envelope { from, to, msg })
        };
        match parse() {
            Some(envelope) => DecodeStep::Frame(envelope, next),
            None => DecodeStep::Corrupt,
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
    /// valid frame around undecodable JSON): drop the connection.
    Corrupt,
}

#[cfg(test)]
mod tests {
    use oak_core::events::EngineEvent;
    use oak_core::rule::RuleId;

    use super::*;

    fn roundtrip(msg: Message) {
        let envelope = Envelope {
            from: NodeId(3),
            to: NodeId(7),
            msg,
        };
        let bytes = envelope.encode();
        let (decoded, end) = Envelope::decode(&bytes, 0).expect("decodes");
        assert_eq!(end, bytes.len());
        // The codec is canonical (fixed field order), so re-encoding the
        // decoded envelope must reproduce the original frame exactly.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::Lease {
            partition: 2,
            msg: LeaseMsg::Heartbeat {
                epoch: 5,
                commit: 40,
            },
        });
        roundtrip(Message::Lease {
            partition: 2,
            msg: LeaseMsg::HeartbeatAck {
                epoch: 5,
                acked: 39,
            },
        });
        roundtrip(Message::Lease {
            partition: 0,
            msg: LeaseMsg::VoteRequest {
                epoch: 6,
                branch_epoch: 5,
                watermark: 41,
            },
        });
        roundtrip(Message::Lease {
            partition: 0,
            msg: LeaseMsg::VoteRequestGranted { epoch: 6 },
        });
        roundtrip(Message::Append {
            partition: 1,
            epoch: 6,
            commit: 40,
            events: vec![SequencedEvent {
                seq: 41,
                epoch: 6,
                event: EngineEvent::RuleRemoved { id: RuleId(9) },
            }],
        });
        roundtrip(Message::AppendAck {
            partition: 1,
            epoch: 6,
            acked: 42,
        });
        let mut state = Value::object();
        state.set("event_seq", 42u64);
        roundtrip(Message::Snapshot {
            partition: 3,
            epoch: 7,
            watermark: 42,
            state,
        });
        roundtrip(Message::SnapshotAck {
            partition: 3,
            epoch: 7,
            watermark: 42,
        });
    }

    #[test]
    fn truncated_frames_do_not_decode() {
        let envelope = Envelope {
            from: NodeId(0),
            to: NodeId(1),
            msg: Message::AppendAck {
                partition: 0,
                epoch: 1,
                acked: 2,
            },
        };
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
        let envelope = Envelope {
            from: NodeId(0),
            to: NodeId(1),
            msg: Message::AppendAck {
                partition: 0,
                epoch: 1,
                acked: 2,
            },
        };
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
        // A CRC-valid frame around non-envelope JSON is corruption too,
        // not a short read.
        let junk = encode_frame(b"{\"not\":\"an envelope\"}");
        assert!(matches!(
            Envelope::decode_step(&junk, 0),
            DecodeStep::Corrupt
        ));
    }

    #[test]
    fn frames_stream_back_to_back() {
        let a = Envelope {
            from: NodeId(0),
            to: NodeId(1),
            msg: Message::AppendAck {
                partition: 0,
                epoch: 1,
                acked: 2,
            },
        };
        let b = Envelope {
            from: NodeId(1),
            to: NodeId(0),
            msg: Message::Lease {
                partition: 0,
                msg: LeaseMsg::Heartbeat {
                    epoch: 1,
                    commit: 2,
                },
            },
        };
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let (first, mid) = Envelope::decode(&stream, 0).unwrap();
        let (second, end) = Envelope::decode(&stream, mid).unwrap();
        assert_eq!(first.encode(), a.encode());
        assert_eq!(second.encode(), b.encode());
        assert_eq!(end, stream.len());
    }
}
