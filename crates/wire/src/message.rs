//! Typed messages carried by the framed transport.
//!
//! Every message encodes to a flat byte payload with hand-rolled
//! little-endian primitives: `u8`/`u32`/`u64` as fixed-width LE,
//! strings and byte blobs as a `u32` length prefix followed by the
//! bytes, `Option<T>` as a one-byte presence tag. Decoding walks a
//! cursor that refuses to read past the payload and rejects trailing
//! bytes, so a corrupted or hostile payload yields a typed
//! [`WireError`] rather than a panic or over-read.
//!
//! The message grammar is specified in `crates/wire/FORMATS.md`.

use crate::WireError;

/// Hard cap on any single length-prefixed field (string or byte blob)
/// inside a payload. Keeps a corrupted length prefix from asking the
/// decoder to allocate gigabytes; the whole payload is already bounded
/// by [`crate::MAX_PAYLOAD`].
const MAX_FIELD: usize = crate::MAX_PAYLOAD as usize;

/// A typed wire message. See `FORMATS.md` for the byte-level grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// First message on a connection, sent by the connecting worker:
    /// its wire version and free-form capability strings (the shard
    /// index travels as a `"shard=K"` capability).
    Hello {
        /// Newest wire version the sender speaks.
        version: u32,
        /// Capability strings, e.g. `"shard=3"`.
        capabilities: Vec<String>,
    },
    /// Accepting reply to `Hello`, carrying the negotiated version.
    HelloAck {
        /// The version both ends will speak from now on.
        version: u32,
    },
    /// Hand a job to a shard worker.
    Dispatch {
        /// Dispatcher-side job id, echoed back in every reply.
        job: u64,
        /// SHA-256 of the job's canonical spec (the content address of
        /// its result).
        spec_hash: [u8; 32],
        /// The job spec as faithful JSON (`JobSpec::to_json` form,
        /// re-parseable on the worker side).
        spec_json: String,
        /// Encoded `SavedModel` to reuse instead of training, if the
        /// dispatcher resolved one.
        model: Option<Vec<u8>>,
    },
    /// Streaming progress for an in-flight job; mirrors the observer
    /// callbacks of the in-process pool.
    Progress {
        /// Job id this progress belongs to.
        job: u64,
        /// Search rounds completed so far, if this update carries one.
        rounds: Option<u64>,
        /// Hyperedges committed so far, if this update carries one.
        committed: Option<u64>,
        /// Listed cliques carried from the previous round in this update.
        reused: u64,
        /// Listed cliques scored in this update.
        rescored: u64,
        /// Whether a model finished training in this update.
        trained: bool,
        /// Free-form note (error text surfaces here before `Failed`).
        note: Option<String>,
    },
    /// A job finished; the payload is the result artifact, byte-for-byte
    /// what the store would write to disk.
    Result {
        /// Job id that finished.
        job: u64,
        /// Content address the payload belongs under (echoed from
        /// `Dispatch` so the merge path never guesses).
        spec_hash: [u8; 32],
        /// Encoded result artifact (`marioh-result v2` bytes).
        payload: Vec<u8>,
        /// Freshly trained model worth persisting, if any.
        model: Option<Vec<u8>>,
    },
    /// A job ended without a result.
    Failed {
        /// Job id that failed.
        job: u64,
        /// Human-readable failure reason.
        message: String,
        /// True when the failure is a requested cancellation rather
        /// than an error.
        cancelled: bool,
    },
    /// Ask the worker to stop a job it was dispatched.
    Cancel {
        /// Job id to cancel.
        job: u64,
    },
    /// Heartbeat probe; the peer must echo the token in a `Pong`.
    Ping {
        /// Opaque token echoed back verbatim.
        token: u64,
    },
    /// Heartbeat reply.
    Pong {
        /// Token copied from the `Ping`.
        token: u64,
    },
    /// Orderly teardown (or handshake refusal) with a stated reason.
    Goodbye {
        /// Why the sender is leaving.
        reason: String,
    },
    /// A shard worker's metrics registry, pushed to the dispatcher
    /// (wire v2+; after each `Pong` and after each `Result`/`Failed`).
    /// Purely informational: a peer may ignore it, and a malformed
    /// `stats` text is dropped, never fatal.
    MetricsSnapshot {
        /// The sender's shard index.
        shard: u64,
        /// `snapshot v1` text (see `crates/obs/FORMATS.md`) — opaque to
        /// this crate, decoded by `marioh-obs`.
        stats: String,
    },
}

impl Message {
    /// The frame-type tag this message travels under.
    pub fn frame_type(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::HelloAck { .. } => 2,
            Message::Dispatch { .. } => 3,
            Message::Progress { .. } => 4,
            Message::Result { .. } => 5,
            Message::Failed { .. } => 6,
            Message::Cancel { .. } => 7,
            Message::Ping { .. } => 8,
            Message::Pong { .. } => 9,
            Message::Goodbye { .. } => 10,
            Message::MetricsSnapshot { .. } => 11,
        }
    }

    /// Encode the message body (everything after the frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Hello {
                version,
                capabilities,
            } => {
                put_u32(&mut out, *version);
                put_u32(&mut out, capabilities.len() as u32);
                for cap in capabilities {
                    put_str(&mut out, cap);
                }
            }
            Message::HelloAck { version } => put_u32(&mut out, *version),
            Message::Dispatch {
                job,
                spec_hash,
                spec_json,
                model,
            } => {
                put_u64(&mut out, *job);
                out.extend_from_slice(spec_hash);
                put_str(&mut out, spec_json);
                put_opt_bytes(&mut out, model.as_deref());
            }
            Message::Progress {
                job,
                rounds,
                committed,
                reused,
                rescored,
                trained,
                note,
            } => {
                put_u64(&mut out, *job);
                put_opt_u64(&mut out, *rounds);
                put_opt_u64(&mut out, *committed);
                put_u64(&mut out, *reused);
                put_u64(&mut out, *rescored);
                out.push(*trained as u8);
                put_opt_str(&mut out, note.as_deref());
            }
            Message::Result {
                job,
                spec_hash,
                payload,
                model,
            } => {
                put_u64(&mut out, *job);
                out.extend_from_slice(spec_hash);
                put_bytes(&mut out, payload);
                put_opt_bytes(&mut out, model.as_deref());
            }
            Message::Failed {
                job,
                message,
                cancelled,
            } => {
                put_u64(&mut out, *job);
                put_str(&mut out, message);
                out.push(*cancelled as u8);
            }
            Message::Cancel { job } => put_u64(&mut out, *job),
            Message::Ping { token } => put_u64(&mut out, *token),
            Message::Pong { token } => put_u64(&mut out, *token),
            Message::Goodbye { reason } => put_str(&mut out, reason),
            Message::MetricsSnapshot { shard, stats } => {
                put_u64(&mut out, *shard);
                put_str(&mut out, stats);
            }
        }
        out
    }

    /// Decode a message body for the given frame-type tag. The payload
    /// must be consumed exactly: trailing bytes are malformed.
    pub fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Message, WireError> {
        let mut cur = Cursor::new(payload);
        let msg = match frame_type {
            1 => {
                let version = cur.u32("Hello.version")?;
                let n = cur.u32("Hello.capability count")? as usize;
                if n > MAX_FIELD {
                    return Err(WireError::Malformed(format!(
                        "Hello declares {n} capabilities"
                    )));
                }
                let mut capabilities = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    capabilities.push(cur.string("Hello.capability")?);
                }
                Message::Hello {
                    version,
                    capabilities,
                }
            }
            2 => Message::HelloAck {
                version: cur.u32("HelloAck.version")?,
            },
            3 => Message::Dispatch {
                job: cur.u64("Dispatch.job")?,
                spec_hash: cur.hash("Dispatch.spec_hash")?,
                spec_json: cur.string("Dispatch.spec_json")?,
                model: cur.opt_bytes("Dispatch.model")?,
            },
            4 => Message::Progress {
                job: cur.u64("Progress.job")?,
                rounds: cur.opt_u64("Progress.rounds")?,
                committed: cur.opt_u64("Progress.committed")?,
                reused: cur.u64("Progress.reused")?,
                rescored: cur.u64("Progress.rescored")?,
                trained: cur.bool("Progress.trained")?,
                note: cur.opt_string("Progress.note")?,
            },
            5 => Message::Result {
                job: cur.u64("Result.job")?,
                spec_hash: cur.hash("Result.spec_hash")?,
                payload: cur.bytes("Result.payload")?,
                model: cur.opt_bytes("Result.model")?,
            },
            6 => Message::Failed {
                job: cur.u64("Failed.job")?,
                message: cur.string("Failed.message")?,
                cancelled: cur.bool("Failed.cancelled")?,
            },
            7 => Message::Cancel {
                job: cur.u64("Cancel.job")?,
            },
            8 => Message::Ping {
                token: cur.u64("Ping.token")?,
            },
            9 => Message::Pong {
                token: cur.u64("Pong.token")?,
            },
            10 => Message::Goodbye {
                reason: cur.string("Goodbye.reason")?,
            },
            11 => Message::MetricsSnapshot {
                shard: cur.u64("MetricsSnapshot.shard")?,
                stats: cur.string("MetricsSnapshot.stats")?,
            },
            other => return Err(WireError::UnknownFrameType(other)),
        };
        cur.finish()?;
        Ok(msg)
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

fn put_opt_bytes(out: &mut Vec<u8>, v: Option<&[u8]>) {
    match v {
        None => out.push(0),
        Some(bytes) => {
            out.push(1);
            put_bytes(out, bytes);
        }
    }
}

fn put_opt_str(out: &mut Vec<u8>, v: Option<&str>) {
    put_opt_bytes(out, v.map(str::as_bytes));
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            put_u64(out, n);
        }
    }
}

/// Bounds-checked payload cursor. Every read names the field it is
/// decoding so truncation errors say what was missing.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated(what))?;
        if end > self.buf.len() {
            return Err(WireError::Truncated(what));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.take(1, what)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!(
                "{what}: bool tag must be 0 or 1, got {other}"
            ))),
        }
    }

    fn hash(&mut self, what: &'static str) -> Result<[u8; 32], WireError> {
        let b = self.take(32, what)?;
        let mut out = [0u8; 32];
        out.copy_from_slice(b);
        Ok(out)
    }

    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let len = self.u32(what)? as usize;
        if len > MAX_FIELD {
            return Err(WireError::Malformed(format!(
                "{what}: declared length {len} exceeds the field cap"
            )));
        }
        Ok(self.take(len, what)?.to_vec())
    }

    fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        String::from_utf8(self.bytes(what)?)
            .map_err(|_| WireError::Malformed(format!("{what}: invalid UTF-8")))
    }

    fn opt_tag(&mut self, what: &'static str) -> Result<bool, WireError> {
        self.bool(what)
    }

    fn opt_bytes(&mut self, what: &'static str) -> Result<Option<Vec<u8>>, WireError> {
        if self.opt_tag(what)? {
            Ok(Some(self.bytes(what)?))
        } else {
            Ok(None)
        }
    }

    fn opt_string(&mut self, what: &'static str) -> Result<Option<String>, WireError> {
        if self.opt_tag(what)? {
            Ok(Some(self.string(what)?))
        } else {
            Ok(None)
        }
    }

    fn opt_u64(&mut self, what: &'static str) -> Result<Option<u64>, WireError> {
        if self.opt_tag(what)? {
            Ok(Some(self.u64(what)?))
        } else {
            Ok(None)
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after message body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let payload = msg.encode_payload();
        let back = Message::decode_payload(msg.frame_type(), &payload).expect("decode");
        assert_eq!(msg, back);
    }

    #[test]
    fn every_variant_round_trips() {
        roundtrip(Message::Hello {
            version: 1,
            capabilities: vec!["shard=0".into(), "x".into()],
        });
        roundtrip(Message::HelloAck { version: 7 });
        roundtrip(Message::Dispatch {
            job: 42,
            spec_hash: [9u8; 32],
            spec_json: "{\"input\":{}}".into(),
            model: Some(vec![1, 2, 3]),
        });
        roundtrip(Message::Dispatch {
            job: 0,
            spec_hash: [0u8; 32],
            spec_json: String::new(),
            model: None,
        });
        roundtrip(Message::Progress {
            job: 1,
            rounds: Some(3),
            committed: None,
            reused: 5,
            rescored: 2,
            trained: true,
            note: Some("note".into()),
        });
        roundtrip(Message::Result {
            job: u64::MAX,
            spec_hash: [0xab; 32],
            payload: vec![0; 100],
            model: None,
        });
        roundtrip(Message::Failed {
            job: 3,
            message: "boom".into(),
            cancelled: true,
        });
        roundtrip(Message::Cancel { job: 11 });
        roundtrip(Message::Ping { token: 0xdead_beef });
        roundtrip(Message::Pong { token: 0 });
        roundtrip(Message::Goodbye {
            reason: "done".into(),
        });
        roundtrip(Message::MetricsSnapshot {
            shard: 3,
            stats: "c\tmarioh_engine_cliques_reused_total\t17\n".into(),
        });
        roundtrip(Message::MetricsSnapshot {
            shard: 0,
            stats: String::new(),
        });
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Message::Cancel { job: 1 }.encode_payload();
        payload.push(0);
        assert!(matches!(
            Message::decode_payload(7, &payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let payload = Message::Goodbye {
            reason: "long reason".into(),
        }
        .encode_payload();
        for cut in 0..payload.len() {
            let err = Message::decode_payload(10, &payload[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated(_) | WireError::Malformed(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(matches!(
            Message::decode_payload(0, &[]),
            Err(WireError::UnknownFrameType(0))
        ));
        assert!(matches!(
            Message::decode_payload(200, &[]),
            Err(WireError::UnknownFrameType(200))
        ));
    }

    #[test]
    fn oversized_field_length_is_rejected_without_allocation() {
        // A Goodbye whose length prefix claims ~4 GiB of reason text.
        let payload = u32::MAX.to_le_bytes().to_vec();
        assert!(matches!(
            Message::decode_payload(10, &payload),
            Err(WireError::Malformed(_))
        ));
    }
}
