//! Frame layer: a 13-byte little-endian header followed by the message
//! payload, CRC-guarded end to end.
//!
//! ```text
//! offset  size  field
//!      0     4  channel id   (u32 LE; logical channel, one per job)
//!      4     1  frame type   (message tag, see message grammar)
//!      5     4  payload len  (u32 LE; capped at MAX_PAYLOAD)
//!      9     4  crc32        (u32 LE; IEEE CRC-32 over header[0..9]
//!                             then the payload bytes)
//!     13     …  payload
//! ```
//!
//! The CRC covers the header's addressing fields as well as the
//! payload, so a single bit flip *anywhere* in a frame — channel, type
//! tag, length, payload, or the CRC itself — is detected (CRC-32
//! catches all single-bit errors). A flipped length field either
//! changes the checksummed bytes or desynchronizes the stream into a
//! failing header, never into silent acceptance.

use std::io::{BufReader, Read, Write};

use crate::message::Message;
use crate::WireError;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 13;

/// Hard cap on a frame payload (64 MiB). A header declaring more is
/// rejected before any allocation, so a corrupted length field cannot
/// ask the reader for gigabytes.
pub const MAX_PAYLOAD: u64 = 64 * 1024 * 1024;

/// Channel id used for connection-level control traffic (handshake,
/// heartbeats, goodbye). Job traffic uses per-dispatch channels > 0.
pub const CONTROL_CHANNEL: u32 = 0;

/// IEEE CRC-32 (the zlib/PNG polynomial), table-driven, built in a
/// const fn so the crate stays dependency-free.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Running CRC-32 state, fed the header prefix and then the payload.
#[derive(Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// CRC-32 of a byte slice (exposed for tests and tooling).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// A decoded frame: which logical channel it arrived on and the typed
/// message it carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Logical channel the frame belongs to ([`CONTROL_CHANNEL`] for
    /// connection-level traffic, a per-job channel otherwise).
    pub channel: u32,
    /// The message the frame carried.
    pub message: Message,
}

/// Encode one frame (header + payload) into a byte vector.
pub fn encode_frame(channel: u32, message: &Message) -> Vec<u8> {
    let payload = message.encode_payload();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&channel.to_le_bytes());
    out.push(message.frame_type());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&out[0..9]);
    crc.update(&payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parse one frame from a byte slice known to contain at least a full
/// header. Returns the frame and the number of bytes it consumed.
fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    debug_assert!(buf.len() >= HEADER_LEN);
    let channel = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let frame_type = buf[4];
    let payload_len = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]) as u64;
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::PayloadTooLarge {
            len: payload_len,
            max: MAX_PAYLOAD,
        });
    }
    let expected_crc = u32::from_le_bytes([buf[9], buf[10], buf[11], buf[12]]);
    let total = HEADER_LEN + payload_len as usize;
    if buf.len() < total {
        return Err(WireError::Truncated("frame payload"));
    }
    let payload = &buf[HEADER_LEN..total];
    let mut crc = Crc32::new();
    crc.update(&buf[0..9]);
    crc.update(payload);
    let actual = crc.finish();
    if actual != expected_crc {
        return Err(WireError::BadCrc {
            expected: expected_crc,
            actual,
        });
    }
    let message = Message::decode_payload(frame_type, payload)?;
    Ok((Frame { channel, message }, total))
}

/// Writes frames to a transport. Each [`send`](FrameWriter::send)
/// flushes, so a frame is on the wire when the call returns.
pub struct FrameWriter<W: Write> {
    inner: W,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a transport for frame output.
    pub fn new(inner: W) -> FrameWriter<W> {
        FrameWriter { inner }
    }

    /// Encode and send one message on the given channel, flushing the
    /// transport. Returns the frame's size on the wire (header +
    /// payload), so callers can account traffic without re-encoding.
    ///
    /// Injection site `wire.frame` (one operation per frame sent):
    /// `err` fails the send, `corrupt` flips the frame's last byte on
    /// its way out — the receiver's CRC check turns that into a clean
    /// connection death, never a silently wrong message.
    pub fn send(&mut self, channel: u32, message: &Message) -> Result<usize, WireError> {
        let mut bytes = encode_frame(channel, message);
        match marioh_fault::hit("wire.frame") {
            Some(marioh_fault::Action::Err) => {
                return Err(WireError::Io(marioh_fault::io_error("wire.frame")))
            }
            Some(marioh_fault::Action::Corrupt) => marioh_fault::corrupt_byte(&mut bytes),
            Some(marioh_fault::Action::Stall(ms)) => marioh_fault::stall(ms),
            Some(marioh_fault::Action::Exit | marioh_fault::Action::Panic) | None => {}
        }
        self.inner.write_all(&bytes)?;
        self.inner.flush()?;
        Ok(bytes.len())
    }

    /// Access the underlying transport (used to shut down sockets).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

/// Reads frames from a transport through an internal buffer that always
/// sits on a frame boundary between calls.
pub struct FrameReader<R: Read> {
    inner: BufReader<R>,
    /// Partial frame accumulated by [`try_read_buffered`] across calls.
    pending: Vec<u8>,
    /// Total wire bytes of every frame successfully decoded so far.
    consumed: u64,
    /// Set after a mid-stream decode failure (bad CRC, truncation,
    /// corrupt length). The stream position is unknowable past such an
    /// error, so every later read answers [`WireError::Desynced`]
    /// instead of misparsing whatever bytes follow.
    poisoned: Option<&'static str>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a transport for frame input.
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner: BufReader::new(inner),
            pending: Vec::new(),
            consumed: 0,
            poisoned: None,
        }
    }

    /// Records errors that leave the stream position unknowable; once
    /// one happened, the connection can only be torn down.
    fn note_decode_error(&mut self, err: &WireError) {
        let reason = match err {
            WireError::BadCrc { .. } => "frame checksum mismatch",
            WireError::Truncated(_) => "truncated frame",
            WireError::PayloadTooLarge { .. } => "corrupt length field",
            WireError::UnknownFrameType(_) => "unknown frame type",
            WireError::Malformed(_) => "malformed frame payload",
            // Transport errors and handshake refusals do not desync
            // the framing (there is nothing left to read anyway).
            WireError::Io(_)
            | WireError::Desynced(_)
            | WireError::VersionMismatch { .. }
            | WireError::Rejected(_) => return,
        };
        self.poisoned = Some(reason);
    }

    /// Cumulative wire size (header + payload) of all frames this reader
    /// has decoded. Sampling this before and after a read gives the
    /// frame's size without re-encoding it.
    #[must_use]
    pub fn bytes_consumed(&self) -> u64 {
        self.consumed
    }

    /// Read the next frame, blocking until one arrives.
    ///
    /// Returns `Ok(None)` on a clean end of stream at a frame boundary;
    /// an end of stream mid-frame is a [`WireError::Truncated`]. After
    /// any decode error the reader is *poisoned*: the stream position
    /// is gone, so every further call answers [`WireError::Desynced`]
    /// — corruption maps to one clean teardown, never to misparsed
    /// frames or a hang.
    ///
    /// Injection site `wire.read` (one operation per call): `err`
    /// fails the read with an injected transport error.
    pub fn read(&mut self) -> Result<Option<Frame>, WireError> {
        if let Some(reason) = self.poisoned {
            return Err(WireError::Desynced(reason));
        }
        if let Some(marioh_fault::Action::Err) = marioh_fault::hit("wire.read") {
            return Err(WireError::Io(marioh_fault::io_error("wire.read")));
        }
        let result = self.read_inner();
        if let Err(e) = &result {
            self.note_decode_error(e);
        }
        result
    }

    fn read_inner(&mut self) -> Result<Option<Frame>, WireError> {
        let mut header = [0u8; HEADER_LEN];
        let mut filled = self.pending.len().min(HEADER_LEN);
        header[..filled].copy_from_slice(&self.pending[..filled]);
        while filled < HEADER_LEN {
            match self.inner.read(&mut header[filled..]) {
                Ok(0) => {
                    if filled == 0 && self.pending.is_empty() {
                        return Ok(None);
                    }
                    return Err(WireError::Truncated("frame header"));
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        let payload_len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as u64;
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::PayloadTooLarge {
                len: payload_len,
                max: MAX_PAYLOAD,
            });
        }
        let total = HEADER_LEN + payload_len as usize;
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(&header);
        if self.pending.len() > HEADER_LEN {
            let extra = (self.pending.len() - HEADER_LEN).min(payload_len as usize);
            buf.extend_from_slice(&self.pending[HEADER_LEN..HEADER_LEN + extra]);
        }
        self.pending.clear();
        while buf.len() < total {
            let start = buf.len();
            buf.resize(total, 0);
            match self.inner.read(&mut buf[start..]) {
                Ok(0) => return Err(WireError::Truncated("frame payload")),
                Ok(n) => buf.truncate(start + n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    buf.truncate(start);
                }
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        let (frame, total) = decode_frame(&buf)?;
        self.consumed += total as u64;
        Ok(Some(frame))
    }

    /// Return the next frame only if it is already fully available
    /// without blocking (either buffered internally or readable from a
    /// transport in non-blocking mode).
    ///
    /// Returns `Ok(None)` when no complete frame is available yet; a
    /// partial frame is retained and completed by later calls. Used by
    /// the dispatcher to drain every frame a shard has already sent
    /// before committing a merge batch. Poisons on decode errors like
    /// [`FrameReader::read`].
    pub fn try_read_buffered(&mut self) -> Result<Option<Frame>, WireError> {
        if let Some(reason) = self.poisoned {
            return Err(WireError::Desynced(reason));
        }
        let result = self.try_read_buffered_inner();
        if let Err(e) = &result {
            self.note_decode_error(e);
        }
        result
    }

    fn try_read_buffered_inner(&mut self) -> Result<Option<Frame>, WireError> {
        loop {
            if self.pending.len() >= HEADER_LEN {
                let payload_len = u32::from_le_bytes([
                    self.pending[5],
                    self.pending[6],
                    self.pending[7],
                    self.pending[8],
                ]) as u64;
                if payload_len > MAX_PAYLOAD {
                    return Err(WireError::PayloadTooLarge {
                        len: payload_len,
                        max: MAX_PAYLOAD,
                    });
                }
                let total = HEADER_LEN + payload_len as usize;
                if self.pending.len() >= total {
                    let (frame, consumed) = decode_frame(&self.pending)?;
                    self.pending.drain(..consumed);
                    self.consumed += consumed as u64;
                    return Ok(Some(frame));
                }
            }
            // Need more bytes: take whatever the buffer already holds,
            // then poll the transport once without blocking on a full
            // frame.
            let buffered = self.inner.buffer().len();
            if buffered > 0 {
                let mut chunk = vec![0u8; buffered];
                let n = self.inner.read(&mut chunk).map_err(WireError::Io)?;
                chunk.truncate(n);
                self.pending.extend_from_slice(&chunk);
                continue;
            }
            let mut probe = [0u8; 4096];
            match self.inner.read(&mut probe) {
                Ok(0) => {
                    if self.pending.is_empty() {
                        return Ok(None);
                    }
                    return Err(WireError::Truncated("frame header"));
                }
                Ok(n) => {
                    self.pending.extend_from_slice(&probe[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ping(token: u64) -> Message {
        Message::Ping { token }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frame_round_trips_through_a_stream() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(3, &ping(9)));
        bytes.extend_from_slice(&encode_frame(
            CONTROL_CHANNEL,
            &Message::Goodbye {
                reason: "bye".into(),
            },
        ));
        let mut reader = FrameReader::new(&bytes[..]);
        let first = reader.read().unwrap().unwrap();
        assert_eq!(first.channel, 3);
        assert_eq!(first.message, ping(9));
        let second = reader.read().unwrap().unwrap();
        assert_eq!(second.channel, CONTROL_CHANNEL);
        assert!(reader.read().unwrap().is_none());
    }

    #[test]
    fn clean_eof_between_frames_is_none_mid_frame_is_truncated() {
        let bytes = encode_frame(1, &ping(1));
        for cut in 1..bytes.len() {
            let mut reader = FrameReader::new(&bytes[..cut]);
            let err = reader.read().unwrap_err();
            assert!(matches!(err, WireError::Truncated(_)), "cut {cut}: {err:?}");
        }
        let mut reader = FrameReader::new(&bytes[..0]);
        assert!(reader.read().unwrap().is_none());
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let bytes = encode_frame(7, &ping(0x0102_0304_0506_0708));
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                let mut reader = FrameReader::new(&corrupt[..]);
                match reader.read() {
                    Ok(Some(frame)) => {
                        panic!("flip at byte {byte} bit {bit} was accepted as {frame:?}")
                    }
                    Ok(None) => panic!("flip at byte {byte} bit {bit} read as clean EOF"),
                    Err(_) => {}
                }
            }
        }
    }

    #[test]
    fn oversized_payload_header_is_rejected_before_allocation() {
        let mut bytes = encode_frame(1, &ping(1));
        // Rewrite the length field to 3 GiB and leave the CRC stale;
        // the length guard must fire before anything else.
        let huge = (3u64 * 1024 * 1024 * 1024) as u32;
        bytes[5..9].copy_from_slice(&huge.to_le_bytes());
        let mut reader = FrameReader::new(&bytes[..]);
        assert!(matches!(
            reader.read(),
            Err(WireError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn try_read_buffered_returns_only_complete_frames() {
        let frame_bytes = encode_frame(2, &ping(5));
        let (mid, rest) = frame_bytes.split_at(frame_bytes.len() / 2);

        // A reader over just the first half sees no complete frame and
        // retains the partial bytes...
        struct TwoPart {
            parts: Vec<Vec<u8>>,
        }
        impl Read for TwoPart {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if let Some(part) = self.parts.first_mut() {
                    if part.is_empty() {
                        self.parts.remove(0);
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WouldBlock,
                            "not yet",
                        ));
                    }
                    let n = part.len().min(buf.len());
                    buf[..n].copy_from_slice(&part[..n]);
                    part.drain(..n);
                    if part.is_empty() {
                        self.parts.remove(0);
                    }
                    return Ok(n);
                }
                Ok(0)
            }
        }
        let transport = TwoPart {
            parts: vec![mid.to_vec(), Vec::new(), rest.to_vec()],
        };
        let mut reader = FrameReader::new(transport);
        // First drain: only half the frame is available -> None.
        assert!(reader.try_read_buffered().unwrap().is_none());
        // Second drain: the rest arrived -> the frame comes out whole.
        let frame = reader.try_read_buffered().unwrap().unwrap();
        assert_eq!(frame.channel, 2);
        assert_eq!(frame.message, ping(5));
    }
}
