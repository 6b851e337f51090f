//! CRC-framed, size-capped WAL segments.
//!
//! Store v2 replaces the single textual `jobs.log` with binary segment
//! files under `wal/`. Each segment carries a header naming the first
//! sequence number it holds, then a run of framed records:
//!
//! ```text
//! header:  [magic "MSEG"] [version: u32 LE] [first_seq: u64 LE]
//! record:  [payload_len: u32 LE] [seq: u64 LE] [crc32: u32 LE] [payload]
//! ```
//!
//! The checksum covers `seq || payload`, so a frame cannot be replayed
//! under the wrong sequence number. Recovery is a prefix scan per
//! segment: an *incomplete* trailing frame (crash mid-append) is
//! dropped and reported as `torn`; a *complete* frame with a bad
//! checksum is refused as corruption — unless it is the very last frame
//! in the file, which is indistinguishable from a torn append and is
//! dropped like one. Sequence numbers must be contiguous from the
//! header's `first_seq`; any gap or reorder is refused outright.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Segment header magic.
pub const SEGMENT_MAGIC: [u8; 4] = *b"MSEG";
/// Segment framing version (tracks `STORE_FORMAT_VERSION`).
pub const SEGMENT_VERSION: u32 = 2;
/// Bytes of header before the first record.
pub const SEGMENT_HEADER_LEN: usize = 16;
/// Framing bytes per record on top of the payload.
pub const FRAME_OVERHEAD: usize = 16;
/// Hard per-record payload cap; a larger length field is garbage.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// IEEE CRC-32, table-driven; the same polynomial the wire crate uses,
/// implemented here so `marioh-store` stays dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `seg-<first_seq as 16 hex digits>.wal` — lexicographic order is
/// sequence order.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("seg-{first_seq:016x}.wal")
}

/// Parse `seg-<hex>.wal` back to its first sequence number.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".wal")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Append-side of one active segment.
pub struct SegmentWriter {
    file: BufWriter<File>,
    path: PathBuf,
    first_seq: u64,
    next_seq: u64,
    bytes: u64,
}

impl SegmentWriter {
    /// Create `dir/seg-<first_seq>.wal` and write its header (buffered;
    /// call [`SegmentWriter::flush`] / [`SegmentWriter::sync`] to make
    /// it visible / durable).
    pub fn create(dir: &Path, first_seq: u64) -> std::io::Result<SegmentWriter> {
        let path = dir.join(segment_file_name(first_seq));
        let file = File::create(&path)?;
        let mut writer = SegmentWriter {
            file: BufWriter::new(file),
            path,
            first_seq,
            next_seq: first_seq,
            bytes: SEGMENT_HEADER_LEN as u64,
        };
        writer.file.write_all(&SEGMENT_MAGIC)?;
        writer.file.write_all(&SEGMENT_VERSION.to_le_bytes())?;
        writer.file.write_all(&first_seq.to_le_bytes())?;
        Ok(writer)
    }

    /// Frame and buffer one record; returns the sequence number it got.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        debug_assert!(payload.len() as u32 <= MAX_PAYLOAD);
        let seq = self.next_seq;
        let mut crc_input = Vec::with_capacity(8 + payload.len());
        crc_input.extend_from_slice(&seq.to_le_bytes());
        crc_input.extend_from_slice(payload);
        let crc = crc32(&crc_input);
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file.write_all(&seq.to_le_bytes())?;
        self.file.write_all(&crc.to_le_bytes())?;
        self.file.write_all(payload)?;
        self.next_seq += 1;
        self.bytes += (FRAME_OVERHEAD + payload.len()) as u64;
        Ok(seq)
    }

    /// Flush buffered frames to the OS (no fsync).
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }

    /// Flush and fsync the segment file.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_all()
    }

    /// Path of the segment file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Sequence number of this segment's first record (the filename's).
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes framed so far (header included) — the rotation trigger.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// True if at least one record has been appended.
    pub fn dirty(&self) -> bool {
        self.next_seq > self.first_seq
    }
}

/// Result of prefix-scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// First sequence number per the header (equals the filename's).
    pub first_seq: u64,
    /// `(seq, payload)` for every intact record, in order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// An incomplete or checksum-failed trailing frame was dropped.
    pub torn: bool,
}

/// Scan a segment, applying the recovery policy from the module docs.
/// `expected_first_seq` comes from the filename; a header that
/// disagrees is corruption.
pub fn read_segment(path: &Path, expected_first_seq: u64) -> Result<SegmentScan, String> {
    let mut data = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut data))
        .map_err(|e| format!("cannot read wal segment {}: {e}", path.display()))?;
    let name = path.display();
    if data.len() < SEGMENT_HEADER_LEN {
        // Crash between segment creation and the first header flush.
        return Ok(SegmentScan {
            first_seq: expected_first_seq,
            records: Vec::new(),
            torn: true,
        });
    }
    if data[..4] != SEGMENT_MAGIC {
        return Err(format!("wal segment {name} has a foreign header"));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version != SEGMENT_VERSION {
        return Err(format!(
            "wal segment {name} is framing version {version}, this build reads {SEGMENT_VERSION}"
        ));
    }
    let first_seq = u64::from_le_bytes(data[8..16].try_into().unwrap());
    if first_seq != expected_first_seq {
        return Err(format!(
            "wal segment {name} header claims first seq {first_seq}, filename says {expected_first_seq}"
        ));
    }
    let mut records = Vec::new();
    let mut torn = false;
    let mut pos = SEGMENT_HEADER_LEN;
    let mut next_seq = first_seq;
    while pos < data.len() {
        if data.len() - pos < FRAME_OVERHEAD {
            torn = true;
            break;
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(format!(
                "wal segment {name}: record at offset {pos} declares an absurd length {len}"
            ));
        }
        let frame_end = pos + FRAME_OVERHEAD + len as usize;
        if frame_end > data.len() {
            torn = true;
            break;
        }
        let seq = u64::from_le_bytes(data[pos + 4..pos + 12].try_into().unwrap());
        let crc = u32::from_le_bytes(data[pos + 12..pos + 16].try_into().unwrap());
        let payload = &data[pos + 16..frame_end];
        let mut crc_input = Vec::with_capacity(8 + payload.len());
        crc_input.extend_from_slice(&seq.to_le_bytes());
        crc_input.extend_from_slice(payload);
        if crc32(&crc_input) != crc {
            if frame_end == data.len() {
                // Final frame: indistinguishable from a torn append.
                torn = true;
                break;
            }
            return Err(format!(
                "wal segment {name}: checksum mismatch at offset {pos} with intact records after it"
            ));
        }
        if seq != next_seq {
            return Err(format!(
                "wal segment {name}: out-of-order sequence {seq} at offset {pos} (expected {next_seq})"
            ));
        }
        records.push((seq, payload.to_vec()));
        next_seq += 1;
        pos = frame_end;
    }
    Ok(SegmentScan {
        first_seq,
        records,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("marioh-segment-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_records(dir: &Path, first_seq: u64, payloads: &[&[u8]]) -> PathBuf {
        let mut w = SegmentWriter::create(dir, first_seq).unwrap();
        for p in payloads {
            w.append(p).unwrap();
        }
        w.sync().unwrap();
        w.path().to_path_buf()
    }

    #[test]
    fn round_trips_records_in_sequence() {
        let dir = tmp_dir("roundtrip");
        let path = write_records(&dir, 7, &[b"alpha", b"", b"gamma"]);
        let scan = read_segment(&path, 7).unwrap();
        assert!(!scan.torn);
        assert_eq!(
            scan.records,
            vec![
                (7, b"alpha".to_vec()),
                (8, Vec::new()),
                (9, b"gamma".to_vec())
            ]
        );
    }

    #[test]
    fn torn_tail_drops_only_the_incomplete_frame() {
        let dir = tmp_dir("torn");
        let path = write_records(&dir, 1, &[b"keep-me", b"half-written"]);
        let full = std::fs::read(&path).unwrap();
        for cut in 1..(FRAME_OVERHEAD + b"half-written".len()) {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let scan = read_segment(&path, 1).unwrap();
            assert!(scan.torn, "cut {cut} should read as torn");
            assert_eq!(scan.records, vec![(1, b"keep-me".to_vec())]);
        }
    }

    #[test]
    fn interior_checksum_damage_is_refused() {
        let dir = tmp_dir("interior");
        let path = write_records(&dir, 1, &[b"first", b"second"]);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a payload byte of the FIRST record: a complete later
        // record exists, so this is corruption, not a torn tail.
        let first_payload_at = SEGMENT_HEADER_LEN + FRAME_OVERHEAD;
        data[first_payload_at] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let err = read_segment(&path, 1).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn damaged_final_frame_reads_as_torn() {
        let dir = tmp_dir("final-frame");
        let path = write_records(&dir, 1, &[b"first", b"second"]);
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let scan = read_segment(&path, 1).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records, vec![(1, b"first".to_vec())]);
    }

    #[test]
    fn out_of_order_sequence_is_refused() {
        let dir = tmp_dir("seq");
        let path = write_records(&dir, 1, &[b"one"]);
        // Append a hand-built frame with seq 5 (valid CRC, wrong seq).
        let payload = b"five";
        let mut crc_input = Vec::new();
        crc_input.extend_from_slice(&5u64.to_le_bytes());
        crc_input.extend_from_slice(payload);
        let crc = crc32(&crc_input);
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        data.extend_from_slice(&5u64.to_le_bytes());
        data.extend_from_slice(&crc.to_le_bytes());
        data.extend_from_slice(payload);
        std::fs::write(&path, &data).unwrap();
        let err = read_segment(&path, 1).unwrap_err();
        assert!(err.contains("out-of-order sequence 5"), "{err}");
    }

    #[test]
    fn foreign_headers_and_garbage_lengths_are_refused() {
        let dir = tmp_dir("foreign");
        let path = dir.join(segment_file_name(3));
        std::fs::write(&path, b"definitely not a segment header").unwrap();
        assert!(read_segment(&path, 3)
            .unwrap_err()
            .contains("foreign header"));

        let path2 = write_records(&dir, 3, &[]);
        let mut data = std::fs::read(&path2).unwrap();
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path2, &data).unwrap();
        assert!(read_segment(&path2, 3)
            .unwrap_err()
            .contains("absurd length"));

        // Header shorter than SEGMENT_HEADER_LEN: crash before first
        // flush — reads as an empty torn segment, not an error.
        let path3 = dir.join(segment_file_name(9));
        std::fs::write(&path3, b"MSE").unwrap();
        let scan = read_segment(&path3, 9).unwrap();
        assert!(scan.torn && scan.records.is_empty());
    }

    #[test]
    fn filename_round_trip() {
        assert_eq!(segment_file_name(0x2a), "seg-000000000000002a.wal");
        assert_eq!(
            parse_segment_file_name("seg-000000000000002a.wal"),
            Some(0x2a)
        );
        assert_eq!(parse_segment_file_name("seg-2a.wal"), None);
        assert_eq!(parse_segment_file_name("base.filter"), None);
    }
}
