//! WAL segment files: a fixed header followed by CRC-framed records.
//!
//! Layout:
//!
//! ```text
//! [magic "OAKSEG01": 8 bytes][shard: u32 LE]          ← segment header
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]    ← frame, repeated
//! ```
//!
//! The shard field names the engine shard whose events the segment holds;
//! [`META_SHARD`] marks the global segment (rule-table events). Frames are
//! self-delimiting and check-summed, so a reader can walk a segment and
//! stop at the first frame whose length or CRC does not hold — everything
//! before that point is valid history, everything after is a torn tail.

use std::io;
use std::path::{Path, PathBuf};

use crate::backend::{RealFs, StorageBackend, StorageFile};
use crate::crc32::crc32;

/// Magic prefix of every WAL segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"OAKSEG01";
/// Shard field value naming the global (rule-table) segment.
pub const META_SHARD: u32 = u32::MAX;
/// Upper bound on one WAL or stream frame's payload: a reader that has
/// not seen the whole frame yet takes a larger length for corruption
/// rather than buffer towards it, so no writer may produce one.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;
/// Fixed per-frame overhead: `[len: u32][crc: u32]`.
pub const FRAME_OVERHEAD: usize = 8;
/// Fixed segment header size: magic plus the shard field.
pub const SEGMENT_HEADER: usize = SEGMENT_MAGIC.len() + 4;

/// The `[len: u32 LE][crc32: u32 LE]` that precedes `payload` in its
/// frame, for writers that would rather not copy a large payload.
///
/// # Errors
///
/// `InvalidInput` for a payload whose length the header cannot hold.
pub fn frame_header(payload: &[u8]) -> io::Result<[u8; FRAME_OVERHEAD]> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "a payload of {} bytes does not fit a frame header",
                payload.len()
            ),
        )
    })?;
    let mut header = [0; FRAME_OVERHEAD];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(header)
}

/// Builds a frame around a payload that `write` appends to the buffer it
/// is handed — the writer encodes straight into the frame, no copy.
///
/// A payload no header can describe is given the all-ones header: a
/// length every reader refuses (`u32::MAX > MAX_FRAME`), never a wrapped
/// one that could pass for a shorter frame.
pub fn build_frame(write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = vec![0; FRAME_OVERHEAD];
    write(&mut frame);
    let header = frame_header(&frame[FRAME_OVERHEAD..]).unwrap_or([0xFF; FRAME_OVERHEAD]);
    frame[..FRAME_OVERHEAD].copy_from_slice(&header);
    frame
}

/// Frames `payload` as `[len: u32 LE][crc32: u32 LE][payload]`.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    build_frame(|frame| frame.extend_from_slice(payload))
}

/// One step of decoding a frame off an in-progress byte stream.
///
/// WAL readers treat a clean end of segment and a torn tail the same
/// (stop at the first non-frame, see [`decode_frame`]); a *stream*
/// reader must not — bytes that are merely still in flight mean "wait
/// for more", while bytes that can never become a valid frame mean the
/// link is poisoned and must be dropped.
#[derive(Debug)]
pub enum FrameStep<'a> {
    /// The bytes at `offset` are a valid prefix of a frame that has not
    /// fully arrived: read more.
    Incomplete,
    /// A whole, checksum-valid frame: its payload and the offset one
    /// past it.
    Frame(&'a [u8], usize),
    /// The bytes at `offset` can never complete into a valid frame (a
    /// length over [`MAX_FRAME`], or a full-length payload failing its
    /// CRC).
    Corrupt,
}

impl<'a> FrameStep<'a> {
    /// The payload and the offset one past it, for readers to whom an
    /// incomplete frame and a corrupt one are the same: no frame.
    fn whole(self) -> Option<(&'a [u8], usize)> {
        match self {
            FrameStep::Frame(payload, next) => Some((payload, next)),
            FrameStep::Incomplete | FrameStep::Corrupt => None,
        }
    }
}

/// Classifies the bytes at `offset` as an incomplete, whole, or corrupt
/// frame. See [`FrameStep`].
pub fn decode_frame_step(buf: &[u8], offset: usize) -> FrameStep<'_> {
    frame_at(buf, offset, MAX_FRAME)
}

/// [`decode_frame_step`] with the longest payload the reader will wait
/// for as a parameter.
fn frame_at(buf: &[u8], offset: usize, max_len: u32) -> FrameStep<'_> {
    let Some(header) = buf.get(offset..offset + FRAME_OVERHEAD) else {
        return FrameStep::Incomplete;
    };
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if len > max_len {
        return FrameStep::Corrupt;
    }
    let expected = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let start = offset + FRAME_OVERHEAD;
    let Some(payload) = buf.get(start..start + len as usize) else {
        return FrameStep::Incomplete;
    };
    if crc32(payload) != expected {
        return FrameStep::Corrupt;
    }
    FrameStep::Frame(payload, start + len as usize)
}

/// Decodes the frame starting at `offset` in `buf`.
///
/// Returns the payload and the offset one past the frame, or `None` when
/// the bytes at `offset` are not a whole, checksum-valid frame — a clean
/// end of segment and a torn tail look the same to the decoder; callers
/// that care compare `offset` against `buf.len()`. Stream readers that
/// must tell the two apart use [`decode_frame_step`].
pub fn decode_frame(buf: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    decode_frame_step(buf, offset).whole()
}

/// [`decode_frame`] for a file that was read whole, a snapshot: the
/// bytes present bound the length, [`MAX_FRAME`] does not — there is
/// nothing left to buffer, and a state of 100,000 users is a larger
/// document than any WAL frame.
pub fn decode_file_frame(buf: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    frame_at(buf, offset, u32::MAX).whole()
}

/// Everything salvageable from one segment file's bytes.
#[derive(Debug)]
pub struct SegmentContents<'a> {
    /// The engine shard the segment belongs to; `None` for the global
    /// segment.
    pub shard: Option<usize>,
    /// Valid frames in file order: the offset of the frame in the file,
    /// and its payload.
    pub frames: Vec<(usize, &'a [u8])>,
    /// `false` when reading stopped at a torn or corrupt frame (or the
    /// header itself was damaged) before the end of the file.
    pub clean: bool,
}

/// Walks a segment file's bytes, salvaging the valid frame prefix.
///
/// Corruption — a damaged header, a torn final frame, a bit-flip anywhere
/// — is not an error: the contents up to the first bad frame come back
/// with `clean == false`. An empty payload ends the salvage too: no
/// writer produces one, and it is what a tail the filesystem extended
/// but never filled (all zeroes, whose CRC is zero) reads as.
pub fn parse_segment(buf: &[u8]) -> SegmentContents<'_> {
    let mut contents = SegmentContents {
        shard: None,
        frames: Vec::new(),
        clean: false,
    };
    let Some(header) = buf.get(..SEGMENT_HEADER) else {
        return contents;
    };
    if &header[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return contents;
    }
    let shard = u32::from_le_bytes(header[SEGMENT_MAGIC.len()..].try_into().expect("4 bytes"));
    contents.shard = if shard == META_SHARD {
        None
    } else {
        Some(shard as usize)
    };
    let mut offset = SEGMENT_HEADER;
    while let Some((payload, next)) = decode_frame(buf, offset) {
        if payload.is_empty() {
            break;
        }
        contents.frames.push((offset, payload));
        offset = next;
    }
    contents.clean = offset == buf.len();
    contents
}

/// An open, append-only segment file.
#[derive(Debug)]
pub struct SegmentWriter {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    bytes: u64,
    max_seq: u64,
    appended_since_sync: u64,
}

impl SegmentWriter {
    /// Creates the file at `path` on the real filesystem and writes the
    /// segment header. See [`SegmentWriter::create_with`].
    pub fn create(path: PathBuf, shard: Option<usize>) -> io::Result<Self> {
        SegmentWriter::create_with(&RealFs, path, shard)
    }

    /// Creates the file at `path` through `backend` and writes the
    /// segment header. The new directory entry is durable only once the
    /// caller syncs the parent directory.
    pub fn create_with(
        backend: &dyn StorageBackend,
        path: PathBuf,
        shard: Option<usize>,
    ) -> io::Result<Self> {
        let mut file = backend.create(&path)?;
        let shard_field = match shard {
            Some(index) => index as u32,
            None => META_SHARD,
        };
        file.write_all(SEGMENT_MAGIC)?;
        file.write_all(&shard_field.to_le_bytes())?;
        Ok(SegmentWriter {
            file,
            path,
            bytes: SEGMENT_HEADER as u64,
            max_seq: 0,
            appended_since_sync: 0,
        })
    }

    /// Appends one framed record carrying the event with sequence `seq`.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        self.append_frame(seq, &encode_frame(payload))
    }

    /// Appends `frame` — a whole frame, as [`build_frame`] returns it —
    /// carrying the event with sequence `seq`.
    ///
    /// # Errors
    ///
    /// Besides I/O failures: `InvalidInput`, nothing written, for a
    /// payload longer than [`MAX_FRAME`] — every segment reader stops at
    /// such a frame, so it would take the rest of the segment with it.
    pub fn append_frame(&mut self, seq: u64, frame: &[u8]) -> io::Result<()> {
        let payload_len = frame.len().saturating_sub(FRAME_OVERHEAD);
        if payload_len > MAX_FRAME as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "event {seq} encodes to {payload_len} bytes, over the {MAX_FRAME}-byte \
                     frame limit"
                ),
            ));
        }
        self.file.write_all(frame)?;
        self.bytes += frame.len() as u64;
        self.max_seq = self.max_seq.max(seq);
        self.appended_since_sync += 1;
        Ok(())
    }

    /// Flushes appended frames to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.appended_since_sync > 0 {
            self.file.sync_data()?;
            self.appended_since_sync = 0;
        }
        Ok(())
    }

    /// Records appended since the last [`SegmentWriter::sync`].
    pub fn appended_since_sync(&self) -> u64 {
        self.appended_since_sync
    }

    /// Current file size in bytes, header included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Highest event sequence number appended to this segment.
    pub fn max_seq(&self) -> u64 {
        self.max_seq
    }

    /// The segment's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}
