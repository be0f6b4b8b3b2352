//! Per-shard write-ahead log and checkpointing.
//!
//! Durability for ingest works at the frame level: every accepted frame
//! is appended to the owning shard's log *before* it is acknowledged, so
//! an acknowledged sample is always recoverable. The on-disk pieces:
//!
//! * **Segments** (`seg-<first_lsn>.wal`): a `LWAL` header followed by
//!   [`WalRecord`]s in the same length-prefixed CRC-32 framing the wire
//!   protocol uses ([`crate::protocol::write_frame`]). Records carry
//!   implicit, densely increasing log sequence numbers (LSNs) starting
//!   at the segment's `first_lsn`. Segments rotate at a size threshold.
//!   There are three kinds of record:
//!   - `Frame` (tag 1): an accepted trace frame, logged before it is
//!     acknowledged;
//!   - `End` (tag 2): an end frame that completed its upload;
//!   - `Begin` (tag 3): a new upload on a stream dropped the mid-trace
//!     decode state of an abandoned or failed one. It is written only
//!     when the log holds frames of the stream after its last `End` or
//!     `Begin` record (or a checkpoint holds its decoder), so that
//!     replay never feeds the new upload into the old decoder. A binary
//!     that predates `Begin` records reads one as malformed and stops
//!     replay there, as at a torn tail: do not run it on a non-empty log
//!     written by a later one.
//! * **Checkpoints** (`ckpt-<last_lsn>.ckpt`): an epoch snapshot of the
//!   shard's state — every scenario sketch (via
//!   [`LatencySketch::encode`]) plus every live upload stream's resume
//!   state (committed seq, mid-trace [`DecoderState`], last stamp)
//!   — written to a temp file and atomically renamed, with a trailing
//!   CRC-32 over the whole image.
//!
//! Recovery = newest valid checkpoint + [`replay`] of every record with
//! an LSN past it, each fed to the shard worker's own frame, end and
//! begin transitions, so replay cannot take a path live ingest did not.
//! A torn tail (partial final record, from a crash mid
//! `write(2)`) is treated as a clean end of log: replay stops at the
//! last intact record, exactly like the trace reader's tolerant
//! salvage. Nothing here calls `fsync` — the contract is crash-safety
//! against process death (`kill -9`), where completed `write(2)`s
//! survive, not against power loss.
//!
//! Checkpoints prune: every segment fully covered by the checkpoint's
//! `last_lsn` is deleted, and a drain-time checkpoint covers everything,
//! so a clean restart replays nothing.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, IoSlice, Read, Write};
use std::path::{Path, PathBuf};

use latlab_analysis::{EventClass, LatencySketch};
use latlab_trace::{crc32, crc32_combine, DecoderState, TraceMeta};

use crate::protocol::{write_frame, MAX_FRAME_PAYLOAD};

/// Segment file magic: `LWAL` ("latlab WAL").
pub const SEGMENT_MAGIC: [u8; 4] = *b"LWAL";

/// Checkpoint file magic: `LCKP` ("latlab checkpoint").
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"LCKP";

/// Current on-disk WAL format version (segments and checkpoints).
pub const WAL_VERSION: u8 = 1;

/// Segment header: magic + version + first_lsn.
const SEGMENT_HEADER_LEN: usize = 4 + 1 + 8;

/// A WAL record wraps one wire frame plus stream identity; allow for
/// the wrapping overhead on top of the wire payload cap.
const MAX_WAL_RECORD: usize = MAX_FRAME_PAYLOAD + 4096;

/// Checkpoint files kept around after a new one lands (the newest is
/// authoritative; one predecessor survives as a fallback).
const CHECKPOINTS_KEPT: usize = 2;

/// Write-ahead log tuning.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Root directory; each shard logs under `<dir>/shard-<i>/`.
    pub dir: PathBuf,
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Write a checkpoint after this many record bytes since the last.
    pub checkpoint_bytes: u64,
}

impl WalConfig {
    /// Defaults: 4 MiB segments, checkpoint every 32 MiB appended.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 4 << 20,
            checkpoint_bytes: 32 << 20,
        }
    }

    /// The per-shard log directory.
    pub fn shard_dir(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}"))
    }
}

/// Identity of one upload stream inside a shard.
///
/// Resumable uploads are **keyed** by `(client, scenario)` — the key the
/// dedupe watermark and resume state live under. Legacy uploads get a
/// per-connection id instead, so any number of them may run concurrently
/// under the same `(client, scenario)` without colliding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// A resumable stream: survives disconnects, dedupes by seq.
    Keyed {
        /// Client identity from the `PUT` header.
        client: String,
        /// Scenario the samples fold under.
        scenario: String,
    },
    /// A legacy one-shot stream, alive only as long as its connection.
    Conn {
        /// Server-assigned connection id, unique across a server run
        /// (and, after recovery, across restarts sharing a WAL).
        conn: u64,
        /// Scenario the samples fold under.
        scenario: String,
    },
}

impl StreamId {
    /// The scenario this stream folds into.
    pub fn scenario(&self) -> &str {
        match self {
            StreamId::Keyed { scenario, .. } | StreamId::Conn { scenario, .. } => scenario,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StreamId::Keyed { client, scenario } => {
                out.push(0);
                put_str(out, client);
                put_str(out, scenario);
            }
            StreamId::Conn { conn, scenario } => {
                out.push(1);
                out.extend_from_slice(&conn.to_le_bytes());
                put_str(out, scenario);
            }
        }
    }

    fn decode(buf: &[u8], at: &mut usize) -> Option<StreamId> {
        match get_u8(buf, at)? {
            0 => {
                let client = get_str(buf, at)?;
                let scenario = get_str(buf, at)?;
                Some(StreamId::Keyed { client, scenario })
            }
            1 => {
                let conn = get_u64(buf, at)?;
                let scenario = get_str(buf, at)?;
                Some(StreamId::Conn { conn, scenario })
            }
            _ => None,
        }
    }

    /// The conn id, for legacy streams.
    pub(crate) fn conn_id(&self) -> Option<u64> {
        match self {
            StreamId::Conn { conn, .. } => Some(*conn),
            StreamId::Keyed { .. } => None,
        }
    }
}

/// One durable log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// An accepted trace frame: replay feeds `bytes` to the stream's
    /// decoder exactly as live ingest did.
    Frame {
        /// Owning stream.
        stream: StreamId,
        /// Event class the stream's samples are accounted under.
        class: Option<EventClass>,
        /// Upload sequence number of this frame.
        seq: u64,
        /// Raw wire-frame payload (trace bytes).
        bytes: Vec<u8>,
    },
    /// The end-of-upload marker: the stream's trace completed cleanly.
    End {
        /// Owning stream.
        stream: StreamId,
        /// Sequence number of the end frame.
        seq: u64,
    },
    /// A new upload dropped the stream's mid-trace decode state.
    Begin {
        /// Owning stream.
        stream: StreamId,
    },
}

/// Serializes a `Frame` record payload from borrowed parts (the worker
/// logs pooled frame buffers without giving them up).
pub(crate) fn encode_frame_record(
    stream: &StreamId,
    class: Option<EventClass>,
    seq: u64,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    out.push(1);
    stream.encode(out);
    out.push(class.map_or(0, |c| c.index() as u8 + 1));
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
}

impl WalRecord {
    /// Serializes the record payload (the part that goes inside the
    /// length+CRC framing).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Frame {
                stream,
                class,
                seq,
                bytes,
            } => encode_frame_record(stream, *class, *seq, bytes, out),
            WalRecord::End { stream, seq } => {
                out.push(2);
                stream.encode(out);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            WalRecord::Begin { stream } => {
                out.push(3);
                stream.encode(out);
            }
        }
    }

    /// Parses a record payload; `None` on any malformation.
    pub fn decode(buf: &[u8]) -> Option<WalRecord> {
        let mut at = 0usize;
        match get_u8(buf, &mut at)? {
            1 => {
                let stream = StreamId::decode(buf, &mut at)?;
                let class = decode_class(get_u8(buf, &mut at)?)?;
                let seq = get_u64(buf, &mut at)?;
                let bytes = buf[at..].to_vec();
                Some(WalRecord::Frame {
                    stream,
                    class,
                    seq,
                    bytes,
                })
            }
            2 => {
                let stream = StreamId::decode(buf, &mut at)?;
                let seq = get_u64(buf, &mut at)?;
                if at != buf.len() {
                    return None;
                }
                Some(WalRecord::End { stream, seq })
            }
            3 => {
                let stream = StreamId::decode(buf, &mut at)?;
                (at == buf.len()).then_some(WalRecord::Begin { stream })
            }
            _ => None,
        }
    }

    /// Owning stream of the record.
    pub fn stream(&self) -> &StreamId {
        match self {
            WalRecord::Frame { stream, .. }
            | WalRecord::End { stream, .. }
            | WalRecord::Begin { stream } => stream,
        }
    }
}

/// `None` class encodes as 0, otherwise `index + 1`.
fn decode_class(b: u8) -> Option<Option<EventClass>> {
    if b == 0 {
        return Some(None);
    }
    EventClass::ALL.get(b as usize - 1).map(|&c| Some(c))
}

/// One shard's append side of the log.
#[derive(Debug)]
pub struct ShardWal {
    dir: PathBuf,
    segment_bytes: u64,
    next_lsn: u64,
    writer: BufWriter<File>,
    active_path: PathBuf,
    active_first_lsn: u64,
    active_bytes: u64,
    /// Other segment files on disk, by first LSN (sorted ascending).
    finished: Vec<(u64, PathBuf)>,
    since_checkpoint: u64,
    records_appended: u64,
    bytes_appended: u64,
    scratch: Vec<u8>,
}

fn segment_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(format!("seg-{first_lsn:020}.wal"))
}

fn checkpoint_path(dir: &Path, last_lsn: u64) -> PathBuf {
    dir.join(format!("ckpt-{last_lsn:020}.ckpt"))
}

/// Lists `(numeric id, path)` of files matching `<prefix><020 digits><suffix>`,
/// sorted ascending by id.
fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(prefix) else {
            continue;
        };
        let Some(id) = rest.strip_suffix(suffix) else {
            continue;
        };
        if let Ok(id) = id.parse::<u64>() {
            out.push((id, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// `Write::write_all` for a list of slices: writes every byte of `bufs`,
/// in order, in as few calls as the writer takes them.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn open_segment(dir: &Path, first_lsn: u64) -> io::Result<(PathBuf, BufWriter<File>)> {
    let path = segment_path(dir, first_lsn);
    let mut writer = BufWriter::new(File::create(&path)?);
    writer.write_all(&SEGMENT_MAGIC)?;
    writer.write_all(&[WAL_VERSION])?;
    writer.write_all(&first_lsn.to_le_bytes())?;
    Ok((path, writer))
}

/// Truncates a segment starting at `first_lsn` at the boundary of the
/// first record with `lsn >= next_lsn` (or at the first damaged record),
/// so nothing at or past the recovered horizon can ever replay.
fn truncate_past(path: &Path, first_lsn: u64, next_lsn: u64) -> io::Result<()> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut header = [0u8; SEGMENT_HEADER_LEN];
    if reader.read_exact(&mut header).is_err() {
        return Ok(()); // shorter than its header: nothing intact to cut
    }
    let mut lsn = first_lsn;
    let mut keep = SEGMENT_HEADER_LEN as u64;
    let mut scratch = Vec::new();
    while lsn < next_lsn {
        match read_wal_record(&mut reader, &mut scratch) {
            RecordRead::Record => {
                keep += 8 + scratch.len() as u64;
                lsn += 1;
            }
            RecordRead::End | RecordRead::Torn => break,
        }
    }
    if fs::metadata(path)?.len() > keep {
        fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(keep)?;
    }
    Ok(())
}

impl ShardWal {
    /// Opens the log for appending, starting at `next_lsn` (one past the
    /// last recovered record). Segment files at or beyond `next_lsn` are
    /// unreachable remnants of a torn tail and are deleted; older ones
    /// stay until a checkpoint covers them.
    ///
    /// # Errors
    ///
    /// Filesystem failures creating the directory or the first segment.
    pub fn open(dir: &Path, segment_bytes: u64, next_lsn: u64) -> io::Result<ShardWal> {
        fs::create_dir_all(dir)?;
        let mut finished = Vec::new();
        for (first_lsn, path) in list_numbered(dir, "seg-", ".wal")? {
            if first_lsn >= next_lsn {
                fs::remove_file(&path)?;
            } else {
                finished.push((first_lsn, path));
            }
        }
        // The newest kept segment may still carry records at or past the
        // horizon (recovery stopped short inside it); cut them off so
        // they can never replay alongside their re-logged successors.
        if let Some((first_lsn, path)) = finished.last() {
            truncate_past(path, *first_lsn, next_lsn)?;
        }
        let (active_path, writer) = open_segment(dir, next_lsn)?;
        Ok(ShardWal {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(SEGMENT_HEADER_LEN as u64 + 1),
            next_lsn,
            writer,
            active_path,
            active_first_lsn: next_lsn,
            active_bytes: SEGMENT_HEADER_LEN as u64,
            finished,
            since_checkpoint: 0,
            records_appended: 0,
            bytes_appended: 0,
            scratch: Vec::new(),
        })
    }

    /// Appends one record, returning its LSN. Buffered — not readable
    /// back (nor crash-durable) until [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// Filesystem write failures.
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<u64> {
        self.scratch.clear();
        rec.encode(&mut self.scratch);
        write_frame(&mut self.writer, &self.scratch)?;
        self.advance(self.scratch.len())
    }

    /// Appends a `Frame` record from borrowed parts, given `payload_crc`,
    /// the CRC-32 of `payload` (checked on the wire). The record's CRC is
    /// combined from its short prefix's and `payload_crc`, and the
    /// payload is written straight from `payload`: the record is the
    /// bytes [`append`](Self::append) writes, without copying or
    /// re-reading the payload.
    ///
    /// # Errors
    ///
    /// Filesystem write failures.
    pub(crate) fn append_frame(
        &mut self,
        stream: &StreamId,
        class: Option<EventClass>,
        seq: u64,
        payload: &[u8],
        payload_crc: u32,
    ) -> io::Result<u64> {
        debug_assert_eq!(crc32(payload), payload_crc, "frame payload CRC");
        // The record header goes in front of the prefix, so header,
        // prefix and payload leave in one vectored write.
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0; 8]);
        encode_frame_record(stream, class, seq, &[], &mut self.scratch);
        let prefix = &self.scratch[8..];
        let len = prefix.len() + payload.len();
        let crc = crc32_combine(crc32(prefix), payload_crc, payload.len() as u64);
        self.scratch[..4].copy_from_slice(&(len as u32).to_le_bytes());
        self.scratch[4..8].copy_from_slice(&crc.to_le_bytes());
        let mut bufs = [IoSlice::new(&self.scratch), IoSlice::new(payload)];
        write_all_vectored(&mut self.writer, &mut bufs)?;
        self.advance(len)
    }

    /// Accounts for one record of `len` body bytes just written, and
    /// rotates when the segment is full. Returns the record's LSN.
    fn advance(&mut self, len: usize) -> io::Result<u64> {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let framed = 8 + len as u64;
        self.active_bytes += framed;
        self.since_checkpoint += framed;
        self.records_appended += 1;
        self.bytes_appended += framed;
        if self.active_bytes >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(lsn)
    }

    /// Flushes buffered appends to the OS. After this returns, every
    /// appended record survives process death.
    ///
    /// # Errors
    ///
    /// Filesystem write failures.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        let (path, writer) = open_segment(&self.dir, self.next_lsn)?;
        let old = std::mem::replace(&mut self.active_path, path);
        self.finished.push((self.active_first_lsn, old));
        self.active_first_lsn = self.next_lsn;
        self.active_bytes = SEGMENT_HEADER_LEN as u64;
        self.writer = writer;
        Ok(())
    }

    /// LSN the next append will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Whether enough bytes accumulated since the last checkpoint to
    /// warrant another (per [`WalConfig::checkpoint_bytes`]).
    pub fn checkpoint_due(&self, checkpoint_bytes: u64) -> bool {
        self.since_checkpoint >= checkpoint_bytes
    }

    /// Lifetime records appended by this writer.
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Lifetime framed bytes appended by this writer.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Records that a checkpoint covering everything up to `last_lsn`
    /// landed: prunes every segment fully covered by it (a drain-time
    /// checkpoint covers all of them, leaving an empty log).
    ///
    /// # Errors
    ///
    /// Filesystem failures deleting or re-creating segments.
    pub fn note_checkpoint(&mut self, last_lsn: u64) -> io::Result<()> {
        self.flush()?;
        self.since_checkpoint = 0;
        // A finished segment's range ends where its successor begins.
        let mut bounds: Vec<u64> = self.finished.iter().map(|&(first, _)| first).collect();
        bounds.push(self.active_first_lsn);
        let keep: Vec<(u64, PathBuf)> = std::mem::take(&mut self.finished)
            .into_iter()
            .enumerate()
            .filter_map(|(i, (first, path))| {
                // Covered iff every lsn in [first, bounds[i+1]) is ≤ last_lsn.
                if bounds[i + 1] <= last_lsn + 1 {
                    let _ = fs::remove_file(&path);
                    None
                } else {
                    Some((first, path))
                }
            })
            .collect();
        self.finished = keep;
        // The active segment is covered when its last record is: swap in
        // a fresh one so the old bytes never replay.
        if self.next_lsn <= last_lsn + 1 && self.next_lsn > self.active_first_lsn {
            let (path, writer) = open_segment(&self.dir, self.next_lsn)?;
            let old = std::mem::replace(&mut self.active_path, path);
            self.writer = writer;
            self.active_first_lsn = self.next_lsn;
            self.active_bytes = SEGMENT_HEADER_LEN as u64;
            fs::remove_file(old)?;
        }
        Ok(())
    }
}

/// Resume/dedupe state of one stream, as checkpointed.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamCkpt {
    /// Stream identity.
    pub id: StreamId,
    /// Event class its samples fold under.
    pub class: Option<EventClass>,
    /// Highest committed frame sequence number (the dedupe watermark).
    pub last_seq: u64,
    /// Records reported by the last completed upload's `DONE`.
    pub done_records: u64,
    /// Bytes reported by the last completed upload's `DONE`.
    pub done_bytes: u64,
    /// The decoder's last stamp, if mid-trace. Written for the format's
    /// sake; recovery resumes the gap anchor from `decoder` itself.
    pub prev_stamp: Option<u64>,
    /// Mid-trace decoder state, if an upload is in flight.
    pub decoder: Option<DecoderState>,
}

impl StreamCkpt {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        out.push(self.class.map_or(0, |c| c.index() as u8 + 1));
        out.extend_from_slice(&self.last_seq.to_le_bytes());
        out.extend_from_slice(&self.done_records.to_le_bytes());
        out.extend_from_slice(&self.done_bytes.to_le_bytes());
        match self.prev_stamp {
            None => out.push(0),
            Some(s) => {
                out.push(1);
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
        match &self.decoder {
            None => out.push(0),
            Some(d) => {
                out.push(1);
                encode_decoder(d, out);
            }
        }
    }

    fn decode(buf: &[u8], at: &mut usize) -> Option<StreamCkpt> {
        let id = StreamId::decode(buf, at)?;
        let class = decode_class(get_u8(buf, at)?)?;
        let last_seq = get_u64(buf, at)?;
        let done_records = get_u64(buf, at)?;
        let done_bytes = get_u64(buf, at)?;
        let prev_stamp = match get_u8(buf, at)? {
            0 => None,
            1 => Some(get_u64(buf, at)?),
            _ => return None,
        };
        let decoder = match get_u8(buf, at)? {
            0 => None,
            1 => Some(decode_decoder(buf, at)?),
            _ => return None,
        };
        Some(StreamCkpt {
            id,
            class,
            last_seq,
            done_records,
            done_bytes,
            prev_stamp,
            decoder,
        })
    }
}

fn encode_decoder(d: &DecoderState, out: &mut Vec<u8>) {
    match &d.meta {
        None => out.push(0),
        Some(m) => {
            out.push(1);
            let img = m.to_bytes();
            out.extend_from_slice(&(img.len() as u32).to_le_bytes());
            out.extend_from_slice(&img);
        }
    }
    out.extend_from_slice(&(d.carry.len() as u32).to_le_bytes());
    out.extend_from_slice(&d.carry);
    out.extend_from_slice(&d.bytes_fed.to_le_bytes());
    out.extend_from_slice(&d.prev_at.to_le_bytes());
    out.push(d.any_read as u8);
    out.extend_from_slice(&d.records_decoded.to_le_bytes());
    out.extend_from_slice(&d.chunks_decoded.to_le_bytes());
    // The retired scalar-mode flag, always 0: kept so the checkpoint
    // layout and `WAL_VERSION` stay unchanged.
    out.push(0);
}

fn decode_decoder(buf: &[u8], at: &mut usize) -> Option<DecoderState> {
    let meta = match get_u8(buf, at)? {
        0 => None,
        1 => {
            let len = get_u32(buf, at)? as usize;
            let img = get_bytes(buf, at, len)?;
            let (meta, used) = TraceMeta::from_bytes(img).ok()?;
            if used != img.len() {
                return None;
            }
            Some(meta)
        }
        _ => return None,
    };
    let carry_len = get_u32(buf, at)? as usize;
    let carry = get_bytes(buf, at, carry_len)?.to_vec();
    let bytes_fed = get_u64(buf, at)?;
    let prev_at = get_u64(buf, at)?;
    let any_read = get_u8(buf, at)? != 0;
    let records_decoded = get_u64(buf, at)?;
    let chunks_decoded = get_u64(buf, at)?;
    // The retired scalar-mode flag: checkpoints from older servers may
    // carry it set, and the decoder state is the same either way.
    get_u8(buf, at)?;
    Some(DecoderState {
        meta,
        carry,
        bytes_fed,
        prev_at,
        any_read,
        records_decoded,
        chunks_decoded,
    })
}

/// One shard's epoch snapshot: everything needed to resume folding
/// after the records it covers.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Highest LSN whose effects the snapshot includes; replay starts
    /// right after it.
    pub last_lsn: u64,
    /// Scenario sketches, by name.
    pub sketches: Vec<(String, LatencySketch)>,
    /// Live stream resume states.
    pub streams: Vec<StreamCkpt>,
}

/// The checkpoint image of `last_lsn`, `sketches` and `streams`, from
/// borrowed parts, so a caller need not own or copy its sketches.
fn encode_checkpoint<'a>(
    last_lsn: u64,
    sketches: impl ExactSizeIterator<Item = (&'a str, &'a LatencySketch)>,
    streams: &[StreamCkpt],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.push(WAL_VERSION);
    out.extend_from_slice(&last_lsn.to_le_bytes());
    out.extend_from_slice(&(sketches.len() as u32).to_le_bytes());
    for (scenario, sketch) in sketches {
        put_str(&mut out, scenario);
        sketch.encode(&mut out);
    }
    out.extend_from_slice(&(streams.len() as u32).to_le_bytes());
    for stream in streams {
        stream.encode(&mut out);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

impl Checkpoint {
    fn encode(&self) -> Vec<u8> {
        let sketches = self.sketches.iter().map(|(k, v)| (k.as_str(), v));
        encode_checkpoint(self.last_lsn, sketches, &self.streams)
    }

    fn decode(buf: &[u8]) -> Option<Checkpoint> {
        if buf.len() < 4 + 1 + 8 + 4 + 4 + 4 {
            return None;
        }
        let (body, tail) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().ok()?);
        if crc32(body) != stored {
            return None;
        }
        let mut at = 0usize;
        if get_bytes(body, &mut at, 4)? != CHECKPOINT_MAGIC {
            return None;
        }
        if get_u8(body, &mut at)? != WAL_VERSION {
            return None;
        }
        let last_lsn = get_u64(body, &mut at)?;
        let n_sketches = get_u32(body, &mut at)?;
        let mut sketches = Vec::with_capacity(n_sketches as usize);
        for _ in 0..n_sketches {
            let scenario = get_str(body, &mut at)?;
            let (sketch, used) = LatencySketch::decode(&body[at..])?;
            at += used;
            sketches.push((scenario, sketch));
        }
        let n_streams = get_u32(body, &mut at)?;
        let mut streams = Vec::with_capacity(n_streams as usize);
        for _ in 0..n_streams {
            streams.push(StreamCkpt::decode(body, &mut at)?);
        }
        if at != body.len() {
            return None;
        }
        Some(Checkpoint {
            last_lsn,
            sketches,
            streams,
        })
    }
}

/// Writes a checkpoint atomically (temp file + rename) and prunes all
/// but the newest `CHECKPOINTS_KEPT` checkpoint files.
///
/// # Errors
///
/// Filesystem failures.
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> io::Result<()> {
    write_checkpoint_image(dir, ckpt.last_lsn, &ckpt.encode())
}

/// [`write_checkpoint`] from borrowed parts: the same bytes a
/// [`Checkpoint`] of these fields writes.
///
/// # Errors
///
/// Filesystem failures.
pub(crate) fn write_checkpoint_parts<'a>(
    dir: &Path,
    last_lsn: u64,
    sketches: impl ExactSizeIterator<Item = (&'a str, &'a LatencySketch)>,
    streams: &[StreamCkpt],
) -> io::Result<()> {
    write_checkpoint_image(
        dir,
        last_lsn,
        &encode_checkpoint(last_lsn, sketches, streams),
    )
}

fn write_checkpoint_image(dir: &Path, last_lsn: u64, bytes: &[u8]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("ckpt-{last_lsn:020}.tmp"));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, checkpoint_path(dir, last_lsn))?;
    let all = list_numbered(dir, "ckpt-", ".ckpt")?;
    if all.len() > CHECKPOINTS_KEPT {
        for (_, path) in &all[..all.len() - CHECKPOINTS_KEPT] {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// Loads the newest checkpoint that passes CRC and structural
/// validation, falling back to older ones; `None` if none is usable.
///
/// # Errors
///
/// Filesystem failures listing the directory (an unreadable or corrupt
/// individual file is a fallback, not an error).
pub fn load_checkpoint(dir: &Path) -> io::Result<Option<Checkpoint>> {
    for (_, path) in list_numbered(dir, "ckpt-", ".ckpt")?.into_iter().rev() {
        if let Ok(bytes) = fs::read(&path) {
            if let Some(ckpt) = Checkpoint::decode(&bytes) {
                return Ok(Some(ckpt));
            }
        }
    }
    Ok(None)
}

/// What [`replay`] walked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Segment files visited.
    pub segments: u64,
    /// Records delivered to the callback (LSN past the checkpoint).
    pub replayed: u64,
    /// Records skipped because the checkpoint already covered them.
    pub skipped: u64,
    /// Whether replay stopped at a torn record (crash tail).
    pub torn: bool,
}

/// Replays every intact record with `lsn > after_lsn`, in LSN order,
/// stopping cleanly at the first torn record or LSN discontinuity.
/// Returns the stats and the next LSN to log at.
///
/// # Errors
///
/// Filesystem failures opening or reading segment files (torn/corrupt
/// *content* is a clean stop, not an error).
pub fn replay(
    dir: &Path,
    after_lsn: u64,
    mut apply: impl FnMut(u64, WalRecord),
) -> io::Result<(ReplayStats, u64)> {
    let mut stats = ReplayStats::default();
    let mut next_lsn = after_lsn + 1;
    let mut scratch = Vec::new();
    for (named_first, path) in list_numbered(dir, "seg-", ".wal")? {
        let mut reader = BufReader::new(File::open(&path)?);
        let mut header = [0u8; SEGMENT_HEADER_LEN];
        if reader.read_exact(&mut header).is_err()
            || header[..4] != SEGMENT_MAGIC
            || header[4] != WAL_VERSION
        {
            stats.torn = true;
            break;
        }
        let first_lsn = u64::from_le_bytes(header[5..].try_into().unwrap());
        if first_lsn != named_first {
            stats.torn = true;
            break;
        }
        if first_lsn > next_lsn {
            // A gap means the segment carrying next_lsn was lost; records
            // past the gap must not fold without their predecessors.
            stats.torn = true;
            break;
        }
        stats.segments += 1;
        let mut lsn = first_lsn;
        loop {
            match read_wal_record(&mut reader, &mut scratch) {
                RecordRead::Record => {
                    let Some(rec) = WalRecord::decode(&scratch) else {
                        stats.torn = true;
                        return Ok((stats, next_lsn));
                    };
                    if lsn > after_lsn {
                        apply(lsn, rec);
                        stats.replayed += 1;
                    } else {
                        stats.skipped += 1;
                    }
                    lsn += 1;
                    next_lsn = next_lsn.max(lsn);
                }
                RecordRead::End => break,
                RecordRead::Torn => {
                    stats.torn = true;
                    return Ok((stats, next_lsn));
                }
            }
        }
    }
    Ok((stats, next_lsn))
}

enum RecordRead {
    Record,
    End,
    Torn,
}

/// Reads one WAL record frame. Like [`crate::protocol::read_frame`] but
/// with the WAL's larger payload cap, and classifying a clean EOF at a
/// record boundary (`End`) apart from everything else (`Torn`).
fn read_wal_record(r: &mut impl Read, buf: &mut Vec<u8>) -> RecordRead {
    // Filled byte-by-byte so EOF at offset zero (a record boundary) is
    // told apart from EOF mid-header (a torn tail) — `read_exact` alone
    // reports both as `UnexpectedEof`.
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return RecordRead::End,
            Ok(0) => return RecordRead::Torn,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return RecordRead::Torn,
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let stored_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len == 0 || len > MAX_WAL_RECORD {
        return RecordRead::Torn;
    }
    buf.clear();
    buf.resize(len, 0);
    if r.read_exact(buf).is_err() {
        return RecordRead::Torn;
    }
    if crc32(buf) != stored_crc {
        return RecordRead::Torn;
    }
    RecordRead::Record
}

/// What recovery did for one shard (or, summed, for the whole server).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Checkpoints loaded (one per shard that had a valid one).
    pub checkpoints: u64,
    /// Segment files replayed.
    pub segments: u64,
    /// WAL records replayed past checkpoints.
    pub frames: u64,
    /// Trace records decoded during replay.
    pub records: u64,
    /// Latency samples re-folded during replay.
    pub samples: u64,
    /// Shards whose log ended in a torn record (salvaged cleanly).
    pub torn_tails: u64,
    /// Wall-clock recovery time, milliseconds.
    pub millis: u64,
}

impl RecoveryStats {
    /// Accumulates another shard's stats into a server-level total.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.checkpoints += other.checkpoints;
        self.segments += other.segments;
        self.frames += other.frames;
        self.records += other.records;
        self.samples += other.samples;
        self.torn_tails += other.torn_tails;
        self.millis = self.millis.max(other.millis);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

fn get_u8(buf: &[u8], at: &mut usize) -> Option<u8> {
    let b = *buf.get(*at)?;
    *at += 1;
    Some(b)
}

fn get_u16(buf: &[u8], at: &mut usize) -> Option<u16> {
    let bytes = get_bytes(buf, at, 2)?;
    Some(u16::from_le_bytes(bytes.try_into().unwrap()))
}

fn get_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let bytes = get_bytes(buf, at, 4)?;
    Some(u32::from_le_bytes(bytes.try_into().unwrap()))
}

fn get_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let bytes = get_bytes(buf, at, 8)?;
    Some(u64::from_le_bytes(bytes.try_into().unwrap()))
}

fn get_bytes<'b>(buf: &'b [u8], at: &mut usize, len: usize) -> Option<&'b [u8]> {
    let end = at.checked_add(len)?;
    if end > buf.len() {
        return None;
    }
    let slice = &buf[*at..end];
    *at = end;
    Some(slice)
}

fn get_str(buf: &[u8], at: &mut usize) -> Option<String> {
    let len = get_u16(buf, at)? as usize;
    let bytes = get_bytes(buf, at, len)?;
    String::from_utf8(bytes.to_vec()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "latlab-wal-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn keyed(client: &str) -> StreamId {
        StreamId::Keyed {
            client: client.to_owned(),
            scenario: "fig5".to_owned(),
        }
    }

    fn frame_rec(client: &str, seq: u64, len: usize) -> WalRecord {
        WalRecord::Frame {
            stream: keyed(client),
            class: Some(EventClass::Keystroke),
            seq,
            bytes: (0..len).map(|i| (i as u8).wrapping_mul(31)).collect(),
        }
    }

    #[test]
    fn record_codec_round_trips() {
        let records = [
            frame_rec("host-1", 7, 100),
            WalRecord::Frame {
                stream: StreamId::Conn {
                    conn: 42,
                    scenario: "s".to_owned(),
                },
                class: None,
                seq: 1,
                bytes: Vec::new(),
            },
            WalRecord::End {
                stream: keyed("host-1"),
                seq: 8,
            },
            WalRecord::Begin {
                stream: keyed("host-1"),
            },
        ];
        for rec in &records {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(WalRecord::decode(&buf).as_ref(), Some(rec));
        }
        assert_eq!(WalRecord::decode(&[]), None);
        assert_eq!(WalRecord::decode(&[9]), None);
    }

    #[test]
    fn append_flush_replay_round_trips() {
        let tmp = TempDir::new("roundtrip");
        let mut wal = ShardWal::open(&tmp.0, 1 << 20, 1).unwrap();
        let recs: Vec<WalRecord> = (1..=20).map(|i| frame_rec("c", i, 64)).collect();
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(wal.append(rec).unwrap(), i as u64 + 1);
        }
        wal.flush().unwrap();
        let mut seen = Vec::new();
        let (stats, next) = replay(&tmp.0, 0, |lsn, rec| seen.push((lsn, rec))).unwrap();
        assert_eq!(next, 21);
        assert_eq!(stats.replayed, 20);
        assert!(!stats.torn);
        for (i, (lsn, rec)) in seen.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(rec, &recs[i]);
        }
        // A checkpoint-style replay skips the covered prefix.
        let (stats, next) = replay(&tmp.0, 15, |lsn, _| assert!(lsn > 15)).unwrap();
        assert_eq!(next, 21);
        assert_eq!(stats.replayed, 5);
        assert_eq!(stats.skipped, 15);
    }

    #[test]
    fn rotation_spans_segments_and_replay_crosses_them() {
        let tmp = TempDir::new("rotate");
        // Tiny segments force many rotations.
        let mut wal = ShardWal::open(&tmp.0, 256, 1).unwrap();
        for i in 1..=50 {
            wal.append(&frame_rec("c", i, 80)).unwrap();
        }
        wal.flush().unwrap();
        let segs = list_numbered(&tmp.0, "seg-", ".wal").unwrap();
        assert!(
            segs.len() > 2,
            "expected rotation, got {} segments",
            segs.len()
        );
        let mut lsns = Vec::new();
        let (stats, next) = replay(&tmp.0, 0, |lsn, _| lsns.push(lsn)).unwrap();
        assert_eq!(next, 51);
        assert!(!stats.torn);
        assert_eq!(lsns, (1..=50).collect::<Vec<u64>>());
        assert_eq!(stats.segments, segs.len() as u64);
    }

    #[test]
    fn torn_tail_is_salvaged_at_every_cut() {
        let tmp = TempDir::new("torn");
        let mut wal = ShardWal::open(&tmp.0, 1 << 20, 1).unwrap();
        for i in 1..=5 {
            wal.append(&frame_rec("c", i, 40)).unwrap();
        }
        wal.flush().unwrap();
        let path = segment_path(&tmp.0, 1);
        let full = fs::read(&path).unwrap();
        drop(wal);
        // Record boundaries: header, then each framed record.
        let rec_len = {
            let mut buf = Vec::new();
            frame_rec("c", 1, 40).encode(&mut buf);
            8 + buf.len()
        };
        for cut in SEGMENT_HEADER_LEN..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let mut lsns = Vec::new();
            let (stats, next) = replay(&tmp.0, 0, |lsn, _| lsns.push(lsn)).unwrap();
            let intact = (cut - SEGMENT_HEADER_LEN) / rec_len;
            assert_eq!(lsns.len(), intact, "cut at {cut}");
            assert_eq!(next, intact as u64 + 1, "cut at {cut}");
            // A cut exactly on a record boundary is indistinguishable
            // from a clean shutdown; every other cut must read as torn.
            let at_boundary = (cut - SEGMENT_HEADER_LEN).is_multiple_of(rec_len);
            assert_eq!(stats.torn, !at_boundary, "cut at {cut}");
        }
        // A flipped bit mid-record stops replay at the damage.
        let mut flipped = full.clone();
        let mid = SEGMENT_HEADER_LEN + rec_len * 2 + rec_len / 2;
        flipped[mid] ^= 0x10;
        fs::write(&path, &flipped).unwrap();
        let (stats, next) = replay(&tmp.0, 0, |_, _| {}).unwrap();
        assert!(stats.torn);
        assert_eq!(next, 3);
    }

    #[test]
    fn a_bit_flip_in_a_64k_record_stops_replay_at_that_record() {
        // Records the size of a 64 KiB upload frame run the
        // carry-less-multiply CRC kernel where the CPU has it. One bit
        // flipped anywhere in record 2 (its length and CRC fields, then
        // every 251st byte) must end replay after record 1.
        let tmp = TempDir::new("flip64k");
        let mut wal = ShardWal::open(&tmp.0, 1 << 20, 1).unwrap();
        for i in 1..=3 {
            wal.append(&frame_rec("c", i, 64 << 10)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let path = segment_path(&tmp.0, 1);
        let mut image = fs::read(&path).unwrap();
        let rec_len = (image.len() - SEGMENT_HEADER_LEN) / 3;
        let second = SEGMENT_HEADER_LEN + rec_len;
        let bytes = (second..second + 8).chain((second + 8..second + rec_len).step_by(251));
        for (n, byte) in bytes.enumerate() {
            let mask = 1 << (n % 8);
            image[byte] ^= mask;
            fs::write(&path, &image).unwrap();
            let mut lsns = Vec::new();
            let (stats, next) = replay(&tmp.0, 0, |lsn, _| lsns.push(lsn)).unwrap();
            assert_eq!(lsns, [1], "flip at byte {byte}");
            assert!(stats.torn, "flip at byte {byte}");
            assert_eq!(next, 2, "flip at byte {byte}");
            image[byte] ^= mask;
        }
    }

    #[test]
    fn open_discards_segments_past_the_recovered_horizon() {
        let tmp = TempDir::new("horizon");
        let mut wal = ShardWal::open(&tmp.0, 128, 1).unwrap();
        for i in 1..=20 {
            wal.append(&frame_rec("c", i, 80)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Pretend recovery only reached lsn 3: later segments are remnants.
        let wal = ShardWal::open(&tmp.0, 128, 4).unwrap();
        assert_eq!(wal.next_lsn(), 4);
        drop(wal);
        let (stats, next) = replay(&tmp.0, 0, |_, _| {}).unwrap();
        // Only records 1..=3 can be intact; segment 4's file was replaced
        // by the fresh empty active segment.
        assert!(next <= 4, "next {next}");
        assert!(!stats.torn || stats.replayed <= 3);
    }

    #[test]
    fn checkpoint_round_trips_and_falls_back_past_corruption() {
        let tmp = TempDir::new("ckpt");
        let mut sketch = LatencySketch::new();
        for i in 0..1000 {
            sketch.push(EventClass::Keystroke, (i % 97) as f64 * 0.5);
        }
        let ckpt = Checkpoint {
            last_lsn: 41,
            sketches: vec![("fig5".to_owned(), sketch.clone())],
            streams: vec![StreamCkpt {
                id: keyed("host-1"),
                class: Some(EventClass::Keystroke),
                last_seq: 9,
                done_records: 100,
                done_bytes: 2048,
                prev_stamp: Some(123_456),
                decoder: None,
            }],
        };
        write_checkpoint(&tmp.0, &ckpt).unwrap();
        let back = load_checkpoint(&tmp.0).unwrap().unwrap();
        assert_eq!(back.last_lsn, 41);
        assert_eq!(back.sketches.len(), 1);
        assert_eq!(back.sketches[0].0, "fig5");
        assert_eq!(back.sketches[0].1.total(), sketch.total());
        assert_eq!(back.streams, ckpt.streams);

        // A newer but corrupt checkpoint is skipped in favor of this one.
        let newer = checkpoint_path(&tmp.0, 99);
        let mut bytes = fs::read(checkpoint_path(&tmp.0, 41)).unwrap();
        let len = bytes.len();
        bytes[len / 2] ^= 0xff;
        fs::write(&newer, &bytes).unwrap();
        let back = load_checkpoint(&tmp.0).unwrap().unwrap();
        assert_eq!(back.last_lsn, 41);
    }

    #[test]
    fn checkpoint_retention_keeps_the_newest_two() {
        let tmp = TempDir::new("retain");
        for lsn in [10, 20, 30, 40] {
            write_checkpoint(
                &tmp.0,
                &Checkpoint {
                    last_lsn: lsn,
                    sketches: Vec::new(),
                    streams: Vec::new(),
                },
            )
            .unwrap();
        }
        let kept = list_numbered(&tmp.0, "ckpt-", ".ckpt").unwrap();
        assert_eq!(
            kept.iter().map(|&(lsn, _)| lsn).collect::<Vec<_>>(),
            vec![30, 40]
        );
    }

    #[test]
    fn note_checkpoint_prunes_covered_segments() {
        let tmp = TempDir::new("prune");
        let mut wal = ShardWal::open(&tmp.0, 256, 1).unwrap();
        for i in 1..=30 {
            wal.append(&frame_rec("c", i, 80)).unwrap();
        }
        wal.flush().unwrap();
        assert!(list_numbered(&tmp.0, "seg-", ".wal").unwrap().len() > 2);
        // Mid-log checkpoint: only fully covered segments go.
        wal.note_checkpoint(10).unwrap();
        let (stats, next) = replay(&tmp.0, 10, |lsn, _| assert!(lsn > 10)).unwrap();
        assert_eq!(next, 31);
        assert_eq!(stats.replayed, 20);
        // Drain-style checkpoint at the head: everything goes; a fresh
        // restart replays nothing.
        wal.note_checkpoint(wal.next_lsn() - 1).unwrap();
        let (stats, next) = replay(&tmp.0, 30, |_, _| panic!("nothing to replay")).unwrap();
        assert_eq!(next, 31);
        assert_eq!(stats.replayed, 0);
        assert!(!stats.torn);
        // More appends after the prune keep working.
        wal.append(&frame_rec("c", 31, 16)).unwrap();
        wal.flush().unwrap();
        let (stats, _) = replay(&tmp.0, 30, |lsn, _| assert_eq!(lsn, 31)).unwrap();
        assert_eq!(stats.replayed, 1);
    }

    #[test]
    fn decoder_state_round_trips_through_checkpoint() {
        use latlab_trace::StreamDecoder;
        // Feed half a real trace, export, checkpoint, reload, restore.
        let corpus = crate::slam::idle_corpus(5_000, 0x77, 64);
        let mut dec = StreamDecoder::new();
        dec.feed(&corpus[..corpus.len() / 2]).unwrap();
        let mut col = Vec::new();
        while dec.poll_batch(&mut col) > 0 {
            col.clear();
        }
        let state = dec.export_state().unwrap();
        let tmp = TempDir::new("decoder");
        let ckpt = Checkpoint {
            last_lsn: 1,
            sketches: Vec::new(),
            streams: vec![StreamCkpt {
                id: keyed("c"),
                class: None,
                last_seq: 1,
                done_records: 0,
                done_bytes: 0,
                prev_stamp: Some(999),
                decoder: Some(state.clone()),
            }],
        };
        write_checkpoint(&tmp.0, &ckpt).unwrap();
        let back = load_checkpoint(&tmp.0).unwrap().unwrap();
        assert_eq!(back.streams[0].decoder.as_ref(), Some(&state));
        // The restored decoder finishes the trace.
        let mut dec = StreamDecoder::restore(back.streams[0].decoder.clone().unwrap());
        dec.feed(&corpus[corpus.len() / 2..]).unwrap();
        while dec.poll_batch(&mut col) > 0 {
            col.clear();
        }
        assert!(dec.is_clean_boundary());
        assert_eq!(dec.records_decoded(), 5_000);
    }

    #[test]
    fn a_set_scalar_byte_decodes_to_the_same_decoder_state() {
        use latlab_trace::StreamDecoder;
        // Checkpoints keep the byte that once flagged a decoder's scalar
        // mode. An image with it set decodes to the same state as one
        // with it clear, and that state restores and finishes the trace.
        let corpus = crate::slam::idle_corpus(5_000, 0x5ca1, 64);
        let mut dec = StreamDecoder::new();
        let mut excess = Vec::new();
        dec.feed_gaps(&corpus[..corpus.len() / 2], &mut excess)
            .unwrap();
        let ckpt = Checkpoint {
            last_lsn: 1,
            sketches: Vec::new(),
            streams: vec![StreamCkpt {
                id: keyed("c"),
                class: None,
                last_seq: 1,
                done_records: 0,
                done_bytes: 0,
                prev_stamp: None,
                decoder: dec.export_state(),
            }],
        };
        let clear = ckpt.encode();
        // The decoder image ends the body, and the flag byte ends the
        // image: set it and reseal the trailing CRC.
        let mut flagged = clear.clone();
        let body = flagged.len() - 4;
        assert_eq!(flagged[body - 1], 0);
        flagged[body - 1] = 1;
        let crc = crc32(&flagged[..body]);
        flagged[body..].copy_from_slice(&crc.to_le_bytes());
        let clear = Checkpoint::decode(&clear).unwrap();
        let flagged = Checkpoint::decode(&flagged).unwrap();
        assert_eq!(clear.streams, ckpt.streams);
        assert_eq!(flagged.streams, clear.streams);
        let state = flagged.streams[0].decoder.clone().unwrap();
        let mut dec = StreamDecoder::restore(state);
        dec.feed_gaps(&corpus[corpus.len() / 2..], &mut excess)
            .unwrap();
        assert!(dec.is_clean_boundary());
        assert_eq!(dec.records_decoded(), 5_000);
    }
}
