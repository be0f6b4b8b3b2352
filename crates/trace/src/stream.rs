//! Push-based incremental trace decoder for network transports.
//!
//! [`TraceReader`](crate::TraceReader) pulls from a `Read` and blocks
//! until a whole header or chunk is available — the right shape for
//! files, the wrong one for sockets, where bytes arrive in arbitrary
//! fragments and a frame boundary rarely lines up with a chunk boundary.
//! [`StreamDecoder`] inverts control: the transport [`feed`]s whatever
//! bytes it has, the decoder buffers partial headers and chunks until
//! they complete, and fully-decoded records are [`poll`]ed out. Decoded
//! bytes are discarded eagerly, so memory stays bounded by one chunk
//! (plus undecoded carry-over) regardless of stream length.
//!
//! # The columnar batch path
//!
//! Idle-stamp streams — the telemetry firehose — decode columnarly: a
//! complete chunk's varint deltas are expanded into absolute stamps in
//! one pass ([`crate::codec::decode_stamp_chunk`]) with no per-record
//! enum construction or queue traffic, CRC-checked once per chunk. The
//! whole column drains through [`poll_batch`] into a caller-owned
//! reusable `Vec<u64>`; [`poll`] still works, serving the same column
//! one `Record::Stamp` at a time.
//!
//! Feeding, on either path, is zero-copy in the steady state. Chunks
//! decode straight out of the caller's slice, and only an unfinished
//! header or chunk at its end is copied into the carry buffer. The next
//! fragment completes that carried unit from its head, copying only
//! the bytes the unit lacks, and decodes it on its own; the rest of the
//! fragment is again decoded in place. So a fragment copies at most one
//! chunk, however many it holds: with 64 KiB upload frames and ~8 KB
//! chunks, nearly every frame starts mid-chunk.
//!
//! # The fused gap path
//!
//! A consumer that wants latency rather than stamps — the server —
//! calls [`feed_gaps`] instead: each completed idle-stamp chunk goes
//! through [`crate::codec::decode_stamp_gaps`], which turns every stamp
//! gap longer than the trace's baseline into `gap − baseline` cycles and
//! stores no stamp at all. The column path above is its oracle: the
//! property tests hold `feed_gaps` to `feed` + [`poll_batch`] + a gap
//! walk, record for record and error for error. `feed_gaps` always takes the fused kernel,
//! scalar decoder or not.
//!
//! [`StreamDecoder::new_scalar`] builds a decoder with the columnar
//! path disabled: idle stamps decode one record at a time through the
//! same per-record codec as every other stream kind, materializing a
//! `Record::Stamp` in the ready queue per stamp. That is the decoder's
//! original shape, kept as the test oracle and measured reference the
//! batch path is compared against (the perf harness's in-process
//! pipeline speedup, the serve equivalence tests).
//!
//! The decode rules are identical to [`TraceReader`](crate::TraceReader):
//! same CRC checks, same monotonicity validation, same structural limits
//! on corrupt input — a byte stream fed through this decoder in any
//! fragmentation yields exactly the records the file reader yields, and
//! the same error on corrupt data. Once an error surfaces the decoder is
//! poisoned: further feeding returns the same error class.
//!
//! [`feed`]: StreamDecoder::feed
//! [`feed_gaps`]: StreamDecoder::feed_gaps
//! [`poll`]: StreamDecoder::poll
//! [`poll_batch`]: StreamDecoder::poll_batch

use std::collections::VecDeque;

use crate::codec;
use crate::crc32::crc32;
use crate::error::TraceError;
use crate::meta::{StreamKind, TraceMeta};
use crate::record::Record;
use crate::writer::{MAX_CHUNK_PAYLOAD, MAX_CHUNK_RECORDS};

/// Incremental decoder state.
#[derive(Debug)]
pub struct StreamDecoder {
    /// Unconsumed input bytes (partial header or partial chunk). Kept
    /// outside [`DecoderCore`] so the core can decode out of either this
    /// buffer or the caller's slice without aliasing itself.
    buf: Vec<u8>,
    /// Total bytes accepted by [`feed`](StreamDecoder::feed).
    bytes_fed: u64,
    core: DecoderCore,
}

/// Everything but the carry buffer: decode state plus decoded output.
#[derive(Debug)]
struct DecoderCore {
    /// Parsed file header, once enough bytes have arrived.
    meta: Option<TraceMeta>,
    /// Non-stamp records decoded out of completed chunks, not yet polled.
    ready: VecDeque<Record>,
    /// Columnar idle-stamp store: decoded absolute stamps awaiting a
    /// poll. `stamps[stamp_head..]` is the live window.
    stamps: Vec<u64>,
    stamp_head: usize,
    prev_at: u64,
    any_read: bool,
    records_decoded: u64,
    chunks_decoded: u64,
    poisoned: bool,
    /// When set, idle stamps take the per-record reference path into
    /// `ready` instead of the columnar store.
    scalar: bool,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamDecoder {
    /// Creates a decoder expecting a trace header first.
    pub fn new() -> Self {
        Self::with_mode(false)
    }

    /// Creates a decoder with the columnar batch path disabled: idle
    /// stamps decode per record through [`crate::codec::decode_record`]
    /// into the ready queue, one `Record` and one queue push per stamp.
    ///
    /// This is the reference decode shape. It yields byte-for-byte the
    /// same records and errors as the default decoder — the property
    /// tests assert so — and exists so the batch path has an honest
    /// scalar baseline to be benchmarked against ([`poll_batch`] on a
    /// scalar decoder always returns 0; use [`poll`]).
    ///
    /// [`poll`]: StreamDecoder::poll
    /// [`poll_batch`]: StreamDecoder::poll_batch
    pub fn new_scalar() -> Self {
        Self::with_mode(true)
    }

    fn with_mode(scalar: bool) -> Self {
        StreamDecoder {
            buf: Vec::new(),
            bytes_fed: 0,
            core: DecoderCore {
                meta: None,
                ready: VecDeque::new(),
                stamps: Vec::new(),
                stamp_head: 0,
                prev_at: 0,
                any_read: false,
                records_decoded: 0,
                chunks_decoded: 0,
                poisoned: false,
                scalar,
            },
        }
    }

    /// The stream header, once decoded.
    pub fn meta(&self) -> Option<&TraceMeta> {
        self.core.meta.as_ref()
    }

    /// Records decoded so far (including ones not yet polled).
    pub fn records_decoded(&self) -> u64 {
        self.core.records_decoded
    }

    /// Completed chunks decoded so far.
    pub fn chunks_decoded(&self) -> u64 {
        self.core.chunks_decoded
    }

    /// Total bytes accepted by [`feed`](StreamDecoder::feed).
    pub fn bytes_fed(&self) -> u64 {
        self.bytes_fed
    }

    /// True when every fed byte has been decoded — the stream currently
    /// ends on a clean header/chunk boundary. A complete upload must end
    /// in this state; a mid-chunk disconnect leaves it false.
    pub fn is_clean_boundary(&self) -> bool {
        !self.core.poisoned && self.buf.is_empty()
    }

    /// Bytes buffered awaiting the rest of a header or chunk.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Accepts the next fragment of the byte stream, decoding every
    /// header/chunk it completes.
    ///
    /// # Errors
    ///
    /// Any structural error a [`TraceReader`](crate::TraceReader) would
    /// report on the same byte stream: bad magic, CRC mismatch, corrupt
    /// fields, non-monotonic stamps. The decoder is poisoned afterwards.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.feed_into(bytes, None)
    }

    /// Accepts the next fragment like [`feed`](Self::feed), but decodes
    /// idle stamps straight to latency through the fused kernel
    /// ([`crate::codec::decode_stamp_gaps`]): for every stamp gap longer
    /// than the stream's baseline, `gap − baseline` cycles are appended
    /// to `excess`, and nothing is queued for [`poll`](Self::poll).
    /// Records of non-stamp streams are decoded (and validated) and
    /// discarded.
    ///
    /// The result equals [`feed`](Self::feed) + [`poll_batch`] + a walk
    /// comparing each stamp to its predecessor, under any fragmentation
    /// and on any corruption — same excess sequence, same error, same
    /// [`records_decoded`](Self::records_decoded) and
    /// [`export_state`](Self::export_state); the property tests assert
    /// so. The gap anchor across calls is the decoder's own last stamp.
    ///
    /// # Errors
    ///
    /// As [`feed`](Self::feed). On error, `excess` already holds every
    /// excess decoded before the failing record.
    ///
    /// [`poll_batch`]: StreamDecoder::poll_batch
    pub fn feed_gaps(&mut self, bytes: &[u8], excess: &mut Vec<u64>) -> Result<(), TraceError> {
        self.feed_into(bytes, Some(excess))
    }

    fn feed_into(&mut self, bytes: &[u8], gaps: Option<&mut Vec<u64>>) -> Result<(), TraceError> {
        if self.core.poisoned {
            return Err(TraceError::Corrupt {
                what: "stream decoder already failed",
            });
        }
        self.bytes_fed += bytes.len() as u64;
        let result = self.decode_fed(bytes, gaps);
        self.core.poisoned = result.is_err();
        result
    }

    /// Decodes `bytes` after whatever the carry buffer holds. A carried
    /// partial header or chunk is completed from the head of `bytes` —
    /// only the bytes it still lacks are copied — and decoded on its
    /// own; everything after it decodes straight out of the caller's
    /// slice, and only an unfinished unit at its end is copied into the
    /// carry buffer.
    fn decode_fed(
        &mut self,
        mut bytes: &[u8],
        mut gaps: Option<&mut Vec<u64>>,
    ) -> Result<(), TraceError> {
        while !self.buf.is_empty() {
            let lacking = self.core.unit_len(&self.buf).saturating_sub(self.buf.len());
            let (head, rest) = bytes.split_at(lacking.min(bytes.len()));
            self.buf.extend_from_slice(head);
            bytes = rest;
            let mut consumed = 0usize;
            self.core
                .drain(&self.buf, &mut consumed, gaps.as_deref_mut())?;
            self.buf.drain(..consumed);
            if consumed == 0 && head.is_empty() {
                // Still unfinished, and `bytes` is used up.
                return Ok(());
            }
        }
        let mut consumed = 0usize;
        self.core.drain(bytes, &mut consumed, gaps)?;
        self.buf.extend_from_slice(&bytes[consumed..]);
        Ok(())
    }

    /// Takes the next fully-decoded record, if one is ready.
    pub fn poll(&mut self) -> Option<Record> {
        let core = &mut self.core;
        if let Some(&s) = core.stamps.get(core.stamp_head) {
            core.stamp_head += 1;
            if core.stamp_head == core.stamps.len() {
                core.stamps.clear();
                core.stamp_head = 0;
            }
            return Some(Record::Stamp(s));
        }
        core.ready.pop_front()
    }

    /// Captures the decoder's resumable state so an equivalent decoder
    /// can be rebuilt later (in another process) with
    /// [`restore`](Self::restore) and continue mid-stream.
    ///
    /// Returns `None` when the decoder is poisoned or still holds
    /// decoded-but-unpolled records — export is only meaningful once the
    /// caller has drained everything it fed, which is exactly the state
    /// a frame-boundary checkpoint runs in.
    pub fn export_state(&self) -> Option<DecoderState> {
        let core = &self.core;
        if core.poisoned || !core.ready.is_empty() || core.stamp_head < core.stamps.len() {
            return None;
        }
        Some(DecoderState {
            meta: core.meta.clone(),
            carry: self.buf.clone(),
            bytes_fed: self.bytes_fed,
            prev_at: core.prev_at,
            any_read: core.any_read,
            records_decoded: core.records_decoded,
            chunks_decoded: core.chunks_decoded,
            scalar: core.scalar,
        })
    }

    /// Rebuilds a decoder from an [`export_state`](Self::export_state)
    /// image. Feeding the restored decoder the remainder of the stream
    /// yields exactly what the original would have yielded.
    pub fn restore(state: DecoderState) -> Self {
        StreamDecoder {
            buf: state.carry,
            bytes_fed: state.bytes_fed,
            core: DecoderCore {
                meta: state.meta,
                ready: VecDeque::new(),
                stamps: Vec::new(),
                stamp_head: 0,
                prev_at: state.prev_at,
                any_read: state.any_read,
                records_decoded: state.records_decoded,
                chunks_decoded: state.chunks_decoded,
                poisoned: false,
                scalar: state.scalar,
            },
        }
    }

    /// Drains every decoded-but-unpolled idle stamp into `out` in one
    /// `memcpy`-shaped append; returns how many were appended.
    ///
    /// Equivalent to calling [`poll`](StreamDecoder::poll) until it runs
    /// dry and collecting the `Record::Stamp` payloads — the property
    /// tests assert exactly that — but without constructing a `Record`
    /// per stamp. Pass a reusable buffer to keep the batch path
    /// allocation-free. Non-stamp streams always return 0 (their records
    /// remain available through `poll`).
    pub fn poll_batch(&mut self, out: &mut Vec<u64>) -> usize {
        let core = &mut self.core;
        let n = core.stamps.len() - core.stamp_head;
        if n > 0 {
            out.extend_from_slice(&core.stamps[core.stamp_head..]);
            core.stamps.clear();
            core.stamp_head = 0;
        }
        n
    }
}

/// A [`StreamDecoder`]'s resumable state, captured at a point where all
/// decoded records have been polled out. Everything here is plain data,
/// so a persistence layer can serialize it (the serve checkpoint codec
/// does) and [`StreamDecoder::restore`] an equivalent decoder after a
/// crash — mid-chunk carry bytes included.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderState {
    /// The parsed stream header, if the decoder had seen one.
    pub meta: Option<TraceMeta>,
    /// Unconsumed input bytes: a partial header or partial chunk.
    pub carry: Vec<u8>,
    /// Total bytes the original decoder had accepted.
    pub bytes_fed: u64,
    /// Last decoded stamp (monotonicity anchor).
    pub prev_at: u64,
    /// Whether any record had been decoded yet.
    pub any_read: bool,
    /// Records decoded so far.
    pub records_decoded: u64,
    /// Chunks decoded so far.
    pub chunks_decoded: u64,
    /// Whether the decoder ran in scalar (per-record) mode.
    pub scalar: bool,
}

impl DecoderCore {
    /// Decodes as many complete headers/chunks as `data[*consumed..]`
    /// holds, advancing `*consumed` past each completed unit. With
    /// `gaps`, idle stamps go through the fused gap kernel and no record
    /// is queued.
    fn drain(
        &mut self,
        data: &[u8],
        consumed: &mut usize,
        mut gaps: Option<&mut Vec<u64>>,
    ) -> Result<(), TraceError> {
        if self.meta.is_none() {
            match self.try_decode_header(data, *consumed)? {
                Some(used) => *consumed += used,
                None => return Ok(()),
            }
        }
        while let Some(used) = self.try_decode_chunk(data, *consumed, gaps.as_deref_mut())? {
            *consumed += used;
        }
        Ok(())
    }

    /// The length `unit` — a partial header or chunk at the front of the
    /// carry buffer — must reach before [`drain`](Self::drain) can decide
    /// it: the header's fixed part, or the chunk's 12-byte frame header,
    /// until their length fields are in; then the whole unit.
    fn unit_len(&self, unit: &[u8]) -> usize {
        if self.meta.is_none() {
            if unit.len() < TraceMeta::FIXED_LEN {
                return TraceMeta::FIXED_LEN;
            }
            TraceMeta::FIXED_LEN + u16::from_le_bytes([unit[6], unit[7]]) as usize + 4
        } else {
            if unit.len() < 12 {
                return 12;
            }
            12usize
                .saturating_add(u32::from_le_bytes([unit[4], unit[5], unit[6], unit[7]]) as usize)
        }
    }

    /// Attempts to decode the file header at `data[from..]`. Returns the
    /// bytes consumed, or `None` if more input is needed.
    fn try_decode_header(&mut self, data: &[u8], from: usize) -> Result<Option<usize>, TraceError> {
        let avail = &data[from..];
        if avail.len() < 4 {
            // Reject wrong magic as soon as those bytes exist, so a
            // non-trace stream fails fast rather than buffering forever.
            if !avail.is_empty() && avail != &crate::meta::MAGIC[..avail.len()] {
                return Err(TraceError::BadMagic);
            }
            return Ok(None);
        }
        if avail[..4] != crate::meta::MAGIC {
            return Err(TraceError::BadMagic);
        }
        if avail.len() < TraceMeta::FIXED_LEN {
            return Ok(None);
        }
        let total = self.unit_len(avail);
        if avail.len() < total {
            return Ok(None);
        }
        let (meta, used) = TraceMeta::decode(&avail[..total])?;
        debug_assert_eq!(used, total);
        self.meta = Some(meta);
        Ok(Some(total))
    }

    /// Attempts to decode one framed chunk at `data[from..]`. Returns the
    /// bytes consumed, or `None` if the chunk is still partial.
    fn try_decode_chunk(
        &mut self,
        data: &[u8],
        from: usize,
        gaps: Option<&mut Vec<u64>>,
    ) -> Result<Option<usize>, TraceError> {
        let avail = &data[from..];
        if avail.len() < 12 {
            return Ok(None);
        }
        let count = u32::from_le_bytes(avail[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(avail[4..8].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(avail[8..12].try_into().unwrap());
        if count == 0 || count > MAX_CHUNK_RECORDS {
            return Err(TraceError::Corrupt {
                what: "chunk record count out of range",
            });
        }
        if len == 0 || len > MAX_CHUNK_PAYLOAD {
            return Err(TraceError::Corrupt {
                what: "chunk payload length out of range",
            });
        }
        if avail.len() < 12 + len {
            return Ok(None);
        }
        let payload = &avail[12..12 + len];
        if crc32(payload) != stored_crc {
            return Err(TraceError::CrcMismatch {
                chunk: self.chunks_decoded + 1,
            });
        }
        let meta = self.meta.as_ref().expect("header precedes chunks");
        let (kind, baseline) = (meta.kind, meta.baseline.cycles());
        let pos = match gaps {
            // Fused: the whole chunk in one pass, straight to excess
            // cycles; no stamp is stored.
            Some(gaps) if kind == StreamKind::IdleStamps => codec::decode_stamp_gaps(
                payload,
                count,
                baseline,
                gaps,
                &mut self.prev_at,
                &mut self.any_read,
                &mut self.records_decoded,
            )?,
            // Columnar: the whole chunk in one pass, straight into the
            // stamp column. State advances per stamp, so a mid-chunk
            // error leaves the decoded prefix pollable — exactly what
            // the scalar path leaves behind.
            None if kind == StreamKind::IdleStamps && !self.scalar => codec::decode_stamp_chunk(
                payload,
                count,
                &mut self.stamps,
                &mut self.prev_at,
                &mut self.any_read,
                &mut self.records_decoded,
            )?,
            gaps => {
                let keep = gaps.is_none();
                let mut pos = 0usize;
                for _ in 0..count {
                    let rec = codec::decode_record(
                        payload,
                        &mut pos,
                        kind,
                        self.any_read,
                        self.prev_at,
                        self.records_decoded as usize,
                    )?;
                    self.prev_at = rec.at_cycles();
                    self.any_read = true;
                    self.records_decoded += 1;
                    if keep {
                        self.ready.push_back(rec);
                    }
                }
                pos
            }
        };
        if pos != len {
            return Err(TraceError::Corrupt {
                what: "trailing bytes in chunk payload",
            });
        }
        self.chunks_decoded += 1;
        Ok(Some(12 + len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::ApiRecord;
    use crate::writer::TraceWriter;
    use latlab_des::{CpuFreq, SimDuration};

    fn stamp_meta() -> TraceMeta {
        TraceMeta {
            kind: StreamKind::IdleStamps,
            freq: CpuFreq::PENTIUM_100,
            baseline: SimDuration::from_cycles(250),
            seed: 42,
            personality: "stream-test".to_owned(),
        }
    }

    fn encoded_stamps(n: u64) -> (Vec<u8>, Vec<u64>) {
        let stamps: Vec<u64> = (1..=n).map(|i| i * 97 + (i % 13)).collect();
        let mut w = TraceWriter::create(Vec::new(), stamp_meta()).unwrap();
        for &s in &stamps {
            w.write(&Record::Stamp(s)).unwrap();
        }
        (w.finish().unwrap(), stamps)
    }

    fn drain(d: &mut StreamDecoder) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(rec) = d.poll() {
            match rec {
                Record::Stamp(s) => out.push(s),
                other => panic!("unexpected record {other:?}"),
            }
        }
        out
    }

    #[test]
    fn byte_by_byte_feeding_matches_reader() {
        let (bytes, stamps) = encoded_stamps(10_000);
        let mut d = StreamDecoder::new();
        let mut got = Vec::new();
        for &b in &bytes {
            d.feed(&[b]).unwrap();
            got.extend(drain(&mut d));
        }
        assert_eq!(got, stamps);
        assert_eq!(d.meta(), Some(&stamp_meta()));
        assert!(d.is_clean_boundary());
        assert!(d.chunks_decoded() >= 2);
        assert_eq!(d.records_decoded(), stamps.len() as u64);
    }

    #[test]
    fn varied_fragment_sizes_match_whole_feed() {
        let (bytes, stamps) = encoded_stamps(5_000);
        for frag in [1usize, 3, 7, 64, 1024, usize::MAX] {
            let mut d = StreamDecoder::new();
            let mut got = Vec::new();
            for piece in bytes.chunks(frag.min(bytes.len())) {
                d.feed(piece).unwrap();
                got.extend(drain(&mut d));
            }
            assert_eq!(got, stamps, "fragment size {frag}");
            assert!(d.is_clean_boundary());
        }
    }

    #[test]
    fn poll_batch_drains_the_stamp_column() {
        let (bytes, stamps) = encoded_stamps(9_000);
        let mut d = StreamDecoder::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(777) {
            d.feed(piece).unwrap();
            let before = got.len();
            let n = d.poll_batch(&mut got);
            assert_eq!(got.len(), before + n);
            // The column is drained: a scalar poll finds nothing.
            assert!(d.poll().is_none());
        }
        assert_eq!(got, stamps);
        assert!(d.is_clean_boundary());
    }

    #[test]
    fn poll_and_poll_batch_interleave() {
        let (bytes, stamps) = encoded_stamps(6_000);
        let mut d = StreamDecoder::new();
        d.feed(&bytes).unwrap();
        let mut got = Vec::new();
        // Alternate: a few scalar polls, then a batch drain, then feed
        // nothing more — order must be preserved across the mix.
        for _ in 0..5 {
            match d.poll() {
                Some(Record::Stamp(s)) => got.push(s),
                other => panic!("unexpected {other:?}"),
            }
        }
        d.poll_batch(&mut got);
        assert_eq!(got, stamps);
    }

    #[test]
    fn scalar_mode_matches_columnar_mode() {
        let (bytes, stamps) = encoded_stamps(8_000);
        for frag in [1usize, 13, 997, usize::MAX] {
            let mut scalar = StreamDecoder::new_scalar();
            let mut batch = StreamDecoder::new();
            let mut via_scalar = Vec::new();
            let mut via_batch = Vec::new();
            for piece in bytes.chunks(frag.min(bytes.len())) {
                scalar.feed(piece).unwrap();
                batch.feed(piece).unwrap();
                // A scalar decoder has no stamp column to drain.
                assert_eq!(scalar.poll_batch(&mut via_batch), 0);
                via_scalar.extend(drain(&mut scalar));
                batch.poll_batch(&mut via_batch);
            }
            assert_eq!(via_scalar, stamps, "fragment size {frag}");
            assert_eq!(via_batch, stamps, "fragment size {frag}");
            assert!(scalar.is_clean_boundary());
            assert_eq!(scalar.records_decoded(), batch.records_decoded());
            assert_eq!(scalar.chunks_decoded(), batch.chunks_decoded());
        }
    }

    #[test]
    fn scalar_mode_reports_the_same_errors() {
        // Zero delta mid-stream: both modes must fail with NonMonotonic
        // at the same record index and keep the decoded prefix pollable.
        // TraceWriter rejects non-monotonic input, so take its header
        // and frame a bad chunk by hand.
        let w = TraceWriter::create(Vec::new(), stamp_meta()).unwrap();
        let header = w.finish().unwrap();
        let mut payload = Vec::new();
        for delta in [100u64, 100, 0, 100] {
            crate::varint::encode(delta, &mut payload);
        }
        let mut bytes = header;
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        let mut scalar = StreamDecoder::new_scalar();
        let mut batch = StreamDecoder::new();
        let es = scalar.feed(&bytes).unwrap_err();
        let eb = batch.feed(&bytes).unwrap_err();
        assert_eq!(format!("{es:?}"), format!("{eb:?}"));
        assert!(matches!(es, TraceError::NonMonotonic { index: 2 }), "{es}");
        assert_eq!(drain(&mut scalar), vec![100, 200]);
        let mut col = Vec::new();
        batch.poll_batch(&mut col);
        assert_eq!(col, vec![100, 200]);
    }

    #[test]
    fn partial_chunk_is_not_a_clean_boundary() {
        let (bytes, stamps) = encoded_stamps(3_000);
        let cut = bytes.len() - 10; // mid-final-chunk
        let mut d = StreamDecoder::new();
        d.feed(&bytes[..cut]).unwrap();
        let got = drain(&mut d);
        assert!(got.len() < stamps.len());
        assert_eq!(got[..], stamps[..got.len()]);
        assert!(!d.is_clean_boundary());
        assert!(d.pending_bytes() > 0);
        // Feeding the rest completes the stream.
        d.feed(&bytes[cut..]).unwrap();
        assert!(d.is_clean_boundary());
    }

    #[test]
    fn corrupt_chunk_poisons_decoder() {
        let (mut bytes, _) = encoded_stamps(100);
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // flip a payload byte in the final chunk
        let mut d = StreamDecoder::new();
        let err = d.feed(&bytes).unwrap_err();
        assert!(matches!(err, TraceError::CrcMismatch { .. }), "{err}");
        assert!(d.feed(&[0]).is_err(), "decoder must stay poisoned");
    }

    #[test]
    fn non_trace_stream_fails_fast() {
        let mut d = StreamDecoder::new();
        let err = d.feed(b"GET / HTTP/1.1\r\n").unwrap_err();
        assert!(matches!(err, TraceError::BadMagic));
        // Even a short wrong prefix is rejected without waiting for more.
        let mut d = StreamDecoder::new();
        assert!(matches!(d.feed(b"XY").unwrap_err(), TraceError::BadMagic));
    }

    #[test]
    fn export_restore_mid_stream_matches_straight_decode() {
        let (bytes, stamps) = encoded_stamps(7_000);
        // Split at every flavour of boundary: mid-header, mid-chunk,
        // chunk-aligned, stream end.
        for cut in [3usize, 17, 500, 1024, bytes.len() - 9, bytes.len()] {
            let mut first = StreamDecoder::new();
            first.feed(&bytes[..cut]).unwrap();
            let mut got = Vec::new();
            first.poll_batch(&mut got);
            let state = first.export_state().expect("drained decoder exports");
            let mut second = StreamDecoder::restore(state);
            assert_eq!(second.bytes_fed(), cut as u64);
            second.feed(&bytes[cut..]).unwrap();
            second.poll_batch(&mut got);
            assert_eq!(got, stamps, "cut {cut}");
            assert!(second.is_clean_boundary());
            assert_eq!(second.records_decoded(), stamps.len() as u64);
            assert_eq!(second.bytes_fed(), bytes.len() as u64);
        }
    }

    #[test]
    fn export_refuses_undrained_or_poisoned_decoders() {
        let (bytes, _) = encoded_stamps(200);
        let mut d = StreamDecoder::new();
        d.feed(&bytes).unwrap();
        // Stamps decoded but not yet polled: no export.
        assert!(d.export_state().is_none());
        let mut col = Vec::new();
        d.poll_batch(&mut col);
        assert!(d.export_state().is_some());

        let mut poisoned = StreamDecoder::new();
        poisoned.feed(b"NOPE").unwrap_err();
        assert!(poisoned.export_state().is_none());
    }

    #[test]
    fn export_restore_preserves_scalar_mode() {
        let (bytes, stamps) = encoded_stamps(300);
        let mut d = StreamDecoder::new_scalar();
        d.feed(&bytes[..40]).unwrap();
        let got_prefix = drain(&mut d);
        let state = d.export_state().unwrap();
        assert!(state.scalar);
        let mut r = StreamDecoder::restore(state);
        r.feed(&bytes[40..]).unwrap();
        // Still scalar: poll_batch drains nothing, poll yields the rest.
        let mut none = Vec::new();
        assert_eq!(r.poll_batch(&mut none), 0);
        let mut got = got_prefix;
        got.extend(drain(&mut r));
        assert_eq!(got, stamps);
    }

    #[test]
    fn api_records_round_trip_incrementally() {
        let meta = TraceMeta {
            kind: StreamKind::ApiLog,
            ..stamp_meta()
        };
        let recs: Vec<ApiRecord> = (0..700u64)
            .map(|i| ApiRecord {
                at_cycles: i * 1000,
                thread: (i % 7) as u32,
                entry: (i % 5) as u8,
                outcome: (i % 3) as u8,
                a: i * 31,
                b: u64::MAX - i,
                queue_len: (i % 11) as u32,
            })
            .collect();
        let mut w = TraceWriter::create(Vec::new(), meta).unwrap();
        for r in &recs {
            w.write(&Record::Api(*r)).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut d = StreamDecoder::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(17) {
            d.feed(piece).unwrap();
            // poll_batch is a stamp-column operation: on an API stream it
            // must drain nothing and leave the records pollable.
            let mut none = Vec::new();
            assert_eq!(d.poll_batch(&mut none), 0);
            while let Some(rec) = d.poll() {
                match rec {
                    Record::Api(a) => got.push(a),
                    other => panic!("unexpected record {other:?}"),
                }
            }
        }
        assert_eq!(got, recs);
        assert!(d.is_clean_boundary());
    }
}
