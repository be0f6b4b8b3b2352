//! Property tests for the binary trace format.
//!
//! The invariants: encoding is lossless for every stream kind; a
//! truncated file never panics and never invents records (whatever is
//! readable is a prefix of what was written); and any single-bit
//! corruption anywhere in the file — header, chunk framing, or payload —
//! surfaces as a clean [`TraceError`].

use latlab_des::{CpuFreq, SimDuration};
use latlab_trace::{
    crc32, ApiRecord, CounterRecord, DecoderState, Record, StreamDecoder, StreamKind, TraceError,
    TraceMeta, TraceReader, TraceWriter,
};
use proptest::prelude::*;

fn meta(kind: StreamKind) -> TraceMeta {
    TraceMeta {
        kind,
        freq: CpuFreq::PENTIUM_100,
        baseline: SimDuration::from_cycles(100_000),
        seed: 0xfeed_f00d,
        personality: "proptest".to_owned(),
    }
}

fn encode(kind: StreamKind, records: &[Record]) -> Vec<u8> {
    let mut w = TraceWriter::create(Vec::new(), meta(kind)).unwrap();
    for r in records {
        w.write(r).unwrap();
    }
    w.finish().unwrap()
}

fn drain(bytes: &[u8]) -> Result<Vec<Record>, TraceError> {
    let mut reader = TraceReader::open(bytes)?;
    let mut out = Vec::new();
    while let Some(rec) = reader.next()? {
        out.push(rec);
    }
    Ok(out)
}

fn stamps_from(start: u64, deltas: &[u64]) -> Vec<Record> {
    let mut t = start;
    let mut out = Vec::with_capacity(deltas.len());
    for &d in deltas {
        t += d;
        out.push(Record::Stamp(t));
    }
    out
}

/// What a [`StreamDecoder`] produced over a fragmented byte stream:
/// every stamp decoded (including those salvaged after a failing feed)
/// and, if a feed failed, at which fragment and with what error.
#[derive(Debug, PartialEq)]
struct DrainOutcome {
    stamps: Vec<u64>,
    error: Option<(usize, String)>,
    clean_boundary: bool,
}

/// How [`drain_fragmented`] decodes and drains.
#[derive(Clone, Copy, Debug)]
enum DrainStyle {
    /// Default (columnar) decoder, drained record-by-record via `poll`.
    Poll,
    /// Default (columnar) decoder, drained column-wise via `poll_batch`.
    PollBatch,
    /// [`StreamDecoder::new_scalar`] reference decoder, drained via
    /// `poll` (its only output path).
    ScalarDecoder,
}

/// Feeds `bytes` to a fresh decoder in `frags`-sized fragments
/// (cycling), draining after every feed in the given style. Stops at
/// the first feed error; records decoded before a mid-chunk error are
/// still drained.
fn drain_fragmented(bytes: &[u8], frags: &[usize], style: DrainStyle) -> DrainOutcome {
    let mut d = match style {
        DrainStyle::ScalarDecoder => StreamDecoder::new_scalar(),
        _ => StreamDecoder::new(),
    };
    let batch = matches!(style, DrainStyle::PollBatch);
    let mut stamps = Vec::new();
    let mut error = None;
    let mut rest = bytes;
    let mut cuts = frags.iter().cycle();
    for index in 0usize.. {
        if rest.is_empty() {
            break;
        }
        let take = (*cuts.next().unwrap()).min(rest.len());
        let (head, tail) = rest.split_at(take);
        let fed = d.feed(head);
        if batch {
            d.poll_batch(&mut stamps);
        } else {
            while let Some(rec) = d.poll() {
                match rec {
                    Record::Stamp(s) => stamps.push(s),
                    other => panic!("non-stamp record in stamp stream: {other:?}"),
                }
            }
        }
        if let Err(e) = fed {
            error = Some((index, format!("{e:?}")));
            break;
        }
        rest = tail;
    }
    DrainOutcome {
        stamps,
        error,
        clean_boundary: d.is_clean_boundary(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stamps_round_trip(
        start in 0u64..1_000_000_000,
        deltas in prop::collection::vec(1u64..2_000_000, 0..3000),
    ) {
        let records = stamps_from(start, &deltas);
        let bytes = encode(StreamKind::IdleStamps, &records);
        prop_assert_eq!(drain(&bytes).unwrap(), records);
    }

    #[test]
    fn api_records_round_trip(
        raw in prop::collection::vec(
            (
                (0u64..500_000, 0u32..64, 0u8..8),
                (0u8..8, 0u64..u64::MAX / 2, 0u64..u64::MAX / 2),
                0u32..1024,
            ),
            0..500,
        ),
    ) {
        let mut t = 0u64;
        let records: Vec<Record> = raw
            .iter()
            .map(|((dt, thread, entry), (outcome, a, b), queue_len)| {
                t += dt;
                Record::Api(ApiRecord {
                    at_cycles: t,
                    thread: *thread,
                    entry: *entry,
                    outcome: *outcome,
                    a: *a,
                    b: *b,
                    queue_len: *queue_len,
                })
            })
            .collect();
        let bytes = encode(StreamKind::ApiLog, &records);
        prop_assert_eq!(drain(&bytes).unwrap(), records);
    }

    #[test]
    fn counter_records_round_trip(
        raw in prop::collection::vec((0u64..500_000, 0u32..16, 0u64..u64::MAX / 2), 0..500),
    ) {
        let mut t = 0u64;
        let records: Vec<Record> = raw
            .iter()
            .map(|(dt, counter, value)| {
                t += dt;
                Record::Counter(CounterRecord {
                    at_cycles: t,
                    counter: *counter,
                    value: *value,
                })
            })
            .collect();
        let bytes = encode(StreamKind::Counters, &records);
        prop_assert_eq!(drain(&bytes).unwrap(), records);
    }

    #[test]
    fn truncation_yields_clean_error_or_prefix(
        start in 0u64..1_000_000,
        deltas in prop::collection::vec(1u64..200_000, 1..1500),
        cut_permille in 0u64..1000,
    ) {
        let records = stamps_from(start, &deltas);
        let bytes = encode(StreamKind::IdleStamps, &records);
        let cut = (bytes.len() as u64 * cut_permille / 1000) as usize;
        // Truncation at a chunk boundary is indistinguishable from a short
        // trace — but must never yield records that were not written, out
        // of order, or beyond the original count. Anything else must be a
        // clean error, never a panic.
        if let Ok(read) = drain(&bytes[..cut]) {
            prop_assert_eq!(&read[..], &records[..read.len()]);
        }
    }

    #[test]
    fn tolerant_reader_salvages_a_prefix_from_any_truncation(
        start in 0u64..1_000_000,
        deltas in prop::collection::vec(1u64..200_000, 1..1500),
        cut_permille in 0u64..1000,
    ) {
        let records = stamps_from(start, &deltas);
        let bytes = encode(StreamKind::IdleStamps, &records);
        let cut = (bytes.len() as u64 * cut_permille / 1000) as usize;
        // If the header itself was cut, open() fails cleanly and there is
        // nothing to salvage; otherwise a tolerant reader never errors on
        // truncation — it drains every CRC-valid chunk and stops cleanly.
        if let Ok(mut reader) = TraceReader::open(&bytes[..cut]) {
            reader.set_tolerant(true);
            let mut out = Vec::new();
            while let Some(rec) =
                reader.next().expect("tolerant read must not fail on truncation")
            {
                out.push(rec);
            }
            prop_assert!(out.len() <= records.len());
            prop_assert_eq!(&out[..], &records[..out.len()]);
        }
    }

    #[test]
    fn tolerant_reader_is_exact_on_intact_files(
        start in 0u64..1_000_000,
        deltas in prop::collection::vec(1u64..200_000, 0..1500),
    ) {
        let records = stamps_from(start, &deltas);
        let bytes = encode(StreamKind::IdleStamps, &records);
        let mut reader = TraceReader::open(&bytes[..]).unwrap();
        reader.set_tolerant(true);
        let mut out = Vec::new();
        while let Some(rec) = reader.next().unwrap() {
            out.push(rec);
        }
        prop_assert_eq!(out, records);
        prop_assert!(reader.salvaged_error().is_none(),
            "an intact file must not report salvage");
    }

    #[test]
    fn tolerant_reader_survives_bit_flips_with_a_prefix(
        start in 0u64..1_000_000,
        deltas in prop::collection::vec(1u64..200_000, 1..800),
        pos_permille in 0u64..1000,
        bit in 0u32..8,
    ) {
        let records = stamps_from(start, &deltas);
        let mut bytes = encode(StreamKind::IdleStamps, &records);
        let pos = (bytes.len() as u64 * pos_permille / 1000) as usize;
        bytes[pos] ^= 1 << bit;
        // A flip in the header makes open() fail cleanly; otherwise the
        // tolerant reader reads until corruption stops it (a decode error
        // inside a CRC-valid chunk may still surface — also clean).
        if let Ok(mut reader) = TraceReader::open(&bytes[..]) {
            reader.set_tolerant(true);
            let mut out = Vec::new();
            while let Ok(Some(rec)) = reader.next() {
                out.push(rec);
            }
            // Whatever was salvaged is a strict prefix — corruption can
            // cost records but can never invent or reorder them.
            prop_assert!(out.len() <= records.len());
            prop_assert_eq!(&out[..], &records[..out.len()]);
        }
    }

    #[test]
    fn single_bit_flip_is_always_detected(
        start in 0u64..1_000_000,
        deltas in prop::collection::vec(1u64..200_000, 1..800),
        pos_permille in 0u64..1000,
        bit in 0u32..8,
    ) {
        let records = stamps_from(start, &deltas);
        let mut bytes = encode(StreamKind::IdleStamps, &records);
        let pos = (bytes.len() as u64 * pos_permille / 1000) as usize;
        bytes[pos] ^= 1 << bit;
        // Every byte is covered by a CRC (header or chunk) or is part of
        // the chunk framing whose inconsistency the reader checks.
        prop_assert!(drain(&bytes).is_err());
    }

    /// The incremental decoder yields exactly the file reader's records
    /// under any fragmentation of the same byte stream.
    #[test]
    fn stream_decoder_is_fragmentation_invariant(
        start in 0u64..1_000_000_000,
        deltas in prop::collection::vec(1u64..2_000_000, 0..3000),
        frags in prop::collection::vec(1usize..512, 1..64),
    ) {
        let records = stamps_from(start, &deltas);
        let bytes = encode(StreamKind::IdleStamps, &records);
        let mut d = latlab_trace::StreamDecoder::new();
        let mut got = Vec::new();
        let mut rest = &bytes[..];
        let mut cuts = frags.iter().cycle();
        while !rest.is_empty() {
            let take = (*cuts.next().unwrap()).min(rest.len());
            let (head, tail) = rest.split_at(take);
            d.feed(head).unwrap();
            while let Some(rec) = d.poll() {
                got.push(rec);
            }
            rest = tail;
        }
        prop_assert_eq!(got, records);
        prop_assert!(d.is_clean_boundary());
        prop_assert_eq!(d.bytes_fed(), bytes.len() as u64);
    }

    /// Cutting the stream anywhere never panics the incremental decoder
    /// and never invents records: what was decoded is a strict prefix.
    #[test]
    fn stream_decoder_truncation_yields_prefix(
        start in 0u64..1_000_000,
        deltas in prop::collection::vec(1u64..200_000, 1..800),
        cut_permille in 0u64..1000,
    ) {
        let records = stamps_from(start, &deltas);
        let bytes = encode(StreamKind::IdleStamps, &records);
        let cut = (bytes.len() as u64 * cut_permille / 1000) as usize;
        let mut d = latlab_trace::StreamDecoder::new();
        d.feed(&bytes[..cut]).unwrap();
        let mut got = Vec::new();
        while let Some(rec) = d.poll() {
            got.push(rec);
        }
        prop_assert!(got.len() <= records.len());
        prop_assert_eq!(&got[..], &records[..got.len()]);
        if cut < bytes.len() {
            prop_assert!(!d.is_clean_boundary() || got.len() < records.len() || got.is_empty());
        }
    }

    /// The columnar drain is observationally identical to the scalar
    /// one on intact streams under any fragmentation, and both agree
    /// with the file reader.
    #[test]
    fn poll_batch_matches_poll_on_intact_streams(
        start in 0u64..1_000_000_000,
        deltas in prop::collection::vec(1u64..2_000_000, 0..3000),
        frags in prop::collection::vec(1usize..512, 1..64),
    ) {
        let records = stamps_from(start, &deltas);
        let bytes = encode(StreamKind::IdleStamps, &records);
        let scalar = drain_fragmented(&bytes, &frags, DrainStyle::Poll);
        let batch = drain_fragmented(&bytes, &frags, DrainStyle::PollBatch);
        prop_assert_eq!(&batch, &scalar);
        prop_assert!(batch.error.is_none());
        prop_assert!(batch.clean_boundary);
        let expect: Vec<u64> = deltas
            .iter()
            .scan(start, |t, d| { *t += d; Some(*t) })
            .collect();
        prop_assert_eq!(&batch.stamps, &expect);
        let read: Vec<u64> = drain(&bytes)
            .unwrap()
            .into_iter()
            .map(|r| match r {
                Record::Stamp(s) => s,
                other => panic!("non-stamp record: {other:?}"),
            })
            .collect();
        prop_assert_eq!(&batch.stamps, &read);
    }

    /// Truncating the stream anywhere leaves both drain styles with the
    /// same strict prefix and no error — a partial upload is silence,
    /// never divergence.
    #[test]
    fn poll_batch_matches_poll_under_truncation(
        start in 0u64..1_000_000,
        deltas in prop::collection::vec(1u64..200_000, 1..1500),
        frags in prop::collection::vec(1usize..256, 1..32),
        cut_permille in 0u64..1000,
    ) {
        let records = stamps_from(start, &deltas);
        let bytes = encode(StreamKind::IdleStamps, &records);
        let cut = (bytes.len() as u64 * cut_permille / 1000) as usize;
        let scalar = drain_fragmented(&bytes[..cut], &frags, DrainStyle::Poll);
        let batch = drain_fragmented(&bytes[..cut], &frags, DrainStyle::PollBatch);
        prop_assert_eq!(&batch, &scalar);
        prop_assert!(batch.error.is_none());
        let expect: Vec<u64> = deltas
            .iter()
            .scan(start, |t, d| { *t += d; Some(*t) })
            .collect();
        prop_assert!(batch.stamps.len() <= expect.len());
        prop_assert_eq!(&batch.stamps[..], &expect[..batch.stamps.len()]);
    }

    /// A single-bit flip anywhere surfaces through both drain styles at
    /// the same fragment with the same error, after the same salvaged
    /// prefix of stamps.
    #[test]
    fn poll_batch_matches_poll_under_corruption(
        start in 0u64..1_000_000,
        deltas in prop::collection::vec(1u64..200_000, 1..800),
        frags in prop::collection::vec(1usize..256, 1..32),
        pos_permille in 0u64..1000,
        bit in 0u32..8,
    ) {
        let records = stamps_from(start, &deltas);
        let mut bytes = encode(StreamKind::IdleStamps, &records);
        let pos = (bytes.len() as u64 * pos_permille / 1000) as usize;
        bytes[pos] ^= 1 << bit;
        let scalar = drain_fragmented(&bytes, &frags, DrainStyle::Poll);
        let batch = drain_fragmented(&bytes, &frags, DrainStyle::PollBatch);
        prop_assert_eq!(&batch, &scalar);
        // A flip either surfaces as a feed error or (e.g. an inflated
        // chunk-length field) strands the decoder mid-unit waiting for
        // bytes that never come — it can never pass as a clean stream.
        prop_assert!(batch.error.is_some() || !batch.clean_boundary);
        let expect: Vec<u64> = deltas
            .iter()
            .scan(start, |t, d| { *t += d; Some(*t) })
            .collect();
        prop_assert!(batch.stamps.len() <= expect.len());
        prop_assert_eq!(&batch.stamps[..], &expect[..batch.stamps.len()]);
    }

    /// `poll` and `poll_batch` compose: alternating per fragment on one
    /// decoder still yields exactly the written stamps.
    #[test]
    fn poll_and_poll_batch_interleave_losslessly(
        start in 0u64..1_000_000_000,
        deltas in prop::collection::vec(1u64..2_000_000, 0..3000),
        frags in prop::collection::vec(1usize..512, 1..64),
        styles in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let records = stamps_from(start, &deltas);
        let bytes = encode(StreamKind::IdleStamps, &records);
        let mut d = StreamDecoder::new();
        let mut got = Vec::new();
        let mut rest = &bytes[..];
        let mut cuts = frags.iter().cycle();
        let mut style = styles.iter().cycle();
        while !rest.is_empty() {
            let take = (*cuts.next().unwrap()).min(rest.len());
            let (head, tail) = rest.split_at(take);
            d.feed(head).unwrap();
            if *style.next().unwrap() {
                d.poll_batch(&mut got);
            } else {
                while let Some(rec) = d.poll() {
                    match rec {
                        Record::Stamp(s) => got.push(s),
                        other => panic!("non-stamp record: {other:?}"),
                    }
                }
            }
            rest = tail;
        }
        let expect: Vec<u64> = deltas
            .iter()
            .scan(start, |t, d| { *t += d; Some(*t) })
            .collect();
        prop_assert_eq!(got, expect);
        prop_assert!(d.is_clean_boundary());
    }

    /// The scalar-mode reference decoder ([`StreamDecoder::new_scalar`])
    /// is observationally identical to the default columnar decoder on
    /// intact streams under any fragmentation.
    #[test]
    fn scalar_mode_decoder_matches_columnar(
        start in 0u64..1_000_000_000,
        deltas in prop::collection::vec(1u64..2_000_000, 0..3000),
        frags in prop::collection::vec(1usize..512, 1..64),
    ) {
        let records = stamps_from(start, &deltas);
        let bytes = encode(StreamKind::IdleStamps, &records);
        let reference = drain_fragmented(&bytes, &frags, DrainStyle::ScalarDecoder);
        let columnar = drain_fragmented(&bytes, &frags, DrainStyle::PollBatch);
        prop_assert_eq!(&reference, &columnar);
        prop_assert!(reference.error.is_none());
        prop_assert!(reference.clean_boundary);
        let expect: Vec<u64> = deltas
            .iter()
            .scan(start, |t, d| { *t += d; Some(*t) })
            .collect();
        prop_assert_eq!(&reference.stamps, &expect);
    }

    /// Corruption surfaces identically through the scalar-mode reference
    /// decoder and the columnar one: same salvaged prefix, same error at
    /// the same fragment.
    #[test]
    fn scalar_mode_decoder_matches_columnar_under_corruption(
        start in 0u64..1_000_000,
        deltas in prop::collection::vec(1u64..200_000, 1..800),
        frags in prop::collection::vec(1usize..256, 1..32),
        pos_permille in 0u64..1000,
        bit in 0u32..8,
    ) {
        let records = stamps_from(start, &deltas);
        let mut bytes = encode(StreamKind::IdleStamps, &records);
        let pos = (bytes.len() as u64 * pos_permille / 1000) as usize;
        bytes[pos] ^= 1 << bit;
        let reference = drain_fragmented(&bytes, &frags, DrainStyle::ScalarDecoder);
        let columnar = drain_fragmented(&bytes, &frags, DrainStyle::PollBatch);
        prop_assert_eq!(&reference, &columnar);
        prop_assert!(reference.error.is_some() || !reference.clean_boundary);
    }
}

/// Idle baselines of the fused-kernel streams: a short synthetic one,
/// whose deltas are one- and two-byte varints, and the 1 ms baseline a
/// recorded trace carries at 100 MHz, whose deltas take three bytes.
const GAP_BASELINES: [u64; 2] = [250, 100_000];

/// Maps a `(kind, x)` draw to a stamp delta clustered on `baseline`
/// (at, just under and just over it), with one-byte, two-byte and long
/// deltas mixed in; kind 9 and above is a zero delta, which only a
/// corrupt stream carries.
fn gap_delta(baseline: u64, (kind, x): (u32, u64)) -> u64 {
    match kind {
        0..=5 => baseline - 1 + x % 3,
        6 => 1 + x % ((1 << 14) - 1),
        7 => 1 + x % 127,
        8 => 1_000 + x * 97,
        _ => 0,
    }
}

/// An idle-stamp stream framed by hand: the header, then `deltas`
/// (the first is the absolute first stamp) in chunks of `sizes` records
/// (cycling). Hand framing lets a chunk carry what the writer refuses —
/// zero deltas — under a valid CRC. `poke` flips one bit of one chunk
/// payload *before* its CRC is computed, so the corruption reaches the
/// record decoder instead of the checksum.
fn frame_gap_stream(
    baseline: u64,
    deltas: &[u64],
    sizes: &[usize],
    poke: Option<(u64, u32)>,
) -> Vec<u8> {
    let meta = TraceMeta {
        baseline: SimDuration::from_cycles(baseline),
        ..meta(StreamKind::IdleStamps)
    };
    let mut bytes = TraceWriter::create(Vec::new(), meta)
        .unwrap()
        .finish()
        .unwrap();
    let mut sizes = sizes.iter().cycle();
    let mut rest = deltas;
    let mut chunks: Vec<(u32, Vec<u8>)> = Vec::new();
    while !rest.is_empty() {
        let n = (*sizes.next().unwrap()).clamp(1, rest.len());
        let (head, tail) = rest.split_at(n);
        let mut payload = Vec::new();
        for &d in head {
            let mut v = d;
            while v >= 0x80 {
                payload.push((v as u8) | 0x80);
                v >>= 7;
            }
            payload.push(v as u8);
        }
        chunks.push((n as u32, payload));
        rest = tail;
    }
    if let Some((at, bit)) = poke {
        let total: usize = chunks.iter().map(|(_, p)| p.len()).sum();
        if total > 0 {
            let mut at = (at % total as u64) as usize;
            for (_, payload) in &mut chunks {
                if at < payload.len() {
                    payload[at] ^= 1 << bit;
                    break;
                }
                at -= payload.len();
            }
        }
    }
    for (count, payload) in chunks {
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
    }
    bytes
}

/// What a decoder left after a fragmented stream, fed either through
/// the fused kernel or through the column path plus a gap walk.
#[derive(Debug, PartialEq)]
struct GapOutcome {
    excess: Vec<u64>,
    error: Option<(usize, String)>,
    records: u64,
    state: Option<DecoderState>,
    clean_boundary: bool,
}

/// Feeds `bytes` in `frags`-sized fragments (cycling) until the end or
/// the first error. `fused` feeds through [`StreamDecoder::feed_gaps`];
/// otherwise `feed` + `poll_batch` + a walk comparing each stamp with
/// its predecessor — the oracle.
fn gaps_fragmented(bytes: &[u8], frags: &[usize], fused: bool) -> GapOutcome {
    let mut d = StreamDecoder::new();
    let mut excess = Vec::new();
    let mut column = Vec::new();
    let mut last: Option<u64> = None;
    let mut error = None;
    let mut rest = bytes;
    let mut cuts = frags.iter().cycle();
    for index in 0usize.. {
        if rest.is_empty() {
            break;
        }
        let take = (*cuts.next().unwrap()).min(rest.len());
        let (head, tail) = rest.split_at(take);
        let fed = if fused {
            d.feed_gaps(head, &mut excess)
        } else {
            let fed = d.feed(head);
            column.clear();
            d.poll_batch(&mut column);
            let baseline = d.meta().map_or(0, |m| m.baseline.cycles());
            for &at in &column {
                if let Some(prev) = last {
                    let gap = at.saturating_sub(prev);
                    if gap > baseline {
                        excess.push(gap - baseline);
                    }
                }
                last = Some(at);
            }
            fed
        };
        if let Err(e) = fed {
            error = Some((index, format!("{e:?}")));
            break;
        }
        rest = tail;
    }
    GapOutcome {
        excess,
        error,
        records: d.records_decoded(),
        state: d.export_state(),
        clean_boundary: d.is_clean_boundary(),
    }
}

/// Asserts the fused kernel and the oracle agree on `bytes`; returns
/// the shared outcome.
fn check_gaps(bytes: &[u8], frags: &[usize]) -> GapOutcome {
    let fused = gaps_fragmented(bytes, frags, true);
    assert_eq!(fused, gaps_fragmented(bytes, frags, false));
    fused
}

#[test]
fn feed_gaps_matches_the_column_walk_on_targeted_streams() {
    let frags = [usize::MAX];
    for b in GAP_BASELINES {
        // The first stamp of a stream yields no gap.
        let out = check_gaps(
            &frame_gap_stream(b, &[5_000, b, b, b + 7], &[64], None),
            &frags,
        );
        assert_eq!(out.excess, vec![7]);
        assert_eq!(out.records, 4);
        // A zero delta fails at its record.
        for at in 1..5 {
            let mut deltas = vec![1_000, b, b, b, b, b];
            deltas[at] = 0;
            let out = check_gaps(&frame_gap_stream(b, &deltas, &[64], None), &frags);
            assert_eq!(
                out.error,
                Some((0, format!("NonMonotonic {{ index: {at} }}")))
            );
        }
        // `delta == baseline` carries no latency; `baseline + 1` is one
        // cycle of it.
        let out = check_gaps(
            &frame_gap_stream(b, &[1_000, b, b + 1, b - 1, b], &[64], None),
            &frags,
        );
        assert_eq!(out.excess, vec![1]);
        // Chunks of every small size, fed in awkward fragments.
        for size in 1..=9 {
            let deltas: Vec<u64> = (0..40)
                .map(|i| if i % 11 == 3 { b + 9 } else { b })
                .collect();
            let out = check_gaps(&frame_gap_stream(b, &deltas, &[size], None), &[1, 7, 300]);
            assert_eq!(out.excess, vec![9; 4]);
            assert!(out.clean_boundary && out.error.is_none());
        }
        // An overflow near u64::MAX fails at its record.
        let deltas = [u64::MAX - (3 * b + 100), b, b, b, b, b];
        let out = check_gaps(&frame_gap_stream(b, &deltas, &[64], None), &frags);
        assert!(out.error.unwrap().1.contains("overflows 64 bits"));
    }
}

#[test]
fn feed_gaps_exports_and_restores_its_anchor() {
    for b in GAP_BASELINES {
        let deltas: Vec<u64> = (0..5_000)
            .map(|i| if i % 13 == 0 { b + 1 + i } else { b })
            .collect();
        let bytes = frame_gap_stream(b, &deltas, &[300, 41], None);
        let whole = check_gaps(&bytes, &[bytes.len()]);
        for cut in [1usize, 40, 777, 4_321, bytes.len() - 3] {
            let mut first = StreamDecoder::new();
            let mut excess = Vec::new();
            first.feed_gaps(&bytes[..cut], &mut excess).unwrap();
            let mut second = StreamDecoder::restore(first.export_state().unwrap());
            second.feed_gaps(&bytes[cut..], &mut excess).unwrap();
            assert_eq!(excess, whole.excess, "baseline {b}, cut {cut}");
            assert_eq!(second.export_state(), whole.state);
        }
    }
}

#[test]
fn feed_gaps_decodes_and_discards_other_streams() {
    let records: Vec<Record> = (0..900u64)
        .map(|i| {
            Record::Counter(CounterRecord {
                at_cycles: i * 1_000,
                counter: (i % 3) as u32,
                value: i,
            })
        })
        .collect();
    let bytes = encode(StreamKind::Counters, &records);
    let mut d = StreamDecoder::new();
    let mut excess = Vec::new();
    for piece in bytes.chunks(101) {
        d.feed_gaps(piece, &mut excess).unwrap();
    }
    assert!(excess.is_empty());
    assert!(d.poll().is_none());
    assert_eq!(d.records_decoded(), 900);
    assert!(d.is_clean_boundary());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fused kernel equals the column path plus a gap walk on intact
    /// streams under any fragmentation and chunking.
    #[test]
    fn feed_gaps_matches_the_column_walk(
        baseline in (0..GAP_BASELINES.len()).prop_map(|i| GAP_BASELINES[i]),
        start in 0u64..1_000_000,
        draws in prop::collection::vec((0u32..9, 0u64..1 << 20), 0..3000),
        sizes in prop::collection::vec(1usize..600, 1..8),
        frags in prop::collection::vec(1usize..512, 1..64),
    ) {
        let mut deltas = vec![start];
        deltas.extend(draws.into_iter().map(|d| gap_delta(baseline, d)));
        let out = check_gaps(&frame_gap_stream(baseline, &deltas, &sizes, None), &frags);
        prop_assert!(out.error.is_none());
        prop_assert!(out.clean_boundary);
        prop_assert_eq!(out.records, deltas.len() as u64);
    }

    /// Cutting the stream anywhere leaves both paths with the same
    /// excess prefix, record count and resumable state.
    #[test]
    fn feed_gaps_matches_the_column_walk_under_truncation(
        baseline in (0..GAP_BASELINES.len()).prop_map(|i| GAP_BASELINES[i]),
        draws in prop::collection::vec((0u32..9, 0u64..1 << 20), 1..1500),
        sizes in prop::collection::vec(1usize..600, 1..8),
        frags in prop::collection::vec(1usize..256, 1..32),
        cut_permille in 0u64..1000,
    ) {
        let mut deltas = vec![1_000];
        deltas.extend(draws.into_iter().map(|d| gap_delta(baseline, d)));
        let bytes = frame_gap_stream(baseline, &deltas, &sizes, None);
        let cut = (bytes.len() as u64 * cut_permille / 1000) as usize;
        let out = check_gaps(&bytes[..cut], &frags);
        prop_assert!(out.error.is_none());
    }

    /// Zero deltas, a bit flipped in the stream (caught by framing or
    /// CRC) or in a payload under a valid CRC (caught by the record
    /// decoder): both paths fail at the same fragment with the same
    /// error after the same excess.
    #[test]
    fn feed_gaps_matches_the_column_walk_under_corruption(
        baseline in (0..GAP_BASELINES.len()).prop_map(|i| GAP_BASELINES[i]),
        draws in prop::collection::vec((0u32..10, 0u64..1 << 20), 1..800),
        sizes in prop::collection::vec(1usize..300, 1..8),
        frags in prop::collection::vec(1usize..256, 1..32),
        flip in (0u32..3, 0u64..1 << 32, 0u32..8),
    ) {
        let mut deltas = vec![1_000];
        deltas.extend(draws.into_iter().map(|d| gap_delta(baseline, d)));
        let (mode, at, bit) = flip;
        let poke = (mode == 1).then_some((at, bit));
        let mut bytes = frame_gap_stream(baseline, &deltas, &sizes, poke);
        if mode == 2 {
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] ^= 1 << bit;
        }
        check_gaps(&bytes, &frags);
    }
}
