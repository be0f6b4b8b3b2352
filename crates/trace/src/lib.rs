//! # latlab-trace: binary trace capture and replay
//!
//! The paper's methodology (§2.2) rests on long streams of cycle-counter
//! stamps: one per idle-loop iteration, at roughly one per millisecond.
//! Real measurement sessions produce millions of stamps, and comparing
//! two runs (before/after an OS change, §4) requires keeping them. This
//! crate provides the durable form of those streams:
//!
//! - a **compact binary format** — varint delta-encoded records in
//!   CRC-32-framed chunks behind a self-describing header that carries
//!   the calibration baseline, CPU frequency, personality string, and
//!   run seed ([`TraceMeta`]);
//! - a **bounded-memory writer/reader pair** ([`TraceWriter`],
//!   [`TraceReader`]) that hold at most one chunk in memory, so traces
//!   far larger than RAM stream through cleanly;
//! - the [`TraceSink`] abstraction the simulator's collection paths emit
//!   through, with in-memory ([`VecSink`]), on-disk ([`WriterSink`]),
//!   and discarding ([`NullSink`]) implementations;
//! - a **push-based incremental decoder** ([`StreamDecoder`]) for
//!   transports that deliver the same byte stream in arbitrary fragments
//!   (sockets): partial headers and chunks are buffered until complete,
//!   with the exact validation the file reader performs, which is the
//!   reference its tests hold it to. Idle-stamp streams decode a whole
//!   chunk per pass: straight to latency (the excess of each
//!   over-baseline gap) through [`StreamDecoder::feed_gaps`], or into a
//!   stamp column drained by [`StreamDecoder::poll_batch`]; records of
//!   other streams are validated and discarded. [`BufferPool`] recycles
//!   frame buffers, so the ingest path does not allocate one per frame;
//! - the shared record [`codec`], the single implementation of the
//!   chunk-payload layout that every decoder above calls into.
//!
//! Three stream kinds share the container: idle-loop stamps, message-API
//! log events, and periodic counter samples ([`StreamKind`]).
//!
//! Trace files are external input: every read path returns
//! [`TraceError`] on corrupt or truncated data and never panics.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod codec;
mod crc32;
mod error;
mod meta;
mod pool;
mod reader;
mod record;
mod sink;
mod stream;
mod varint;
mod writer;

pub use crc32::crc32;
pub use error::TraceError;
pub use meta::{StreamKind, TraceMeta, FORMAT_VERSION, MAGIC};
pub use pool::BufferPool;
pub use reader::TraceReader;
pub use record::{ApiRecord, CounterRecord, Record};
pub use sink::{FileSink, NullSink, TraceSink, VecSink, WriterSink};
pub use stream::{DecoderState, StreamDecoder};
pub use writer::{TraceWriter, MAX_CHUNK_PAYLOAD, MAX_CHUNK_RECORDS};

/// Default file extension for trace files.
pub const FILE_EXTENSION: &str = "ltrc";

#[cfg(test)]
mod tests {
    use super::*;
    use latlab_des::{CpuFreq, SimDuration};

    fn stamp_meta() -> TraceMeta {
        TraceMeta {
            kind: StreamKind::IdleStamps,
            freq: CpuFreq::PENTIUM_100,
            baseline: SimDuration::from_cycles(250),
            seed: 42,
            personality: "test".to_owned(),
        }
    }

    #[test]
    fn stamps_round_trip_across_chunks() {
        let mut w = TraceWriter::create(Vec::new(), stamp_meta()).unwrap();
        let stamps: Vec<u64> = (0..10_000u64).map(|i| i * i + i).collect();
        for &s in &stamps[1..] {
            w.write(&Record::Stamp(s)).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = TraceReader::open(&bytes[..]).unwrap();
        assert_eq!(r.meta(), &stamp_meta());
        let mut back = Vec::new();
        while let Some(rec) = r.next().unwrap() {
            match rec {
                Record::Stamp(s) => back.push(s),
                other => panic!("unexpected record {other:?}"),
            }
        }
        assert_eq!(back, stamps[1..]);
        assert!(r.chunks_read() >= 2, "expected multiple chunks");
    }

    #[test]
    fn non_monotonic_stamps_rejected_at_write() {
        let mut w = TraceWriter::create(Vec::new(), stamp_meta()).unwrap();
        w.write(&Record::Stamp(100)).unwrap();
        let err = w.write(&Record::Stamp(100)).unwrap_err();
        assert!(matches!(err, TraceError::NonMonotonic { index: 1 }));
        let err = w.write(&Record::Stamp(50)).unwrap_err();
        assert!(matches!(err, TraceError::NonMonotonic { .. }));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut w = TraceWriter::create(Vec::new(), stamp_meta()).unwrap();
        let err = w
            .write(&Record::Counter(CounterRecord {
                at_cycles: 1,
                counter: 0,
                value: 0,
            }))
            .unwrap_err();
        assert!(matches!(err, TraceError::KindMismatch { .. }));
    }

    #[test]
    fn api_records_round_trip() {
        let meta = TraceMeta {
            kind: StreamKind::ApiLog,
            ..stamp_meta()
        };
        let recs: Vec<ApiRecord> = (0..500u64)
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
        let mut w = TraceWriter::create(Vec::new(), meta.clone()).unwrap();
        for r in &recs {
            w.write(&Record::Api(*r)).unwrap();
        }
        let bytes = w.finish().unwrap();
        let r = TraceReader::open(&bytes[..]).unwrap();
        let back: Vec<ApiRecord> = r
            .map(|rec| match rec.unwrap() {
                Record::Api(a) => a,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(back, recs);
    }

    #[test]
    fn counter_records_round_trip() {
        let meta = TraceMeta {
            kind: StreamKind::Counters,
            ..stamp_meta()
        };
        let recs: Vec<CounterRecord> = (0..300u64)
            .map(|i| CounterRecord {
                at_cycles: i * 17,
                counter: (i % 4) as u32,
                value: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            })
            .collect();
        let mut w = TraceWriter::create(Vec::new(), meta.clone()).unwrap();
        for r in &recs {
            w.write(&Record::Counter(*r)).unwrap();
        }
        let bytes = w.finish().unwrap();
        let r = TraceReader::open(&bytes[..]).unwrap();
        let back: Vec<CounterRecord> = r
            .map(|rec| match rec.unwrap() {
                Record::Counter(c) => c,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(back, recs);
    }

    #[test]
    fn empty_trace_round_trips() {
        let w = TraceWriter::create(Vec::new(), stamp_meta()).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = TraceReader::open(&bytes[..]).unwrap();
        assert!(r.next().unwrap().is_none());
        assert_eq!(r.records_read(), 0);
    }

    #[test]
    fn batched_stamps_are_byte_identical_to_per_record() {
        // Mixed batch sizes, spanning multiple chunk flushes, interleaved
        // with per-record writes: the fast-forward batch path must encode
        // the exact bytes the per-record path does.
        let stamps: Vec<u64> = (1..12_000u64).map(|i| i * 7 + (i % 5)).collect();
        let mut per_record = TraceWriter::create(Vec::new(), stamp_meta()).unwrap();
        for &s in &stamps {
            per_record.write(&Record::Stamp(s)).unwrap();
        }
        let expected = per_record.finish().unwrap();

        let mut batched = TraceWriter::create(Vec::new(), stamp_meta()).unwrap();
        let mut rest = &stamps[..];
        for size in [1usize, 7, 0, 4096, 5000, usize::MAX] {
            let take = size.min(rest.len());
            let (head, tail) = rest.split_at(take);
            if take % 2 == 0 {
                batched.write_stamps(head).unwrap();
            } else {
                // Odd splits go through the sink default for coverage.
                for &s in head {
                    batched.write(&Record::Stamp(s)).unwrap();
                }
            }
            rest = tail;
        }
        assert!(rest.is_empty());
        assert_eq!(batched.finish().unwrap(), expected);
    }

    #[test]
    fn batched_stamps_reject_non_monotonic() {
        let mut w = TraceWriter::create(Vec::new(), stamp_meta()).unwrap();
        w.write_stamps(&[100, 200]).unwrap();
        let err = w.write_stamps(&[200]).unwrap_err();
        assert!(matches!(err, TraceError::NonMonotonic { index: 2 }));
        let err = w.write_stamps(&[300, 250]).unwrap_err();
        assert!(matches!(err, TraceError::NonMonotonic { .. }));
    }

    #[test]
    fn batched_stamps_reject_kind_mismatch() {
        let meta = TraceMeta {
            kind: StreamKind::ApiLog,
            ..stamp_meta()
        };
        let mut w = TraceWriter::create(Vec::new(), meta).unwrap();
        let err = w.write_stamps(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, TraceError::KindMismatch { .. }));
    }

    #[test]
    fn sink_emit_stamps_matches_per_record() {
        let stamps = [10u64, 20, 35, 90];
        let mut batched = WriterSink::new(TraceWriter::create(Vec::new(), stamp_meta()).unwrap());
        batched.emit_stamps(&stamps);
        let mut per_record =
            WriterSink::new(TraceWriter::create(Vec::new(), stamp_meta()).unwrap());
        for &s in &stamps {
            per_record.record(&Record::Stamp(s));
        }
        batched.finish().unwrap();
        per_record.finish().unwrap();
        let mut mem = VecSink::new();
        mem.emit_stamps(&stamps);
        assert_eq!(mem.take_stamps(), stamps.to_vec());
    }

    #[test]
    fn writer_sink_collects_and_vec_sink_matches() {
        let meta = stamp_meta();
        let mut disk = WriterSink::new(TraceWriter::create(Vec::new(), meta).unwrap());
        let mut mem = VecSink::new();
        for s in [10u64, 20, 35, 90] {
            let rec = Record::Stamp(s);
            disk.record(&rec);
            mem.record(&rec);
        }
        disk.finish().unwrap();
        assert_eq!(mem.take_stamps(), vec![10, 20, 35, 90]);
    }
}
