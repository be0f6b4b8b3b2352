//! Encode/decode throughput of the binary trace format.
//!
//! The idle loop produces roughly one stamp per millisecond, so even a
//! modest session is hundreds of thousands of records; the format has to
//! encode at memory speed to keep `--record` out of the measurement's
//! way. These benchmarks push 100k-record streams of each kind through
//! the writer and reader, and time the server's ingest decode on an
//! idle corpus: the column path (`feed` + `poll_batch` + a gap walk)
//! against the fused gap kernel (`feed_gaps`). The fused kernel is also
//! timed on a recorded trace, Figure 11's NT 3.51 Word session, whose
//! 1 ms baseline makes its deltas three- and four-byte varints. The
//! layer after decode, the sketch fold (`LatencySketch::update_batch`),
//! is timed over the samples each of those two corpora yields, and the
//! CRC-32 over one 64 KiB upload frame.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use latlab_analysis::{EventClass, LatencySketch};
use latlab_des::{CpuFreq, SimDuration};
use latlab_trace::{
    ApiRecord, Record, StreamDecoder, StreamKind, TraceMeta, TraceReader, TraceWriter,
};

const N: u64 = 100_000;

fn meta(kind: StreamKind) -> TraceMeta {
    TraceMeta {
        kind,
        freq: CpuFreq::PENTIUM_100,
        baseline: SimDuration::from_cycles(100_000),
        seed: 0x1996_05d1,
        personality: "bench/trace-format".to_owned(),
    }
}

/// Upload frame size: the 64 KiB frames the server receives.
const FRAME: usize = 64 * 1024;

/// Deterministic idle-loop-shaped stamps: ~1 ms strides with occasional
/// elongations (varint lengths vary like real traces).
fn stamps() -> Vec<u64> {
    let mut out = Vec::with_capacity(N as usize);
    let mut t = 0u64;
    for i in 0..N {
        t += 100_000 + (i % 7) * 13 + if i % 97 == 0 { 976_000 } else { 0 };
        out.push(t);
    }
    out
}

fn api_records() -> Vec<ApiRecord> {
    (0..N)
        .map(|i| ApiRecord {
            at_cycles: i * 50_000,
            thread: (i % 3) as u32,
            entry: (i % 2) as u8,
            outcome: (i % 3) as u8,
            a: i % 6,
            b: i,
            queue_len: (i % 5) as u32,
        })
        .collect()
}

fn encode_stamps(stamps: &[u64]) -> Vec<u8> {
    let mut w = TraceWriter::create(
        Vec::with_capacity(stamps.len() * 3),
        meta(StreamKind::IdleStamps),
    )
    .unwrap();
    for &s in stamps {
        w.write(&Record::Stamp(s)).unwrap();
    }
    w.finish().unwrap()
}

/// The latency samples (ms) the server folds from `corpus`: the fused
/// kernel's excess cycles, converted as `fold_frame` converts them.
fn fold_samples(corpus: &[u8]) -> Vec<f64> {
    let mut d = StreamDecoder::new();
    let mut excess = Vec::new();
    for frame in corpus.chunks(FRAME) {
        d.feed_gaps(frame, &mut excess).unwrap();
    }
    let freq = d.meta().unwrap().freq;
    excess
        .iter()
        .map(|&c| freq.to_ms(SimDuration::from_cycles(c)))
        .collect()
}

fn bench_trace_format(c: &mut Criterion) {
    let stamp_data = stamps();
    let api_data = api_records();

    let mut g = c.benchmark_group("trace_format");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(N));

    g.bench_function("encode_stamps_100k", |b| {
        b.iter(|| black_box(encode_stamps(black_box(&stamp_data)).len()))
    });

    let encoded = encode_stamps(&stamp_data);
    g.bench_function("decode_stamps_100k", |b| {
        b.iter(|| {
            let mut r = TraceReader::open(&encoded[..]).unwrap();
            let mut n = 0u64;
            while let Some(rec) = r.next().unwrap() {
                black_box(&rec);
                n += 1;
            }
            n
        })
    });

    // An idle corpus as the server sees it: 15 in 16 gaps at exact
    // baseline pace, the rest jittered, a multi-ms event every 64.
    let idle = latlab_serve::idle_corpus(N, 0x1d1e, 64);
    g.bench_function("idle_column_gaps_100k", |b| {
        let (mut column, mut excess) = (Vec::new(), Vec::new());
        b.iter(|| {
            let mut d = StreamDecoder::new();
            let mut last: Option<u64> = None;
            excess.clear();
            for frame in black_box(&idle).chunks(FRAME) {
                d.feed(frame).unwrap();
                column.clear();
                d.poll_batch(&mut column);
                let baseline = d.meta().unwrap().baseline.cycles();
                for &at in &column {
                    if let Some(prev) = last {
                        if at - prev > baseline {
                            excess.push(at - prev - baseline);
                        }
                    }
                    last = Some(at);
                }
            }
            excess.len()
        })
    });
    g.bench_function("idle_fused_gaps_100k", |b| {
        let mut excess = Vec::new();
        b.iter(|| {
            let mut d = StreamDecoder::new();
            excess.clear();
            for frame in black_box(&idle).chunks(FRAME) {
                d.feed_gaps(frame, &mut excess).unwrap();
            }
            excess.len()
        })
    });

    g.bench_function("encode_apilog_100k", |b| {
        b.iter(|| {
            let mut w = TraceWriter::create(
                Vec::with_capacity(api_data.len() * 8),
                meta(StreamKind::ApiLog),
            )
            .unwrap();
            for r in &api_data {
                w.write(&Record::Api(*r)).unwrap();
            }
            black_box(w.finish().unwrap().len())
        })
    });

    // Recorded in process, as `repro --record` writes it.
    let recorded = latlab_bench::record::word_session_stamps();
    let mut d = StreamDecoder::new();
    d.feed_gaps(&recorded, &mut Vec::new()).unwrap();
    g.throughput(Throughput::Elements(d.records_decoded()));
    g.bench_function("idle_fused_gaps_recorded", |b| {
        let mut excess = Vec::new();
        b.iter(|| {
            let mut d = StreamDecoder::new();
            excess.clear();
            for frame in black_box(&recorded).chunks(FRAME) {
                d.feed_gaps(frame, &mut excess).unwrap();
            }
            excess.len()
        })
    });

    // Each corpus's samples fold into one sketch in 512-sample batches
    // (the server folds each frame's samples in one call); the sketch
    // carries over between iterations, so no allocation is timed.
    for (name, corpus) in [
        ("sketch_fold_100k", &idle),
        ("sketch_fold_recorded", &recorded),
    ] {
        let samples = fold_samples(corpus);
        g.throughput(Throughput::Elements(samples.len() as u64));
        let mut sketch = LatencySketch::new();
        g.bench_function(name, |b| {
            b.iter(|| {
                for batch in black_box(&samples).chunks(512) {
                    sketch.update_batch(EventClass::Keystroke, batch);
                }
                sketch.total()
            })
        });
    }

    // The CRC every upload frame is checked with, on one cache-hot
    // 64 KiB frame.
    let frame: Vec<u8> = idle.iter().copied().cycle().take(FRAME).collect();
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("crc32_64k", |b| {
        b.iter(|| latlab_trace::crc32(black_box(&frame)))
    });

    g.finish();
}

criterion_group!(benches, bench_trace_format);
criterion_main!(benches);
