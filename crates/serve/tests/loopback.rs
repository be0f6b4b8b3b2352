//! Loopback integration tests: the full server driven over real TCP.
//!
//! Covers the service's load-bearing claims:
//! * concurrent uploads all fold, and the post-drain merged sketch
//!   matches an exact histogram of the same samples within the
//!   documented error bound;
//! * a mid-stream disconnect harms nobody — no shard stalls, later
//!   uploads and queries proceed;
//! * `SNAPSHOT` reads taken *during* ingest are internally consistent:
//!   counts and epochs never go backwards;
//! * a full shard queue surfaces as `BUSY`, not as hidden buffering;
//! * the served (fused batch) fold is bit-identical to the reference
//!   fold (`TraceReader` records, one scalar push per sample) run
//!   in-process over the same bytes.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use latlab_analysis::{EventClass, PerceptionModel};
use latlab_serve::{
    fold_corpus, slam::synthetic_corpus, upload, PutHeader, QueryClient, ServeConfig, Server,
    ShardConfig, UploadOutcome,
};
use latlab_trace::{Record, TraceReader};
use serde::Deserialize;

fn test_server(shard: ShardConfig) -> Server {
    Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_owned(),
        shard,
        read_timeout: Duration::from_secs(2),
        busy_retry: Duration::from_millis(50),
        wal: None,
    })
    .expect("start server")
}

fn put(scenario: &str, client: &str) -> PutHeader {
    PutHeader {
        client: client.to_owned(),
        scenario: scenario.to_owned(),
        class: Some(EventClass::Keystroke),
        resume: false,
        resume_base: None,
    }
}

/// Replicates the server's sample extraction: excess-over-baseline per
/// idle-stamp gap, in ms.
fn exact_samples(trace: &[u8]) -> Vec<f64> {
    let mut r = TraceReader::open(trace).expect("open corpus");
    let baseline = r.meta().baseline.cycles();
    let freq = r.meta().freq;
    let mut prev: Option<u64> = None;
    let mut out = Vec::new();
    while let Some(rec) = r.next().expect("read corpus") {
        let Record::Stamp(at) = rec else {
            panic!("non-stamp record in corpus")
        };
        if let Some(p) = prev {
            let gap = at - p;
            if gap > baseline {
                out.push(freq.to_ms(latlab_des::SimDuration::from_cycles(gap - baseline)));
            }
        }
        prev = Some(at);
    }
    out
}

#[test]
fn concurrent_uploads_match_exact_histogram_after_drain() {
    let server = test_server(ShardConfig {
        shards: 3,
        queue_depth: 256,
        publish_every: 10_000,
    });
    let addr = server.local_addr();

    const CLIENTS: usize = 8;
    let corpus: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|i| synthetic_corpus(20_000, 0x1000 + i as u64, 50))
        .collect();

    let handles: Vec<_> = corpus
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, blob)| {
            std::thread::spawn(move || {
                upload(addr, &put("fig5", &format!("c{i}")), &blob, 8 * 1024)
                    .expect("upload transport")
            })
        })
        .collect();
    let mut acked_records = 0u64;
    for h in handles {
        match h.join().expect("uploader panicked") {
            UploadOutcome::Done { records, .. } => acked_records += records,
            other => panic!("upload not acknowledged: {other:?}"),
        }
    }
    assert_eq!(acked_records, CLIENTS as u64 * 20_000);

    // Queries answer while the server is still up.
    let mut q = QueryClient::connect(addr).expect("query connect");
    let health = q.roundtrip("HEALTH").expect("health");
    assert!(health.starts_with("ok "), "{health}");
    let stats = q.stats("fig5").expect("stats io").expect("stats block");
    assert!(stats[0].starts_with("scenario=fig5 "), "{:?}", stats[0]);

    // Ground truth: every sample, exactly, folded the way the server
    // folds them.
    let mut exact: Vec<f64> = corpus.iter().flat_map(|b| exact_samples(b)).collect();
    exact.sort_by(f64::total_cmp);
    assert!(!exact.is_empty());

    let (_, merged) = server.join();
    let sketch = merged.get("fig5").expect("scenario folded");
    assert_eq!(sketch.total(), exact.len() as u64, "sample count exact");

    // Deadline misses are integer-exact against the perception model.
    let band = PerceptionModel::default()
        .band(EventClass::Keystroke)
        .expect("keystroke band");
    let exact_misses = exact.iter().filter(|&&ms| ms > band.free_ms).count() as u64;
    assert_eq!(sketch.total_misses(), exact_misses);

    // Quantiles within the documented log-bucket bound (~1.2% relative
    // vs the order statistic at the histogram's rank convention).
    for q in [0.5, 0.9, 0.99, 0.999] {
        let approx = sketch.quantile(q).expect("quantile");
        let rank = (q * (exact.len() - 1) as f64).round() as usize;
        let truth = exact[rank];
        let rel = (approx - truth).abs() / truth.abs().max(1e-9);
        assert!(
            rel < 0.012,
            "q={q}: approx {approx} vs exact {truth} (rel {rel})"
        );
    }
}

#[test]
fn mid_stream_disconnect_stalls_nothing() {
    let server = test_server(ShardConfig {
        shards: 2,
        queue_depth: 64,
        publish_every: 1_000,
    });
    let addr = server.local_addr();
    let blob = synthetic_corpus(30_000, 0xd15c, 40);

    // A client that walks away mid-chunk: PUT, half the trace bytes in
    // raw frames, then a hard close.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"PUT ghost fig5 keystroke\n").expect("put");
        let half = &blob[..blob.len() / 2];
        let mut framed = Vec::new();
        latlab_serve::protocol::write_frame(&mut framed, half).expect("frame");
        s.write_all(&framed).expect("send half");
        // Dropping the stream closes the socket with the upload open.
    }

    // Everyone else proceeds: uploads complete, queries answer.
    for i in 0..4 {
        let outcome = upload(addr, &put("fig5", &format!("live{i}")), &blob, 16 * 1024)
            .expect("upload transport");
        assert!(
            matches!(outcome, UploadOutcome::Done { .. }),
            "upload {i}: {outcome:?}"
        );
    }
    let mut q = QueryClient::connect(addr).expect("query connect");
    let p99 = q.pctl("fig5", 0.99).expect("pctl io").expect("pctl value");
    assert!(p99 > 0.0);

    let (_, merged) = server.join();
    // The four complete uploads are all present; the ghost contributed
    // at most its decoded prefix.
    let total = merged.get("fig5").expect("scenario").total();
    let per_upload = exact_samples(&blob).len() as u64;
    assert!(total >= 4 * per_upload, "shard lost completed uploads");
}

#[derive(Debug, Deserialize)]
struct SnapView {
    epoch: u64,
    total: u64,
    scenarios: BTreeMap<String, ScenView>,
}

#[derive(Debug, Deserialize)]
struct ScenView {
    count: u64,
    misses: u64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

#[test]
fn snapshot_counts_are_monotonic_during_ingest() {
    let server = test_server(ShardConfig {
        shards: 2,
        queue_depth: 64,
        publish_every: 2_000,
    });
    let addr = server.local_addr();
    let blob = Arc::new(synthetic_corpus(25_000, 0x0b5e, 30));

    let stop = Arc::new(AtomicBool::new(false));
    let uploader = {
        let stop = stop.clone();
        let blob = blob.clone();
        std::thread::spawn(move || {
            let mut n = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let _ = upload(addr, &put("mono", &format!("u{n}")), &blob, 8 * 1024);
                n += 1;
            }
        })
    };

    let mut q = QueryClient::connect(addr).expect("query connect");
    let mut last = SnapView {
        epoch: 0,
        total: 0,
        scenarios: BTreeMap::new(),
    };
    let mut grew = false;
    for _ in 0..60 {
        let line = q.roundtrip("SNAPSHOT").expect("snapshot");
        let view: SnapView = serde_json::from_str(&line).expect("snapshot json");
        assert!(view.epoch >= last.epoch, "epoch went backwards");
        assert!(view.total >= last.total, "total went backwards");
        if let Some(s) = view.scenarios.get("mono") {
            let prev = last.scenarios.get("mono").map_or(0, |p| p.count);
            assert!(s.count >= prev, "scenario count went backwards");
            assert!(s.misses <= s.count, "misses exceed count");
            assert!(
                s.p50_ms <= s.p90_ms && s.p90_ms <= s.p99_ms && s.p99_ms <= s.max_ms,
                "quantiles not ordered: {s:?}"
            );
        }
        grew |= view.total > 0;
        last = view;
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(grew, "ingest never became visible in snapshots");
    stop.store(true, Ordering::SeqCst);
    uploader.join().expect("uploader join");
    server.join();
}

#[test]
fn full_queue_answers_busy() {
    // One shard, queue depth 1, publish on every fold: the lone worker
    // folds O(batch) samples per message, so eight concurrent uploads
    // must overflow the bounded queue and surface BUSY instead of
    // buffering.
    let server = Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_owned(),
        shard: ShardConfig {
            shards: 1,
            queue_depth: 1,
            publish_every: 1,
        },
        read_timeout: Duration::from_secs(2),
        busy_retry: Duration::ZERO,
        wal: None,
    })
    .expect("start server");
    let addr = server.local_addr();
    let blob = Arc::new(synthetic_corpus(120_000, 0xb5b5, 20));

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let blob = blob.clone();
            std::thread::spawn(move || {
                let mut busy = 0u32;
                for round in 0..3 {
                    if let Ok(UploadOutcome::Busy) = upload(
                        addr,
                        &put("flood", &format!("f{i}-{round}")),
                        &blob,
                        64 * 1024,
                    ) {
                        busy += 1;
                    }
                }
                busy
            })
        })
        .collect();
    let busy_total: u32 = handles.into_iter().map(|h| h.join().expect("join")).sum();
    assert!(busy_total > 0, "bounded queue never surfaced BUSY");

    // The server is still healthy after shedding load.
    let mut q = QueryClient::connect(addr).expect("query connect");
    let health = q.roundtrip("HEALTH").expect("health");
    assert!(health.starts_with("ok "), "{health}");
    assert!(health.contains("busy_rejections="), "{health}");
    server.join();
}

#[test]
fn batch_and_scalar_ingest_fold_identically() {
    // The server's fused batch ingest path must land in a sketch
    // bit-identical to the reference fold (`TraceReader` records, one
    // scalar push per sample) run in-process over the same bytes: same
    // counts, same misses, same quantiles, same moments. One shard and
    // one upload keep the server's fold order deterministic.
    let corpus = synthetic_corpus(45_000, 0xe100, 40);
    let server = Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_owned(),
        shard: ShardConfig {
            shards: 1,
            queue_depth: 256,
            publish_every: 5_000,
        },
        read_timeout: Duration::from_secs(2),
        busy_retry: Duration::from_millis(200),
        wal: None,
    })
    .expect("start server");
    let outcome = upload(server.local_addr(), &put("eq", "c0"), &corpus, 8 * 1024).expect("upload");
    assert!(matches!(outcome, UploadOutcome::Done { .. }), "{outcome:?}");
    let (_, mut merged) = server.join();
    let served = merged.remove("eq").expect("scenario folded");
    let oracle = fold_corpus(&corpus, 8 * 1024, EventClass::Keystroke, true).sketch;
    assert!(oracle.total() > 0);
    assert_eq!(served.total(), oracle.total());
    assert_eq!(served.total_misses(), oracle.total_misses());
    let (b, s) = (
        served.class(EventClass::Keystroke),
        oracle.class(EventClass::Keystroke),
    );
    assert_eq!(b.stats().mean(), s.stats().mean(), "mean bit-identical");
    assert_eq!(b.stats().min(), s.stats().min());
    assert_eq!(b.stats().max(), s.stats().max());
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(b.quantile(q), s.quantile(q), "q{q}");
    }
}

#[test]
fn shutdown_command_drains() {
    let server = test_server(ShardConfig {
        shards: 2,
        queue_depth: 64,
        publish_every: 1_000,
    });
    let addr = server.local_addr();
    let blob = synthetic_corpus(10_000, 0x51de, 25);
    let outcome = upload(addr, &put("bye", "c0"), &blob, 16 * 1024).expect("upload");
    assert!(matches!(outcome, UploadOutcome::Done { .. }));

    let mut q = QueryClient::connect(addr).expect("query connect");
    assert_eq!(q.roundtrip("SHUTDOWN").expect("shutdown"), "draining");
    assert!(server.shutdown_requested());

    // New ingest is refused once draining.
    let refused = upload(addr, &put("bye", "late"), &blob, 16 * 1024);
    match refused {
        Ok(UploadOutcome::Rejected(reason)) => assert!(reason.contains("draining"), "{reason}"),
        Ok(other) => panic!("late upload not refused: {other:?}"),
        Err(_) => {} // accept loop may already be gone — equally fine
    }

    let (_, merged) = server.join();
    assert_eq!(
        merged.get("bye").expect("scenario").total(),
        exact_samples(&blob).len() as u64
    );
}
