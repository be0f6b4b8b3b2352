//! Durability integration tests: WAL recovery over real TCP restarts.
//!
//! The crash-recovery invariant under test: after a `kill -9`-style
//! crash, a restarted server recovers a sketch exactly equal to the
//! fold of every acknowledged sample — and a client that re-sends an
//! already-acknowledged tail is deduplicated, never double-counted.
//! A clean drain, by contrast, checkpoints everything and leaves no
//! log to replay.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use latlab_analysis::{EventClass, LatencySketch};
use latlab_serve::wal::{replay, ShardWal, StreamId, WalRecord};
use latlab_serve::{
    fold_corpus, slam::synthetic_corpus, upload, IngestClient, PutHeader, QueryClient, ServeConfig,
    Server, ShardConfig, UploadOutcome, WalConfig,
};
use proptest::prelude::*;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static N: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "latlab-wal-it-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn wal_server(dir: &std::path::Path) -> Server {
    Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_owned(),
        shard: ShardConfig {
            shards: 2,
            queue_depth: 64,
            publish_every: 1_000,
        },
        read_timeout: Duration::from_secs(2),
        busy_retry: Duration::from_millis(100),
        wal: Some(WalConfig::new(dir)),
    })
    .expect("start server")
}

fn put(scenario: &str, client: &str, resume: bool) -> PutHeader {
    PutHeader {
        client: client.to_owned(),
        scenario: scenario.to_owned(),
        class: Some(EventClass::Keystroke),
        resume,
        resume_base: None,
    }
}

fn encoded(sketch: &LatencySketch) -> Vec<u8> {
    let mut out = Vec::new();
    sketch.encode(&mut out);
    out
}

#[test]
fn clean_drain_checkpoints_everything_and_replays_nothing() {
    let tmp = TempDir::new("drain");
    let blob = synthetic_corpus(20_000, 0xd7a1, 40);

    let server = wal_server(&tmp.0);
    let addr = server.local_addr();
    let outcome = upload(addr, &put("fig5", "c0", false), &blob, 8 * 1024).expect("upload");
    assert!(matches!(outcome, UploadOutcome::Done { .. }), "{outcome:?}");
    let (_, merged1) = server.join();
    let before = encoded(merged1.get("fig5").expect("scenario folded"));

    // The drain-time checkpoint covered the whole log: the restart
    // loads it and replays zero records.
    let server = wal_server(&tmp.0);
    let rec = *server.recovery();
    assert!(rec.checkpoints >= 1, "no checkpoint loaded: {rec:?}");
    assert_eq!(rec.frames, 0, "clean restart replayed the log: {rec:?}");
    let (_, merged2) = server.join();
    let after = encoded(merged2.get("fig5").expect("scenario recovered"));
    assert_eq!(before, after, "checkpointed sketch drifted");
}

#[test]
fn crash_recovery_and_resent_tail_are_exactly_once() {
    let tmp = TempDir::new("crash");
    let blob = synthetic_corpus(20_000, 0xc4a5, 40);
    let frame_len = 8 * 1024;
    let frames = blob.len().div_ceil(frame_len) as u64;
    let exact = fold_corpus(&blob, frame_len, EventClass::Keystroke, false);

    // Upload on the resumable path; DONE means every frame (and the end
    // marker) was acknowledged, hence logged and flushed.
    let server = wal_server(&tmp.0);
    let addr = server.local_addr();
    let outcome = upload(addr, &put("fig5", "c0", true), &blob, frame_len).expect("upload");
    let UploadOutcome::Done { records, .. } = outcome else {
        panic!("upload not acknowledged: {outcome:?}")
    };
    assert_eq!(records, exact.records);
    server.crash(); // kill -9 semantics: no drain, no checkpoint

    // Restart: the replayed sketch is bit-identical to folding the
    // corpus directly, because every sample was acknowledged.
    let server = wal_server(&tmp.0);
    let rec = *server.recovery();
    assert!(rec.frames > 0, "crash restart replayed nothing: {rec:?}");
    assert_eq!(rec.records, exact.records, "replayed records: {rec:?}");
    assert_eq!(rec.samples, exact.samples, "replayed samples: {rec:?}");

    // The resume watermark survived: a reconnecting client is told how
    // far the server got (all frames plus the end marker).
    let addr = server.local_addr();
    let client =
        IngestClient::connect(addr, &put("fig5", "c0", true)).expect("reconnect after restart");
    assert_eq!(client.watermark(), frames + 1, "watermark lost in recovery");
    drop(client);

    // A client that lost its ack state and re-sends the whole upload
    // from seq 1 is deduplicated record-for-record: the cached DONE
    // verdict replays and the sketch does not move.
    let mut header = put("fig5", "c0", true);
    header.resume_base = Some(0);
    let mut client = IngestClient::connect(addr, &header).expect("resume connect");
    for (i, piece) in blob.chunks(frame_len).enumerate() {
        client.send_seq(i as u64 + 1, piece).expect("re-send frame");
    }
    let outcome = client.finish_seq(frames + 1).expect("re-send finish");
    let UploadOutcome::Done { records, .. } = outcome else {
        panic!("re-sent upload not acknowledged: {outcome:?}")
    };
    assert_eq!(records, exact.records, "cached DONE verdict drifted");

    let mut q = QueryClient::connect(addr).expect("query connect");
    let health = q.roundtrip("HEALTH").expect("health");
    let dedup: u64 = health
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("dedup_dropped="))
        .expect("dedup_dropped in HEALTH")
        .parse()
        .expect("dedup_dropped numeric");
    assert_eq!(dedup, frames + 1, "every re-sent frame must dedupe");

    let (_, merged) = server.join();
    let sketch = merged.get("fig5").expect("scenario recovered");
    assert_eq!(
        encoded(sketch),
        encoded(&exact.sketch),
        "recovered+resent sketch must equal the exact fold"
    );
}

/// Appends `payload_lens.len()` frame records, flushing after each and
/// recording the segment file's length at every record boundary.
fn build_segment(dir: &std::path::Path, payload_lens: &[usize]) -> (PathBuf, Vec<u64>) {
    let mut wal = ShardWal::open(dir, u64::MAX, 1).expect("open wal");
    wal.flush().expect("flush segment header");
    let stream = StreamId::Keyed {
        client: "prop".to_owned(),
        scenario: "torn".to_owned(),
    };
    let seg = std::fs::read_dir(dir)
        .expect("list wal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".wal"))
        })
        .expect("active segment file");
    let mut bounds = vec![std::fs::metadata(&seg).expect("stat").len()];
    for (i, &len) in payload_lens.iter().enumerate() {
        let rec = WalRecord::Frame {
            stream: stream.clone(),
            class: Some(EventClass::Keystroke),
            seq: i as u64 + 1,
            bytes: vec![i as u8; len],
        };
        wal.append(&rec).expect("append");
        wal.flush().expect("flush");
        bounds.push(std::fs::metadata(&seg).expect("stat").len());
    }
    (seg, bounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating the log tail anywhere — mid-header, mid-payload, or
    /// exactly on a record boundary — salvages precisely the intact
    /// prefix: no record is invented, none before the cut is lost, and
    /// only boundary cuts read as clean ends.
    #[test]
    fn torn_final_record_salvages_exactly_the_intact_prefix(
        payload_lens in proptest::collection::vec(1usize..200, 1..12),
        cut_frac in 0.0f64..1.0,
    ) {
        let tmp = TempDir::new("prop");
        let (seg, bounds) = build_segment(&tmp.0, &payload_lens);
        let total = *bounds.last().unwrap();
        let header = bounds[0];
        let cut = header + ((total - header) as f64 * cut_frac) as u64;
        let full = std::fs::read(&seg).expect("read segment");
        std::fs::write(&seg, &full[..cut as usize]).expect("truncate");

        let mut replayed = Vec::new();
        let (stats, next) = replay(&tmp.0, 0, |lsn, rec| replayed.push((lsn, rec)))
            .expect("replay");

        let intact = bounds.iter().filter(|&&b| b > header && b <= cut).count();
        prop_assert_eq!(replayed.len(), intact, "cut at {}", cut);
        prop_assert_eq!(next, intact as u64 + 1);
        for (i, (lsn, rec)) in replayed.iter().enumerate() {
            prop_assert_eq!(*lsn, i as u64 + 1);
            let WalRecord::Frame { seq, bytes, .. } = rec else {
                panic!("replayed a record never written: {rec:?}");
            };
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(bytes.len(), payload_lens[i]);
        }
        let at_boundary = bounds.contains(&cut);
        prop_assert_eq!(stats.torn, !at_boundary, "cut at {}", cut);
    }
}

/// FNV-1a-64 of `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `name digest` for every file of one shard's log directory, by name.
fn log_digests(dir: &std::path::Path) -> String {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list shard dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().into_string().expect("utf-8 name");
            (name, std::fs::read(e.path()).expect("read log file"))
        })
        .collect();
    files.sort();
    files
        .iter()
        .map(|(name, bytes)| format!("{name} {:016x} {}\n", fnv64(bytes), bytes.len()))
        .collect()
}

/// The log and checkpoint files a fixed upload sequence leaves behind
/// are pinned byte for byte, so a change to who appends, flushes,
/// rotates or checkpoints cannot change what lands on disk. One shard
/// and one scenario keep the checkpoint's map order fixed; checkpoints
/// come only from drains, since a size-triggered one lands at a commit
/// round whose boundary depends on timing.
#[test]
fn log_and_checkpoint_bytes_are_pinned() {
    let tmp = TempDir::new("pinned");
    let start = || {
        let wal = WalConfig {
            segment_bytes: 24 * 1024,
            checkpoint_bytes: u64::MAX,
            ..WalConfig::new(&tmp.0)
        };
        Server::start(ServeConfig {
            bind: "127.0.0.1:0".to_owned(),
            shard: ShardConfig {
                shards: 1,
                queue_depth: 16,
                publish_every: 1_000,
            },
            read_timeout: Duration::from_secs(5),
            busy_retry: Duration::from_millis(100),
            wal: Some(wal),
        })
        .expect("start server")
    };
    let shard_dir = tmp.0.join("shard-0");
    let blob = synthetic_corpus(12_000, 0x9e11, 40);
    let done = |server: &Server, client: &str, resume: bool| {
        let outcome = upload(
            server.local_addr(),
            &put("fig5", client, resume),
            &blob,
            7_000,
        )
        .expect("upload");
        assert!(matches!(outcome, UploadOutcome::Done { .. }), "{outcome:?}");
    };

    // Three uploads, one of them resumable, then a crash: the segments
    // hold every record, rotated at the segment size.
    let server = start();
    done(&server, "c0", false);
    done(&server, "c1", true);
    done(&server, "c2", false);
    server.crash();
    let crashed = log_digests(&shard_dir);

    // A restart replays them; its drain checkpoint covers the log.
    let server = start();
    assert!(server.recovery().frames > 0);
    server.join();
    let recovered = log_digests(&shard_dir);

    // A live upload, then a drain checkpoint written from live state.
    let server = start();
    done(&server, "c1", true);
    server.join();
    let drained = log_digests(&shard_dir);

    let got = format!("crashed:\n{crashed}recovered:\n{recovered}drained:\n{drained}");
    let want = "\
crashed:
seg-00000000000000000001.wal 6e3a5644545d257a 31592
seg-00000000000000000007.wal ca5fb7ef0dc460d5 31580
seg-00000000000000000013.wal c7196573daa1973e 10497
recovered:
ckpt-00000000000000000015.ckpt 84320c81fe26efdd 1774
seg-00000000000000000016.wal 117aa984a0776698 13
drained:
ckpt-00000000000000000015.ckpt 84320c81fe26efdd 1774
ckpt-00000000000000000020.ckpt f1b0b506da6ab275 1774
seg-00000000000000000021.wal ac608cb1d723d93d 13
";
    assert_eq!(got, want, "log files moved; got:\n{got}");
}
