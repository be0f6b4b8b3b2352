//! `latlab-slam`: the load generator.
//!
//! Replays one or more in-memory `.ltrc` blobs against a running
//! `latlab-serve` from N concurrent uploader threads, while a separate
//! thread measures query-path latency the whole time. The point of the
//! split is the service's own claim: the read path must stay fast
//! *while* ingest is saturated, so query latency is only meaningful
//! when measured under upload load.
//!
//! The prober cycles through the three read verbs — `PCTL` (rotating
//! over the scenarios being uploaded), `SNAPSHOT`, and `HEALTH` — and
//! the report breaks latency out per verb, since each stresses a
//! different part of the query plane (memoized quantile, whole-view
//! serialization, precomputed totals). [`SlamConfig::scenarios`] fans
//! the upload load out over N scenario names, which is how the query
//! plane gets stressed at high scenario cardinality.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use latlab_analysis::EventClass;
use latlab_des::stats::quantile;

use crate::client::{upload, upload_resumable, QueryClient, ResumeOpts, UploadOutcome};
use crate::protocol::{PutHeader, Query};

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct SlamConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent uploader connections.
    pub connections: usize,
    /// Scenario the uploads land under (the prefix, when `scenarios`
    /// fans out).
    pub scenario: String,
    /// Distinct scenario names to spread uploads over. 1 keeps the bare
    /// [`scenario`](Self::scenario) name; N > 1 uploads round-robin to
    /// `<scenario>-0` … `<scenario>-{N-1}`, and the prober's `PCTL`
    /// rotates over the same names.
    pub scenarios: usize,
    /// Event class declared on each `PUT` (None → server default).
    pub class: Option<EventClass>,
    /// Wall-clock run length; uploaders loop over the corpus until this
    /// elapses.
    pub duration: Duration,
    /// Frame payload size used when slicing traces onto the wire.
    pub frame_len: usize,
    /// Pause between query-thread probes.
    pub query_interval: Duration,
    /// Base backoff after a `BUSY` reply. Doubles per consecutive
    /// rejection of the same blob, up to
    /// [`busy_backoff_cap`](Self::busy_backoff_cap), with seeded jitter
    /// on top.
    pub busy_backoff: Duration,
    /// Ceiling for the doubling backoff.
    pub busy_backoff_cap: Duration,
    /// Retries per blob before giving up and moving on. Bounds how long
    /// one uploader can camp on a saturated shard.
    pub busy_max_retries: u32,
    /// Seed for the backoff jitter. Runs with the same config and seed
    /// jitter identically; different uploader threads derive distinct
    /// streams so their retries decorrelate instead of re-colliding.
    pub seed: u64,
    /// Upload on the resumable path (`PUT … RESUME`): connection resets
    /// and read timeouts are survived by reconnecting and resuming from
    /// the server's committed watermark instead of failing the blob.
    pub resume: bool,
    /// Reconnect attempts per blob on the resumable path before the
    /// upload counts as an error.
    pub max_reconnects: u32,
}

impl Default for SlamConfig {
    fn default() -> Self {
        SlamConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            connections: 4,
            scenario: "slam".to_owned(),
            scenarios: 1,
            class: Some(EventClass::Keystroke),
            duration: Duration::from_secs(5),
            frame_len: 64 * 1024,
            query_interval: Duration::from_millis(10),
            busy_backoff: Duration::from_millis(2),
            busy_backoff_cap: Duration::from_millis(50),
            busy_max_retries: 8,
            seed: 0x51a3_ed01,
            resume: false,
            max_reconnects: 8,
        }
    }
}

/// What a slam run observed.
#[derive(Debug, Clone)]
pub struct SlamReport {
    /// Uploads acknowledged with `DONE`.
    pub uploads_done: u64,
    /// Uploads shed with `BUSY` (every rejection, including ones later
    /// retried successfully).
    pub uploads_busy: u64,
    /// `BUSY` rejections that were retried after a backoff (as opposed
    /// to abandoned once [`SlamConfig::busy_max_retries`] ran out).
    pub upload_retries: u64,
    /// Uploads that failed outright (transport or `ERR`).
    pub upload_errors: u64,
    /// Payload bytes acknowledged by the server.
    pub bytes_acked: u64,
    /// Records acknowledged by the server.
    pub records_acked: u64,
    /// Connections re-established after transport failures (resumable
    /// path only).
    pub reconnects: u64,
    /// Frames skipped on reconnects because the server's committed
    /// watermark already covered them (resumable path only).
    pub frames_resumed: u64,
    /// Wall-clock time actually spent.
    pub elapsed: Duration,
    /// Query probes completed (all verbs).
    pub queries: u64,
    /// Query round-trip p50 (ms) over all verbs, 0 if no probes landed.
    pub query_p50_ms: f64,
    /// Query round-trip p99 (ms) over all verbs, 0 if no probes landed.
    pub query_p99_ms: f64,
    /// Worst query round-trip (ms) over all verbs.
    pub query_max_ms: f64,
    /// Per-verb breakdown (`PCTL`, `SNAPSHOT`, `HEALTH`), in probe
    /// order.
    pub verbs: Vec<VerbLatency>,
}

/// One query verb's round-trip latency under load.
#[derive(Debug, Clone)]
pub struct VerbLatency {
    /// The wire verb (`PCTL`, `SNAPSHOT`, `HEALTH`).
    pub verb: &'static str,
    /// Probes of this verb completed.
    pub queries: u64,
    /// Round-trip p50 (ms), 0 if no probes landed.
    pub p50_ms: f64,
    /// Round-trip p99 (ms), 0 if no probes landed.
    pub p99_ms: f64,
    /// Worst round-trip (ms).
    pub max_ms: f64,
}

impl SlamReport {
    /// Acknowledged ingest throughput in MB/s (decimal megabytes, the
    /// unit the acceptance gate uses).
    pub fn mb_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes_acked as f64 / 1_000_000.0 / secs
    }
}

/// Runs the load: `connections` uploader threads looping over `corpus`
/// plus one query-latency prober, for `config.duration`.
///
/// # Errors
///
/// Fails only on setup (empty corpus); per-upload failures are counted
/// in the report instead.
pub fn run(config: &SlamConfig, corpus: &[Vec<u8>]) -> io::Result<SlamReport> {
    if corpus.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "slam corpus is empty",
        ));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let bytes = Arc::new(AtomicU64::new(0));
    let records = Arc::new(AtomicU64::new(0));
    let reconnects = Arc::new(AtomicU64::new(0));
    let frames_resumed = Arc::new(AtomicU64::new(0));
    let corpus: Arc<Vec<Vec<u8>>> = Arc::new(corpus.to_vec());
    // The scenario names uploads round-robin over (and PCTL probes hit).
    let scenario_names: Arc<Vec<String>> = Arc::new(if config.scenarios <= 1 {
        vec![config.scenario.clone()]
    } else {
        (0..config.scenarios)
            .map(|k| format!("{}-{k}", config.scenario))
            .collect()
    });

    let started = Instant::now();
    let mut uploaders = Vec::new();
    for i in 0..config.connections.max(1) {
        let stop = stop.clone();
        let done = done.clone();
        let busy = busy.clone();
        let retries = retries.clone();
        let errors = errors.clone();
        let bytes = bytes.clone();
        let records = records.clone();
        let reconnects = reconnects.clone();
        let frames_resumed = frames_resumed.clone();
        let corpus = corpus.clone();
        // One header per scenario name, built once per thread; the
        // upload loop round-robins over them without allocating.
        let headers: Vec<PutHeader> = scenario_names
            .iter()
            .map(|scenario| PutHeader {
                client: format!("slam-{i}"),
                scenario: scenario.clone(),
                class: config.class,
                resume: config.resume,
                resume_base: None,
            })
            .collect();
        let addr = config.addr;
        let frame_len = config.frame_len;
        let backoff_base = config.busy_backoff.max(Duration::from_micros(100));
        let backoff_cap = config.busy_backoff_cap.max(backoff_base);
        let max_retries = config.busy_max_retries;
        let resume_opts = config.resume.then(|| ResumeOpts {
            max_reconnects: config.max_reconnects,
            read_timeout: Duration::from_secs(10),
            reconnect_backoff: Duration::from_millis(10),
        });
        // Each uploader jitters from its own seeded stream: deterministic
        // per (config.seed, thread index), decorrelated across threads.
        let mut rng = (config.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
        uploaders.push(
            std::thread::Builder::new()
                .name(format!("slam-up-{i}"))
                .spawn(move || {
                    let mut next = i; // stagger corpus start points
                    'run: while !stop.load(Ordering::Relaxed) {
                        let blob = &corpus[next % corpus.len()];
                        let header = &headers[next % headers.len()];
                        next += 1;
                        let mut backoff = backoff_base;
                        let mut attempts = 0u32;
                        loop {
                            // The resumable path reconnects and resumes
                            // internally; resets and timeouts only count
                            // as errors once its reconnect budget is
                            // spent.
                            let outcome = match &resume_opts {
                                Some(opts) => upload_resumable(addr, header, blob, frame_len, opts)
                                    .map(|r| {
                                        reconnects.fetch_add(r.reconnects, Ordering::Relaxed);
                                        frames_resumed
                                            .fetch_add(r.frames_resumed, Ordering::Relaxed);
                                        r.outcome
                                    }),
                                None => upload(addr, header, blob, frame_len),
                            };
                            match outcome {
                                Ok(UploadOutcome::Done {
                                    records: r,
                                    bytes: b,
                                }) => {
                                    done.fetch_add(1, Ordering::Relaxed);
                                    records.fetch_add(r, Ordering::Relaxed);
                                    bytes.fetch_add(b, Ordering::Relaxed);
                                    break;
                                }
                                Ok(UploadOutcome::Busy) => {
                                    busy.fetch_add(1, Ordering::Relaxed);
                                    if attempts >= max_retries || stop.load(Ordering::Relaxed) {
                                        // Give up on this blob; move on.
                                        continue 'run;
                                    }
                                    attempts += 1;
                                    retries.fetch_add(1, Ordering::Relaxed);
                                    // Sleep backoff/2 .. backoff: the fixed
                                    // half keeps pressure off the shard, the
                                    // jittered half decorrelates retries.
                                    rng ^= rng << 13;
                                    rng ^= rng >> 7;
                                    rng ^= rng << 17;
                                    let half_us = (backoff.as_micros() as u64 / 2).max(1);
                                    let jitter = Duration::from_micros(rng % half_us);
                                    std::thread::sleep(backoff / 2 + jitter);
                                    backoff = (backoff * 2).min(backoff_cap);
                                }
                                Ok(UploadOutcome::Rejected(_)) | Err(_) => {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    std::thread::sleep(Duration::from_millis(2));
                                    break;
                                }
                            }
                        }
                    }
                })
                .expect("spawn uploader"),
        );
    }

    // The query prober shares the run with the uploaders: latencies it
    // records are read-path latencies under ingest load. Each probe is
    // tagged with its verb index so the report can break latency out
    // per verb.
    let latencies: Arc<Mutex<Vec<(u8, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let prober = {
        let stop = stop.clone();
        let latencies = latencies.clone();
        let addr = config.addr;
        let names = scenario_names.clone();
        let interval = config.query_interval;
        std::thread::Builder::new()
            .name("slam-query".to_owned())
            .spawn(move || {
                let mut client = None;
                let mut probe = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    if client.is_none() {
                        client = QueryClient::connect(addr).ok();
                    }
                    if let Some(c) = client.as_mut() {
                        // Cycle the read verbs; PCTL rotates through the
                        // uploaded scenario names. All three replies are
                        // single lines, so one roundtrip each.
                        let verb = (probe % PROBE_VERBS.len()) as u8;
                        let query = match verb {
                            0 => Query::Pctl(
                                names[(probe / PROBE_VERBS.len()) % names.len()].clone(),
                                0.99,
                            ),
                            1 => Query::Snapshot,
                            _ => Query::Health,
                        };
                        let t0 = Instant::now();
                        match c.roundtrip(&query.render()) {
                            Ok(_) => {
                                let ms = t0.elapsed().as_secs_f64() * 1e3;
                                latencies.lock().expect("latency lock").push((verb, ms));
                            }
                            Err(_) => client = None,
                        }
                        probe += 1;
                    }
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn prober")
    };

    std::thread::sleep(config.duration);
    stop.store(true, Ordering::SeqCst);
    for u in uploaders {
        let _ = u.join();
    }
    let _ = prober.join();
    let elapsed = started.elapsed();

    let all = latencies.lock().expect("latency lock").clone();
    // `(count, p50, p99, max)` of a set of query latencies, interpolated
    // between order statistics (0s when empty).
    let percentiles = |lat: Vec<f64>| {
        let pick = |q| quantile(&lat, q).unwrap_or(0.0);
        (lat.len() as u64, pick(0.50), pick(0.99), pick(1.0))
    };
    let (queries, query_p50_ms, query_p99_ms, query_max_ms) =
        percentiles(all.iter().map(|&(_, ms)| ms).collect());
    let verbs = PROBE_VERBS
        .iter()
        .enumerate()
        .map(|(k, &verb)| {
            let (queries, p50_ms, p99_ms, max_ms) = percentiles(
                all.iter()
                    .filter(|&&(v, _)| v == k as u8)
                    .map(|&(_, ms)| ms)
                    .collect(),
            );
            VerbLatency {
                verb,
                queries,
                p50_ms,
                p99_ms,
                max_ms,
            }
        })
        .collect();
    Ok(SlamReport {
        uploads_done: done.load(Ordering::SeqCst),
        uploads_busy: busy.load(Ordering::SeqCst),
        upload_retries: retries.load(Ordering::SeqCst),
        upload_errors: errors.load(Ordering::SeqCst),
        bytes_acked: bytes.load(Ordering::SeqCst),
        records_acked: records.load(Ordering::SeqCst),
        reconnects: reconnects.load(Ordering::SeqCst),
        frames_resumed: frames_resumed.load(Ordering::SeqCst),
        elapsed,
        queries,
        query_p50_ms,
        query_p99_ms,
        query_max_ms,
        verbs,
    })
}

/// The verbs the prober cycles, in tag order.
const PROBE_VERBS: [&str; 3] = ["PCTL", "SNAPSHOT", "HEALTH"];

/// Builds a deterministic synthetic idle-stamp trace for load runs with
/// no recorded corpus at hand: a 100 MHz machine whose idle loop stamps
/// every ~250 cycles, with a latency spike every `spike_every` stamps.
///
/// # Panics
///
/// Never — the generated stream is monotone by construction.
pub fn synthetic_corpus(records: u64, seed: u64, spike_every: u64) -> Vec<u8> {
    generate_corpus(records, seed, spike_every, true)
}

/// Like [`synthetic_corpus`], but faithful to the paper's §2.3 idle-loop
/// shape: the overwhelming majority of stamps arrive at exactly baseline
/// pace (idle is not latency — they decode but produce no sample), a
/// small fraction carry sub-millisecond jitter, and a spike lands every
/// `spike_every` stamps. This is the profile the perf harness measures
/// ingest throughput on, since it keeps the pipeline decode-bound the
/// way a real recorded corpus does.
///
/// # Panics
///
/// Never — the generated stream is monotone by construction.
pub fn idle_corpus(records: u64, seed: u64, spike_every: u64) -> Vec<u8> {
    generate_corpus(records, seed, spike_every, false)
}

fn generate_corpus(records: u64, seed: u64, spike_every: u64, dense: bool) -> Vec<u8> {
    use latlab_des::{CpuFreq, SimDuration};
    use latlab_trace::{StreamKind, TraceMeta, TraceWriter};

    let meta = TraceMeta {
        kind: StreamKind::IdleStamps,
        freq: CpuFreq::PENTIUM_100,
        baseline: SimDuration::from_cycles(250),
        seed,
        personality: "slam-synthetic".to_owned(),
    };
    let mut w = TraceWriter::create(Vec::new(), meta).expect("in-memory trace writer");
    let mut at = 1_000u64;
    let mut state = seed | 1;
    let mut stamps = Vec::with_capacity(records.min(1 << 20) as usize);
    for i in 1..=records {
        // xorshift jitter keeps deltas varied (and the varints honest).
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Dense profile: every gap jitters, so nearly every record
        // yields a sample (a fold-stress corpus). Idle profile: 1 in 16
        // gaps jitter (drawn from higher state bits, independent of the
        // selection), the rest run at exact baseline pace.
        let jitter = if dense {
            state % 32
        } else if state.is_multiple_of(16) {
            (state >> 4) % 32
        } else {
            0
        };
        at += 250 + jitter;
        if spike_every > 0 && i % spike_every == 0 {
            // An "event" stole the CPU: 2–10 ms of extra cycles at 100 MHz.
            at += 200_000 + (state % 800_000);
        }
        stamps.push(at);
    }
    // The batched writer emits bytes identical to per-record writes.
    w.write_stamps(&stamps).expect("in-memory trace write");
    w.finish().expect("in-memory trace finish")
}
