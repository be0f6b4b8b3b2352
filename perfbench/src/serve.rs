//! The two service workloads, each against an in-process `Server` on a
//! loopback port, driven by one client thread: `ingest-wal` (large
//! uploads into a write-ahead-logged server) and `query-fanout`
//! (dashboard query rounds against 256 preloaded scenarios, with small
//! uploads interleaved).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use latlab_analysis::EventClass;
use latlab_serve::{
    fold_corpus, idle_corpus, IngestClient, PutHeader, QueryClient, ServeConfig, Server,
    ShardConfig, UploadOutcome, WalConfig,
};

use crate::stats::{Rng, Tracer};
use crate::Workload;

/// Upload frame size: the 64 KiB frames `slam` sends.
pub const FRAME: usize = 64 * 1024;
/// Shard workers; fixed so the workload does not depend on core count.
const SHARDS: usize = 2;
/// Stamps recorded in the idle trace uploaded by each `ingest-wal` op
/// (about 3.9 MB).
pub const INGEST_RECORDS: u64 = 2_000_000;
/// Scenarios `query-fanout` preloads and queries.
pub const FANOUT_SCENARIOS: usize = 256;
/// Stamps per `query-fanout` upload (about 40 KB).
const FANOUT_RECORDS: u64 = 20_000;
/// Distinct seeded traces `query-fanout` uploads in rotation.
const FANOUT_CORPORA: usize = 16;
/// Dashboard rounds between two `query-fanout` uploads.
const ROUNDS_PER_UPLOAD: usize = 16;
/// A spike every this many stamps in generated traces.
const SPIKE_EVERY: u64 = 64;

/// Starts a server on an ephemeral loopback port.
pub fn start_server(wal: Option<&Path>, publish_every: Option<u64>) -> Result<Server, String> {
    let mut shard = ShardConfig {
        shards: SHARDS,
        ..ShardConfig::default()
    };
    if let Some(n) = publish_every {
        shard.publish_every = n;
    }
    Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_owned(),
        shard,
        wal: wal.map(WalConfig::new),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start failed: {e}"))
}

/// A seeded idle-loop trace plus the samples the server must fold from it.
pub struct Corpus {
    pub bytes: Vec<u8>,
    pub records: u64,
    pub samples: u64,
}

impl Corpus {
    pub fn generate(records: u64, seed: u64) -> Corpus {
        let bytes = idle_corpus(records, seed, SPIKE_EVERY);
        let folded = fold_corpus(&bytes, FRAME, EventClass::Keystroke, false);
        Corpus {
            records: folded.records,
            samples: folded.samples,
            bytes,
        }
    }
}

/// One plain `PUT` of `corpus` in [`FRAME`]-byte frames; checks the
/// `DONE` counts. Spans: connect (to the greeting), send, done.
pub fn upload(
    addr: SocketAddr,
    scenario: &str,
    corpus: &Corpus,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let header = PutHeader {
        client: "perfbench".to_owned(),
        scenario: scenario.to_owned(),
        class: Some(EventClass::Keystroke),
        resume: false,
        resume_base: None,
    };
    let connect = || IngestClient::connect(addr, &header);
    let mut client = match tracer.as_deref_mut() {
        Some(t) => t.span("serve.connect_ms", connect),
        None => connect(),
    }
    .map_err(|e| format!("connect: {e}"))?;
    let mut send = || -> std::io::Result<()> {
        for frame in corpus.bytes.chunks(FRAME) {
            client.send(frame)?;
        }
        Ok(())
    };
    match tracer.as_deref_mut() {
        Some(t) => t.span("serve.send_ms", send),
        None => send(),
    }
    .map_err(|e| format!("send: {e}"))?;
    let outcome = match tracer {
        Some(t) => t.span("serve.done_ms", || client.finish()),
        None => client.finish(),
    }
    .map_err(|e| format!("finish: {e}"))?;
    let want = UploadOutcome::Done {
        records: corpus.records,
        bytes: corpus.bytes.len() as u64,
    };
    if outcome != want {
        return Err(format!("upload verdict {outcome:?}, expected {want:?}"));
    }
    Ok(())
}

/// Parses a `HEALTH` reply into its `key=value` counters.
pub fn parse_health(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let rest = line
        .strip_prefix("ok ")
        .ok_or_else(|| format!("bad HEALTH reply {line:?}"))?;
    rest.split_ascii_whitespace()
        .map(|kv| {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad HEALTH field {kv:?}"))?;
            let v = v
                .parse::<f64>()
                .map_err(|_| format!("bad HEALTH value {kv:?}"))?;
            Ok((k.to_owned(), v))
        })
        .collect()
}

/// Asks `HEALTH` until the server reports `samples` folded samples (the
/// last publish may trail the last `DONE` by a moment).
pub fn await_samples(qc: &mut QueryClient, samples: u64) -> Result<BTreeMap<String, f64>, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let line = qc.roundtrip("HEALTH").map_err(|e| format!("HEALTH: {e}"))?;
        let health = parse_health(&line)?;
        let total = health.get("total_samples").copied().unwrap_or(-1.0);
        if total == samples as f64 {
            return Ok(health);
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "HEALTH total_samples {total}, expected {samples} acknowledged"
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn query_client(addr: SocketAddr) -> Result<QueryClient, String> {
    QueryClient::connect(addr).map_err(|e| format!("query connect: {e}"))
}

/// `ingest-wal`: a WAL-backed server in a scratch directory; one op is
/// one plain `PUT` of a seeded 2M-stamp idle trace.
pub struct IngestWal {
    server: Server,
    dir: PathBuf,
    corpus: Corpus,
    rng: Rng,
    uploads: u64,
    last: Result<(), String>,
    /// Query connection for the per-op `HEALTH` of traced runs.
    health: Option<QueryClient>,
}

/// Scenario names `ingest-wal` uploads rotate over.
const INGEST_SCENARIOS: usize = 8;

impl IngestWal {
    /// Set-up: server start (on a fresh log directory), corpus
    /// generation, the reference fold, and two warm-up uploads.
    pub fn setup(seed: u64, dir: PathBuf) -> Result<IngestWal, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let server = start_server(Some(&dir), None)?;
        let mut rng = Rng::new(seed);
        let corpus = Corpus::generate(INGEST_RECORDS, rng.next_u64());
        let mut w = IngestWal {
            server,
            dir,
            corpus,
            rng,
            uploads: 0,
            last: Ok(()),
            health: None,
        };
        for _ in 0..2 {
            w.op(None)?;
            w.check()?;
        }
        Ok(w)
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

impl Workload for IngestWal {
    fn op(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let scenario = format!("ingest-{}", self.rng.below(INGEST_SCENARIOS));
        self.last = upload(self.addr(), &scenario, &self.corpus, tracer);
        self.uploads += 1;
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        std::mem::replace(&mut self.last, Ok(()))
    }

    fn after_traced(&mut self, tracer: &mut Tracer, ops: u64) -> Result<(), String> {
        if self.health.is_none() {
            self.health = Some(query_client(self.addr())?);
        }
        let qc = self.health.as_mut().expect("just connected");
        let line = qc.roundtrip("HEALTH").map_err(|e| format!("HEALTH: {e}"))?;
        tracer.health.push((ops, parse_health(&line)?));
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        let IngestWal {
            server,
            dir,
            corpus,
            uploads,
            health,
            ..
        } = *self;
        // Close the query connection first: the drain waits for it.
        drop(health);
        let (_, sketches) = server.join();
        let _ = std::fs::remove_dir_all(&dir);
        let total: u64 = sketches.values().map(|s| s.total()).sum();
        let want = corpus.samples * uploads;
        if total != want {
            return Err(format!(
                "drained sketches hold {total} samples, expected {want} ({uploads} uploads)"
            ));
        }
        Ok(())
    }
}

/// `query-fanout`: an in-memory server preloaded with 256 scenarios;
/// one op is one dashboard round (`PCTL`, `SNAPSHOT`, `HEALTH`) on a
/// persistent connection, with a small seeded upload every 16 rounds.
pub struct QueryFanout {
    server: Server,
    corpora: Vec<Corpus>,
    names: Vec<String>,
    rng: Rng,
    qc: QueryClient,
    acked: u64,
    rounds: usize,
    replies: [String; 3],
}

impl QueryFanout {
    /// Set-up: server start, corpus generation, the 256-scenario preload
    /// (one upload each), and one warm-up round.
    pub fn setup(seed: u64) -> Result<QueryFanout, String> {
        // Publish after every commit, so each upload dirties exactly one
        // scenario of the next query's view.
        let server = start_server(None, Some(1))?;
        let addr = server.local_addr();
        let mut rng = Rng::new(seed);
        let corpora: Vec<Corpus> = (0..FANOUT_CORPORA)
            .map(|_| Corpus::generate(FANOUT_RECORDS, rng.next_u64()))
            .collect();
        let names: Vec<String> = (0..FANOUT_SCENARIOS).map(|k| format!("q-{k:03}")).collect();
        let mut acked = 0;
        for (k, name) in names.iter().enumerate() {
            let corpus = &corpora[k % FANOUT_CORPORA];
            upload(addr, name, corpus, None)?;
            acked += corpus.samples;
        }
        let mut qc = query_client(addr)?;
        await_samples(&mut qc, acked)?;
        let mut w = QueryFanout {
            server,
            corpora,
            names,
            rng,
            qc,
            acked,
            rounds: 0,
            replies: Default::default(),
        };
        w.op(None)?;
        w.check()?;
        w.rounds = 0;
        Ok(w)
    }
}

impl Workload for QueryFanout {
    fn between(&mut self) -> Result<(), String> {
        if self.rounds.is_multiple_of(ROUNDS_PER_UPLOAD) {
            // Untraced: the upload spans belong to `ingest-wal`.
            let addr = self.server.local_addr();
            let scenario = &self.names[self.rng.below(FANOUT_SCENARIOS)];
            let corpus = &self.corpora[self.rng.below(FANOUT_CORPORA)];
            upload(addr, scenario, corpus, None)?;
            self.acked += corpus.samples;
        }
        self.rounds += 1;
        Ok(())
    }

    fn op(&mut self, mut tracer: Option<&mut Tracer>) -> Result<(), String> {
        let pctl = format!("PCTL {} 0.99", self.names[self.rng.below(FANOUT_SCENARIOS)]);
        for (i, (verb, span)) in [
            (pctl.as_str(), "serve.pctl_ms"),
            ("SNAPSHOT", "serve.snapshot_ms"),
            ("HEALTH", "serve.health_ms"),
        ]
        .into_iter()
        .enumerate()
        {
            let reply = match tracer.as_deref_mut() {
                Some(t) => t.span(span, || self.qc.roundtrip(verb)),
                None => self.qc.roundtrip(verb),
            };
            self.replies[i] = reply.map_err(|e| format!("{verb}: {e}"))?;
        }
        Ok(())
    }

    fn check(&mut self) -> Result<(), String> {
        let [pctl, snapshot, health] = &self.replies;
        if let Some(bad) = self.replies.iter().find(|r| r.starts_with("ERR")) {
            return Err(format!("query answered {bad:?}"));
        }
        if !pctl.starts_with("pctl ") {
            return Err(format!("bad PCTL reply {pctl:?}"));
        }
        let listed = snapshot.matches("\"p50_ms\":").count();
        if listed != FANOUT_SCENARIOS {
            return Err(format!(
                "SNAPSHOT listed {listed} scenarios, expected {FANOUT_SCENARIOS}"
            ));
        }
        parse_health(health).map(|_| ())
    }

    fn after_traced(&mut self, tracer: &mut Tracer, ops: u64) -> Result<(), String> {
        tracer.health.push((ops, parse_health(&self.replies[2])?));
        Ok(())
    }

    fn finish(self: Box<Self>) -> Result<(), String> {
        let QueryFanout {
            server,
            mut qc,
            acked,
            ..
        } = *self;
        await_samples(&mut qc, acked)?;
        // Close the query connection first: the drain waits for it.
        drop(qc);
        let (_, sketches) = server.join();
        let total: u64 = sketches.values().map(|s| s.total()).sum();
        if total != acked || sketches.len() != FANOUT_SCENARIOS {
            return Err(format!(
                "drained {} scenarios holding {total} samples, expected {FANOUT_SCENARIOS} \
                 holding {acked}",
                sketches.len(),
            ));
        }
        Ok(())
    }
}
