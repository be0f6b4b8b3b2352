//! Sharded ingest workers and epoch-swapped read snapshots.
//!
//! Ingestion is partitioned across N shards by a stable hash of the
//! `(client, scenario)` key, so one chatty client cannot serialize the
//! whole service and all frames of one stream land on one shard
//! (keeping per-stream decode and fold order deterministic). Each shard
//! owns its streams and sketches exclusively — no locks on the fold
//! path.
//!
//! **Frame-level sharding:** connection handlers are thin pumps — they
//! read wire frames, check their CRC and forward them raw
//! (`Msg::Frame`, with that CRC). Each shard then runs two stages in
//! order. The shard **worker** owns everything per stream: the seq
//! watermark and dedupe, the stream's `StreamDecoder`, the replies and
//! the stream states a checkpoint records. It decodes each accepted
//! frame to its latency samples (`feed_gaps`, then each excess in
//! milliseconds, into a pooled `Vec<f64>`) and hands the frame, its
//! samples and its wire CRC to the shard's **log stage**. The log stage
//! owns the sketches: it appends each frame to the log, folds its
//! samples and publishes, all in the order the worker handed them over.
//! The log's LSN order therefore *is* the fold order by construction.
//!
//! **Recovery is one more input to the worker.** Before the shard takes
//! traffic, its worker loads the newest checkpoint into its streams and
//! its (still inline) log stage's sketches, then feeds every later log
//! record ([`replay`]) to its own transitions: a `Frame` to `on_frame`, an
//! `End` to `on_end`, a `Begin` to `StreamState::begin`. There is no
//! second copy of the per-stream rules to drift from the live one, so
//! recovery rebuilds exactly what the worker held. Only then does the
//! stage get the log and its own thread.
//!
//! **Log stage:** with a write-ahead log, the log stage runs on a second
//! thread per shard and owns its [`ShardWal`]; the worker reaches it
//! over a short bounded queue, so the next frame decodes while this one
//! is logged and folded. Each frame record is appended with its CRC
//! combined from the record prefix's and the wire's
//! ([`latlab_trace::crc32_combine`]), the payload written straight from
//! the pooled frame buffer. The commit point is a flush barrier: at the
//! end of a round with acks or verdicts to release, the worker asks the
//! stage to flush, waits until every record it handed over has been
//! folded and has reached the OS, and only then releases
//! `OK`/`DONE`/`ERR`. An append or flush failure surfaces at that
//! barrier and fails the round. The worker numbers records itself; a
//! checkpoint is the worker's stream states at an LSN, queued behind the
//! frames it covers, and the stage encodes its own sketches into it when
//! it reaches it. A drain waits for its checkpoint and joins the stage;
//! a crash makes the stage drop its queue and its buffered bytes
//! unwritten, as `kill -9` would. Without a WAL, and during recovery,
//! the worker drives the same stage inline, so there is one fold site
//! and one publish site. Inline or threaded, the stage holds its WAL
//! alike and answers barriers, checkpoint-due and checkpoints alike:
//! the two differ only in where `LogStage::handle` runs.
//!
//! **One round:** the worker's loop body is `Worker::round`: handle a
//! batch of messages, commit at the barrier, checkpoint if due. The
//! shard's thread runs it over whatever its queue holds; the seeded
//! crash-schedule tests run it on the test thread with the stage inline,
//! then recover every crash state of the log it wrote.
//!
//! **Resume & dedupe:** resumable streams ([`StreamId::Keyed`]) carry
//! client-assigned frame sequence numbers. The worker tracks the highest
//! committed seq per key; frames at or below it are dropped (counted in
//! [`IngestTotals::dedup_dropped`]) and re-acked, frames beyond
//! `last + 1` are a protocol error. Acknowledgements are sent only
//! after the barrier that makes the frame durable — an acked sample
//! is a recoverable sample, and a re-sent one is deduped, which together
//! give exactly-once delivery at the sketch level. A `Begin` that drops
//! the decode state an abandoned or failed upload left is logged as a
//! `Begin` record when the log holds that upload's frames (the stream's
//! `open_in_log`), so replay drops it at the same point.
//!
//! **Backpressure:** each shard is fed through a bounded
//! [`sync_channel`]; producers use `try_send` and surface `BUSY` to the
//! uploader when the queue is full. The service never buffers unboundedly
//! — shedding load visibly is the contract (the paper's concern: a
//! measurement system must not silently distort what it measures).
//!
//! **Read path:** the log stage periodically publishes an immutable
//! [`ShardSnapshot`] behind an `Arc` into its shard's [`SnapshotSlot`];
//! the swap is a pointer store under a briefly-held lock, and a publish
//! that finds a reader holding the lock is put off to the next frame or
//! idle moment rather than wait. Queries clone the current `Arc`s and
//! merge sketches on their own thread, so a query never touches
//! shard-internal state and never blocks ingest. Snapshot *epochs*
//! increase with every publish; published per-scenario counts are
//! monotone non-decreasing, which makes concurrent `SNAPSHOT` reads
//! internally consistent.
//!
//! **Copy-on-write publish:** each scenario's sketch lives behind its own
//! `Arc<LatencySketch>`. A publish clones only the map of `Arc` pointers;
//! sketch bodies are shared with the outgoing snapshot. The first fold
//! into a scenario *after* a publish pays one sketch clone
//! (`Arc::make_mut` detaches from the snapshot's copy); every fold until
//! the next publish then mutates in place.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use latlab_analysis::{EventClass, LatencySketch};
use latlab_trace::{crc32, BufferPool, StreamDecoder};

use crate::pipeline::decode_samples;
use crate::wal::{
    load_checkpoint, replay, write_checkpoint_parts, RecoveryStats, ShardWal, StreamCkpt, StreamId,
    WalConfig, WalRecord,
};

/// How long a shard stage waits for work before it publishes what it
/// folded since the last publish, so queries converge without traffic.
const IDLE_PUBLISH: Duration = Duration::from_millis(50);

/// How a [`Msg::Begin`] opens its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BeginMode {
    /// Start a new upload: any mid-trace decode state a previously
    /// abandoned upload left under this key is discarded.
    Fresh,
    /// Continue an upload whose first frame was numbered `base + 1`:
    /// mid-trace decode state is kept, frames up to the committed
    /// watermark dedupe.
    Continue(u64),
}

/// Messages a shard worker consumes.
pub(crate) enum Msg {
    /// Attach a connection to a stream (creating it if new). The worker
    /// answers [`Reply::Started`] with the committed watermark.
    Begin {
        /// Stream identity (also decides resumability).
        stream: StreamId,
        /// Event class samples are accounted under.
        class: Option<EventClass>,
        /// Fresh upload vs continuation.
        mode: BeginMode,
        /// Where replies for this connection go.
        reply: Sender<Reply>,
    },
    /// One wire frame of trace bytes (buffer from the frame pool; the
    /// shard recycles it).
    Frame {
        /// Owning stream: one id per upload, shared by its frames, so
        /// that forwarding a frame allocates nothing.
        stream: Arc<StreamId>,
        /// Upload sequence number.
        seq: u64,
        /// Raw frame payload.
        bytes: Vec<u8>,
        /// CRC-32 of `bytes`, as checked against the wire frame's.
        crc: u32,
    },
    /// End-of-upload marker.
    End {
        /// Owning stream.
        stream: StreamId,
        /// Sequence number of the end frame.
        seq: u64,
    },
    /// The connection died mid-upload; one-shot streams are discarded.
    Cancel {
        /// Owning stream.
        stream: StreamId,
    },
    /// Commit everything queued, write a covering checkpoint, publish,
    /// and stop.
    Drain,
    /// Fault-injection hook: die *now*, as `kill -9` would — no flush,
    /// no checkpoint; unflushed WAL bytes are deliberately lost.
    Crash,
}

/// Replies a shard worker sends back to a connection handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Reply {
    /// Begin accepted; `last_seq` is the committed watermark (0 fresh).
    Started {
        /// Highest committed frame seq for the stream.
        last_seq: u64,
    },
    /// Cumulative acknowledgement: every frame up to `seq` is durable.
    Ack {
        /// Committed watermark.
        seq: u64,
    },
    /// The upload completed.
    Done {
        /// Trace records decoded over the whole upload.
        records: u64,
        /// Trace bytes accepted over the whole upload.
        bytes: u64,
    },
    /// The upload failed.
    Err(String),
}

/// The immutable state one shard publishes for readers.
#[derive(Debug)]
pub struct ShardSnapshot {
    /// Publish counter: strictly increasing per shard, starting at 0
    /// for the empty snapshot.
    pub epoch: u64,
    /// Per-scenario sketches as of this epoch. Bodies are shared
    /// copy-on-write with the shard's working state: publishing clones
    /// the `Arc`s, and the log stage detaches (clones) a scenario's
    /// sketch only on its first fold after the publish.
    pub sketches: HashMap<String, Arc<LatencySketch>>,
}

impl ShardSnapshot {
    fn empty() -> Self {
        ShardSnapshot {
            epoch: 0,
            sketches: HashMap::new(),
        }
    }
}

/// One shard's published-snapshot cell. Writers replace the `Arc`;
/// readers clone it. The lock is held only for the pointer operation.
#[derive(Debug)]
pub struct SnapshotSlot(RwLock<Arc<ShardSnapshot>>);

impl SnapshotSlot {
    fn new() -> Self {
        SnapshotSlot(RwLock::new(Arc::new(ShardSnapshot::empty())))
    }

    /// The latest published snapshot.
    pub fn load(&self) -> Arc<ShardSnapshot> {
        self.0.read().expect("snapshot lock poisoned").clone()
    }

    /// Replaces the published snapshot. With `wait` false, a lock held
    /// by a reader leaves the slot as it is and returns `false` instead
    /// of blocking. The outgoing snapshot is dropped after the lock is
    /// released.
    fn store(&self, snap: Arc<ShardSnapshot>, wait: bool) -> bool {
        let mut guard = match self.0.try_write() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) if !wait => return false,
            Err(TryLockError::WouldBlock) => self.0.write().expect("snapshot lock poisoned"),
            Err(TryLockError::Poisoned(_)) => panic!("snapshot lock poisoned"),
        };
        let old = std::mem::replace(&mut *guard, snap);
        drop(guard);
        drop(old);
        true
    }
}

/// Configuration for the shard pool.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Shard count (≥ 1): one worker thread each, plus a log-stage
    /// thread each when a WAL backs the set.
    pub shards: usize,
    /// Bounded queue depth per shard, in messages (≈ frames).
    pub queue_depth: usize,
    /// Publish a fresh snapshot after this many samples folded.
    pub publish_every: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get().div_ceil(2).max(2))
                .unwrap_or(4),
            queue_depth: 128,
            publish_every: 64 * 1024,
        }
    }
}

/// Ingest-wide counters the shards maintain (surfaced by `HEALTH`).
#[derive(Debug, Default)]
pub struct IngestTotals {
    /// Duplicate frames dropped by the per-stream seq watermark.
    pub dedup_dropped: AtomicU64,
    /// WAL records appended.
    pub wal_records: AtomicU64,
    /// WAL bytes appended (framed, buffered or flushed): each record's
    /// 8-byte length+CRC header plus its whole encoded body.
    pub wal_bytes: AtomicU64,
}

/// One shard as seen by producers: its queue and its snapshot slot.
struct ShardHandle {
    tx: SyncSender<Msg>,
    slot: Arc<SnapshotSlot>,
}

/// The set of shards.
pub struct ShardSet {
    shards: Vec<ShardHandle>,
    joins: Mutex<Vec<JoinHandle<()>>>,
    /// Recycles frame buffers: producers `get` one to fill from the
    /// socket, the shard `put`s it back once logged (or dropped).
    frame_pool: BufferPool<u8>,
    totals: Arc<IngestTotals>,
    recovery: RecoveryStats,
    next_conn: AtomicU64,
    wal_enabled: bool,
}

/// Why a message was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum IngestRejection {
    /// The shard's bounded queue is full — surface `BUSY` upstream.
    QueueFull,
    /// The shard has shut down.
    Closed,
}

impl ShardSet {
    /// Spawns the shard threads. With a [`WalConfig`], each shard first
    /// **recovers** — loads its newest valid checkpoint and feeds the
    /// log tail to its worker's own ingest transitions — before any
    /// worker accepts traffic; recovered snapshots are published
    /// immediately, so this returns with the pre-crash state fully
    /// visible.
    ///
    /// # Errors
    ///
    /// Filesystem failures opening the WAL (recovery of torn/corrupt
    /// *content* is tolerant and not an error).
    pub fn start(config: &ShardConfig, wal: Option<&WalConfig>) -> io::Result<ShardSet> {
        let n = config.shards.max(1);
        let frame_pool: BufferPool<u8> = BufferPool::new();
        let samples_pool: BufferPool<f64> = BufferPool::new();
        let totals = Arc::new(IngestTotals::default());
        let mut shards = Vec::with_capacity(n);
        let mut joins = Vec::with_capacity(n);
        let mut recovery = RecoveryStats::default();
        let mut max_conn = 0u64;
        for i in 0..n {
            let (tx, rx) = sync_channel(config.queue_depth.max(1));
            let slot = Arc::new(SnapshotSlot::new());
            let stage = LogStage::new(
                slot.clone(),
                config.publish_every.max(1),
                frame_pool.clone(),
                samples_pool.clone(),
            );
            let mut worker = Worker::new(stage, totals.clone());
            if let Some(cfg) = wal {
                let (stats, conn) = worker.recover(cfg, i)?;
                recovery.merge(&stats);
                max_conn = max_conn.max(conn);
                worker.log = worker.log.spawn(format!("latlab-wal-{i}"));
            }
            let join = std::thread::Builder::new()
                .name(format!("latlab-shard-{i}"))
                .spawn(move || worker.run(rx))
                .expect("spawn shard worker");
            shards.push(ShardHandle { tx, slot });
            joins.push(join);
        }
        Ok(ShardSet {
            shards,
            joins: Mutex::new(joins),
            frame_pool,
            totals,
            recovery,
            next_conn: AtomicU64::new(max_conn + 1),
            wal_enabled: wal.is_some(),
        })
    }

    /// The shared frame-buffer pool. Producers take a buffer here to
    /// read a wire frame into; the shard returns it.
    pub fn frame_pool(&self) -> &BufferPool<u8> {
        &self.frame_pool
    }

    /// Ingest-wide counters (dedupe drops, WAL volume).
    pub fn totals(&self) -> &IngestTotals {
        &self.totals
    }

    /// What recovery did at startup (zeros when the WAL is off or the
    /// directory was empty).
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Whether a write-ahead log backs this set.
    pub fn wal_enabled(&self) -> bool {
        self.wal_enabled
    }

    /// Allocates a one-shot stream id, unique across this run *and* —
    /// because recovery seeds the counter past every id in the log —
    /// across restarts sharing a WAL directory.
    pub(crate) fn alloc_conn(&self) -> u64 {
        self.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the set has no shards (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard index a `(client, scenario)` stream routes to. Stable
    /// across the process lifetime — a stream's frames always fold on
    /// one shard.
    pub fn route(&self, client: &str, scenario: &str) -> usize {
        // FNV-1a over the joint key. The separator byte keeps
        // ("ab","c") and ("a","bc") distinct.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in client.bytes().chain([0u8]).chain(scenario.bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards.len() as u64) as usize
    }

    /// Offers a message to a shard without blocking. On rejection the
    /// message comes back with the reason, so the caller can retry or
    /// surface `BUSY` without losing the frame buffer.
    pub(crate) fn try_send(&self, shard: usize, msg: Msg) -> Result<(), (Msg, IngestRejection)> {
        match self.shards[shard].tx.try_send(msg) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(m)) => Err((m, IngestRejection::QueueFull)),
            Err(TrySendError::Disconnected(m)) => Err((m, IngestRejection::Closed)),
        }
    }

    /// Delivers a message even when the queue is full, blocking until a
    /// slot frees. Used for control messages that must not be dropped
    /// (e.g. `Cancel` when a connection dies). Errors only when the
    /// worker has exited.
    pub(crate) fn send(&self, shard: usize, msg: Msg) -> Result<(), IngestRejection> {
        self.shards[shard]
            .tx
            .send(msg)
            .map_err(|_| IngestRejection::Closed)
    }

    /// Clones every shard's current snapshot (the `SNAPSHOT`/query read
    /// path — never blocks ingest).
    pub fn snapshots(&self) -> Vec<Arc<ShardSnapshot>> {
        self.shards.iter().map(|s| s.slot.load()).collect()
    }

    /// Clones every shard's current snapshot into a caller-owned
    /// buffer, so the hot query path can reuse one allocation across
    /// refreshes ([`crate::query::QueryPlane::refresh_from`]).
    pub fn snapshots_into(&self, out: &mut Vec<Arc<ShardSnapshot>>) {
        out.clear();
        out.extend(self.shards.iter().map(|s| s.slot.load()));
    }

    /// Merges the current snapshots into per-scenario sketches plus the
    /// epoch sum, from scratch. This is the reference implementation
    /// the incremental [`crate::query::QueryPlane`] must stay
    /// bit-identical to; the live query path no longer calls it.
    pub fn merged_full(&self) -> (u64, HashMap<String, LatencySketch>) {
        crate::query::merge_full(&self.snapshots())
    }

    /// Graceful drain: every queued message is processed and committed,
    /// each shard writes a checkpoint covering its whole log (truncating
    /// every segment, so a clean restart replays nothing), publishes,
    /// and exits. Idempotent — later calls are no-ops, and later sends
    /// report [`IngestRejection::Closed`].
    pub fn drain_and_join(&self) {
        self.stop(|| Msg::Drain);
    }

    /// Fault-injection hook: kill every shard as `kill -9` would — no
    /// final flush, no checkpoint; WAL bytes still buffered in user
    /// space are deliberately lost. The chaos tests use this to prove
    /// that recovery rebuilds exactly the acknowledged state.
    pub fn crash_and_join(&self) {
        self.stop(|| Msg::Crash);
    }

    /// Sends every shard `msg()` and joins the threads. The message gets
    /// through a full queue too: `send` blocks until the worker makes
    /// room.
    fn stop(&self, msg: fn() -> Msg) {
        for shard in &self.shards {
            let _ = shard.tx.send(msg());
        }
        let joins = std::mem::take(&mut *self.joins.lock().expect("join lock poisoned"));
        for join in joins {
            let _ = join.join();
        }
    }
}

/// Per-stream state a shard worker keeps.
#[derive(Default)]
struct StreamState {
    class: Option<EventClass>,
    /// Highest committed frame seq (the dedupe watermark).
    last_seq: u64,
    /// `DONE` counters of the last completed upload (replayed verbatim
    /// for a duplicate end frame).
    done_records: u64,
    done_bytes: u64,
    /// Mid-upload decoder; `None` between uploads. Its last stamp is
    /// the gap anchor across frames (and checkpoints).
    decoder: Option<StreamDecoder>,
    /// The attached connection, if any (latest `Begin` wins).
    reply: Option<Sender<Reply>>,
    /// Frames committed since the last ack was sent.
    ack_dirty: bool,
    /// The current upload failed; further frames are ignored until the
    /// next `Begin`.
    errored: bool,
    /// The log holds frames of this stream after its last `End` or
    /// `Begin` record, or the checkpoint replay starts from holds its
    /// decoder: replay may reach the next upload with a decoder open.
    open_in_log: bool,
}

impl StreamState {
    /// The `Begin` transition, for a connection's [`Msg::Begin`] and for
    /// a replayed `Begin` record. `Ok(true)` means the stream starts
    /// fresh decode state: a decoder an abandoned or failed upload left
    /// is dropped.
    fn begin(&mut self, class: Option<EventClass>, mode: BeginMode) -> Result<bool, String> {
        self.class = class;
        self.errored = false;
        let fresh = match mode {
            BeginMode::Fresh => true,
            BeginMode::Continue(base) if base > self.last_seq => {
                self.errored = true;
                return Err(format!(
                    "resume base {base} ahead of committed seq {}",
                    self.last_seq
                ));
            }
            // At the watermark nothing of the continued upload was
            // committed, so a decoder here belongs to an abandoned
            // predecessor. Below it the mid-trace state is kept, and the
            // client skips to the watermark.
            BeginMode::Continue(base) => base == self.last_seq,
        };
        if fresh {
            self.decoder = None;
        }
        Ok(fresh)
    }
}

/// Folds one decoded frame's samples into its scenario's sketch — the
/// fold live ingest (on the log stage) and WAL replay both run. The
/// scenario's key is allocated only on its first sample, never per
/// frame. Returns the samples folded.
fn fold_into(
    sketches: &mut HashMap<String, Arc<LatencySketch>>,
    scenario: &str,
    class: Option<EventClass>,
    samples: &[f64],
) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    if !sketches.contains_key(scenario) {
        sketches.insert(scenario.to_owned(), Arc::default());
    }
    let sketch = Arc::make_mut(sketches.get_mut(scenario).expect("inserted above"));
    sketch.update_batch(class.unwrap_or(EventClass::Background), samples);
    samples.len() as u64
}

/// One shard worker: owns the streams and their decoders, and hands its
/// log stage every accepted frame, decoded, in order.
struct Worker {
    pool: BufferPool<u8>,
    /// Recycles the sample buffers frames are decoded into; the log
    /// stage returns each once folded.
    samples_pool: BufferPool<f64>,
    /// The gap kernel's excess cycles, reused across frames.
    excess: Vec<u64>,
    totals: Arc<IngestTotals>,
    log: Log,
    streams: HashMap<StreamId, StreamState>,
    /// Replies held back until the commit point (the log barrier):
    /// `DONE` and `ERR` must not outrun durability.
    replies: Vec<(Sender<Reply>, Reply)>,
}

impl Worker {
    /// A worker with no streams, driving `stage` inline.
    fn new(stage: LogStage, totals: Arc<IngestTotals>) -> Worker {
        Worker {
            pool: stage.frame_pool.clone(),
            samples_pool: stage.samples_pool.clone(),
            excess: Vec::new(),
            totals,
            log: Log::new(stage),
            streams: HashMap::new(),
            replies: Vec::new(),
        }
    }

    fn run(mut self, rx: Receiver<Msg>) {
        loop {
            let flow = match rx.recv_timeout(IDLE_PUBLISH) {
                Ok(msg) => {
                    let queued = std::iter::from_fn(|| rx.try_recv().ok());
                    self.round(std::iter::once(msg).chain(queued))
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.log.idle();
                    Flow::Continue
                }
                // The set was dropped without a drain: no checkpoint;
                // recovery owns whatever was written.
                Err(RecvTimeoutError::Disconnected) => return self.log.close(false),
            };
            if flow != Flow::Continue {
                // A crash is a simulated kill -9: the log stage drops what
                // is queued to it and its buffered bytes, exactly as a
                // dead process would.
                return self.log.close(flow == Flow::Crash);
            }
        }
    }

    /// One round of the worker: handles `batch` until it runs out or a
    /// message stops the worker, then, unless it crashed, commits, and
    /// checkpoints when a drain asks or the log stage reported one due.
    /// The shard's thread runs a round over whatever its queue holds
    /// each time it wakes.
    fn round(&mut self, batch: impl IntoIterator<Item = Msg>) -> Flow {
        let mut flow = Flow::Continue;
        for msg in batch {
            flow = self.handle(msg);
            if flow != Flow::Continue {
                break;
            }
        }
        if flow != Flow::Crash {
            self.commit();
            if flow == Flow::Drain || self.log.checkpoint_due {
                self.checkpoint();
            }
        }
        flow
    }

    fn handle(&mut self, msg: Msg) -> Flow {
        match msg {
            Msg::Begin {
                stream,
                class,
                mode,
                reply,
            } => self.on_begin(stream, class, mode, reply),
            Msg::Frame {
                stream,
                seq,
                bytes,
                crc,
            } => self.on_frame(stream, seq, bytes, crc),
            Msg::End { stream, seq } => self.on_end(stream, seq),
            Msg::Cancel { stream } => {
                // Only one-shot streams die with their connection;
                // keyed streams keep their resume state.
                if matches!(stream, StreamId::Conn { .. }) {
                    self.streams.remove(&stream);
                }
            }
            Msg::Drain => return Flow::Drain,
            Msg::Crash => return Flow::Crash,
        }
        Flow::Continue
    }

    fn on_begin(
        &mut self,
        stream: StreamId,
        class: Option<EventClass>,
        mode: BeginMode,
        reply: Sender<Reply>,
    ) {
        let state = self.streams.entry(stream.clone()).or_default();
        state.reply = Some(reply.clone());
        // Started carries no durability promise — answer immediately so
        // the handler can greet without waiting out a commit round.
        let _ = reply.send(match state.begin(class, mode) {
            Err(msg) => Reply::Err(msg),
            Ok(fresh) => {
                if fresh && std::mem::take(&mut state.open_in_log) {
                    // Replay must drop the decoder the log left open
                    // here too, before this upload's first frame.
                    self.log.append(LogMsg::Record(WalRecord::Begin { stream }));
                }
                Reply::Started {
                    last_seq: state.last_seq,
                }
            }
        });
    }

    fn on_frame(&mut self, stream: Arc<StreamId>, seq: u64, bytes: Vec<u8>, crc: u32) {
        let resume = matches!(*stream, StreamId::Keyed { .. });
        let Some(state) = self.streams.get_mut(&*stream) else {
            self.pool.put(bytes);
            return;
        };
        if state.errored {
            self.pool.put(bytes);
            return;
        }
        if seq <= state.last_seq {
            // Already committed — a re-send after reconnect. Re-ack so
            // the client's watermark catches up; never fold twice.
            if resume {
                state.ack_dirty = true;
            }
            self.totals.dedup_dropped.fetch_add(1, Ordering::Relaxed);
            self.pool.put(bytes);
            return;
        }
        if seq != state.last_seq + 1 {
            // The decoder stays as the committed frames left it, as in
            // replay, which never sees this frame: a `Begin` that
            // continues the upload carries on from the watermark.
            let msg = format!("seq gap: expected {}, got {seq}", state.last_seq + 1);
            state.errored = true;
            self.reply_to(&stream, Reply::Err(msg));
            self.pool.put(bytes);
            return;
        }
        let decoder = state.decoder.get_or_insert_with(StreamDecoder::new);
        let mut samples = self.samples_pool.get();
        match decode_samples(decoder, &bytes, &mut self.excess, &mut samples) {
            Ok(()) => {
                // Committed as of the next barrier; an append failure
                // surfaces there and fails the round.
                state.last_seq = seq;
                state.open_in_log = true;
                if resume {
                    state.ack_dirty = true;
                }
                let class = state.class;
                self.log.append(LogMsg::Frame {
                    stream,
                    class,
                    seq,
                    bytes,
                    crc,
                    samples,
                });
            }
            Err(e) => {
                // A frame that fails to decode folds none of its
                // samples and is never logged.
                state.errored = true;
                state.decoder = None;
                self.reply_to(&stream, Reply::Err(format!("trace: {e}")));
                self.pool.put(bytes);
                self.samples_pool.put(samples);
            }
        }
    }

    fn on_end(&mut self, stream: StreamId, seq: u64) {
        let resume = matches!(stream, StreamId::Keyed { .. });
        let Some(state) = self.streams.get_mut(&stream) else {
            return;
        };
        if state.errored {
            self.reply_to(&stream, Reply::Err("upload already failed".to_owned()));
            return;
        }
        if seq <= state.last_seq {
            // Duplicate end after a reconnect: the upload completed in a
            // previous attempt — repeat its verdict.
            let (records, bytes) = (state.done_records, state.done_bytes);
            if resume {
                state.ack_dirty = true;
            }
            self.totals.dedup_dropped.fetch_add(1, Ordering::Relaxed);
            self.reply_to(&stream, Reply::Done { records, bytes });
            return;
        }
        // A refused end frame, like a seq gap in `on_frame`, leaves the
        // decoder for a `Begin` that continues the upload.
        let refusal = if seq != state.last_seq + 1 {
            Some(format!(
                "seq gap: expected {}, got {seq}",
                state.last_seq + 1
            ))
        } else {
            let mid_chunk = state
                .decoder
                .as_ref()
                .is_some_and(|d| !d.is_clean_boundary());
            mid_chunk.then(|| "upload ended mid-chunk".to_owned())
        };
        if let Some(msg) = refusal {
            state.errored = true;
            self.reply_to(&stream, Reply::Err(msg));
            return;
        }
        let (records, bytes) = state
            .decoder
            .as_ref()
            .map_or((0, 0), |d| (d.records_decoded(), d.bytes_fed()));
        state.last_seq = seq;
        state.done_records = records;
        state.done_bytes = bytes;
        state.decoder = None;
        state.open_in_log = false;
        if resume {
            state.ack_dirty = true;
        }
        self.reply_to(&stream, Reply::Done { records, bytes });
        if !resume {
            // One-shot streams have nothing to resume; drop the state
            // (its WAL records still replay — recovery rebuilds and then
            // discards it the same way).
            self.streams.remove(&stream);
        }
        self.log
            .append(LogMsg::Record(WalRecord::End { stream, seq }));
    }

    /// Queues a reply for delivery at the next commit point.
    fn reply_to(&mut self, stream: &StreamId, reply: Reply) {
        if let Some(tx) = self.streams.get(stream).and_then(|s| s.reply.clone()) {
            self.replies.push((tx, reply));
        }
    }

    /// The commit point: wait until the log stage has folded and made
    /// durable everything handed to it, then release acks and verdicts.
    /// A round with nothing to release (the middle of a plain upload)
    /// waits for nothing: durability only has to lead what the worker
    /// tells.
    fn commit(&mut self) {
        if self.replies.is_empty() && !self.streams.values().any(|s| s.ack_dirty) {
            return;
        }
        if let Err(msg) = self.log.barrier() {
            // Some record since the last barrier is not durable: fail
            // every stream rather than ack what recovery cannot replay.
            eprintln!("latlab-serve: {msg}");
            for state in self.streams.values_mut() {
                state.ack_dirty = false;
                state.errored = true;
                state.decoder = None;
            }
            for (_, reply) in self.replies.iter_mut() {
                *reply = Reply::Err(msg.clone());
            }
        }
        for state in self.streams.values_mut() {
            if state.ack_dirty {
                state.ack_dirty = false;
                if let Some(tx) = &state.reply {
                    let _ = tx.send(Reply::Ack {
                        seq: state.last_seq,
                    });
                }
            }
        }
        for (tx, reply) in self.replies.drain(..) {
            let _ = tx.send(reply);
        }
    }

    /// Records every stream's state at the last handed-off LSN and
    /// queues it to the log stage behind the frames it covers; the stage
    /// adds its sketches, which by then hold exactly those frames, and
    /// writes the checkpoint (a stage without a WAL drops it).
    fn checkpoint(&mut self) {
        let mut streams = Vec::with_capacity(self.streams.len());
        for (id, state) in &self.streams {
            let decoder = match &state.decoder {
                None => None,
                Some(d) => match d.export_state() {
                    Some(s) => Some(s),
                    // A decoder with undrained records should not exist at
                    // a commit boundary; skip this checkpoint round rather
                    // than persist a lie.
                    None => return,
                },
            };
            streams.push(StreamCkpt {
                id: id.clone(),
                class: state.class,
                last_seq: state.last_seq,
                done_records: state.done_records,
                done_bytes: state.done_bytes,
                prev_stamp: decoder.as_ref().filter(|d| d.any_read).map(|d| d.prev_at),
                decoder,
            });
        }
        self.log.checkpoint_due = false;
        let last_lsn = self.log.next_lsn - 1;
        self.log
            .send(LogMsg::Checkpoint(CheckpointJob { last_lsn, streams }));
    }

    /// Rebuilds the shard from its log before it takes any traffic:
    /// loads the newest checkpoint, then feeds every later record to the
    /// worker's own transitions while its log stage runs inline without
    /// a WAL. Then gives the stage the log, still inline. Returns what
    /// recovery did and the highest connection id seen.
    fn recover(&mut self, cfg: &WalConfig, shard: usize) -> io::Result<(RecoveryStats, u64)> {
        let t0 = Instant::now();
        let dir = cfg.shard_dir(shard);
        let mut stats = RecoveryStats::default();
        let (mut max_conn, mut after_lsn) = (0u64, 0u64);
        if let Some(ckpt) = load_checkpoint(&dir)? {
            stats.checkpoints = 1;
            after_lsn = ckpt.last_lsn;
            let stage = self.log.inline_stage();
            for (scenario, sketch) in ckpt.sketches {
                stage.sketches.insert(scenario, Arc::new(sketch));
            }
            for s in ckpt.streams {
                max_conn = max_conn.max(s.id.conn_id().unwrap_or(0));
                let state = StreamState {
                    class: s.class,
                    last_seq: s.last_seq,
                    done_records: s.done_records,
                    done_bytes: s.done_bytes,
                    open_in_log: s.decoder.is_some(),
                    decoder: s.decoder.map(StreamDecoder::restore),
                    ..StreamState::default()
                };
                self.streams.insert(s.id, state);
            }
        }
        let folded = |stage: &LogStage| stage.sketches.values().map(|s| s.total()).sum::<u64>();
        let loaded = folded(self.log.inline_stage());
        let (rstats, next_lsn) = replay(&dir, after_lsn, |_lsn, rec| {
            max_conn = max_conn.max(rec.stream().conn_id().unwrap_or(0));
            match rec {
                WalRecord::Frame {
                    stream,
                    class,
                    seq,
                    bytes,
                } => {
                    let state = self.streams.entry(stream.clone()).or_default();
                    state.class = class;
                    let records = |s: &StreamState| {
                        s.decoder.as_ref().map_or(0, StreamDecoder::records_decoded)
                    };
                    let before = records(state);
                    let crc = crc32(&bytes);
                    let stream = Arc::new(stream);
                    self.on_frame(Arc::clone(&stream), seq, bytes, crc);
                    stats.records += records(&self.streams[&*stream]).saturating_sub(before);
                }
                WalRecord::End { stream, seq } => self.on_end(stream, seq),
                WalRecord::Begin { stream } => {
                    if let Some(state) = self.streams.get_mut(&stream) {
                        let _ = state.begin(state.class, BeginMode::Fresh);
                    }
                }
            }
        })?;
        stats.segments = rstats.segments;
        stats.frames = rstats.replayed;
        stats.torn_tails = u64::from(rstats.torn);
        // One-shot streams died with their connections; their folded prefix
        // stays in the sketch (as it would have, had the process lived).
        self.streams
            .retain(|id, _| matches!(id, StreamId::Keyed { .. }));
        for state in self.streams.values_mut() {
            state.errored = false;
            state.ack_dirty = false;
        }
        let stage = self.log.inline_stage();
        stats.samples = folded(stage) - loaded;
        // Publish what recovery rebuilt before any ingest, so queries see
        // the pre-crash state from the first epoch.
        if !stage.sketches.is_empty() {
            stage.publish(true);
        }
        stats.millis = t0.elapsed().as_millis() as u64;
        stage.wal = Some(StageWal {
            wal: ShardWal::open(&dir, cfg.segment_bytes, next_lsn)?,
            dir,
            totals: self.totals.clone(),
            checkpoint_bytes: cfg.checkpoint_bytes.max(1),
            error: None,
        });
        self.log.next_lsn = next_lsn;
        self.log.synced_lsn = next_lsn;
        Ok((stats, max_conn))
    }
}

/// Messages the log stage may have queued from its worker. Each queued
/// frame pins its 64 KiB buffer and its sample buffer until the stage
/// has logged and folded it, so the depth trades memory for slack.
/// Measured on perfbench `ingest-wal` (2 shards, 2 vCPUs; four
/// interleaved 10 s runs per depth): median peak RSS read 39.3, 40.2
/// and 42.2 MB at depths 8, 16 and 32 (39.5 MB before the split), while
/// p50 read 6.77, 6.56 and 6.74 ms, within the runs' spread. 8 keeps
/// RSS flat.
const LOG_QUEUE_DEPTH: usize = 8;

/// What a shard worker hands its log stage.
enum LogMsg {
    /// Append an accepted frame and fold its samples, then return both
    /// buffers to their pools.
    Frame {
        /// Owning stream, moved from the worker's message.
        stream: Arc<StreamId>,
        /// Event class the stream's samples fold under.
        class: Option<EventClass>,
        /// Upload sequence number.
        seq: u64,
        /// Pooled frame buffer.
        bytes: Vec<u8>,
        /// CRC-32 of `bytes`, checked on the wire.
        crc: u32,
        /// The frame's latency samples (ms), decoded by the worker
        /// (pooled).
        samples: Vec<f64>,
    },
    /// Append an `End` or `Begin` record.
    Record(WalRecord),
    /// The commit barrier: flush, then answer with a [`Synced`].
    Flush,
    /// Write a checkpoint and prune the segments it covers.
    Checkpoint(CheckpointJob),
}

/// A checkpoint's stream half, as the worker records it; the log stage
/// adds its own sketches when it reaches the job.
struct CheckpointJob {
    last_lsn: u64,
    streams: Vec<StreamCkpt>,
}

/// The log stage's answer to a barrier.
struct Synced {
    /// LSN the stage's next append will get.
    next_lsn: u64,
    /// The first append or flush failure since the previous barrier.
    error: Option<String>,
    /// Whether enough bytes were logged since the last checkpoint to
    /// warrant another (per [`WalConfig::checkpoint_bytes`]).
    checkpoint_due: bool,
}

/// A worker's way to its log stage, and its count of what it handed
/// over. The stage runs [`LogStage::handle`] either inline, on the
/// worker's thread, or on a thread of its own behind a short queue; that
/// is the only difference. LSNs, barriers, checkpoint-due and
/// checkpoints work the same either way.
struct Log {
    stage: Stage,
    /// LSN the next handed-off record gets: the worker numbers records
    /// itself and checks the count against the stage's at each barrier.
    next_lsn: u64,
    /// `next_lsn` at the last barrier.
    synced_lsn: u64,
    /// The stage's verdict at the last barrier.
    checkpoint_due: bool,
}

/// Where a log stage runs: inline without a WAL, and with one until
/// [`Log::spawn`] moves it onto its own thread.
enum Stage {
    Inline(Box<LogStage>),
    Thread(StageThread),
}

/// A shard worker's end of its log stage's thread.
struct StageThread {
    tx: SyncSender<LogMsg>,
    synced: Receiver<Synced>,
    /// Set before a crash closes the queue: the stage then drops what
    /// is still queued instead of appending it.
    crashed: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl Log {
    /// A log whose stage runs inline.
    fn new(stage: LogStage) -> Log {
        Log {
            stage: Stage::Inline(Box::new(stage)),
            next_lsn: 1,
            synced_lsn: 1,
            checkpoint_due: false,
        }
    }

    /// The stage, while it runs inline.
    fn inline_stage(&mut self) -> &mut LogStage {
        match &mut self.stage {
            Stage::Inline(stage) => stage,
            Stage::Thread(_) => unreachable!("the log stage runs on its own thread"),
        }
    }

    /// Moves the stage onto a thread of its own, named `name`.
    fn spawn(self, name: String) -> Log {
        let Stage::Inline(stage) = self.stage else {
            unreachable!("the log stage already runs on its own thread")
        };
        let (tx, rx) = sync_channel(LOG_QUEUE_DEPTH);
        let (synced_tx, synced) = sync_channel(1);
        let crashed = Arc::new(AtomicBool::new(false));
        let flag = crashed.clone();
        let join = std::thread::Builder::new()
            .name(name)
            .spawn(move || stage.run(rx, synced_tx, flag))
            .expect("spawn log stage");
        Log {
            stage: Stage::Thread(StageThread {
                tx,
                synced,
                crashed,
                join,
            }),
            ..self
        }
    }

    /// Hands over a record (a frame, or an `End` or `Begin` record).
    fn append(&mut self, msg: LogMsg) {
        self.next_lsn += 1;
        self.send(msg);
    }

    /// Runs `msg` through the stage, here or on its thread. A flush
    /// returns the stage's answer: `None` without a WAL, or when the
    /// stage exited, which also loses whatever is sent to it.
    fn send(&mut self, msg: LogMsg) -> Option<Synced> {
        match &mut self.stage {
            Stage::Inline(stage) => stage.handle(msg),
            Stage::Thread(t) => {
                let flush = matches!(msg, LogMsg::Flush);
                if t.tx.send(msg).is_ok() && flush {
                    t.synced.recv().ok()
                } else {
                    None
                }
            }
        }
    }

    /// The flush barrier: returns once every record handed over so far
    /// has been folded and has reached the OS, or with the first
    /// failure among them. A round that handed nothing over has nothing
    /// to wait for, and a stage without a WAL nothing to flush.
    fn barrier(&mut self) -> Result<(), String> {
        if self.next_lsn == self.synced_lsn {
            return Ok(());
        }
        let Some(synced) = self.send(LogMsg::Flush) else {
            self.synced_lsn = self.next_lsn;
            return match &self.stage {
                Stage::Inline(stage) if stage.wal.is_none() => Ok(()),
                _ => Err("wal: log stage exited".to_owned()),
            };
        };
        self.checkpoint_due = synced.checkpoint_due;
        match &synced.error {
            None => debug_assert_eq!(
                synced.next_lsn, self.next_lsn,
                "worker and log stage disagree on the LSN at a barrier"
            ),
            // After a failure the stage's count is the log's.
            Some(_) => self.next_lsn = synced.next_lsn,
        }
        self.synced_lsn = self.next_lsn;
        synced.error.map_or(Ok(()), Err)
    }

    /// The worker found its queue idle. A stage on its own thread
    /// notices its own idle moments.
    fn idle(&mut self) {
        if let Stage::Inline(stage) = &mut self.stage {
            stage.idle();
        }
    }

    /// Stops the stage (see [`LogStage::close`]), joining its thread.
    fn close(self, crash: bool) {
        match self.stage {
            Stage::Inline(mut stage) => stage.close(crash),
            Stage::Thread(StageThread {
                tx, crashed, join, ..
            }) => {
                crashed.store(crash, Ordering::SeqCst);
                drop(tx);
                if join.join().is_err() {
                    eprintln!("latlab-serve: log stage panicked");
                }
            }
        }
    }
}

/// The WAL half of a log stage: the shard's log and what the stage
/// needs to answer barriers and write checkpoints.
struct StageWal {
    wal: ShardWal,
    dir: PathBuf,
    totals: Arc<IngestTotals>,
    checkpoint_bytes: u64,
    /// The first append failure since the last barrier.
    error: Option<String>,
}

impl StageWal {
    /// Runs one append and counts what it logged into the totals.
    fn append(&mut self, op: impl FnOnce(&mut ShardWal) -> io::Result<u64>) {
        let (records, bytes) = (self.wal.records_appended(), self.wal.bytes_appended());
        if let Err(e) = op(&mut self.wal) {
            self.error.get_or_insert_with(|| format!("wal append: {e}"));
        }
        self.totals
            .wal_records
            .fetch_add(self.wal.records_appended() - records, Ordering::Relaxed);
        self.totals
            .wal_bytes
            .fetch_add(self.wal.bytes_appended() - bytes, Ordering::Relaxed);
    }

    /// The barrier: flushes and answers with the LSN, the first failure
    /// since the last barrier and whether a checkpoint is due.
    fn sync(&mut self) -> Synced {
        if let Err(e) = self.wal.flush() {
            self.error.get_or_insert_with(|| format!("wal flush: {e}"));
        }
        Synced {
            next_lsn: self.wal.next_lsn(),
            error: self.error.take(),
            checkpoint_due: self.wal.checkpoint_due(self.checkpoint_bytes),
        }
    }
}

/// A shard's log stage: owns the sketches and, with a WAL, the
/// [`ShardWal`]; appends, folds and publishes in the order the worker
/// hands it frames, and writes checkpoints at their queue position.
struct LogStage {
    wal: Option<StageWal>,
    sketches: HashMap<String, Arc<LatencySketch>>,
    slot: Arc<SnapshotSlot>,
    epoch: u64,
    since_publish: u64,
    publish_every: u64,
    frame_pool: BufferPool<u8>,
    samples_pool: BufferPool<f64>,
}

impl LogStage {
    /// A stage with no sketches and no WAL, publishing into `slot`.
    fn new(
        slot: Arc<SnapshotSlot>,
        publish_every: u64,
        frame_pool: BufferPool<u8>,
        samples_pool: BufferPool<f64>,
    ) -> LogStage {
        LogStage {
            wal: None,
            sketches: HashMap::new(),
            slot,
            epoch: 0,
            since_publish: 0,
            publish_every,
            frame_pool,
            samples_pool,
        }
    }

    /// The stage's thread: handles messages until the worker closes the
    /// queue, answering barriers on `synced` and publishing in idle
    /// moments.
    fn run(mut self, rx: Receiver<LogMsg>, synced: SyncSender<Synced>, crashed: Arc<AtomicBool>) {
        let is_crashed = || crashed.load(Ordering::SeqCst);
        loop {
            match rx.recv_timeout(IDLE_PUBLISH) {
                Ok(_) if is_crashed() => break,
                Ok(msg) => {
                    if let Some(answer) = self.handle(msg) {
                        let _ = synced.send(answer);
                    }
                }
                Err(RecvTimeoutError::Timeout) => self.idle(),
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.close(is_crashed());
    }

    /// Handles one message from the worker; a flush returns the
    /// barrier's answer (`None` without a WAL).
    fn handle(&mut self, msg: LogMsg) -> Option<Synced> {
        match msg {
            LogMsg::Frame {
                stream,
                class,
                seq,
                bytes,
                crc,
                samples,
            } => {
                if let Some(log) = &mut self.wal {
                    log.append(|wal| wal.append_frame(&stream, class, seq, &bytes, crc));
                }
                self.frame_pool.put(bytes);
                self.since_publish +=
                    fold_into(&mut self.sketches, stream.scenario(), class, &samples);
                self.samples_pool.put(samples);
                if self.since_publish >= self.publish_every {
                    self.publish(false);
                }
            }
            LogMsg::Record(rec) => {
                if let Some(log) = &mut self.wal {
                    log.append(|wal| wal.append(&rec));
                }
            }
            LogMsg::Flush => return self.wal.as_mut().map(StageWal::sync),
            LogMsg::Checkpoint(job) => self.checkpoint(job),
        }
        None
    }

    /// An idle moment: surface anything folded since the last publish
    /// (or put off by a reader) so queries converge without traffic.
    fn idle(&mut self) {
        if self.since_publish > 0 {
            self.publish(false);
        }
    }

    /// Stops the stage: a last publish, then a last flush, as a drain's
    /// checkpoint opened a fresh segment whose header is still buffered.
    /// A crash does neither and drops the log without its `BufWriter`'s
    /// flush-on-drop, losing buffered bytes as a dead process would.
    fn close(&mut self, crash: bool) {
        if crash {
            if let Some(log) = self.wal.take() {
                std::mem::forget(log.wal);
            }
            return;
        }
        self.publish(true);
        if let Some(log) = &mut self.wal {
            if let Err(e) = log.wal.flush() {
                eprintln!("latlab-serve: wal flush at exit: {e}");
            }
        }
    }

    /// Publishes the sketches as the next epoch. A publish clones `Arc`
    /// pointers only — O(scenarios) refcount bumps, no sketch bodies
    /// copied here. Without `wait`, a slot a reader holds puts the
    /// publish off: ingest never waits on a query.
    fn publish(&mut self, wait: bool) {
        let snap = Arc::new(ShardSnapshot {
            epoch: self.epoch + 1,
            sketches: self.sketches.clone(),
        });
        if self.slot.store(snap, wait) {
            self.epoch += 1;
            self.since_publish = 0;
        }
    }

    /// Flushes, writes a checkpoint of the job's streams and the
    /// stage's own sketches, which hold exactly the frames up to
    /// `job.last_lsn`, and prunes the segments it covers.
    fn checkpoint(&mut self, job: CheckpointJob) {
        let Some(log) = &mut self.wal else {
            return;
        };
        if let Err(e) = log.wal.flush() {
            eprintln!("latlab-serve: wal flush before checkpoint: {e}");
            return;
        }
        debug_assert_eq!(
            log.wal.next_lsn() - 1,
            job.last_lsn,
            "worker and log stage disagree on the checkpoint LSN"
        );
        let sketches = self.sketches.iter().map(|(k, v)| (k.as_str(), &**v));
        if let Err(e) = write_checkpoint_parts(&log.dir, job.last_lsn, sketches, &job.streams) {
            eprintln!("latlab-serve: checkpoint write: {e}");
            return;
        }
        if let Err(e) = log.wal.note_checkpoint(job.last_lsn) {
            eprintln!("latlab-serve: segment prune: {e}");
        }
    }
}

/// What a worker does after a message or a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Continue,
    Drain,
    Crash,
}

/// Shared in-crate test helpers for driving a [`ShardSet`] directly
/// (without a listener): temp WAL dirs, keyed streams, frame chopping,
/// retried sends, and the begin/upload/wait primitives. Used by this
/// module's tests and by the query-plane equivalence tests in
/// [`crate::query`].
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use std::sync::mpsc::channel;

    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "latlab-shard-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        pub(crate) fn wal(&self) -> WalConfig {
            WalConfig::new(&self.0)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    pub(crate) fn config(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            queue_depth: 64,
            publish_every: u64::MAX,
        }
    }

    pub(crate) fn keyed(client: &str, scenario: &str) -> StreamId {
        StreamId::Keyed {
            client: client.to_owned(),
            scenario: scenario.to_owned(),
        }
    }

    pub(crate) fn frames_of(corpus: &[u8], frame_len: usize) -> Vec<Vec<u8>> {
        corpus.chunks(frame_len).map(<[u8]>::to_vec).collect()
    }

    /// A frame message as a connection thread sends it: the payload with
    /// its CRC.
    pub(crate) fn frame_msg(stream: &StreamId, seq: u64, bytes: Vec<u8>) -> Msg {
        Msg::Frame {
            stream: Arc::new(stream.clone()),
            seq,
            crc: latlab_trace::crc32(&bytes),
            bytes,
        }
    }

    /// Sends, retrying transient `QueueFull` (the bounded queue is load
    /// shedding, not an error, when the test is just slower than ingest).
    pub(crate) fn send_retry(set: &ShardSet, shard: usize, mut msg: Msg) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match set.try_send(shard, msg) {
                Ok(()) => return,
                Err((m, IngestRejection::QueueFull)) if Instant::now() < deadline => {
                    msg = m;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err((_, why)) => panic!("shard send failed: {why:?}"),
            }
        }
    }

    pub(crate) fn begin(
        set: &ShardSet,
        shard: usize,
        stream: &StreamId,
        mode: BeginMode,
    ) -> (Receiver<Reply>, u64) {
        let (tx, rx) = channel();
        send_retry(
            set,
            shard,
            Msg::Begin {
                stream: stream.clone(),
                class: Some(EventClass::Keystroke),
                mode,
                reply: tx,
            },
        );
        match rx.recv_timeout(Duration::from_secs(5)).expect("started") {
            Reply::Started { last_seq } => (rx, last_seq),
            other => panic!("expected Started, got {other:?}"),
        }
    }

    /// Sends frames `[from..]` of `frames` numbered `base + 1 + i`, then
    /// the end frame, and waits for the verdict.
    pub(crate) fn upload_tail(
        set: &ShardSet,
        shard: usize,
        stream: &StreamId,
        rx: &Receiver<Reply>,
        frames: &[Vec<u8>],
        base: u64,
        from: usize,
    ) -> Reply {
        for (i, frame) in frames.iter().enumerate().skip(from) {
            send_retry(
                set,
                shard,
                frame_msg(stream, base + 1 + i as u64, frame.clone()),
            );
        }
        send_retry(
            set,
            shard,
            Msg::End {
                stream: stream.clone(),
                seq: base + 1 + frames.len() as u64,
            },
        );
        loop {
            match rx.recv_timeout(Duration::from_secs(5)).expect("verdict") {
                Reply::Ack { .. } => continue,
                verdict => return verdict,
            }
        }
    }

    /// Holds one shard's snapshot slot as a reader does while it clones
    /// the published `Arc`, for as long as the guard lives.
    pub(crate) fn hold_slot(
        set: &ShardSet,
        shard: usize,
    ) -> std::sync::RwLockReadGuard<'_, Arc<ShardSnapshot>> {
        set.shards[shard].slot.0.read().unwrap()
    }

    /// Polls one shard's slot until its epoch reaches `want`.
    pub(crate) fn wait_for_epoch(set: &ShardSet, shard: usize, want: u64) -> Arc<ShardSnapshot> {
        for _ in 0..1000 {
            let snap = set.snapshots()[shard].clone();
            if snap.epoch >= want {
                return snap;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("shard {shard} never reached epoch {want}");
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;
    use crate::protocol::{read_seq_frame, write_seq_frame};
    use crate::slam::idle_corpus;
    use crate::wal::encode_frame_record;

    /// A stage logging to a fresh WAL in `dir` that never checkpoints on
    /// its own and publishes nowhere anyone reads.
    fn wal_stage(
        dir: &std::path::Path,
        segment_bytes: u64,
        pool: BufferPool<u8>,
        samples_pool: BufferPool<f64>,
    ) -> LogStage {
        let mut stage = LogStage::new(Arc::new(SnapshotSlot::new()), u64::MAX, pool, samples_pool);
        stage.wal = Some(StageWal {
            wal: ShardWal::open(dir, segment_bytes, 1).unwrap(),
            dir: dir.to_path_buf(),
            totals: Arc::default(),
            checkpoint_bytes: u64::MAX,
            error: None,
        });
        stage
    }

    /// A log whose stage is `body`, run on a thread of its own with the
    /// queue, the barrier's answer channel and the crash flag that
    /// `Log::spawn` hands `LogStage::run`.
    fn log_on_thread(
        body: impl FnOnce(Receiver<LogMsg>, SyncSender<Synced>, Arc<AtomicBool>) + Send + 'static,
    ) -> Log {
        let (tx, rx) = sync_channel(LOG_QUEUE_DEPTH);
        let (answer, synced) = sync_channel(1);
        let crashed = Arc::new(AtomicBool::new(false));
        let flag = crashed.clone();
        let join = std::thread::spawn(move || body(rx, answer, flag));
        Log {
            stage: Stage::Thread(StageThread {
                tx,
                synced,
                crashed,
                join,
            }),
            next_lsn: 1,
            synced_lsn: 1,
            checkpoint_due: false,
        }
    }

    /// Decodes and folds one frame the way a shard and WAL replay do,
    /// as the reference for what a shard folded.
    fn fold_frame_into(
        decoder: &mut StreamDecoder,
        sketches: &mut HashMap<String, Arc<LatencySketch>>,
        scenario: &str,
        class: Option<EventClass>,
        excess: &mut Vec<u64>,
        bytes: &[u8],
    ) -> Result<u64, String> {
        let mut samples = Vec::new();
        decode_samples(decoder, bytes, excess, &mut samples).map_err(|e| format!("trace: {e}"))?;
        Ok(fold_into(sketches, scenario, class, &samples))
    }

    #[test]
    fn routing_is_stable_and_key_sensitive() {
        let set = ShardSet::start(&config(4), None).unwrap();
        let a = set.route("client-1", "fig5");
        assert_eq!(a, set.route("client-1", "fig5"));
        let distinct = (0..32)
            .map(|i| set.route(&format!("client-{i}"), "fig5"))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "32 clients all routed to one shard");
        set.drain_and_join();
    }

    #[test]
    fn upload_folds_to_the_exact_corpus_sketch() {
        let corpus = idle_corpus(30_000, 0xf01d, 40);
        let expect = crate::pipeline::fold_corpus(&corpus, 4096, EventClass::Keystroke, false);
        let set = ShardSet::start(&config(2), None).unwrap();
        let stream = keyed("c", "fig5");
        let shard = set.route("c", "fig5");
        let frames = frames_of(&corpus, 4096);
        let (rx, base) = begin(&set, shard, &stream, BeginMode::Fresh);
        assert_eq!(base, 0);
        match upload_tail(&set, shard, &stream, &rx, &frames, 0, 0) {
            Reply::Done { records, bytes } => {
                assert_eq!(records, 30_000);
                assert_eq!(bytes, corpus.len() as u64);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        set.drain_and_join();
        let (_, merged) = set.merged_full();
        let got = &merged["fig5"];
        assert_eq!(got.total(), expect.sketch.total());
        let (gc, ec) = (
            got.class(EventClass::Keystroke),
            expect.sketch.class(EventClass::Keystroke),
        );
        assert_eq!(gc.stats().mean(), ec.stats().mean());
        for q in [0.5, 0.99] {
            assert_eq!(gc.quantile(q), ec.quantile(q));
        }
    }

    #[test]
    fn queue_full_is_reported_not_buffered() {
        let set = ShardSet::start(
            &ShardConfig {
                shards: 1,
                queue_depth: 1,
                publish_every: u64::MAX,
            },
            None,
        )
        .unwrap();
        let stream = keyed("c", "flood");
        let (_rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
        // Large valid frames keep the single worker decoding long enough
        // for the bounded queue (depth 1) to fill.
        let corpus = idle_corpus(1 << 20, 0xbe9c, 64);
        let frames = frames_of(&corpus, 1 << 20);
        let mut saw_full = false;
        let mut seq = 0u64;
        'outer: for _ in 0..64 {
            for frame in &frames {
                seq += 1;
                let msg = frame_msg(&stream, seq, frame.clone());
                if let Err((returned, IngestRejection::QueueFull)) = set.try_send(0, msg) {
                    // The rejected frame comes back intact for retry.
                    match returned {
                        Msg::Frame { bytes, .. } => assert_eq!(&bytes, frame),
                        other => panic!(
                            "wrong message returned: {:?}",
                            std::mem::discriminant(&other)
                        ),
                    }
                    saw_full = true;
                    break 'outer;
                }
            }
        }
        assert!(saw_full, "bounded queue never reported Full");
        set.drain_and_join();
    }

    #[test]
    fn resume_dedupes_and_replays_the_done_verdict() {
        let corpus = idle_corpus(10_000, 0x5e5e, 64);
        let frames = frames_of(&corpus, 8192);
        let set = ShardSet::start(&config(1), None).unwrap();
        let stream = keyed("c", "dup");
        let (rx, base) = begin(&set, 0, &stream, BeginMode::Fresh);
        assert_eq!(base, 0);
        let done = upload_tail(&set, 0, &stream, &rx, &frames, 0, 0);
        let Reply::Done { records, bytes } = done else {
            panic!("expected Done, got {done:?}");
        };
        assert_eq!(set.totals().dedup_dropped.load(Ordering::Relaxed), 0);
        // Reconnect claiming the same upload: the watermark says it all
        // landed; a full re-send dedupes every frame and the end frame
        // replays the verdict.
        let (rx, watermark) = begin(&set, 0, &stream, BeginMode::Continue(0));
        assert_eq!(watermark, frames.len() as u64 + 1);
        let replayed = upload_tail(&set, 0, &stream, &rx, &frames, 0, 0);
        assert_eq!(replayed, Reply::Done { records, bytes });
        assert_eq!(
            set.totals().dedup_dropped.load(Ordering::Relaxed),
            frames.len() as u64 + 1
        );
        set.drain_and_join();
        let (_, merged) = set.merged_full();
        // Exactly-once: the double-sent corpus folded exactly once.
        let expect = crate::pipeline::fold_corpus(&corpus, 8192, EventClass::Keystroke, false);
        assert_eq!(merged["dup"].total(), expect.sketch.total());
    }

    #[test]
    fn seq_gaps_are_rejected() {
        let set = ShardSet::start(&config(1), None).unwrap();
        let stream = keyed("c", "gap");
        let (rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
        let corpus = idle_corpus(1_000, 0x11, 0);
        send_retry(
            &set,
            0,
            // Expected seq 1.
            frame_msg(&stream, 3, corpus[..512].to_vec()),
        );
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Reply::Err(msg) => assert!(msg.contains("seq gap"), "{msg}"),
            other => panic!("expected Err, got {other:?}"),
        }
        set.drain_and_join();
    }

    #[test]
    fn crash_recovers_exactly_the_acknowledged_state() {
        let tmp = TempDir::new("crash");
        let corpus = idle_corpus(40_000, 0xc4a5, 48);
        let frames = frames_of(&corpus, 4096);
        let half = frames.len() / 2;

        let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
        let stream = keyed("c", "fig5");
        let (rx, base) = begin(&set, 0, &stream, BeginMode::Fresh);
        assert_eq!(base, 0);
        for (i, frame) in frames[..half].iter().enumerate() {
            send_retry(&set, 0, frame_msg(&stream, 1 + i as u64, frame.clone()));
        }
        // Wait for the cumulative ack covering everything sent: ack ⇒
        // WAL-flushed ⇒ these frames must survive the crash.
        let mut acked = 0u64;
        let deadline = Instant::now() + Duration::from_secs(10);
        while acked < half as u64 {
            assert!(Instant::now() < deadline, "never acked: {acked}");
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Reply::Ack { seq } => acked = seq,
                other => panic!("unexpected {other:?}"),
            }
        }
        set.crash_and_join();

        // Restart: recovery must rebuild exactly the fold of the acked
        // prefix — frames [0, acked), in order.
        let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
        assert!(
            set.recovery().frames >= acked,
            "replayed {:?}",
            set.recovery()
        );
        let mut expect_decoder = StreamDecoder::new();
        let mut expect: HashMap<String, Arc<LatencySketch>> = HashMap::new();
        let mut excess = Vec::new();
        for frame in &frames[..acked as usize] {
            fold_frame_into(
                &mut expect_decoder,
                &mut expect,
                "fig5",
                Some(EventClass::Keystroke),
                &mut excess,
                frame,
            )
            .unwrap();
        }
        let expect = &expect["fig5"];
        let (_, merged) = set.merged_full();
        let got = &merged["fig5"];
        assert_eq!(got.total(), expect.total());
        let (gc, ec) = (
            got.class(EventClass::Keystroke),
            expect.class(EventClass::Keystroke),
        );
        assert_eq!(gc.stats().mean(), ec.stats().mean());
        assert_eq!(gc.stats().max(), ec.stats().max());

        // Resume from the watermark and finish: the final sketch equals
        // the whole corpus folded exactly once.
        let (rx, watermark) = begin(&set, 0, &stream, BeginMode::Continue(0));
        assert_eq!(watermark, acked);
        match upload_tail(&set, 0, &stream, &rx, &frames, 0, watermark as usize) {
            Reply::Done { records, .. } => assert_eq!(records, 40_000),
            other => panic!("expected Done, got {other:?}"),
        }
        set.drain_and_join();
        let whole = crate::pipeline::fold_corpus(&corpus, 4096, EventClass::Keystroke, false);
        let (_, merged) = set.merged_full();
        assert_eq!(merged["fig5"].total(), whole.sketch.total());
        assert_eq!(
            merged["fig5"].class(EventClass::Keystroke).stats().mean(),
            whole.sketch.class(EventClass::Keystroke).stats().mean()
        );
    }

    #[test]
    fn a_new_upload_after_an_abandoned_one_survives_a_crash() {
        // Upload A commits frames 1..=k and is abandoned before its end
        // frame; upload B then starts on the same key and completes.
        // Live, B's `Begin` dropped A's decoder. Replay after a crash must
        // drop it at the same point, or it feeds B's header to A's
        // mid-trace decoder and loses every sample of the acknowledged B.
        let corpus_b = idle_corpus(20_000, 0xb0b, 48);
        let (a, b) = (
            frames_of(&idle_corpus(20_000, 0xa1a, 48), 4096),
            frames_of(&corpus_b, 4096),
        );
        let k = a.len() / 2;
        let class = Some(EventClass::Keystroke);
        let image = |sketch: &LatencySketch| {
            let mut out = Vec::new();
            sketch.encode(&mut out);
            out
        };
        // What was acknowledged, in fold order: A's frames 1..=k, then B.
        let mut acked = HashMap::new();
        for frames in [&a[..k], &b[..]] {
            let (mut decoder, mut excess) = (StreamDecoder::new(), Vec::new());
            for frame in frames {
                fold_frame_into(&mut decoder, &mut acked, "fig5", class, &mut excess, frame)
                    .unwrap();
            }
        }
        let acked = image(&acked["fig5"]);
        let run = |tag: &str, mode: BeginMode, seq_gap: bool| {
            let tmp = TempDir::new(tag);
            let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
            let stream = keyed("c", "fig5");
            let (rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
            for (i, frame) in a[..k].iter().enumerate() {
                send_retry(&set, 0, frame_msg(&stream, 1 + i as u64, frame.clone()));
            }
            let mut seq = 0;
            while seq < k as u64 {
                match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                    Reply::Ack { seq: s } => seq = s,
                    other => panic!("{tag}: unexpected {other:?}"),
                }
            }
            if seq_gap {
                send_retry(&set, 0, frame_msg(&stream, seq + 2, a[k + 1].clone()));
                match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                    Reply::Err(msg) => assert!(msg.contains("seq gap"), "{tag}: {msg}"),
                    other => panic!("{tag}: expected the seq-gap error, got {other:?}"),
                }
            }
            let (rx, base) = begin(&set, 0, &stream, mode);
            assert_eq!(base, k as u64, "{tag}");
            let done = upload_tail(&set, 0, &stream, &rx, &b, base, 0);
            let bytes = corpus_b.len() as u64;
            assert_eq!(
                done,
                Reply::Done {
                    records: 20_000,
                    bytes
                },
                "{tag}"
            );
            // The live sketch, once an idle publish covers B.
            let deadline = Instant::now() + Duration::from_secs(10);
            let live = loop {
                let snap = set.snapshots()[0].clone();
                let live = snap.sketches.get("fig5").map(|s| image(s));
                if live.as_ref().is_some_and(|l| *l == acked) {
                    break live.unwrap();
                }
                assert!(Instant::now() < deadline, "{tag}: live sketch never held B");
                std::thread::sleep(Duration::from_millis(2));
            };
            set.crash_and_join();

            let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
            let recovered = set.snapshots()[0].sketches["fig5"].clone();
            assert!(
                image(&recovered) == live,
                "{tag}: recovered {} samples, live held {}",
                recovered.total(),
                LatencySketch::decode(&live).unwrap().0.total(),
            );
            let (_rx, watermark) = begin(&set, 0, &stream, BeginMode::Continue(0));
            assert_eq!(watermark, (k + b.len() + 1) as u64, "{tag}");
            set.drain_and_join();
        };
        // `PUT … RESUME` with no base opens a fresh upload.
        run("abandoned-resume", BeginMode::Fresh, false);
        run("abandoned-continue", BeginMode::Continue(k as u64), false);
        run("abandoned-seq-gap", BeginMode::Fresh, true);
    }

    #[test]
    fn an_upload_after_replaying_a_log_without_begin_records_survives_a_crash() {
        // A log written before `Begin` records existed can hold a new
        // upload's frames right behind an abandoned one's. Replay fails
        // that stream at the new upload's header, as it always did. The
        // next upload on the key must still log a `Begin`, or every later
        // replay fails the stream at the same place and skips it too.
        let tmp = TempDir::new("pre-begin");
        let frames = |seed| frames_of(&idle_corpus(20_000, seed, 48), 4096);
        let (a, b, c) = (frames(0xa1a), frames(0xb0b), frames(0xc0c));
        let k = a.len() / 2;
        let stream = keyed("c", "fig5");
        let class = Some(EventClass::Keystroke);
        let mut wal = ShardWal::open(&tmp.wal().shard_dir(0), u64::MAX, 1).unwrap();
        for (i, frame) in a[..k].iter().chain(&b).enumerate() {
            let (stream, seq, bytes) = (stream.clone(), i as u64 + 1, frame.clone());
            wal.append(&WalRecord::Frame {
                stream,
                class,
                seq,
                bytes,
            })
            .unwrap();
        }
        let seq = (k + b.len() + 1) as u64;
        let stream_end = stream.clone();
        wal.append(&WalRecord::End {
            stream: stream_end,
            seq,
        })
        .unwrap();
        wal.flush().unwrap();
        drop(wal);

        let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
        // What the replay kept: A's frames, and B's up to the one that
        // failed in A's decoder.
        let held = set.snapshots()[0].sketches["fig5"].clone();
        let (rx, base) = begin(&set, 0, &stream, BeginMode::Fresh);
        assert!(base < seq, "replay completed B at seq {base}");
        let done = upload_tail(&set, 0, &stream, &rx, &c, base, 0);
        assert!(matches!(done, Reply::Done { .. }), "{done:?}");
        set.crash_and_join();

        let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
        let mut expect = HashMap::from([("fig5".to_owned(), held)]);
        let (mut decoder, mut excess) = (StreamDecoder::new(), Vec::new());
        for frame in &c {
            fold_frame_into(&mut decoder, &mut expect, "fig5", class, &mut excess, frame).unwrap();
        }
        let image = |sketch: &LatencySketch| {
            let mut out = Vec::new();
            sketch.encode(&mut out);
            out
        };
        let got = set.snapshots()[0].sketches["fig5"].clone();
        assert!(
            image(&got) == image(&expect["fig5"]),
            "recovered {} samples, want {}",
            got.total(),
            expect["fig5"].total()
        );
        set.drain_and_join();
    }

    #[test]
    fn drain_checkpoint_leaves_nothing_to_replay() {
        let tmp = TempDir::new("drain");
        let corpus = idle_corpus(20_000, 0xd7a1, 64);
        let frames = frames_of(&corpus, 4096);
        let set = ShardSet::start(&config(2), Some(&tmp.wal())).unwrap();
        let stream = keyed("c", "fig5");
        let shard = set.route("c", "fig5");
        let (rx, _) = begin(&set, shard, &stream, BeginMode::Fresh);
        assert!(matches!(
            upload_tail(&set, shard, &stream, &rx, &frames, 0, 0),
            Reply::Done { .. }
        ));
        set.drain_and_join();
        // A clean restart loads the checkpoint and replays zero records.
        let set = ShardSet::start(&config(2), Some(&tmp.wal())).unwrap();
        let rec = set.recovery();
        assert!(rec.checkpoints >= 1);
        assert_eq!(rec.frames, 0, "drain left WAL records: {rec:?}");
        assert_eq!(rec.torn_tails, 0);
        let (_, merged) = set.merged_full();
        let expect = crate::pipeline::fold_corpus(&corpus, 4096, EventClass::Keystroke, false);
        assert_eq!(merged["fig5"].total(), expect.sketch.total());
        // And the resume watermark survived the restart.
        let (_rx, watermark) = begin(&set, shard, &stream, BeginMode::Continue(0));
        assert_eq!(watermark, frames.len() as u64 + 1);
        set.drain_and_join();
    }

    #[test]
    fn scalar_mode_checkpoints_resume_on_the_batch_path() {
        // Checkpoints keep the byte that once flagged a decoder's scalar
        // mode, and logs written by a server that still had that mode may
        // carry it set. Recovery must ignore it, resume such a stream on
        // the one decode path and fold every remaining sample.
        let tmp = TempDir::new("scalar-ckpt");
        let corpus = idle_corpus(20_000, 0x5ca1, 64);
        let frames = frames_of(&corpus, 4096);
        let half = frames.len() / 2;
        let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
        let stream = keyed("c", "old");
        let (_rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
        for (i, frame) in frames[..half].iter().enumerate() {
            send_retry(&set, 0, frame_msg(&stream, 1 + i as u64, frame.clone()));
        }
        set.drain_and_join();

        let dir = tmp.wal().shard_dir(0);
        let ckpt = crate::wal::load_checkpoint(&dir)
            .unwrap()
            .expect("drain checkpoint");
        let in_flight: Vec<bool> = ckpt.streams.iter().map(|s| s.decoder.is_some()).collect();
        assert_eq!(
            in_flight,
            [true],
            "the half-sent upload is checkpointed mid-stream"
        );
        // Its decoder image ends the checkpoint body, and the flag byte
        // ends the image: set it and reseal the trailing CRC.
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
            .max()
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let body = bytes.len() - 4;
        assert_eq!(bytes[body - 1], 0);
        bytes[body - 1] = 1;
        let crc = latlab_trace::crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let flagged = crate::wal::load_checkpoint(&dir).unwrap();
        assert_eq!(
            flagged.expect("flagged checkpoint loads").streams,
            ckpt.streams
        );

        let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
        let (rx, watermark) = begin(&set, 0, &stream, BeginMode::Continue(0));
        assert_eq!(watermark, half as u64);
        match upload_tail(&set, 0, &stream, &rx, &frames, 0, half) {
            Reply::Done { records, .. } => assert_eq!(records, 20_000),
            other => panic!("expected Done, got {other:?}"),
        }
        set.drain_and_join();
        let whole = crate::pipeline::fold_corpus(&corpus, 4096, EventClass::Keystroke, true);
        let (_, merged) = set.merged_full();
        assert_eq!(merged["old"].total(), whole.sketch.total());
        assert_eq!(
            merged["old"].class(EventClass::Keystroke).stats().mean(),
            whole.sketch.class(EventClass::Keystroke).stats().mean()
        );
    }

    #[test]
    fn publish_shares_clean_scenarios_and_detaches_dirty_ones() {
        let set = ShardSet::start(
            &ShardConfig {
                shards: 1,
                queue_depth: 64,
                publish_every: 1, // every folded frame publishes
            },
            None,
        )
        .unwrap();
        let corpus = idle_corpus(5_000, 0xab, 16);
        let one_upload = |scenario: &str, client: &str| {
            let stream = keyed(client, scenario);
            let (rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
            let frames = frames_of(&corpus, corpus.len());
            assert!(matches!(
                upload_tail(&set, 0, &stream, &rx, &frames, 0, 0),
                Reply::Done { .. }
            ));
        };
        one_upload("dirty", "c1");
        one_upload("clean", "c2");
        let before = wait_for_epoch(&set, 0, 2);
        one_upload("dirty", "c3");
        let after = wait_for_epoch(&set, 0, 3);
        // The untouched scenario's sketch body is shared between epochs —
        // a publish is pointer clones, not a deep map copy…
        assert!(
            Arc::ptr_eq(&before.sketches["clean"], &after.sketches["clean"]),
            "clean scenario should share its sketch across epochs"
        );
        // …while the folded-into scenario detached, leaving the older
        // snapshot's view immutable.
        assert!(
            !Arc::ptr_eq(&before.sketches["dirty"], &after.sketches["dirty"]),
            "dirty scenario must copy-on-write, not mutate the snapshot"
        );
        assert_eq!(
            after.sketches["dirty"].total(),
            2 * before.sketches["dirty"].total()
        );
        set.drain_and_join();
    }

    #[test]
    fn workers_recycle_frame_buffers() {
        let set = ShardSet::start(&config(1), None).unwrap();
        let corpus = idle_corpus(1_000, 0x77, 0);
        let stream = keyed("c", "s");
        let (rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
        let mut buf = set.frame_pool().get();
        buf.extend_from_slice(&corpus);
        send_retry(&set, 0, frame_msg(&stream, 1, buf));
        send_retry(
            &set,
            0,
            Msg::End {
                stream: stream.clone(),
                seq: 2,
            },
        );
        loop {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Reply::Ack { .. } => continue,
                Reply::Done { .. } => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(
            set.frame_pool().idle(),
            1,
            "folded frame's buffer should return to the pool"
        );
        set.drain_and_join();
    }

    #[test]
    fn published_counts_are_monotonic() {
        let set = ShardSet::start(
            &ShardConfig {
                shards: 1,
                queue_depth: 1024,
                publish_every: 100,
            },
            None,
        )
        .unwrap();
        let corpus = idle_corpus(2_000, 0x99, 8);
        let frames = frames_of(&corpus, 2048);
        let mut last_count = 0u64;
        let mut last_epoch = 0u64;
        for round in 0..10 {
            let stream = keyed(&format!("c{round}"), "mono");
            let (rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
            assert!(matches!(
                upload_tail(&set, 0, &stream, &rx, &frames, 0, 0),
                Reply::Done { .. }
            ));
            let (epoch, merged) = set.merged_full();
            let count = merged.get("mono").map_or(0, |s| s.total());
            assert!(count >= last_count, "round {round}: count went backwards");
            assert!(epoch >= last_epoch, "round {round}: epoch went backwards");
            last_count = count;
            last_epoch = epoch;
        }
        set.drain_and_join();
    }

    /// Heap allocations made by the current thread, counted by the
    /// test binary's global allocator.
    mod alloc_count {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static ALLOCS: Cell<u64> = const { Cell::new(0) };
        }

        struct Counting;

        // SAFETY: every call forwards to `System` with the caller's own
        // arguments; the counter is a const-initialized thread-local
        // `Cell`, which never allocates.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
                // SAFETY: forwarded unchanged; the caller upholds
                // `GlobalAlloc::alloc`'s contract.
                unsafe { System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                // SAFETY: `ptr` came from `System` via `alloc` or
                // `realloc` above, with this `layout`.
                unsafe { System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
                // SAFETY: as for `dealloc`; the caller upholds
                // `GlobalAlloc::realloc`'s contract for `new_size`.
                unsafe { System.realloc(ptr, layout, new_size) }
            }
        }

        #[global_allocator]
        static COUNTING: Counting = Counting;

        /// Allocations (and reallocations) this thread has made so far.
        pub(crate) fn on_this_thread() -> u64 {
            ALLOCS.with(Cell::get)
        }
    }

    #[test]
    fn steady_state_ingest_frames_allocate_nothing() {
        let corpus = idle_corpus(400_000, 0xa110c, 64);
        let frames = frames_of(&corpus, 64 * 1024);
        assert!(frames.len() > 8, "corpus too small to reach steady state");
        let tmp = TempDir::new("alloc");
        let pool: BufferPool<u8> = BufferPool::new();
        let samples_pool: BufferPool<f64> = BufferPool::new();
        let mut stage = wal_stage(&tmp.0, u64::MAX, pool.clone(), samples_pool.clone());
        // The log stage's own message handler on its own thread, with
        // each message's allocations counted there.
        let (counted, counts) = std::sync::mpsc::channel();
        let mut log = log_on_thread(move |log_rx, synced, _| {
            let mut counts = Vec::with_capacity(256);
            while let Ok(msg) = log_rx.recv() {
                let before = alloc_count::on_this_thread();
                if let Some(answer) = stage.handle(msg) {
                    let _ = synced.send(answer);
                }
                counts.push(alloc_count::on_this_thread() - before);
            }
            // Nothing publishes, so this counts every folded sample.
            let _ = counted.send((counts, stage.since_publish));
        });
        // One stream id per upload, shared by every frame's message.
        let stream = Arc::new(keyed("c", "fig5"));
        let class = Some(EventClass::Keystroke);
        // The upload as the socket carries it, and the shard queue's
        // channel: bounded, as `ShardSet` makes it.
        let mut wire = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            write_seq_frame(&mut wire, i as u64 + 1, frame).unwrap();
        }
        let mut wire = io::Cursor::new(wire);
        let (queue_tx, queue_rx) = sync_channel::<Msg>(1);
        let (mut decoder, mut excess) = (StreamDecoder::new(), Vec::new());
        // Warm-up: the header, the scenario's first insert, and the
        // carry, excess and record scratch buffers growing to their
        // working size.
        let warm = 4;
        for i in 0..frames.len() {
            let before = alloc_count::on_this_thread();
            // The connection thread's part: a pooled buffer (the barrier
            // below returned the last one), the frame read into it, and
            // its message onto the shard queue.
            let mut bytes = pool.get();
            let (seq, crc) = read_seq_frame(&mut wire, &mut bytes).unwrap();
            let crc = crc.expect("a payload frame");
            queue_tx
                .try_send(Msg::Frame {
                    stream: Arc::clone(&stream),
                    seq,
                    bytes,
                    crc,
                })
                .unwrap();
            // The worker's part: decode the frame into a pooled sample
            // buffer (the barrier below returned the last one), then hand
            // both to the log stage.
            let Ok(Msg::Frame {
                stream,
                seq,
                bytes,
                crc,
            }) = queue_rx.try_recv()
            else {
                panic!("the queue lost frame {i}");
            };
            let mut samples = samples_pool.get();
            decode_samples(&mut decoder, &bytes, &mut excess, &mut samples).unwrap();
            log.append(LogMsg::Frame {
                stream,
                class,
                seq,
                bytes,
                crc,
                samples,
            });
            let allocs = alloc_count::on_this_thread() - before;
            if i >= warm {
                assert_eq!(
                    allocs, 0,
                    "connection and worker: steady frame {i} allocated {allocs} times"
                );
            }
            // Not counted: the first time a thread parks on a channel it
            // allocates its waker once, and when that first park comes
            // depends on scheduling.
            log.barrier().unwrap();
        }
        log.close(false);
        let (counts, folded) = counts.recv().unwrap();
        assert!(folded > 0, "the steady frames folded no samples");
        // Two messages per frame: the append and fold, then the
        // barrier's flush.
        assert_eq!(counts.len(), 2 * frames.len());
        for (n, allocs) in counts.iter().enumerate().skip(2 * warm) {
            assert_eq!(
                *allocs,
                0,
                "log stage: steady frame {} allocated {allocs} times",
                n / 2
            );
        }
    }

    #[test]
    fn a_checkpoint_queued_behind_unfolded_frames_covers_exactly_them() {
        // The worker queues a checkpoint (its stream states at LSN k)
        // behind frames its log stage has not folded yet: here the stage
        // only starts once frames 1..=k and the checkpoint are queued.
        // The stage folds those frames first, so the checkpoint holds
        // exactly them; recovery after a crash then rebuilds exactly the
        // acknowledged prefix from it and the log tail.
        let tmp = TempDir::new("ckpt-queued");
        let corpus = idle_corpus(20_000, 0xc4e0, 48);
        let frames = frames_of(&corpus, 4096);
        let (k, acked) = (3, frames.len() - 2);
        let stream = keyed("c", "fig5");
        let class = Some(EventClass::Keystroke);
        let dir = tmp.wal().shard_dir(0);
        let samples_pool: BufferPool<f64> = BufferPool::new();
        let stage = wal_stage(&dir, 4 << 20, BufferPool::new(), samples_pool.clone());
        let (start, started) = std::sync::mpsc::channel::<()>();
        let mut log = log_on_thread(move |rx, synced, crashed| {
            let _ = started.recv();
            stage.run(rx, synced, crashed);
        });
        let mut decoder = StreamDecoder::new();
        let mut excess = Vec::new();
        let mut hand = |log: &mut Log, decoder: &mut StreamDecoder, i: usize| {
            let bytes = frames[i].clone();
            let mut samples = samples_pool.get();
            decode_samples(decoder, &bytes, &mut excess, &mut samples).unwrap();
            log.append(LogMsg::Frame {
                stream: Arc::new(stream.clone()),
                class,
                seq: i as u64 + 1,
                crc: latlab_trace::crc32(&bytes),
                bytes,
                samples,
            });
        };
        for i in 0..k {
            hand(&mut log, &mut decoder, i);
        }
        let state = decoder.export_state().expect("a frame boundary");
        let streams = vec![StreamCkpt {
            id: stream.clone(),
            class,
            last_seq: k as u64,
            done_records: 0,
            done_bytes: 0,
            prev_stamp: state.any_read.then_some(state.prev_at),
            decoder: Some(state),
        }];
        let last_lsn = log.next_lsn - 1;
        log.send(LogMsg::Checkpoint(CheckpointJob { last_lsn, streams }));
        start.send(()).unwrap();
        for i in k..acked {
            hand(&mut log, &mut decoder, i);
        }
        log.barrier().unwrap();
        log.close(true);

        let image = |sketch: &LatencySketch| {
            let mut out = Vec::new();
            sketch.encode(&mut out);
            out
        };
        let reference = |frames: &[Vec<u8>]| {
            let (mut decoder, mut excess) = (StreamDecoder::new(), Vec::new());
            let mut sketches = HashMap::new();
            for frame in frames {
                fold_frame_into(
                    &mut decoder,
                    &mut sketches,
                    "fig5",
                    class,
                    &mut excess,
                    frame,
                )
                .unwrap();
            }
            image(&sketches["fig5"])
        };
        let ckpt = crate::wal::load_checkpoint(&dir)
            .unwrap()
            .expect("the queued checkpoint");
        assert_eq!(ckpt.last_lsn, k as u64);
        assert_eq!(ckpt.sketches.len(), 1);
        assert!(
            image(&ckpt.sketches[0].1) == reference(&frames[..k]),
            "the checkpoint does not hold exactly frames 1..={k}"
        );

        let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
        assert_eq!(set.recovery().checkpoints, 1);
        assert_eq!(set.recovery().frames, (acked - k) as u64);
        let recovered = set.snapshots()[0].sketches["fig5"].clone();
        assert!(
            image(&recovered) == reference(&frames[..acked]),
            "recovery does not hold exactly the acknowledged prefix"
        );
        let (_rx, watermark) = begin(&set, 0, &stream, BeginMode::Continue(0));
        assert_eq!(watermark, acked as u64);
        set.drain_and_join();
    }

    #[test]
    fn health_wal_bytes_count_every_record_whole() {
        // `wal_bytes` is the framed byte count: each record's 8-byte
        // length+CRC header plus its whole body, stream id included, so
        // a longer scenario name logs more bytes per record.
        let tmp = TempDir::new("wal-bytes");
        let corpus = idle_corpus(5_000, 0xb17e, 32);
        let frames = frames_of(&corpus, 4096);
        let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
        let long = "a-long-scenario-name-".repeat(12);
        let (mut records, mut bytes) = (0u64, 0u64);
        let mut body = Vec::new();
        for scenario in ["s", long.as_str()] {
            let stream = keyed("c", scenario);
            let (rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
            assert!(matches!(
                upload_tail(&set, 0, &stream, &rx, &frames, 0, 0),
                Reply::Done { .. }
            ));
            for (i, frame) in frames.iter().enumerate() {
                body.clear();
                let class = Some(EventClass::Keystroke);
                encode_frame_record(&stream, class, i as u64 + 1, frame, &mut body);
                records += 1;
                bytes += 8 + body.len() as u64;
            }
            body.clear();
            let seq = frames.len() as u64 + 1;
            WalRecord::End { stream, seq }.encode(&mut body);
            records += 1;
            bytes += 8 + body.len() as u64;
        }
        set.drain_and_join();
        let totals = set.totals();
        assert_eq!(totals.wal_records.load(Ordering::Relaxed), records);
        assert_eq!(totals.wal_bytes.load(Ordering::Relaxed), bytes);
    }

    #[test]
    fn a_crash_with_frames_queued_to_the_writer_keeps_every_ack() {
        // Acks never outrun the log stage. Frames are sent and the shard
        // is crashed right behind them, so some are still queued to the
        // worker or to its log stage; a crash drops those. Recovery must
        // hold every acknowledged frame, and hold exactly the fold of
        // the prefix it reports as its watermark.
        let corpus = idle_corpus(40_000, 0x9a7e, 48);
        let frames = frames_of(&corpus, 4096);
        for (round, cut) in [frames.len() / 4, frames.len() / 2, frames.len() - 2]
            .into_iter()
            .enumerate()
        {
            let tmp = TempDir::new(&format!("crash-queued-{round}"));
            let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
            let stream = keyed("c", "fig5");
            let (rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
            let send = |range: std::ops::Range<usize>| {
                for i in range {
                    send_retry(&set, 0, frame_msg(&stream, 1 + i as u64, frames[i].clone()));
                }
            };
            send(0..cut);
            let mut acked = 0u64;
            while acked < cut as u64 {
                match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                    Reply::Ack { seq } => acked = seq,
                    other => panic!("unexpected {other:?}"),
                }
            }
            send(cut..frames.len());
            set.crash_and_join();
            for reply in rx.try_iter() {
                match reply {
                    Reply::Ack { seq } => acked = acked.max(seq),
                    other => panic!("unexpected {other:?}"),
                }
            }

            let set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
            let (rx, watermark) = begin(&set, 0, &stream, BeginMode::Continue(0));
            assert!(
                watermark >= acked,
                "round {round}: recovered to seq {watermark}, but seq {acked} was acked"
            );
            let mut expect_decoder = StreamDecoder::new();
            let mut expect: HashMap<String, Arc<LatencySketch>> = HashMap::new();
            let mut excess = Vec::new();
            for frame in &frames[..watermark as usize] {
                fold_frame_into(
                    &mut expect_decoder,
                    &mut expect,
                    "fig5",
                    Some(EventClass::Keystroke),
                    &mut excess,
                    frame,
                )
                .unwrap();
            }
            let (_, merged) = set.merged_full();
            let (got, expect) = (&merged["fig5"], &expect["fig5"]);
            assert_eq!(got.total(), expect.total(), "round {round}");
            let (gc, ec) = (
                got.class(EventClass::Keystroke),
                expect.class(EventClass::Keystroke),
            );
            assert_eq!(gc.stats().mean(), ec.stats().mean(), "round {round}");
            assert_eq!(gc.stats().max(), ec.stats().max(), "round {round}");

            // Resuming from the watermark folds the rest exactly once.
            match upload_tail(&set, 0, &stream, &rx, &frames, 0, watermark as usize) {
                Reply::Done { records, .. } => assert_eq!(records, 40_000),
                other => panic!("round {round}: expected Done, got {other:?}"),
            }
            set.drain_and_join();
            let whole = crate::pipeline::fold_corpus(&corpus, 4096, EventClass::Keystroke, false);
            let (_, merged) = set.merged_full();
            assert_eq!(
                merged["fig5"].total(),
                whole.sketch.total(),
                "round {round}"
            );
        }
    }

    #[test]
    fn fifty_drain_restart_cycles_replay_nothing() {
        // A drain joins the log stage after its checkpoint, so nothing
        // it buffered (the fresh segment's header included) can race the
        // restart that follows.
        let tmp = TempDir::new("drain-50");
        let corpus = idle_corpus(2_000, 0xd50, 64);
        let frames = frames_of(&corpus, 1024);
        let per_upload = crate::pipeline::fold_corpus(&corpus, 1024, EventClass::Keystroke, false)
            .sketch
            .total();
        let mut set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
        for round in 0..50u64 {
            let stream = keyed(&format!("c{round}"), "fig5");
            let (rx, _) = begin(&set, 0, &stream, BeginMode::Fresh);
            assert!(matches!(
                upload_tail(&set, 0, &stream, &rx, &frames, 0, 0),
                Reply::Done { .. }
            ));
            set.drain_and_join();
            set = ShardSet::start(&config(1), Some(&tmp.wal())).unwrap();
            let rec = set.recovery();
            assert_eq!(rec.checkpoints, 1, "round {round}: {rec:?}");
            assert_eq!(rec.frames, 0, "round {round}: drain left records: {rec:?}");
            assert_eq!(rec.torn_tails, 0, "round {round}: {rec:?}");
            let (_, merged) = set.merged_full();
            assert_eq!(merged["fig5"].total(), per_upload * (round + 1));
        }
        set.drain_and_join();
    }

    #[test]
    fn a_frame_that_fails_to_decode_folds_none_of_its_samples() {
        use latlab_trace::{crc32, StreamKind, TraceMeta, TraceWriter};

        let meta = TraceMeta {
            kind: StreamKind::IdleStamps,
            freq: latlab_des::CpuFreq::PENTIUM_100,
            baseline: latlab_des::SimDuration::from_cycles(250),
            seed: 7,
            personality: "bad-frame".to_owned(),
        };
        let header = TraceWriter::create(Vec::new(), meta)
            .unwrap()
            .finish()
            .unwrap();
        // One chunk under a valid CRC: two over-baseline gaps decode
        // before a zero delta fails the chunk.
        let chunk = |deltas: &[u64]| {
            let mut payload = Vec::new();
            for &d in deltas {
                let mut v = d;
                while v >= 0x80 {
                    payload.push((v as u8) | 0x80);
                    v >>= 7;
                }
                payload.push(v as u8);
            }
            let mut bytes = (deltas.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes
        };
        let mut good = header.clone();
        good.extend(chunk(&[1_000, 250, 900]));
        let bad = chunk(&[250, 5_000, 700, 0, 250]);

        let mut decoder = StreamDecoder::new();
        let mut sketches: HashMap<String, Arc<LatencySketch>> = HashMap::new();
        let mut excess = Vec::new();
        let class = Some(EventClass::Keystroke);
        let folded =
            fold_frame_into(&mut decoder, &mut sketches, "s", class, &mut excess, &good).unwrap();
        assert_eq!(folded, 1);
        let err = fold_frame_into(&mut decoder, &mut sketches, "s", class, &mut excess, &bad)
            .unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        assert_eq!(
            excess.len(),
            2,
            "the kernel decoded two gaps before failing"
        );
        assert_eq!(sketches["s"].total(), 1, "the failed frame folded samples");

        // A failing first frame creates no scenario at all.
        let mut fresh = StreamDecoder::new();
        let mut none: HashMap<String, Arc<LatencySketch>> = HashMap::new();
        let mut first = header;
        first.extend(chunk(&[1_000, 900, 0]));
        assert!(fold_frame_into(&mut fresh, &mut none, "s", class, &mut excess, &first).is_err());
        assert!(none.is_empty());
    }
}

/// The seeded crash and reset schedule explorer.
///
/// Each seed builds one schedule: keyed uploads with resets (a re-`Begin`
/// that continues the upload, then a re-sent tail of duplicates), a key
/// whose first upload is abandoned (silently or after a seq-gap error)
/// under a fresh one, and one-shot uploads that end or die with their
/// connection, all interleaved and cut into rounds. A worker with an
/// inline WAL runs it through [`Worker::round`] on the test thread,
/// checkpointing when the log stage reports one due, then drains. A
/// second worker without a WAL runs the same messages one per round and
/// records what it held after each log record.
///
/// Every crash state of the run is then recovered through
/// [`Worker::recover`]: the log's bytes cut at every record boundary
/// and at a seeded offset inside every record and segment header, with
/// the newest checkpoint written before the cut, with and without the
/// segments it prunes (and, at its own LSN, without it). Each state must
/// hold (a) the sketches and watermarks the worker held after exactly
/// the complete records, (b) every acknowledged frame, and (c) let
/// every keyed upload resume to `DONE` with the exact corpus fold.
#[cfg(test)]
mod explore {
    use super::testkit::{keyed, TempDir};
    use super::*;
    use crate::pipeline::fold_corpus;
    use crate::slam::idle_corpus;
    use latlab_des::SimRng;
    use std::collections::HashSet;
    use std::path::Path;
    use std::sync::mpsc::channel;

    const CLASS: Option<EventClass> = Some(EventClass::Keystroke);
    const SEGMENT_HEADER: usize = 13;

    /// One message of a schedule, before it gets a reply channel.
    enum Step {
        Begin(StreamId, BeginMode),
        Frame(Arc<StreamId>, u64, Vec<u8>),
        End(StreamId, u64),
        Cancel(StreamId),
        Drain,
    }

    impl Step {
        /// The message, and the reply end of a `Begin`'s connection.
        fn msg(&self) -> (Msg, Option<(StreamId, Receiver<Reply>)>) {
            match self {
                Step::Begin(stream, mode) => {
                    let (reply, rx) = channel();
                    let msg = Msg::Begin {
                        stream: stream.clone(),
                        class: CLASS,
                        mode: *mode,
                        reply,
                    };
                    (msg, Some((stream.clone(), rx)))
                }
                Step::Frame(stream, seq, bytes) => {
                    let msg = Msg::Frame {
                        stream: stream.clone(),
                        seq: *seq,
                        crc: crc32(bytes),
                        bytes: bytes.clone(),
                    };
                    (msg, None)
                }
                Step::End(stream, seq) => {
                    let (stream, seq) = (stream.clone(), *seq);
                    (Msg::End { stream, seq }, None)
                }
                Step::Cancel(stream) => (
                    Msg::Cancel {
                        stream: stream.clone(),
                    },
                    None,
                ),
                Step::Drain => (Msg::Drain, None),
            }
        }
    }

    /// A keyed upload that recovery must let finish: its frames and,
    /// when it replaced an abandoned upload on its key, that upload's
    /// frames and how many of them it committed.
    struct Upload {
        stream: StreamId,
        frames: Vec<Vec<u8>>,
        abandoned: Option<(Vec<Vec<u8>>, u64)>,
    }

    struct Schedule {
        seed: u64,
        steps: Vec<Step>,
        /// Round sizes, in steps.
        rounds: Vec<usize>,
        uploads: Vec<Upload>,
        segment_bytes: u64,
        checkpoint_bytes: u64,
    }

    fn frames(rng: &mut SimRng) -> Vec<Vec<u8>> {
        let records = rng.gen_range_inclusive(200, 500);
        let corpus = idle_corpus(records, rng.next_u64(), rng.gen_range_inclusive(8, 24));
        let frame_len = rng.gen_range_inclusive(32, 160) as usize;
        corpus.chunks(frame_len).map(<[u8]>::to_vec).collect()
    }

    /// The steps of one upload after its `Begin`: `frames` numbered from
    /// `base + 1`, then the end frame. Now and then the connection
    /// resets: a re-`Begin` continuing from `base` and a re-sent tail of
    /// up to three frames, or after the end frame, the end frame again.
    /// Now and then a frame or the end frame skips a seq; the server
    /// answers with an error, and the client resets and carries on.
    fn upload_steps(
        rng: &mut SimRng,
        stream: &StreamId,
        frames: &[Vec<u8>],
        base: u64,
        steps: &mut Vec<Step>,
    ) {
        let shared = Arc::new(stream.clone());
        let reset = |rng: &mut SimRng, steps: &mut Vec<Step>, next: usize| {
            steps.push(Step::Begin(stream.clone(), BeginMode::Continue(base)));
            next - rng.gen_range_inclusive(0, next.min(3) as u64) as usize
        };
        // `sent`: frames sent at least once, so frames below it re-send.
        let (mut next, mut sent, mut ended) = (0, 0, false);
        loop {
            if next > 0 && rng.gen_bool(0.08) {
                next = reset(rng, steps, next);
            }
            let seq = base + 1 + next as u64;
            if next == sent && !ended && rng.gen_bool(0.04) {
                steps.push(match frames.get(next) {
                    Some(frame) => Step::Frame(shared.clone(), seq + 1, frame.clone()),
                    None => Step::End(stream.clone(), seq + 1),
                });
                next = reset(rng, steps, next);
                continue;
            }
            if next < frames.len() {
                steps.push(Step::Frame(shared.clone(), seq, frames[next].clone()));
                next += 1;
                sent = sent.max(next);
                continue;
            }
            steps.push(Step::End(stream.clone(), seq));
            ended = true;
            if !rng.gen_bool(0.3) {
                return;
            }
            next = reset(rng, steps, next);
        }
    }

    fn schedule(seed: u64) -> Schedule {
        let mut rng = SimRng::new(seed);
        let mut scripts: Vec<Vec<Step>> = Vec::new();
        let mut uploads = Vec::new();
        // Keyed uploads, some cut off before their verdict.
        for i in 0..2 {
            let stream = keyed(&format!("k{i}"), &format!("keyed{i}"));
            let frames = frames(&mut rng);
            let mut steps = vec![Step::Begin(stream.clone(), BeginMode::Fresh)];
            upload_steps(&mut rng, &stream, &frames, 0, &mut steps);
            if rng.gen_bool(0.3) {
                steps.truncate(rng.gen_range_inclusive(1, steps.len() as u64 - 1) as usize);
            }
            scripts.push(steps);
            uploads.push(Upload {
                stream,
                frames,
                abandoned: None,
            });
        }
        // An upload abandoned after `k` frames, with or without a seq-gap
        // error, and a fresh upload on its key.
        let stream = keyed("a", "abandoned");
        let (a, b) = (frames(&mut rng), frames(&mut rng));
        let k = rng.gen_range_inclusive(1, a.len() as u64 - 2);
        let shared = Arc::new(stream.clone());
        let mut steps = vec![Step::Begin(stream.clone(), BeginMode::Fresh)];
        for (i, frame) in a[..k as usize].iter().enumerate() {
            steps.push(Step::Frame(shared.clone(), i as u64 + 1, frame.clone()));
        }
        if rng.gen_bool(0.5) {
            steps.push(Step::Frame(shared, k + 2, a[k as usize + 1].clone()));
        }
        steps.push(Step::Begin(stream.clone(), BeginMode::Fresh));
        upload_steps(&mut rng, &stream, &b, k, &mut steps);
        scripts.push(steps);
        uploads.push(Upload {
            stream,
            frames: b,
            abandoned: Some((a, k)),
        });
        // One-shot uploads: one ends, one dies with its connection.
        for i in 0..2u64 {
            let stream = StreamId::Conn {
                conn: 100 + i,
                scenario: format!("oneshot{i}"),
            };
            let shared = Arc::new(stream.clone());
            let frames = frames(&mut rng);
            let sent = match i {
                0 => frames.len(),
                _ => rng.gen_range_inclusive(1, frames.len() as u64 - 1) as usize,
            };
            let mut steps = vec![Step::Begin(stream.clone(), BeginMode::Fresh)];
            for (seq, frame) in (1..).zip(&frames[..sent]) {
                steps.push(Step::Frame(shared.clone(), seq, frame.clone()));
            }
            steps.push(match i {
                0 => Step::End(stream, frames.len() as u64 + 1),
                _ => Step::Cancel(stream),
            });
            scripts.push(steps);
        }
        // Interleave the scripts, each in its own order, then drain.
        let mut scripts: Vec<_> = scripts.into_iter().map(Vec::into_iter).collect();
        let mut steps = Vec::new();
        while !scripts.is_empty() {
            let i = rng.gen_range(scripts.len() as u64) as usize;
            match scripts[i].next() {
                Some(step) => steps.push(step),
                None => drop(scripts.swap_remove(i)),
            }
        }
        steps.push(Step::Drain);
        let mut rounds = Vec::new();
        let mut left = steps.len();
        while left > 0 {
            let n = (rng.gen_range_inclusive(1, 6) as usize).min(left);
            rounds.push(n);
            left -= n;
        }
        Schedule {
            seed,
            steps,
            rounds,
            uploads,
            segment_bytes: rng.gen_range_inclusive(1 << 10, 16 << 10),
            checkpoint_bytes: rng.gen_range_inclusive(2 << 10, 24 << 10),
        }
    }

    /// A worker with no WAL, no streams and no sketches.
    fn worker() -> Worker {
        let slot = Arc::new(SnapshotSlot::new());
        let stage = LogStage::new(slot, u64::MAX, BufferPool::new(), BufferPool::new());
        Worker::new(stage, Arc::default())
    }

    fn image(sketch: &LatencySketch) -> Vec<u8> {
        let mut out = Vec::new();
        sketch.encode(&mut out);
        out
    }

    /// What a worker holds that recovery must rebuild: every sketch's
    /// `encode` image and every keyed stream's committed watermark.
    #[derive(Debug, PartialEq)]
    struct Held {
        sketches: Vec<(String, Vec<u8>)>,
        watermarks: Vec<(String, u64)>,
    }

    impl Held {
        fn of(worker: &mut Worker) -> Held {
            let mut watermarks: Vec<_> = worker
                .streams
                .iter()
                .filter(|(id, s)| matches!(id, StreamId::Keyed { .. }) && s.last_seq > 0)
                .map(|(id, s)| (id.scenario().to_owned(), s.last_seq))
                .collect();
            watermarks.sort();
            let stage = worker.log.inline_stage();
            let mut sketches: Vec<_> = stage
                .sketches
                .iter()
                .map(|(k, v)| (k.clone(), image(v)))
                .collect();
            sketches.sort();
            Held {
                sketches,
                watermarks,
            }
        }

        fn watermark(&self, scenario: &str) -> u64 {
            self.watermarks
                .iter()
                .find(|(s, _)| s == scenario)
                .map_or(0, |&(_, seq)| seq)
        }
    }

    /// What the live run left: every segment as written in full (pruned
    /// ones included), every checkpoint, and every acknowledgement with
    /// the number of log records behind it.
    struct Live {
        segments: Vec<(u64, Vec<u8>)>,
        checkpoints: Vec<(u64, Vec<u8>)>,
        acks: Vec<(u64, String, u64)>,
        records: u64,
    }

    /// `(number, path)` of the files in `dir` named `<prefix><number>.<ext>`.
    fn numbered(dir: &Path, prefix: &str, ext: &str) -> Vec<(u64, PathBuf)> {
        let mut out: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter_map(|p| {
                let name = p.file_name()?.to_str()?;
                let n = name.strip_prefix(prefix)?.strip_suffix(ext)?.parse().ok()?;
                Some((n, p))
            })
            .collect();
        out.sort();
        out
    }

    fn run_live(s: &Schedule, tmp: &Path, plans: &mut Plans) -> Live {
        let cfg = WalConfig {
            dir: tmp.join("live"),
            segment_bytes: s.segment_bytes,
            checkpoint_bytes: s.checkpoint_bytes,
        };
        let (dir, kept) = (cfg.shard_dir(0), tmp.join("kept"));
        std::fs::create_dir_all(&kept).unwrap();
        let mut w = worker();
        w.recover(&cfg, 0).unwrap();
        // Hard links keep every segment's bytes past the prune that
        // deletes it. Linking before each message catches a segment that
        // a rotation opens and the same round's checkpoint prunes.
        let mut linked = HashSet::new();
        let mut link = || {
            for (first, path) in numbered(&dir, "seg-", ".wal") {
                if linked.insert(first) {
                    std::fs::hard_link(&path, kept.join(path.file_name().unwrap())).unwrap();
                }
            }
        };
        let (mut conns, mut acks, mut checkpoints) = (Vec::new(), Vec::new(), Vec::new());
        let mut steps = s.steps.iter();
        for &n in &s.rounds {
            let mut batch = steps.by_ref().take(n);
            let msgs = std::iter::from_fn(|| {
                link();
                let (msg, conn) = batch.next()?.msg();
                conns.extend(conn);
                Some(msg)
            });
            w.round(msgs);
            let records = w.log.next_lsn - 1;
            for (stream, rx) in &conns {
                for reply in rx.try_iter() {
                    if let Reply::Ack { seq } = reply {
                        acks.push((records, stream.scenario().to_owned(), seq));
                    }
                }
            }
            for (last_lsn, path) in numbered(&dir, "ckpt-", ".ckpt") {
                if checkpoints.last().is_none_or(|&(l, _)| l < last_lsn) {
                    checkpoints.push((last_lsn, std::fs::read(path).unwrap()));
                }
            }
        }
        let records = w.log.next_lsn - 1;
        // The uncrashed worker, too, lets every keyed upload finish; its
        // log is closed first, and the WAL's last bytes flushed.
        w.log.inline_stage().wal = None;
        let held = Held::of(&mut w);
        let seed = s.seed;
        if let Err(e) = resume_all(&mut w, &held, &s.uploads, plans) {
            panic!("seed {seed}: without a crash: {e}");
        }
        let segments: Vec<_> = numbered(&kept, "seg-", ".wal")
            .into_iter()
            .map(|(first, path)| (first, std::fs::read(path).unwrap()))
            .collect();
        // The kept segments hold every record exactly once, in order.
        let mut next = 1;
        for (first, bytes) in &segments {
            assert_eq!(*first, next, "seed {seed}: segments do not tile the log");
            next += record_ends(bytes).len() as u64;
        }
        assert_eq!(
            next,
            records + 1,
            "seed {seed}: the kept segments lost records"
        );
        Live {
            segments,
            checkpoints,
            acks,
            records,
        }
    }

    /// What the worker held after each log record (index 0: before any),
    /// from the schedule's messages run one per round without a WAL.
    fn run_oracle(s: &Schedule) -> Vec<Held> {
        let mut w = worker();
        let mut held = vec![Held::of(&mut w)];
        for step in &s.steps {
            let before = w.log.next_lsn;
            w.round([step.msg().0]);
            let seed = s.seed;
            assert!(
                w.log.next_lsn - before <= 1,
                "seed {seed}: one message, one record"
            );
            if w.log.next_lsn > before {
                held.push(Held::of(&mut w));
            }
        }
        held
    }

    /// Offsets just past each complete record of a segment image.
    fn record_ends(seg: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut at = SEGMENT_HEADER;
        while at + 8 <= seg.len() {
            let len = u32::from_le_bytes(seg[at..at + 4].try_into().unwrap()) as usize;
            if at + 8 + len > seg.len() {
                break;
            }
            at += 8 + len;
            ends.push(at);
        }
        ends
    }

    /// FNV-1a, folded over the outcome of every crash state.
    fn mix(digest: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *digest ^= u64::from(b);
            *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// What each keyed upload resumed to `DONE` must hold: the exact
    /// fold of its corpus, or for an upload that replaced an abandoned
    /// one, of the abandoned upload's first `base` frames and then its
    /// own, by `base`.
    struct Plans {
        wholes: Vec<Vec<u8>>,
        abandoned: HashMap<u64, Vec<u8>>,
    }

    impl Plans {
        /// The mode and base the client of upload `i` resumes with, given
        /// the recovered watermark of its key, and the sketch it must end
        /// with. A replacing upload's client that finds none of its frames
        /// committed starts over on whatever prefix of the abandoned upload
        /// survived.
        fn resume(&mut self, i: usize, up: &Upload, watermark: u64) -> (BeginMode, u64, &[u8]) {
            let Some((abandoned, k)) = &up.abandoned else {
                return (BeginMode::Continue(0), 0, &self.wholes[i]);
            };
            let (mode, base) = match watermark > *k {
                true => (BeginMode::Continue(*k), *k),
                false => (BeginMode::Fresh, watermark),
            };
            let expect = self.abandoned.entry(base).or_insert_with(|| {
                let mut sketches = HashMap::new();
                let mut excess = Vec::new();
                for frames in [&abandoned[..base as usize], &up.frames[..]] {
                    let mut decoder = StreamDecoder::new();
                    for frame in frames {
                        let mut samples = Vec::new();
                        decode_samples(&mut decoder, frame, &mut excess, &mut samples).unwrap();
                        fold_into(&mut sketches, "x", CLASS, &samples);
                    }
                }
                image(&sketches["x"])
            });
            (mode, base, expect)
        }
    }

    /// Resumes every keyed upload on a recovered worker and checks that
    /// each ends in `DONE` with the exact fold; returns the verdicts, or
    /// what went wrong.
    fn resume_all(
        w: &mut Worker,
        held: &Held,
        uploads: &[Upload],
        plans: &mut Plans,
    ) -> Result<String, String> {
        let mut verdicts = String::new();
        for (i, up) in uploads.iter().enumerate() {
            let scenario = up.stream.scenario();
            let watermark = held.watermark(scenario);
            let (mode, base, expect) = plans.resume(i, up, watermark);
            let (reply, rx) = channel();
            let stream = up.stream.clone();
            let begin = Msg::Begin {
                stream,
                class: CLASS,
                mode,
                reply,
            };
            // The client skips what the greeting reports committed.
            let shared = Arc::new(up.stream.clone());
            let skip = ((watermark - base) as usize).min(up.frames.len());
            let tail = (skip..up.frames.len()).map(|i| {
                let bytes = up.frames[i].clone();
                let (seq, crc) = (base + 1 + i as u64, crc32(&bytes));
                let stream = shared.clone();
                Msg::Frame {
                    stream,
                    seq,
                    bytes,
                    crc,
                }
            });
            let (stream, seq) = (up.stream.clone(), base + 1 + up.frames.len() as u64);
            w.round(
                std::iter::once(begin)
                    .chain(tail)
                    .chain([Msg::End { stream, seq }]),
            );
            let started = rx.try_recv();
            if started
                != Ok(Reply::Started {
                    last_seq: watermark,
                })
            {
                return Err(format!("{scenario}: resume greeted with {started:?}"));
            }
            let verdict = rx.try_iter().find(|r| !matches!(r, Reply::Ack { .. }));
            let Some(Reply::Done { records, bytes }) = verdict else {
                return Err(format!("{scenario}: resumed upload ended in {verdict:?}"));
            };
            let got = w
                .log
                .inline_stage()
                .sketches
                .get(scenario)
                .map(|s| image(s));
            if got.unwrap_or_else(|| image(&LatencySketch::new())) != expect {
                return Err(format!(
                    "{scenario}: the resumed sketch is not the exact fold"
                ));
            }
            verdicts += &format!("{scenario}:{records}:{bytes};");
        }
        Ok(verdicts)
    }

    /// What exploring one seed covered.
    #[derive(Debug, PartialEq)]
    struct Explored {
        states: u64,
        digest: u64,
    }

    fn explore(seed: u64) -> Explored {
        let s = schedule(seed);
        let tmp = TempDir::new(&format!("explore-{seed}"));
        let mut plans = Plans {
            wholes: s
                .uploads
                .iter()
                .map(|up| {
                    let corpus = up.frames.concat();
                    let frame_len = up.frames[0].len();
                    image(&fold_corpus(&corpus, frame_len, EventClass::Keystroke, false).sketch)
                })
                .collect(),
            abandoned: HashMap::new(),
        };
        let live = run_live(&s, &tmp.0, &mut plans);
        let oracle = run_oracle(&s);
        assert_eq!(oracle.len() as u64, live.records + 1, "seed {seed}");
        let mut rng = SimRng::new(seed ^ 0x5eed_c0de);
        let mut explored = Explored {
            states: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        };
        let crash = tmp.0.join("crash");
        for (si, (first, seg)) in live.segments.iter().enumerate() {
            // Every record boundary, and a seeded offset inside the
            // header and inside each record.
            let ends = record_ends(seg);
            let mut cuts = vec![0, rng.gen_range_inclusive(1, 12) as usize, SEGMENT_HEADER];
            let mut start = SEGMENT_HEADER;
            for &end in &ends {
                cuts.push(rng.gen_range_inclusive(start as u64 + 1, end as u64 - 1) as usize);
                cuts.push(end);
                start = end;
            }
            for cut in cuts {
                let n = first - 1 + ends.iter().filter(|&&e| e <= cut).count() as u64;
                let usable: Vec<_> = live.checkpoints.iter().filter(|c| c.0 <= n).collect();
                // (checkpoint, prune the segments it covers)
                let mut variants = vec![(usable.last().copied(), false)];
                if let Some(&ckpt) = usable.last() {
                    if live.segments[..=si].iter().any(|&(f, _)| f <= ckpt.0) {
                        variants.push((Some(ckpt), true));
                    }
                    if ckpt.0 == n {
                        let previous = usable.len().checked_sub(2).map(|i| usable[i]);
                        variants.push((previous, false));
                    }
                }
                for (ckpt, pruned) in variants {
                    let what = format!(
                        "seed {seed}: cut at byte {cut} of segment {first} ({n} records), \
                         checkpoint {:?}, pruned {pruned}",
                        ckpt.map(|c| c.0)
                    );
                    let _ = std::fs::remove_dir_all(&crash);
                    let cfg = WalConfig {
                        dir: crash.clone(),
                        segment_bytes: s.segment_bytes,
                        checkpoint_bytes: s.checkpoint_bytes,
                    };
                    let dir = cfg.shard_dir(0);
                    std::fs::create_dir_all(&dir).unwrap();
                    if let Some((last_lsn, bytes)) = ckpt {
                        std::fs::write(dir.join(format!("ckpt-{last_lsn:020}.ckpt")), bytes)
                            .unwrap();
                    }
                    let floor = ckpt.filter(|_| pruned).map_or(0, |c| c.0);
                    for (f, bytes) in &live.segments[..=si] {
                        if *f > floor {
                            let len = if f == first { cut } else { bytes.len() };
                            std::fs::write(dir.join(format!("seg-{f:020}.wal")), &bytes[..len])
                                .unwrap();
                        }
                    }
                    let mut w = worker();
                    let (stats, _) = w.recover(&cfg, 0).unwrap();
                    let held = Held::of(&mut w);
                    // (a) exactly the state after the complete records.
                    assert!(
                        held == oracle[n as usize],
                        "{what}: recovered state differs"
                    );
                    // (b) every acknowledged frame.
                    for (behind, scenario, seq) in &live.acks {
                        assert!(
                            *behind > n || held.watermark(scenario) >= *seq,
                            "{what}: {scenario} acked {seq}, recovered {}",
                            held.watermark(scenario)
                        );
                    }
                    // (c) every keyed upload resumes to the exact fold;
                    // the WAL has nothing more to show here.
                    w.log.inline_stage().wal = None;
                    let verdicts = resume_all(&mut w, &held, &s.uploads, &mut plans)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    mix(&mut explored.digest, what.as_bytes());
                    mix(&mut explored.digest, verdicts.as_bytes());
                    for v in [stats.frames, stats.records, stats.samples, stats.torn_tails] {
                        mix(&mut explored.digest, &v.to_le_bytes());
                    }
                    explored.states += 1;
                }
            }
        }
        explored
    }

    #[test]
    fn seeded_crash_and_reset_schedules_recover_exactly() {
        let mut states = 0;
        for seed in 0..90 {
            states += explore(seed).states;
        }
        assert!(states >= 10_000, "explored only {states} crash states");
    }

    /// Seed 2 resumes an upload after a seq-gap error. The worker used to
    /// drop the stream's decoder at the error, so the continued frames
    /// failed to decode ("bad magic") while replay, which never sees the
    /// refused frame, kept the decoder: the upload could only finish
    /// after a crash.
    #[test]
    fn an_upload_continued_after_a_seq_gap_error_finishes() {
        explore(2);
    }

    #[test]
    fn a_seed_explores_to_the_same_digest_twice() {
        assert_eq!(explore(0x5eed), explore(0x5eed));
    }
}
