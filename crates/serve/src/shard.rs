//! Sharded ingest workers and epoch-swapped read snapshots.
//!
//! Ingestion is partitioned across N worker threads by a stable hash of
//! the `(client, scenario)` key, so one chatty client cannot serialize
//! the whole service and all frames of one stream land on one shard
//! (keeping per-stream decode and fold order deterministic). Each shard
//! owns its streams and sketches exclusively — no locks on the fold
//! path.
//!
//! **Frame-level sharding:** connection handlers are thin pumps — they
//! read wire frames and forward them raw (`Msg::Frame`); the shard
//! worker owns the whole decode → extract → fold pipeline per stream.
//! That single-folder shape is what makes durability tractable: the
//! worker hands each accepted frame, in fold order, to the shard's one
//! log writer, so the log's LSN order *is* the fold order, and recovery
//! (checkpoint + [`replay`]) reproduces the sketch exactly.
//!
//! **Log writer:** with a write-ahead log, each shard runs a second
//! thread that owns its [`ShardWal`]. The worker keeps decode → fold
//! and moves each accepted frame's pooled buffer, class, seq and
//! `StreamId` to the writer over a short bounded queue;
//! the writer appends, rotates segments and returns the buffer to the
//! frame pool, so the next frame folds while this one is logged. The
//! commit point is a flush barrier: at the end of a round with acks or
//! verdicts to release, the worker asks the writer to flush, waits
//! until every record it handed over has reached the OS, and only then
//! releases `OK`/`DONE`/`ERR`. An
//! append or flush failure surfaces at that barrier and fails the
//! round. The worker numbers records itself; a checkpoint is a snapshot
//! of `Arc`-shared sketches and stream states at an LSN, which the
//! writer flushes behind, encodes, writes and prunes for. A drain waits
//! for its checkpoint and joins the writer; a crash makes the writer
//! drop its queue and its buffered bytes unwritten, as `kill -9` would.
//!
//! **Resume & dedupe:** resumable streams ([`StreamId::Keyed`]) carry
//! client-assigned frame sequence numbers. The worker tracks the highest
//! committed seq per key; frames at or below it are dropped (counted in
//! [`IngestTotals::dedup_dropped`]) and re-acked, frames beyond
//! `last + 1` are a protocol error. Acknowledgements are sent only
//! after the barrier that makes the frame durable — an acked sample
//! is a recoverable sample, and a re-sent one is deduped, which together
//! give exactly-once delivery at the sketch level.
//!
//! **Backpressure:** each shard is fed through a bounded
//! [`sync_channel`]; producers use `try_send` and surface `BUSY` to the
//! uploader when the queue is full. The service never buffers unboundedly
//! — shedding load visibly is the contract (the paper's concern: a
//! measurement system must not silently distort what it measures).
//!
//! **Read path:** shards periodically publish an immutable
//! [`ShardSnapshot`] behind an `Arc` into their [`SnapshotSlot`]; the
//! swap is a pointer store under a briefly-held lock. Queries clone the
//! current `Arc`s and merge sketches on their own thread, so a query
//! never touches shard-internal state and never blocks ingest. Snapshot
//! *epochs* increase with every publish; published per-scenario counts
//! are monotone non-decreasing, which makes concurrent `SNAPSHOT` reads
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
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{
    sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError, TrySendError,
};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use latlab_analysis::{EventClass, LatencySketch};
use latlab_trace::{BufferPool, StreamDecoder};

use crate::pipeline::fold_frame;
use crate::wal::{
    load_checkpoint, replay, write_checkpoint, Checkpoint, RecoveryStats, ShardWal, StreamCkpt,
    StreamId, WalConfig, WalRecord,
};

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
    /// worker recycles it).
    Frame {
        /// Owning stream: one id per upload, shared by its frames, so
        /// that forwarding a frame allocates nothing.
        stream: Arc<StreamId>,
        /// Upload sequence number.
        seq: u64,
        /// Raw frame payload.
        bytes: Vec<u8>,
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
    /// the `Arc`s, and the worker detaches (clones) a scenario's sketch
    /// only on its first fold after the publish.
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

    fn store(&self, snap: Arc<ShardSnapshot>) {
        *self.0.write().expect("snapshot lock poisoned") = snap;
    }
}

/// Configuration for the shard pool.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker thread count (≥ 1).
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

/// Ingest-wide counters the shard workers maintain (surfaced by
/// `HEALTH`).
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

/// The set of shard workers.
pub struct ShardSet {
    shards: Vec<ShardHandle>,
    joins: Mutex<Vec<JoinHandle<()>>>,
    /// Recycles frame buffers: producers `get` one to fill from the
    /// socket, workers `put` it back once folded (and logged).
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
    /// Spawns the worker threads. With a [`WalConfig`], each shard first
    /// **recovers** — loads its newest valid checkpoint and replays the
    /// log tail through the ingest fold — before any worker accepts
    /// traffic; recovered snapshots are published immediately, so this
    /// returns with the pre-crash state fully visible.
    ///
    /// # Errors
    ///
    /// Filesystem failures opening the WAL (recovery of torn/corrupt
    /// *content* is tolerant and not an error).
    pub fn start(config: &ShardConfig, wal: Option<&WalConfig>) -> io::Result<ShardSet> {
        let n = config.shards.max(1);
        let frame_pool: BufferPool<u8> = BufferPool::new();
        let totals = Arc::new(IngestTotals::default());
        let mut shards = Vec::with_capacity(n);
        let mut joins = Vec::with_capacity(n);
        let mut recovery = RecoveryStats::default();
        let mut max_conn = 0u64;
        for i in 0..n {
            let (tx, rx) = sync_channel(config.queue_depth.max(1));
            let slot = Arc::new(SnapshotSlot::new());
            let (log, sketches, streams, epoch) = match wal {
                Some(cfg) => {
                    let dir = cfg.shard_dir(i);
                    let rec = recover_shard(&dir)?;
                    recovery.merge(&rec.stats);
                    max_conn = max_conn.max(rec.max_conn);
                    let shard_wal = ShardWal::open(&dir, cfg.segment_bytes, rec.next_lsn)?;
                    // Publish what recovery rebuilt before any ingest, so
                    // queries see the pre-crash state from the first epoch.
                    let epoch = u64::from(!rec.sketches.is_empty());
                    if epoch > 0 {
                        slot.store(Arc::new(ShardSnapshot {
                            epoch,
                            sketches: rec.sketches.clone(),
                        }));
                    }
                    let (writer, log_rx, mut log) = LogWriter::new(
                        shard_wal,
                        dir,
                        frame_pool.clone(),
                        totals.clone(),
                        cfg.checkpoint_bytes.max(1),
                    );
                    let join = std::thread::Builder::new()
                        .name(format!("latlab-wal-{i}"))
                        .spawn(move || writer.run(log_rx))
                        .expect("spawn log writer");
                    log.join = Some(join);
                    (Some(log), rec.sketches, rec.streams, epoch)
                }
                None => (None, HashMap::new(), HashMap::new(), 0),
            };
            let worker = Worker {
                slot: slot.clone(),
                pool: frame_pool.clone(),
                totals: totals.clone(),
                publish_every: config.publish_every.max(1),
                log,
                sketches,
                streams,
                epoch,
                since_publish: 0,
                excess: Vec::new(),
                replies: Vec::new(),
            };
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
    /// read a wire frame into; the folding worker returns it.
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
        for shard in &self.shards {
            // Drain must get through even when the queue is full; send
            // blocks until the worker makes room.
            let _ = shard.tx.send(Msg::Drain);
        }
        let joins = std::mem::take(&mut *self.joins.lock().expect("join lock poisoned"));
        for join in joins {
            let _ = join.join();
        }
    }

    /// Fault-injection hook: kill every worker as `kill -9` would — no
    /// final flush, no checkpoint; WAL bytes still buffered in user
    /// space are deliberately lost. The chaos tests use this to prove
    /// that recovery rebuilds exactly the acknowledged state.
    pub fn crash_and_join(&self) {
        for shard in &self.shards {
            let _ = shard.tx.send(Msg::Crash);
        }
        let joins = std::mem::take(&mut *self.joins.lock().expect("join lock poisoned"));
        for join in joins {
            let _ = join.join();
        }
    }
}

/// Per-stream state a shard worker keeps.
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
}

impl StreamState {
    fn fresh(class: Option<EventClass>) -> StreamState {
        StreamState {
            class,
            last_seq: 0,
            done_records: 0,
            done_bytes: 0,
            decoder: None,
            reply: None,
            ack_dirty: false,
            errored: false,
        }
    }
}

/// Decode one frame into samples and fold them — the single pipeline
/// both live ingest and WAL replay run. The scenario's key is allocated
/// only on its first sample, never per frame.
fn fold_frame_into(
    decoder: &mut StreamDecoder,
    sketches: &mut HashMap<String, Arc<LatencySketch>>,
    scenario: &str,
    class: Option<EventClass>,
    excess: &mut Vec<u64>,
    bytes: &[u8],
) -> Result<u64, String> {
    let class = class.unwrap_or(EventClass::Background);
    fold_frame(decoder, excess, bytes, class, || {
        if !sketches.contains_key(scenario) {
            sketches.insert(scenario.to_owned(), Arc::default());
        }
        Arc::make_mut(sketches.get_mut(scenario).expect("inserted above"))
    })
    .map_err(|e| format!("trace: {e}"))
}

/// One shard worker: owns the streams and the sketches, and hands the
/// log its records.
struct Worker {
    slot: Arc<SnapshotSlot>,
    pool: BufferPool<u8>,
    totals: Arc<IngestTotals>,
    publish_every: u64,
    /// The shard's log writer, when a WAL backs the set.
    log: Option<LogHandle>,
    sketches: HashMap<String, Arc<LatencySketch>>,
    streams: HashMap<StreamId, StreamState>,
    epoch: u64,
    since_publish: u64,
    /// Fused-kernel output scratch, reused across frames.
    excess: Vec<u64>,
    /// Replies held back until the commit point (the log barrier):
    /// `DONE` and `ERR` must not outrun durability.
    replies: Vec<(Sender<Reply>, Reply)>,
}

impl Worker {
    fn run(mut self, rx: Receiver<Msg>) {
        loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(msg) => {
                    let mut verdict = self.handle(msg);
                    while verdict == Flow::Continue {
                        match rx.try_recv() {
                            Ok(m) => verdict = verdict.max(self.handle(m)),
                            Err(TryRecvError::Empty) => break,
                            Err(TryRecvError::Disconnected) => {
                                verdict = verdict.max(Flow::Crash);
                                break;
                            }
                        }
                    }
                    if verdict == Flow::Crash {
                        // Simulated kill -9: the writer drops what is
                        // queued to it and its buffered bytes, exactly as
                        // a dead process would.
                        self.stop_log(true);
                        return;
                    }
                    self.commit();
                    if verdict == Flow::Drain {
                        self.checkpoint();
                        self.publish();
                        self.stop_log(false);
                        return;
                    }
                    if self.log.as_ref().is_some_and(|l| l.checkpoint_due) {
                        self.checkpoint();
                    }
                    if self.since_publish >= self.publish_every {
                        self.publish();
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Idle moment: surface anything folded since the last
                    // publish so queries converge without traffic.
                    if self.since_publish > 0 {
                        self.publish();
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    // The set was dropped without a drain: crash path —
                    // no checkpoint; recovery owns whatever was written.
                    self.stop_log(false);
                    return;
                }
            }
        }
    }

    fn handle(&mut self, msg: Msg) -> Flow {
        match msg {
            Msg::Begin {
                stream,
                class,
                mode,
                reply,
            } => self.on_begin(stream, class, mode, reply),
            Msg::Frame { stream, seq, bytes } => self.on_frame(stream, seq, bytes),
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
        let state = self
            .streams
            .entry(stream)
            .or_insert_with(|| StreamState::fresh(class));
        state.class = class;
        state.reply = Some(reply.clone());
        state.errored = false;
        match mode {
            BeginMode::Fresh => {
                state.decoder = None;
            }
            BeginMode::Continue(base) => {
                if base > state.last_seq {
                    state.errored = true;
                    let _ = reply.send(Reply::Err(format!(
                        "resume base {base} ahead of committed seq {}",
                        state.last_seq
                    )));
                    return;
                }
                if base == state.last_seq {
                    // Nothing of the continued upload was committed; any
                    // decoder here belongs to an abandoned predecessor.
                    state.decoder = None;
                }
                // base < last_seq: keep the mid-trace state and let the
                // client skip to the watermark.
            }
        }
        // Started carries no durability promise — answer immediately so
        // the handler can greet without waiting out a commit round.
        let _ = reply.send(Reply::Started {
            last_seq: state.last_seq,
        });
    }

    fn on_frame(&mut self, stream: Arc<StreamId>, seq: u64, bytes: Vec<u8>) {
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
            let expected = state.last_seq + 1;
            state.errored = true;
            state.decoder = None;
            self.reply_to(
                &stream,
                Reply::Err(format!("seq gap: expected {expected}, got {seq}")),
            );
            self.pool.put(bytes);
            return;
        }
        let decoder = state.decoder.get_or_insert_with(StreamDecoder::new);
        let folded = fold_frame_into(
            decoder,
            &mut self.sketches,
            stream.scenario(),
            state.class,
            &mut self.excess,
            &bytes,
        );
        match folded {
            Ok(samples) => {
                // Committed as of the next barrier; an append failure
                // surfaces there and fails the round.
                state.last_seq = seq;
                if resume {
                    state.ack_dirty = true;
                }
                self.since_publish += samples;
                let class = state.class;
                match &mut self.log {
                    Some(log) => log.append(LogMsg::Frame {
                        stream,
                        class,
                        seq,
                        bytes,
                    }),
                    None => self.pool.put(bytes),
                }
            }
            Err(msg) => {
                state.errored = true;
                state.decoder = None;
                self.reply_to(&stream, Reply::Err(msg));
                self.pool.put(bytes);
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
        if seq != state.last_seq + 1 {
            let expected = state.last_seq + 1;
            state.errored = true;
            state.decoder = None;
            self.reply_to(
                &stream,
                Reply::Err(format!("seq gap: expected {expected}, got {seq}")),
            );
            return;
        }
        if state
            .decoder
            .as_ref()
            .is_some_and(|d| !d.is_clean_boundary())
        {
            state.errored = true;
            state.decoder = None;
            self.reply_to(&stream, Reply::Err("upload ended mid-chunk".to_owned()));
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
        if let Some(log) = &mut self.log {
            log.append(LogMsg::End { stream, seq });
        }
    }

    /// Queues a reply for delivery at the next commit point.
    fn reply_to(&mut self, stream: &StreamId, reply: Reply) {
        if let Some(tx) = self.streams.get(stream).and_then(|s| s.reply.clone()) {
            self.replies.push((tx, reply));
        }
    }

    /// The commit point: wait until the writer has made everything
    /// handed to it durable, then release acks and verdicts. A round with
    /// nothing to release (the middle of a plain upload) waits for
    /// nothing: durability only has to lead what the worker tells.
    fn commit(&mut self) {
        if self.replies.is_empty() && !self.streams.values().any(|s| s.ack_dirty) {
            return;
        }
        if let Some(Err(msg)) = self.log.as_mut().map(LogHandle::barrier) {
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

    /// Snapshots the shard at the last handed-off LSN and hands it to
    /// the writer, which encodes, writes and prunes behind the fold.
    /// Sketches go as `Arc`s — O(scenarios) refcount bumps, like
    /// [`publish`](Self::publish).
    fn checkpoint(&mut self) {
        let Some(log) = &mut self.log else {
            return;
        };
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
        let sketches = self
            .sketches
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        log.checkpoint_due = false;
        let last_lsn = log.next_lsn - 1;
        log.send(LogMsg::Checkpoint(CheckpointJob {
            last_lsn,
            sketches,
            streams,
        }));
    }

    /// Closes the log queue and joins the writer. On a crash the writer
    /// first drops whatever is queued to it and its buffered bytes.
    fn stop_log(&mut self, crash: bool) {
        if let Some(log) = self.log.take() {
            log.close(crash);
        }
    }

    /// A publish clones `Arc` pointers only — O(scenarios) refcount
    /// bumps, no sketch bodies copied here.
    fn publish(&mut self) {
        self.epoch += 1;
        self.slot.store(Arc::new(ShardSnapshot {
            epoch: self.epoch,
            sketches: self.sketches.clone(),
        }));
        self.since_publish = 0;
    }
}

/// Records a shard worker may have queued to its log writer: 2 MiB of
/// 64 KiB frames, enough to keep folding at full speed through a
/// checkpoint write (~4 ms, some 25 frames of fold) without letting a
/// stalled writer pin more frame buffers.
const LOG_QUEUE_DEPTH: usize = 32;

/// What a shard worker hands its log writer.
enum LogMsg {
    /// Append an accepted frame, then return its buffer to the pool.
    Frame {
        /// Owning stream, moved from the worker's message.
        stream: Arc<StreamId>,
        /// Event class the stream's samples fold under.
        class: Option<EventClass>,
        /// Upload sequence number.
        seq: u64,
        /// Pooled frame buffer.
        bytes: Vec<u8>,
    },
    /// Append an end-of-upload record.
    End {
        /// Owning stream.
        stream: StreamId,
        /// Sequence number of the end frame.
        seq: u64,
    },
    /// The commit barrier: flush, then answer with a [`Synced`].
    Flush,
    /// Write a checkpoint and prune the segments it covers.
    Checkpoint(CheckpointJob),
}

/// A checkpoint as the worker snapshots it: the writer clones the
/// sketch bodies, off the fold path.
struct CheckpointJob {
    last_lsn: u64,
    sketches: Vec<(String, Arc<LatencySketch>)>,
    streams: Vec<StreamCkpt>,
}

/// The writer's answer to a barrier.
struct Synced {
    /// LSN the writer's next append will get.
    next_lsn: u64,
    /// The first append or flush failure since the previous barrier.
    error: Option<String>,
    /// Whether enough bytes were logged since the last checkpoint to
    /// warrant another (per [`WalConfig::checkpoint_bytes`]).
    checkpoint_due: bool,
}

/// A shard worker's end of its log writer.
struct LogHandle {
    tx: SyncSender<LogMsg>,
    synced: Receiver<Synced>,
    /// Set before a crash closes the queue: the writer then drops what
    /// is still queued instead of appending it.
    crashed: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
    /// LSN the next handed-off record gets: the worker numbers records
    /// itself and checks the count against the writer's at each barrier.
    next_lsn: u64,
    /// `next_lsn` at the last barrier.
    synced_lsn: u64,
    /// The writer's verdict at the last barrier.
    checkpoint_due: bool,
}

impl LogHandle {
    /// Hands a record to the writer. A writer that is gone loses the
    /// record, and the next barrier reports it.
    fn append(&mut self, msg: LogMsg) {
        self.next_lsn += 1;
        self.send(msg);
    }

    fn send(&self, msg: LogMsg) {
        // A failed send means the writer exited; the barrier notices.
        let _ = self.tx.send(msg);
    }

    /// The flush barrier: returns once every record handed over so far
    /// has reached the OS, or with the first failure among them. A round
    /// that handed nothing over has nothing to wait for.
    fn barrier(&mut self) -> Result<(), String> {
        if self.next_lsn == self.synced_lsn {
            return Ok(());
        }
        let synced = match self.tx.send(LogMsg::Flush) {
            Ok(()) => self.synced.recv().ok(),
            Err(_) => None,
        };
        let Some(synced) = synced else {
            self.synced_lsn = self.next_lsn;
            return Err("wal: log writer exited".to_owned());
        };
        self.checkpoint_due = synced.checkpoint_due;
        match &synced.error {
            None => debug_assert_eq!(
                synced.next_lsn, self.next_lsn,
                "worker and log writer disagree on the LSN at a barrier"
            ),
            // After a failure the writer's count is the log's.
            Some(_) => self.next_lsn = synced.next_lsn,
        }
        self.synced_lsn = self.next_lsn;
        synced.error.map_or(Ok(()), Err)
    }

    /// Closes the queue and joins the writer.
    fn close(mut self, crash: bool) {
        self.crashed.store(crash, Ordering::SeqCst);
        let join = self.join.take();
        drop(self);
        if join.is_some_and(|j| j.join().is_err()) {
            eprintln!("latlab-serve: log writer panicked");
        }
    }
}

/// A shard's log writer: owns the [`ShardWal`] and does every append,
/// rotation, flush and checkpoint write, on its own thread.
struct LogWriter {
    wal: ShardWal,
    dir: PathBuf,
    pool: BufferPool<u8>,
    totals: Arc<IngestTotals>,
    checkpoint_bytes: u64,
    crashed: Arc<AtomicBool>,
    synced: SyncSender<Synced>,
    /// The first append failure since the last barrier.
    error: Option<String>,
}

impl LogWriter {
    /// A writer over `wal` plus the worker's handle on it, joined by a
    /// queue `LOG_QUEUE_DEPTH` messages deep. The caller runs
    /// [`run`](Self::run) on a thread and stores its join handle.
    fn new(
        wal: ShardWal,
        dir: PathBuf,
        pool: BufferPool<u8>,
        totals: Arc<IngestTotals>,
        checkpoint_bytes: u64,
    ) -> (LogWriter, Receiver<LogMsg>, LogHandle) {
        let (tx, rx) = sync_channel(LOG_QUEUE_DEPTH);
        let (synced_tx, synced) = sync_channel(1);
        let crashed = Arc::new(AtomicBool::new(false));
        let next_lsn = wal.next_lsn();
        let writer = LogWriter {
            wal,
            dir,
            pool,
            totals,
            checkpoint_bytes,
            crashed: crashed.clone(),
            synced: synced_tx,
            error: None,
        };
        let handle = LogHandle {
            tx,
            synced,
            crashed,
            join: None,
            next_lsn,
            synced_lsn: next_lsn,
            checkpoint_due: false,
        };
        (writer, rx, handle)
    }

    fn run(mut self, rx: Receiver<LogMsg>) {
        while let Ok(msg) = rx.recv() {
            if self.crashed.load(Ordering::SeqCst) {
                break;
            }
            self.handle(msg);
        }
        if self.crashed.load(Ordering::SeqCst) {
            // Simulated kill -9: drop the log without its BufWriter
            // flush-on-drop, losing buffered bytes as a dead process would.
            std::mem::forget(self.wal);
        } else if let Err(e) = self.wal.flush() {
            // A drain's last checkpoint opened a fresh segment whose
            // header is still buffered.
            eprintln!("latlab-serve: wal flush at exit: {e}");
        }
    }

    fn handle(&mut self, msg: LogMsg) {
        match msg {
            LogMsg::Frame {
                stream,
                class,
                seq,
                bytes,
            } => {
                self.append(|wal| wal.append_frame(&stream, class, seq, &bytes));
                self.pool.put(bytes);
            }
            LogMsg::End { stream, seq } => self.append(|wal| wal.append_end(&stream, seq)),
            LogMsg::Flush => {
                if let Err(e) = self.wal.flush() {
                    self.error.get_or_insert_with(|| format!("wal flush: {e}"));
                }
                let _ = self.synced.send(Synced {
                    next_lsn: self.wal.next_lsn(),
                    error: self.error.take(),
                    checkpoint_due: self.wal.checkpoint_due(self.checkpoint_bytes),
                });
            }
            LogMsg::Checkpoint(job) => self.checkpoint(job),
        }
    }

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

    /// Flushes, writes a checkpoint covering everything up to
    /// `job.last_lsn` and prunes the segments it covers.
    fn checkpoint(&mut self, job: CheckpointJob) {
        if let Err(e) = self.wal.flush() {
            eprintln!("latlab-serve: wal flush before checkpoint: {e}");
            return;
        }
        debug_assert_eq!(
            self.wal.next_lsn() - 1,
            job.last_lsn,
            "worker and log writer disagree on the checkpoint LSN"
        );
        let ckpt = Checkpoint {
            last_lsn: job.last_lsn,
            sketches: job
                .sketches
                .into_iter()
                .map(|(k, v)| (k, Arc::unwrap_or_clone(v)))
                .collect(),
            streams: job.streams,
        };
        if let Err(e) = write_checkpoint(&self.dir, &ckpt) {
            eprintln!("latlab-serve: checkpoint write: {e}");
            return;
        }
        if let Err(e) = self.wal.note_checkpoint(job.last_lsn) {
            eprintln!("latlab-serve: segment prune: {e}");
        }
    }
}

/// Worker-loop control flow, ordered by precedence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Flow {
    Continue,
    Drain,
    Crash,
}

/// What one shard rebuilt at startup.
struct Recovered {
    sketches: HashMap<String, Arc<LatencySketch>>,
    streams: HashMap<StreamId, StreamState>,
    stats: RecoveryStats,
    next_lsn: u64,
    max_conn: u64,
}

/// Checkpoint load + tail replay for one shard directory, run before
/// the worker accepts any traffic.
fn recover_shard(dir: &Path) -> io::Result<Recovered> {
    let t0 = Instant::now();
    let mut stats = RecoveryStats::default();
    let mut sketches: HashMap<String, Arc<LatencySketch>> = HashMap::new();
    let mut streams: HashMap<StreamId, StreamState> = HashMap::new();
    let mut max_conn = 0u64;
    let mut after_lsn = 0u64;
    if let Some(ckpt) = load_checkpoint(dir)? {
        stats.checkpoints = 1;
        after_lsn = ckpt.last_lsn;
        for (scenario, sketch) in ckpt.sketches {
            sketches.insert(scenario, Arc::new(sketch));
        }
        for s in ckpt.streams {
            if let Some(c) = s.id.conn_id() {
                max_conn = max_conn.max(c);
            }
            let mut state = StreamState::fresh(s.class);
            state.last_seq = s.last_seq;
            state.done_records = s.done_records;
            state.done_bytes = s.done_bytes;
            state.decoder = s.decoder.map(StreamDecoder::restore);
            streams.insert(s.id, state);
        }
    }
    let mut excess: Vec<u64> = Vec::new();
    let (rstats, next_lsn) = replay(dir, after_lsn, |_lsn, rec| match rec {
        WalRecord::Frame {
            stream,
            class,
            seq,
            bytes,
        } => {
            if let Some(c) = stream.conn_id() {
                max_conn = max_conn.max(c);
            }
            let state = streams
                .entry(stream.clone())
                .or_insert_with(|| StreamState::fresh(class));
            if state.errored || seq <= state.last_seq {
                return;
            }
            state.class = class;
            let decoder = state.decoder.get_or_insert_with(StreamDecoder::new);
            let before = decoder.records_decoded();
            match fold_frame_into(
                decoder,
                &mut sketches,
                stream.scenario(),
                class,
                &mut excess,
                &bytes,
            ) {
                Ok(folded) => {
                    let after = state
                        .decoder
                        .as_ref()
                        .map_or(before, |d| d.records_decoded());
                    stats.records += after - before;
                    stats.samples += folded;
                    state.last_seq = seq;
                }
                Err(_) => {
                    // Same terminal state live ingest reached: the stream
                    // errored; its committed prefix stays folded.
                    state.errored = true;
                    state.decoder = None;
                }
            }
        }
        WalRecord::End { stream, seq } => {
            if let Some(state) = streams.get_mut(&stream) {
                if state.errored || seq <= state.last_seq {
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
            }
        }
    })?;
    stats.segments = rstats.segments;
    stats.frames = rstats.replayed;
    stats.torn_tails = u64::from(rstats.torn);
    // One-shot streams died with their connections; their folded prefix
    // stays in the sketch (as it would have, had the process lived).
    streams.retain(|id, _| matches!(id, StreamId::Keyed { .. }));
    for state in streams.values_mut() {
        state.errored = false;
    }
    stats.millis = t0.elapsed().as_millis() as u64;
    Ok(Recovered {
        sketches,
        streams,
        stats,
        next_lsn,
        max_conn,
    })
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
                Msg::Frame {
                    stream: Arc::new(stream.clone()),
                    seq: base + 1 + i as u64,
                    bytes: frame.clone(),
                },
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
    use crate::wal::{encode_end_record, encode_frame_record};

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
                let msg = Msg::Frame {
                    stream: Arc::new(stream.clone()),
                    seq,
                    bytes: frame.clone(),
                };
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
            Msg::Frame {
                stream: Arc::new(stream.clone()),
                seq: 3, // expected 1
                bytes: corpus[..512].to_vec(),
            },
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
            send_retry(
                &set,
                0,
                Msg::Frame {
                    stream: Arc::new(stream.clone()),
                    seq: 1 + i as u64,
                    bytes: frame.clone(),
                },
            );
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
            send_retry(
                &set,
                0,
                Msg::Frame {
                    stream: Arc::new(stream.clone()),
                    seq: 1 + i as u64,
                    bytes: frame.clone(),
                },
            );
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
        send_retry(
            &set,
            0,
            Msg::Frame {
                stream: Arc::new(stream.clone()),
                seq: 1,
                bytes: buf,
            },
        );
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
        let wal = ShardWal::open(&tmp.0, u64::MAX, 1).unwrap();
        let (mut writer, log_rx, mut log) =
            LogWriter::new(wal, tmp.0.clone(), pool.clone(), Arc::default(), u64::MAX);
        // The writer's own message handler on its own thread, with each
        // message's allocations counted there.
        let writer_thread = std::thread::spawn(move || {
            let mut counts = Vec::with_capacity(256);
            while let Ok(msg) = log_rx.recv() {
                let before = alloc_count::on_this_thread();
                writer.handle(msg);
                counts.push(alloc_count::on_this_thread() - before);
            }
            counts
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
        let mut decoder = StreamDecoder::new();
        let mut sketches: HashMap<String, Arc<LatencySketch>> = HashMap::new();
        let mut excess = Vec::new();
        // Warm-up: the header, the scenario's first insert, and the
        // carry, excess and record scratch buffers growing to their
        // working size.
        let warm = 4;
        let mut folded = 0;
        for i in 0..frames.len() {
            let before = alloc_count::on_this_thread();
            // The connection thread's part: a pooled buffer (the barrier
            // below returned the last one), the frame read into it, and
            // its message onto the shard queue.
            let mut bytes = pool.get();
            let (seq, more) = read_seq_frame(&mut wire, &mut bytes).unwrap();
            assert!(more);
            queue_tx
                .try_send(Msg::Frame {
                    stream: Arc::clone(&stream),
                    seq,
                    bytes,
                })
                .unwrap();
            // The worker's part: fold the frame, then hand it to the log.
            let Ok(Msg::Frame { stream, seq, bytes }) = queue_rx.try_recv() else {
                panic!("the queue lost frame {i}");
            };
            folded += fold_frame_into(
                &mut decoder,
                &mut sketches,
                stream.scenario(),
                class,
                &mut excess,
                &bytes,
            )
            .unwrap();
            log.append(LogMsg::Frame {
                stream,
                class,
                seq,
                bytes,
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
        assert!(folded > 0, "the steady frames folded no samples");
        log.close(false);
        let counts = writer_thread.join().unwrap();
        // Two messages per frame: the append, then the barrier's flush.
        assert_eq!(counts.len(), 2 * frames.len());
        for (n, allocs) in counts.iter().enumerate().skip(2 * warm) {
            assert_eq!(
                *allocs,
                0,
                "writer: steady frame {} allocated {allocs} times",
                n / 2
            );
        }
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
            encode_end_record(&stream, frames.len() as u64 + 1, &mut body);
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
        // Acks never outrun the writer. Frames are sent and the shard
        // is crashed right behind them, so some are still queued to the
        // worker or to its writer; a crash drops those. Recovery must
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
                    send_retry(
                        &set,
                        0,
                        Msg::Frame {
                            stream: Arc::new(stream.clone()),
                            seq: 1 + i as u64,
                            bytes: frames[i].clone(),
                        },
                    );
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
        // A drain joins the log writer after its checkpoint, so nothing
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
