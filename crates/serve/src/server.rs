//! The threaded TCP service: accept loop, connection handlers, and the
//! graceful-drain lifecycle.
//!
//! One thread accepts; each connection gets a handler thread. An ingest
//! handler is a thin **frame pump**: it reads framed `.ltrc` bytes off
//! the socket and forwards whole frames to the [`ShardSet`] — the shard
//! worker owns decoding, sample extraction, folding, and (when enabled)
//! the write-ahead log, so the log's order *is* the fold order. The
//! handler never blocks indefinitely on a shard: a full queue surfaces
//! as a `BUSY` reply, not as hidden buffering. Query connections read
//! from published snapshots only, so a query can never stall ingest
//! (and vice versa).
//!
//! **Durability:** with a WAL configured, [`Server::start`] runs
//! recovery (checkpoint load + log replay, inside
//! [`ShardSet::start`]) *before* binding the listener — a recovering
//! server is invisible until its pre-crash state is queryable.
//! Resumable uploads (`PUT … RESUME`) are greeted with `OK <seq>`, the
//! committed watermark, and receive cumulative `OK <seq>` ack lines as
//! their frames become durable; an acked frame survives `kill -9`, and
//! a re-sent frame at or below the watermark is deduplicated, so every
//! sample lands in the sketch exactly once.
//!
//! Shutdown is a drain, not an abort: `SHUTDOWN` (or
//! [`Server::request_shutdown`]) stops the accept loop, lets in-flight
//! connections finish (bounded by the read timeout), commits and
//! checkpoints every shard's log — truncating it, so a clean restart
//! replays nothing — publishes final snapshots, and only then joins the
//! workers.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use latlab_analysis::{EventClass, LatencySketch};
use latlab_trace::BufferPool;
use serde::Serialize;

use crate::protocol::{
    read_frame, read_line, read_seq_frame, FrameError, PutHeader, Query, BUSY_LINE, MAX_LINE,
    OK_LINE,
};
use crate::query::QueryPlane;
use crate::shard::{BeginMode, IngestRejection, Msg, Reply, ShardConfig, ShardSet};
use crate::wal::{RecoveryStats, StreamId, WalConfig};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub bind: String,
    /// Shard pool sizing and publish cadence.
    pub shard: ShardConfig,
    /// Write-ahead log; `None` runs the service purely in memory.
    pub wal: Option<WalConfig>,
    /// Per-connection socket read timeout. A connection silent this
    /// long is dropped; during a drain it bounds how long the server
    /// waits for stragglers.
    pub read_timeout: Duration,
    /// How long an ingest handler retries a full shard queue before
    /// answering `BUSY`. Zero means reject on the first full queue.
    pub busy_retry: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1:0".to_owned(),
            shard: ShardConfig::default(),
            wal: None,
            read_timeout: Duration::from_secs(30),
            busy_retry: Duration::from_millis(100),
        }
    }
}

/// Monotone service counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted since start.
    pub connections: AtomicU64,
    /// Trace records acknowledged via `DONE` replies.
    pub ingested_records: AtomicU64,
    /// Frame payload bytes read off ingest connections.
    pub ingested_bytes: AtomicU64,
    /// Uploads rejected with `BUSY` (shard queue full).
    pub busy_rejections: AtomicU64,
    /// Query commands answered.
    pub queries: AtomicU64,
    /// Connections that ended with a protocol or transport error.
    pub failed_connections: AtomicU64,
}

/// State shared by the accept loop and every handler.
struct Inner {
    shards: ShardSet,
    /// The incremental query plane: one cached merged view shared by
    /// every query connection, refreshed (cheaply, via `Arc::ptr_eq`
    /// dirty detection) per command instead of re-merged from scratch.
    plane: QueryPlane,
    /// Recycles reply-encoding buffers across query connections, so
    /// the steady-state response path performs no allocation.
    reply_pool: BufferPool<u8>,
    stats: ServeStats,
    draining: AtomicBool,
    /// Where [`Inner::begin_drain`] connects to wake the accept loop:
    /// the listener's own address, on loopback.
    wake_addr: SocketAddr,
    started: Instant,
    read_timeout: Duration,
    busy_retry: Duration,
}

/// A running service instance.
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Recovers durable state (when a WAL is configured), then binds
    /// and starts the accept loop plus the shard workers. No connection
    /// is accepted before recovery has fully replayed the log.
    ///
    /// # Errors
    ///
    /// Propagates WAL-directory and bind failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        // Recover before bind: nothing can observe a half-recovered
        // service through the socket.
        let shards = ShardSet::start(&config.shard, config.wal.as_ref())?;
        let listener = TcpListener::bind(&config.bind)?;
        let local_addr = listener.local_addr()?;
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let inner = Arc::new(Inner {
            shards,
            plane: QueryPlane::new(),
            reply_pool: BufferPool::new(),
            stats: ServeStats::default(),
            draining: AtomicBool::new(false),
            wake_addr,
            started: Instant::now(),
            read_timeout: config.read_timeout,
            busy_retry: config.busy_retry,
        });
        let accept_inner = inner.clone();
        let accept = std::thread::Builder::new()
            .name("latlab-accept".to_owned())
            .spawn(move || accept_loop(listener, accept_inner))?;
        Ok(Server {
            inner,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live counters.
    pub fn stats(&self) -> &ServeStats {
        &self.inner.stats
    }

    /// What recovery replayed at startup (all zeros without a WAL).
    pub fn recovery(&self) -> &RecoveryStats {
        self.inner.shards.recovery()
    }

    /// True once a drain has been requested (via this method, the
    /// `SHUTDOWN` command, or a signal handler calling it).
    pub fn shutdown_requested(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain: stop accepting, finish in-flight
    /// connections, commit and checkpoint every shard. Returns
    /// immediately; use [`join`](Self::join) to wait.
    pub fn request_shutdown(&self) {
        self.inner.begin_drain();
    }

    /// Waits for the drain to complete and returns the final merged
    /// state: `(epoch_sum, per-scenario sketches)`. Every sample that
    /// was acknowledged is in the result, and (with a WAL) the final
    /// checkpoint covers the whole log.
    pub fn join(mut self) -> (u64, HashMap<String, LatencySketch>) {
        self.request_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.inner.shards.drain_and_join();
        // One last plane refresh picks up the final publishes
        // incrementally; only scenarios dirtied since the last query are
        // re-merged, instead of one parting full merge.
        self.inner
            .plane
            .refresh_from(&self.inner.shards)
            .to_sketches()
    }

    /// Fault-injection hook: dies as `kill -9` would — no drain, no
    /// final flush or checkpoint. In-flight connections fail; WAL bytes
    /// not yet flushed are lost. The chaos tests restart from the same
    /// WAL directory and assert recovery rebuilds exactly the
    /// acknowledged state.
    pub fn crash(mut self) {
        self.inner.begin_drain();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.inner.shards.crash_and_join();
    }
}

impl Inner {
    /// Starts the drain: sets the flag, then wakes the accept loop out
    /// of its blocking `accept` with a throwaway loopback connection.
    /// Every drain trigger comes through here: [`Server::request_shutdown`],
    /// the `SHUTDOWN` verb, [`Server::join`] and [`Server::crash`].
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // A refused connect means the accept loop has already exited.
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }
}

/// Accepts connections until a drain is requested, then joins every
/// handler it spawned. `accept` blocks, so a connection is picked up
/// the moment it arrives; [`Inner::begin_drain`] wakes it to exit.
fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if inner.draining.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                inner.stats.connections.fetch_add(1, Ordering::Relaxed);
                let conn_inner = inner.clone();
                let h = std::thread::Builder::new()
                    .name("latlab-conn".to_owned())
                    .spawn(move || {
                        if handle_connection(stream, &conn_inner).is_err() {
                            conn_inner
                                .stats
                                .failed_connections
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    });
                if let Ok(h) = h {
                    handlers.push(h);
                }
                // Keep the handler list from growing without bound on
                // long runs; finished threads are joined opportunistically.
                if handlers.len() >= 256 {
                    handlers.retain(|h| !h.is_finished());
                }
            }
            // A real accept error (say EMFILE) would repeat at once:
            // back off briefly before retrying.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Dispatches a fresh connection on its first line.
fn handle_connection(stream: TcpStream, inner: &Arc<Inner>) -> io::Result<()> {
    stream.set_read_timeout(Some(inner.read_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let Some(first) = read_line(&mut reader, MAX_LINE)? else {
        return Ok(());
    };
    if first.starts_with("PUT ") {
        handle_ingest(&first, &mut reader, &mut writer, inner)
    } else {
        handle_queries(&first, &mut reader, &mut writer, inner)
    }
}

/// One `PUT` upload: attach the connection to its stream on the owning
/// shard, pump frames, relay acks and the verdict.
///
/// Resumable uploads (`RESUME`) address a durable [`StreamId::Keyed`]
/// stream; plain uploads get a one-shot [`StreamId::Conn`] stream that
/// dies with the connection (a handler exiting abnormally cancels it).
fn handle_ingest(
    first: &str,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    inner: &Arc<Inner>,
) -> io::Result<()> {
    let header = match PutHeader::parse(first) {
        Ok(h) => h,
        Err(msg) => {
            writeln!(writer, "ERR {msg}")?;
            return writer.flush();
        }
    };
    if inner.draining.load(Ordering::SeqCst) {
        writeln!(writer, "ERR draining")?;
        return writer.flush();
    }
    let stream = Arc::new(if header.resume {
        StreamId::Keyed {
            client: header.client.clone(),
            scenario: header.scenario.clone(),
        }
    } else {
        StreamId::Conn {
            conn: inner.shards.alloc_conn(),
            scenario: header.scenario.clone(),
        }
    });
    let mode = match (header.resume, header.resume_base) {
        (true, Some(base)) => BeginMode::Continue(base),
        _ => BeginMode::Fresh,
    };
    let shard = inner.shards.route(&header.client, &header.scenario);
    let (reply_tx, reply_rx) = channel();
    if !offer(
        inner,
        shard,
        Msg::Begin {
            stream: StreamId::clone(&stream),
            class: header.class,
            mode,
            reply: reply_tx,
        },
        writer,
    )? {
        return Ok(());
    }
    let watermark = match recv_reply(&reply_rx, inner.read_timeout) {
        Some(Reply::Started { last_seq }) => last_seq,
        Some(Reply::Err(msg)) => {
            writeln!(writer, "ERR {msg}")?;
            return writer.flush();
        }
        _ => {
            writeln!(writer, "ERR shard unavailable")?;
            writer.flush()?;
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "shard gone"));
        }
    };
    // The greeting: resumable clients learn the committed watermark and
    // skip what the server already holds; legacy clients get plain OK.
    if header.resume {
        writeln!(writer, "OK {watermark}")?;
    } else {
        writeln!(writer, "{OK_LINE}")?;
    }
    writer.flush()?;
    let result = pump_frames(
        &stream,
        header.resume,
        shard,
        reader,
        writer,
        inner,
        &reply_rx,
    );
    if !matches!(result, Ok(true)) {
        // The upload did not complete: free the one-shot stream's state.
        // Keyed streams stay — their watermark is what resume is for.
        if matches!(*stream, StreamId::Conn { .. }) {
            let stream = Arc::unwrap_or_clone(stream);
            let _ = inner.shards.send(shard, Msg::Cancel { stream });
        }
    }
    result.map(|_| ())
}

/// The frame loop: socket → shard queue, with ack relay in between.
/// `Ok(true)` means the upload completed (`DONE` or duplicate-`DONE`).
/// Every frame's message shares `stream`, so a frame's trip from the
/// socket to the log allocates nothing.
fn pump_frames(
    stream: &Arc<StreamId>,
    resume: bool,
    shard: usize,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    inner: &Arc<Inner>,
    reply_rx: &Receiver<Reply>,
) -> io::Result<bool> {
    let mut auto_seq = 0u64; // numbers legacy frames server-side
    let end_seq;
    loop {
        let mut frame = inner.shards.frame_pool().get();
        let read = if resume {
            read_seq_frame(reader, &mut frame)
        } else {
            read_frame(reader, &mut frame).map(|more| (auto_seq + 1, more))
        };
        match read {
            Ok((seq, true)) => {
                auto_seq = seq;
                inner
                    .stats
                    .ingested_bytes
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                let msg = Msg::Frame {
                    stream: Arc::clone(stream),
                    seq,
                    bytes: frame,
                };
                if !offer(inner, shard, msg, writer)? {
                    return Ok(false);
                }
                if !relay_pending(reply_rx, resume, writer)? {
                    return Ok(false);
                }
            }
            Ok((seq, false)) => {
                inner.shards.frame_pool().put(frame);
                end_seq = if resume { seq } else { auto_seq + 1 };
                break;
            }
            Err(FrameError::Io(e)) => {
                inner.shards.frame_pool().put(frame);
                return Err(e);
            }
            Err(e) => {
                inner.shards.frame_pool().put(frame);
                writeln!(writer, "ERR {e}")?;
                writer.flush()?;
                return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
        }
    }
    if !offer(
        inner,
        shard,
        Msg::End {
            stream: StreamId::clone(stream),
            seq: end_seq,
        },
        writer,
    )? {
        return Ok(false);
    }
    // Await the verdict, relaying acks that commit ahead of it.
    loop {
        match recv_reply(reply_rx, inner.read_timeout) {
            Some(Reply::Ack { seq }) => {
                if resume {
                    writeln!(writer, "OK {seq}")?;
                    writer.flush()?;
                }
            }
            Some(Reply::Done { records, bytes }) => {
                inner
                    .stats
                    .ingested_records
                    .fetch_add(records, Ordering::Relaxed);
                writeln!(writer, "DONE {records} {bytes}")?;
                writer.flush()?;
                return Ok(true);
            }
            Some(Reply::Err(msg)) => {
                writeln!(writer, "ERR {msg}")?;
                writer.flush()?;
                return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
            }
            Some(Reply::Started { .. }) | None => {
                writeln!(writer, "ERR shard unavailable")?;
                writer.flush()?;
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "shard gone"));
            }
        }
    }
}

/// Forwards already-arrived replies without blocking. `Ok(false)` ends
/// the upload (the worker reported an error).
fn relay_pending(
    reply_rx: &Receiver<Reply>,
    resume: bool,
    writer: &mut impl Write,
) -> io::Result<bool> {
    loop {
        match reply_rx.try_recv() {
            Ok(Reply::Ack { seq }) => {
                if resume {
                    writeln!(writer, "OK {seq}")?;
                    writer.flush()?;
                }
            }
            Ok(Reply::Err(msg)) => {
                writeln!(writer, "ERR {msg}")?;
                writer.flush()?;
                return Ok(false);
            }
            // A stale Done can only be a duplicate-end replay racing the
            // socket; the verdict loop is where it matters.
            Ok(Reply::Done { .. } | Reply::Started { .. }) => {}
            Err(TryRecvError::Empty) => return Ok(true),
            Err(TryRecvError::Disconnected) => {
                writeln!(writer, "ERR shard unavailable")?;
                writer.flush()?;
                return Ok(false);
            }
        }
    }
}

/// Receives one reply, tolerating spurious wakeups up to the timeout.
fn recv_reply(rx: &Receiver<Reply>, timeout: Duration) -> Option<Reply> {
    rx.recv_timeout(timeout).ok()
}

/// Offers a message to a shard, retrying a full queue within the
/// configured window. Returns `Ok(false)` after answering `BUSY` (or
/// `ERR draining` when the shard has shut down).
fn offer(inner: &Arc<Inner>, shard: usize, msg: Msg, writer: &mut impl Write) -> io::Result<bool> {
    let deadline = Instant::now() + inner.busy_retry;
    let mut msg = msg;
    loop {
        match inner.shards.try_send(shard, msg) {
            Ok(()) => return Ok(true),
            Err((returned, IngestRejection::QueueFull)) => {
                if Instant::now() >= deadline {
                    inner.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    writeln!(writer, "{BUSY_LINE}")?;
                    writer.flush()?;
                    return Ok(false);
                }
                msg = returned;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err((_, IngestRejection::Closed)) => {
                writeln!(writer, "ERR draining")?;
                writer.flush()?;
                return Ok(false);
            }
        }
    }
}

/// JSON view of the merged snapshot (the `SNAPSHOT` reply).
#[derive(Debug, Serialize)]
struct SnapshotView {
    /// Sum of shard epochs; grows with every publish anywhere.
    epoch: u64,
    /// Samples across all scenarios.
    total: u64,
    /// Per-scenario summaries, keyed by scenario name.
    scenarios: std::collections::BTreeMap<String, ScenarioView>,
}

/// One scenario inside [`SnapshotView`].
#[derive(Debug, Serialize)]
struct ScenarioView {
    count: u64,
    misses: u64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

/// The query loop: answers commands until `QUIT`, EOF, or drain.
/// Encoding happens into a [`BufferPool`]-recycled buffer that is
/// flushed to the socket in one write, so the handler borrows no
/// allocation per reply in steady state.
fn handle_queries(
    first: &str,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    inner: &Arc<Inner>,
) -> io::Result<()> {
    let mut buf = inner.reply_pool.get();
    let result = query_loop(first, reader, writer, inner, &mut buf);
    inner.reply_pool.put(buf);
    result
}

fn query_loop(
    first: &str,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    inner: &Arc<Inner>,
    buf: &mut Vec<u8>,
) -> io::Result<()> {
    // Scratch for SNAPSHOT's batched quantile lookups.
    let mut quantiles: Vec<f64> = Vec::new();
    let mut line = Some(first.to_owned());
    loop {
        let Some(current) = line.take() else {
            match read_line(reader, MAX_LINE) {
                Ok(Some(l)) => line = Some(l),
                Ok(None) => return Ok(()),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Idle connection: stay open unless draining.
                    if inner.draining.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    continue;
                }
                Err(e) => return Err(e),
            }
            continue;
        };
        if current.is_empty() {
            continue;
        }
        inner.stats.queries.fetch_add(1, Ordering::Relaxed);
        buf.clear();
        match Query::parse(&current) {
            Err(msg) => writeln!(buf, "ERR {msg}")?,
            Ok(Query::Quit) => {
                writer.flush()?;
                return Ok(());
            }
            Ok(Query::Shutdown) => {
                inner.begin_drain();
                writeln!(buf, "draining")?;
            }
            Ok(Query::Health) => {
                let view = inner.plane.refresh_from(&inner.shards);
                let plane = inner.plane.stats();
                let s = &inner.stats;
                let totals = inner.shards.totals();
                let rec = inner.shards.recovery();
                writeln!(
                    buf,
                    "ok uptime_s={} shards={} connections={} ingested_records={} \
                     ingested_bytes={} busy_rejections={} queries={} failed={} \
                     scenarios={} epoch={} wal={} wal_records={} wal_bytes={} \
                     dedup_dropped={} recovered_frames={} recovered_records={} \
                     recovered_samples={} recovered_torn={} recovery_ms={} \
                     total_samples={} total_misses={} view_refreshes={} \
                     view_hits={} view_remerged={} view_cold_rebuilds={}",
                    inner.started.elapsed().as_secs(),
                    inner.shards.len(),
                    s.connections.load(Ordering::Relaxed),
                    s.ingested_records.load(Ordering::Relaxed),
                    s.ingested_bytes.load(Ordering::Relaxed),
                    s.busy_rejections.load(Ordering::Relaxed),
                    s.queries.load(Ordering::Relaxed),
                    s.failed_connections.load(Ordering::Relaxed),
                    view.len(),
                    view.epoch(),
                    u8::from(inner.shards.wal_enabled()),
                    totals.wal_records.load(Ordering::Relaxed),
                    totals.wal_bytes.load(Ordering::Relaxed),
                    totals.dedup_dropped.load(Ordering::Relaxed),
                    rec.frames,
                    rec.records,
                    rec.samples,
                    rec.torn_tails,
                    rec.millis,
                    view.total(),
                    view.total_misses(),
                    plane.refreshes,
                    plane.hits,
                    plane.remerged,
                    plane.cold_rebuilds,
                )?;
            }
            Ok(Query::Pctl(scenario, p)) => {
                let view = inner.plane.refresh_from(&inner.shards);
                match view.get(&scenario).and_then(|e| e.quantile(p)) {
                    Some(ms) => {
                        writeln!(buf, "pctl scenario={scenario} p={p} ms={ms:.4}")?;
                    }
                    None => writeln!(buf, "ERR no data for scenario {scenario:?}")?,
                }
            }
            Ok(Query::Stats(scenario)) => {
                let view = inner.plane.refresh_from(&inner.shards);
                match view.get(&scenario) {
                    None => writeln!(buf, "ERR no data for scenario {scenario:?}")?,
                    Some(entry) => {
                        writeln!(
                            buf,
                            "scenario={scenario} total={} misses={}",
                            entry.total(),
                            entry.misses()
                        )?;
                        for class in EventClass::ALL {
                            let c = entry.sketch().class(class);
                            if c.count() == 0 {
                                continue;
                            }
                            writeln!(
                                buf,
                                "class={} count={} misses={} saturated={} \
                                 mean_ms={:.4} p50_ms={:.4} p99_ms={:.4} max_ms={:.4}",
                                class.name(),
                                c.count(),
                                c.misses(),
                                c.saturated(),
                                c.stats().mean(),
                                c.quantile(0.50).unwrap_or(0.0),
                                c.quantile(0.99).unwrap_or(0.0),
                                c.stats().max(),
                            )?;
                        }
                        writeln!(buf, ".")?;
                    }
                }
            }
            Ok(Query::Snapshot) => {
                let view = inner.plane.refresh_from(&inner.shards);
                let snapshot = SnapshotView {
                    epoch: view.epoch(),
                    total: view.total(),
                    scenarios: view
                        .iter()
                        .map(|(name, entry)| {
                            entry.quantiles(&[0.50, 0.90, 0.99, 1.0], &mut quantiles);
                            (
                                name.to_owned(),
                                ScenarioView {
                                    count: entry.total(),
                                    misses: entry.misses(),
                                    p50_ms: quantiles[0],
                                    p90_ms: quantiles[1],
                                    p99_ms: quantiles[2],
                                    max_ms: quantiles[3],
                                },
                            )
                        })
                        .collect(),
                };
                let json = serde_json::to_string(&snapshot)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                writeln!(buf, "{json}")?;
            }
        }
        writer.write_all(buf)?;
        writer.flush()?;
    }
}
