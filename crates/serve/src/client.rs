//! Client-side helpers for the serve protocol: uploading traces and
//! issuing queries over a plain `TcpStream`.
//!
//! Two upload shapes live here:
//!
//! * [`upload`] — the legacy one-shot path: unnumbered frames, one
//!   verdict, nothing survives the connection;
//! * [`upload_resumable`] — the durable path: the `PUT … RESUME`
//!   greeting carries the server's committed watermark, every frame is
//!   sequence-numbered, cumulative `OK <seq>` acks arrive as frames
//!   become durable, and a dropped connection is retried from the last
//!   acknowledged frame. Re-sent frames at or below the watermark are
//!   deduplicated server-side, so a trace lands in the sketch exactly
//!   once no matter how many times the transport fails mid-upload.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    read_line, write_end_frame, write_frame, write_seq_end_frame, write_seq_frame, PutHeader,
    BUSY_LINE, MAX_REPLY_LINE, OK_LINE,
};

/// How an upload ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadOutcome {
    /// The server folded the whole trace: `(records, bytes)` as counted
    /// server-side.
    Done {
        /// Records the server decoded.
        records: u64,
        /// Bytes the server accepted.
        bytes: u64,
    },
    /// The server shed the upload: a shard queue stayed full.
    Busy,
    /// The server rejected the upload with a reason.
    Rejected(String),
}

/// An ingest connection mid-upload.
pub struct IngestClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Committed watermark from the greeting (0 on a fresh upload).
    watermark: u64,
    /// Highest `OK <seq>` ack seen since connecting.
    acked: u64,
}

/// What the server's greeting said, when it wasn't an `OK`.
enum Refusal {
    Busy,
    Rejected(String),
}

impl IngestClient {
    /// Connects, sends the `PUT` header, and waits for the `OK`
    /// greeting (`OK <seq>` for resumable uploads — see
    /// [`watermark`](Self::watermark)).
    ///
    /// # Errors
    ///
    /// I/O failures; a `BUSY` or `ERR` greeting surfaces as
    /// [`io::ErrorKind::ConnectionRefused`] with the server's reason.
    pub fn connect(addr: impl ToSocketAddrs, header: &PutHeader) -> io::Result<IngestClient> {
        match Self::try_connect(addr, header, Duration::from_secs(30))? {
            Ok(client) => Ok(client),
            Err(Refusal::Busy) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "server refused PUT: BUSY",
            )),
            Err(Refusal::Rejected(reason)) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("server refused PUT: {reason}"),
            )),
        }
    }

    /// Like [`connect`](Self::connect), but a refused upload comes back
    /// as a verdict instead of an error (the shapes [`upload`] needs).
    fn try_connect(
        addr: impl ToSocketAddrs,
        header: &PutHeader,
        read_timeout: Duration,
    ) -> io::Result<Result<IngestClient, Refusal>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut client = IngestClient {
            reader,
            writer,
            watermark: 0,
            acked: 0,
        };
        writeln!(client.writer, "{}", header.render())?;
        client.writer.flush()?;
        let Some(greeting) = read_line(&mut client.reader, MAX_REPLY_LINE)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before greeting",
            ));
        };
        if greeting == BUSY_LINE {
            return Ok(Err(Refusal::Busy));
        }
        if let Some(reason) = greeting.strip_prefix("ERR ") {
            return Ok(Err(Refusal::Rejected(reason.to_owned())));
        }
        if greeting == OK_LINE {
            return Ok(Ok(client));
        }
        if let Some(seq) = greeting.strip_prefix("OK ").and_then(|t| t.parse().ok()) {
            client.watermark = seq;
            client.acked = seq;
            return Ok(Ok(client));
        }
        Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("server refused PUT: {greeting}"),
        ))
    }

    /// The committed watermark the greeting reported: the server already
    /// holds every frame up to it, durably. Zero for fresh uploads and
    /// on the legacy path.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The highest acknowledged frame seq seen so far (greeting
    /// watermark included). Everything at or below is durable
    /// server-side.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Sends one frame of trace bytes (legacy, unnumbered).
    ///
    /// # Errors
    ///
    /// Transport failures (including the server closing after `BUSY`).
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, bytes)
    }

    /// Sends one sequence-numbered frame (resumable uploads).
    ///
    /// # Errors
    ///
    /// Transport failures (including the server closing after `BUSY`).
    pub fn send_seq(&mut self, seq: u64, bytes: &[u8]) -> io::Result<()> {
        write_seq_frame(&mut self.writer, seq, bytes)
    }

    /// Ends a legacy upload and reads the verdict.
    ///
    /// # Errors
    ///
    /// Transport failures or a malformed reply.
    pub fn finish(mut self) -> io::Result<UploadOutcome> {
        write_end_frame(&mut self.writer)?;
        self.writer.flush()?;
        self.read_outcome()
    }

    /// Ends a resumable upload (the end frame carries its own seq) and
    /// reads the verdict.
    ///
    /// # Errors
    ///
    /// Transport failures or a malformed reply.
    pub fn finish_seq(mut self, seq: u64) -> io::Result<UploadOutcome> {
        write_seq_end_frame(&mut self.writer, seq)?;
        self.writer.flush()?;
        self.read_outcome()
    }

    /// Reads the server's verdict line, consuming (and recording) any
    /// `OK <seq>` ack lines that arrive ahead of it. Also used after a
    /// send failure, where the verdict (`BUSY`/`ERR`) usually explains
    /// the hangup.
    pub fn read_outcome(&mut self) -> io::Result<UploadOutcome> {
        loop {
            let Some(line) = read_line(&mut self.reader, MAX_REPLY_LINE)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before upload verdict",
                ));
            };
            if let Some(seq) = line.strip_prefix("OK ").and_then(|t| t.parse().ok()) {
                self.acked = seq;
                continue;
            }
            if line == BUSY_LINE {
                return Ok(UploadOutcome::Busy);
            }
            if let Some(rest) = line.strip_prefix("DONE ") {
                let mut parts = rest.split_ascii_whitespace();
                let records = parts.next().and_then(|t| t.parse().ok());
                let bytes = parts.next().and_then(|t| t.parse().ok());
                if let (Some(records), Some(bytes)) = (records, bytes) {
                    return Ok(UploadOutcome::Done { records, bytes });
                }
            }
            if let Some(reason) = line.strip_prefix("ERR ") {
                return Ok(UploadOutcome::Rejected(reason.to_owned()));
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable upload verdict {line:?}"),
            ));
        }
    }

    /// Consumes any ack lines already sitting in the read buffer,
    /// without ever touching the socket (which could block mid-upload).
    fn drain_acks(&mut self) {
        loop {
            let buf = self.reader.buffer();
            let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
                return;
            };
            let line = String::from_utf8_lossy(&buf[..nl]).trim_end().to_owned();
            self.reader.consume(nl + 1);
            if let Some(seq) = line.strip_prefix("OK ").and_then(|t| t.parse().ok()) {
                self.acked = seq;
            }
        }
    }
}

/// Uploads one in-memory trace in `frame_len`-byte frames, on the
/// one-shot or (when `header.resume` is set) the resumable path — but
/// without any reconnect logic; see [`upload_resumable`] for that.
///
/// A transport error mid-send is translated by reading the verdict the
/// server left behind (`BUSY` closes the socket server-side, which the
/// sender first notices as a failed write).
///
/// # Errors
///
/// Connection or protocol failures that carry no server verdict.
pub fn upload(
    addr: impl ToSocketAddrs,
    header: &PutHeader,
    trace: &[u8],
    frame_len: usize,
) -> io::Result<UploadOutcome> {
    let mut client = match IngestClient::try_connect(addr, header, Duration::from_secs(30))? {
        Ok(c) => c,
        Err(Refusal::Busy) => return Ok(UploadOutcome::Busy),
        Err(Refusal::Rejected(reason)) => return Ok(UploadOutcome::Rejected(reason)),
    };
    if header.resume {
        let base = client.watermark();
        let frames: Vec<&[u8]> = trace.chunks(frame_len.max(1)).collect();
        for (i, piece) in frames.iter().enumerate() {
            if client.send_seq(base + 1 + i as u64, piece).is_err() {
                return client.read_outcome();
            }
        }
        client.finish_seq(base + 1 + frames.len() as u64)
    } else {
        for piece in trace.chunks(frame_len.max(1)) {
            if client.send(piece).is_err() {
                return client.read_outcome();
            }
        }
        client.finish()
    }
}

/// Retry policy for [`upload_resumable`].
#[derive(Debug, Clone)]
pub struct ResumeOpts {
    /// Reconnect attempts after transport failures before giving up.
    pub max_reconnects: u32,
    /// Socket read timeout per attempt.
    pub read_timeout: Duration,
    /// Pause between reconnect attempts.
    pub reconnect_backoff: Duration,
}

impl Default for ResumeOpts {
    fn default() -> Self {
        ResumeOpts {
            max_reconnects: 4,
            read_timeout: Duration::from_secs(30),
            reconnect_backoff: Duration::from_millis(20),
        }
    }
}

/// What a resumable upload did, beyond its verdict.
#[derive(Debug, Clone)]
pub struct ResumableUpload {
    /// The verdict of the final attempt.
    pub outcome: UploadOutcome,
    /// Connections re-established after transport failures.
    pub reconnects: u64,
    /// Frames *not* re-sent on reconnects because the server's
    /// watermark already covered them.
    pub frames_resumed: u64,
}

/// Uploads one trace on the resumable path, reconnecting and resuming
/// from the server's committed watermark after resets or timeouts.
///
/// The first attempt opens a *new* upload (bare `RESUME`) and records
/// the greeting as `base`; every retry continues it (`RESUME <base>`),
/// skipping the frames the new greeting reports as already durable.
/// Server-side dedupe makes re-sent frames harmless, so the trace folds
/// into the sketch exactly once however often the transport fails.
///
/// # Errors
///
/// Transport failures that persist past `opts.max_reconnects`.
pub fn upload_resumable(
    addr: SocketAddr,
    header: &PutHeader,
    trace: &[u8],
    frame_len: usize,
    opts: &ResumeOpts,
) -> io::Result<ResumableUpload> {
    let frames: Vec<&[u8]> = trace.chunks(frame_len.max(1)).collect();
    let mut base: Option<u64> = None;
    let mut reconnects = 0u64;
    let mut frames_resumed = 0u64;
    loop {
        let attempt = PutHeader {
            client: header.client.clone(),
            scenario: header.scenario.clone(),
            class: header.class,
            resume: true,
            resume_base: base,
        };
        let last_err = match IngestClient::try_connect(addr, &attempt, opts.read_timeout) {
            Ok(Ok(mut client)) => {
                let retrying = base.is_some();
                let b = *base.get_or_insert(client.watermark());
                let skip = (client.watermark().saturating_sub(b) as usize).min(frames.len());
                if retrying {
                    frames_resumed += skip as u64;
                }
                let mut send_failed = false;
                for (i, piece) in frames.iter().enumerate().skip(skip) {
                    if client.send_seq(b + 1 + i as u64, piece).is_err() {
                        send_failed = true;
                        break;
                    }
                    client.drain_acks();
                }
                let verdict = if send_failed {
                    client.read_outcome()
                } else {
                    client.finish_seq(b + 1 + frames.len() as u64)
                };
                match verdict {
                    Ok(outcome) => {
                        return Ok(ResumableUpload {
                            outcome,
                            reconnects,
                            frames_resumed,
                        })
                    }
                    Err(e) => e,
                }
            }
            Ok(Err(Refusal::Busy)) => {
                return Ok(ResumableUpload {
                    outcome: UploadOutcome::Busy,
                    reconnects,
                    frames_resumed,
                })
            }
            Ok(Err(Refusal::Rejected(reason))) => {
                return Ok(ResumableUpload {
                    outcome: UploadOutcome::Rejected(reason),
                    reconnects,
                    frames_resumed,
                })
            }
            Err(e) => e,
        };
        reconnects += 1;
        if reconnects > u64::from(opts.max_reconnects) {
            return Err(last_err);
        }
        std::thread::sleep(opts.reconnect_backoff);
    }
}

/// A query connection.
pub struct QueryClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl QueryClient {
    /// Connects (no greeting — the first command declares query mode).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<QueryClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(QueryClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one command line and reads a single-line reply.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected EOF.
    pub fn roundtrip(&mut self, command: &str) -> io::Result<String> {
        writeln!(self.writer, "{command}")?;
        self.writer.flush()?;
        read_line(&mut self.reader, MAX_REPLY_LINE)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-query")
        })
    }

    /// `PCTL` convenience: the quantile in ms, or the server's error.
    ///
    /// # Errors
    ///
    /// Transport failures; a server-side `ERR` comes back as `Ok(Err)`.
    pub fn pctl(&mut self, scenario: &str, p: f64) -> io::Result<Result<f64, String>> {
        let line = self.roundtrip(&format!("PCTL {scenario} {p}"))?;
        if let Some(reason) = line.strip_prefix("ERR ") {
            return Ok(Err(reason.to_owned()));
        }
        let ms = line
            .rsplit("ms=")
            .next()
            .and_then(|t| t.parse::<f64>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad PCTL reply {line:?}"),
                )
            })?;
        Ok(Ok(ms))
    }

    /// `STATS` convenience: the full block, one line per element,
    /// without the terminating `.`.
    ///
    /// # Errors
    ///
    /// Transport failures; a server-side `ERR` comes back as `Ok(Err)`.
    pub fn stats(&mut self, scenario: &str) -> io::Result<Result<Vec<String>, String>> {
        let first = self.roundtrip(&format!("STATS {scenario}"))?;
        if let Some(reason) = first.strip_prefix("ERR ") {
            return Ok(Err(reason.to_owned()));
        }
        let mut lines = vec![first];
        loop {
            let Some(line) = read_line(&mut self.reader, MAX_REPLY_LINE)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-STATS block",
                ));
            };
            if line == "." {
                return Ok(Ok(lines));
            }
            lines.push(line);
        }
    }
}
