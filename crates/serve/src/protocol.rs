//! The latlab-serve wire protocol.
//!
//! One TCP connection is either an **ingest** connection or a **query**
//! connection, decided by its first line:
//!
//! ```text
//! PUT <client> <scenario> [class]\n      → ingest mode
//! STATS | PCTL | SNAPSHOT | HEALTH | …   → query mode
//! ```
//!
//! # Ingest framing
//!
//! After the server acknowledges the `PUT` line with `OK\n`, the client
//! streams the raw bytes of one `.ltrc` trace in **length-prefixed,
//! CRC-protected frames** (the CRC-32 is the same polynomial the trace
//! chunks use, via [`latlab_trace::crc32`]):
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! A zero-length frame (`len == 0`, `crc == 0`) ends the upload; the
//! server replies `DONE <records> <bytes>\n`. Frame boundaries need not
//! align with trace chunk boundaries — the server reassembles through
//! [`latlab_trace::StreamDecoder`]. If a shard queue is full the server
//! replies `BUSY\n` and closes: explicit rejection, never unbounded
//! buffering. Malformed trace bytes earn `ERR <reason>\n`.
//!
//! # Resumable ingest
//!
//! A `PUT` line ending in `RESUME [<base>]` opens a **resumable**
//! upload. The server keys the stream by `(client, scenario)`, replies
//! `OK <seq>\n` where `<seq>` is the highest frame sequence number it
//! has already committed for that key (0 for a fresh stream), and the
//! client numbers its frames `seq+1, seq+2, …` using the seq-prefixed
//! frame layout. A bare `RESUME` starts a **new** upload (the server
//! discards any mid-trace state a previous abandoned upload left
//! behind); `RESUME <base>` **continues** an upload whose first frame
//! was numbered `base + 1`, so the server keeps its mid-trace decode
//! state and the client re-sends only frames past the greeting's
//! watermark:
//!
//! ```text
//! [seq: u64 LE][payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! The end-of-upload frame keeps its own sequence number with a zero
//! length. While an upload runs the server sends cumulative `OK <seq>\n`
//! acknowledgement lines; a client that reconnects after a reset learns
//! the committed watermark from the greeting and re-sends only the
//! unacknowledged tail. Frames at or below the watermark are
//! deduplicated server-side, which is what turns acknowledged-sample
//! delivery into an exactly-once invariant at the sketch level.
//!
//! # Query protocol
//!
//! Line-delimited text. Single-line answers except `STATS`, whose block
//! is terminated by a lone `.`:
//!
//! ```text
//! HEALTH                 → ok uptime_s=… shards=… ingested_records=… …
//! PCTL <scenario> <p>    → pctl scenario=… p=… ms=…        (p in [0,1] or percent)
//! STATS <scenario>       → scenario=… / class=… lines / .
//! SNAPSHOT               → one-line JSON of the merged epoch snapshot
//! SHUTDOWN               → draining            (starts graceful drain)
//! QUIT                   → closes the connection
//! ```
//!
//! All four read queries are answered from the server's incremental
//! [`crate::query::QueryPlane`] — a cached merged view refreshed per
//! command, re-merging only scenarios whose published sketch changed —
//! so none of them blocks ingest or pays a full cross-shard merge in
//! steady state. `HEALTH` reports the plane's behaviour in its trailing
//! fields: `total_samples`/`total_misses` (precomputed view totals) and
//! `view_refreshes`/`view_hits`/`view_remerged`/`view_cold_rebuilds`
//! (cache effectiveness).

use std::io::{self, BufRead, Read, Write};

use latlab_trace::crc32;

/// Largest accepted ingest frame payload. Bounds per-connection memory
/// on hostile input, like the trace reader's chunk cap.
pub const MAX_FRAME_PAYLOAD: usize = 4 << 20;

/// Largest accepted protocol line (PUT/query commands).
pub const MAX_LINE: usize = 1024;

/// Largest accepted server reply line. `SNAPSHOT` answers on one line
/// that grows with the scenario count, so replies are held to the frame
/// payload cap rather than [`MAX_LINE`].
pub const MAX_REPLY_LINE: usize = MAX_FRAME_PAYLOAD;

/// Acknowledgement that an ingest header was accepted.
pub const OK_LINE: &str = "OK";

/// Backpressure rejection: a shard queue was full.
pub const BUSY_LINE: &str = "BUSY";

/// A protocol-level failure while reading framed payloads.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed or closed mid-frame.
    Io(io::Error),
    /// The payload did not match its CRC.
    CrcMismatch,
    /// The header declared a payload beyond [`MAX_FRAME_PAYLOAD`].
    TooLarge(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::CrcMismatch => write!(f, "frame CRC mismatch"),
            FrameError::TooLarge(n) => {
                write!(f, "frame payload {n} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one framed payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// Writes the zero-length end-of-upload frame.
pub fn write_end_frame(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())
}

/// Reads one frame into `buf` (cleared first). Returns `false` on the
/// end-of-upload frame, `true` when a payload was read.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<bool, FrameError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let stored_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len == 0 {
        return Ok(false);
    }
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    if crc32(buf) != stored_crc {
        return Err(FrameError::CrcMismatch);
    }
    Ok(true)
}

/// Writes one seq-prefixed framed payload (resumable-upload layout).
pub fn write_seq_frame(w: &mut impl Write, seq: u64, payload: &[u8]) -> io::Result<()> {
    w.write_all(&seq.to_le_bytes())?;
    write_frame(w, payload)
}

/// Writes the seq-prefixed end-of-upload frame.
pub fn write_seq_end_frame(w: &mut impl Write, seq: u64) -> io::Result<()> {
    w.write_all(&seq.to_le_bytes())?;
    write_end_frame(w)
}

/// Reads one seq-prefixed frame into `buf` (cleared first). Returns the
/// frame's sequence number and whether a payload was read (`false` =
/// end-of-upload frame).
pub fn read_seq_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<(u64, bool), FrameError> {
    let mut seq = [0u8; 8];
    r.read_exact(&mut seq)?;
    let seq = u64::from_le_bytes(seq);
    let more = read_frame(r, buf)?;
    Ok((seq, more))
}

/// Reads one `\n`-terminated line of at most `max` bytes, terminator
/// included, and strips the terminator and any `\r`. `Ok(None)` means
/// EOF before any byte of a line. A longer line is an
/// [`io::ErrorKind::InvalidData`] error, so a misbehaving peer cannot
/// grow the reader's buffer without limit. Servers read commands with
/// [`MAX_LINE`], clients read replies with [`MAX_REPLY_LINE`].
pub fn read_line(r: &mut impl BufRead, max: usize) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    let n = r.take(max as u64 + 1).read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if line.len() > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "protocol line too long",
        ));
    }
    while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "protocol line not UTF-8"))
}

/// A parsed `PUT` ingest header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutHeader {
    /// Client identity (free-form token; part of the shard key).
    pub client: String,
    /// Scenario the uploaded trace belongs to (the aggregation key).
    pub scenario: String,
    /// Event class the samples are accounted under, if the uploader
    /// declared one (defaults by stream kind otherwise).
    pub class: Option<latlab_analysis::EventClass>,
    /// Whether the upload is resumable: seq-prefixed frames, committed
    /// sequence numbers acknowledged, dedupe by `(client, scenario)`.
    pub resume: bool,
    /// For a resumable upload, the base the upload being *continued*
    /// started from (its first frame was `base + 1`). `None` starts a
    /// new upload. Meaningless unless [`resume`](Self::resume) is set.
    pub resume_base: Option<u64>,
}

impl PutHeader {
    /// Parses `PUT <client> <scenario> [class] [RESUME [<base>]]`.
    pub fn parse(line: &str) -> Result<PutHeader, String> {
        let mut parts = line.split_ascii_whitespace();
        if parts.next() != Some("PUT") {
            return Err("not a PUT line".to_owned());
        }
        let client = parts
            .next()
            .ok_or_else(|| "PUT requires <client> <scenario>".to_owned())?;
        let scenario = parts
            .next()
            .ok_or_else(|| "PUT requires <client> <scenario>".to_owned())?;
        let mut class = None;
        let mut resume = false;
        let mut resume_base = None;
        let mut next = parts.next();
        if let Some(name) = next {
            if name != "RESUME" {
                class = Some(
                    latlab_analysis::EventClass::parse(name)
                        .ok_or_else(|| format!("unknown event class {name:?}"))?,
                );
                next = parts.next();
            }
        }
        if let Some(tok) = next {
            if tok != "RESUME" {
                return Err(format!("unexpected token {tok:?} after PUT header"));
            }
            resume = true;
            if let Some(base) = parts.next() {
                resume_base = Some(
                    base.parse::<u64>()
                        .map_err(|_| format!("bad RESUME base {base:?}"))?,
                );
            }
        }
        if parts.next().is_some() {
            return Err("trailing tokens after PUT header".to_owned());
        }
        Ok(PutHeader {
            client: client.to_owned(),
            scenario: scenario.to_owned(),
            class,
            resume,
            resume_base,
        })
    }

    /// Renders the header line (without the newline).
    pub fn render(&self) -> String {
        let mut line = match self.class {
            Some(c) => format!("PUT {} {} {}", self.client, self.scenario, c.name()),
            None => format!("PUT {} {}", self.client, self.scenario),
        };
        if self.resume {
            line.push_str(" RESUME");
            if let Some(base) = self.resume_base {
                line.push_str(&format!(" {base}"));
            }
        }
        line
    }
}

/// A parsed query command.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Per-class statistics block for one scenario.
    Stats(String),
    /// One quantile (0.0..=1.0) over all classes of one scenario.
    Pctl(String, f64),
    /// The full merged snapshot as JSON.
    Snapshot,
    /// Liveness and counters.
    Health,
    /// Begin graceful drain.
    Shutdown,
    /// Close this connection.
    Quit,
}

impl Query {
    /// Parses one query line. Percentiles accept either a fraction
    /// (`0.99`) or a percentage (`99`); anything above 1 is divided by
    /// 100.
    pub fn parse(line: &str) -> Result<Query, String> {
        let mut parts = line.split_ascii_whitespace();
        let cmd = parts.next().ok_or_else(|| "empty command".to_owned())?;
        let q = match cmd {
            "STATS" => {
                let scenario = parts
                    .next()
                    .ok_or_else(|| "STATS requires <scenario>".to_owned())?;
                Query::Stats(scenario.to_owned())
            }
            "PCTL" => {
                let scenario = parts
                    .next()
                    .ok_or_else(|| "PCTL requires <scenario> <p>".to_owned())?;
                let p: f64 = parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| "PCTL requires a numeric percentile".to_owned())?;
                let p = if p > 1.0 { p / 100.0 } else { p };
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("percentile {p} out of range"));
                }
                Query::Pctl(scenario.to_owned(), p)
            }
            "SNAPSHOT" => Query::Snapshot,
            "HEALTH" => Query::Health,
            "SHUTDOWN" => Query::Shutdown,
            "QUIT" => Query::Quit,
            other => return Err(format!("unknown command {other:?}")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing tokens after {cmd}"));
        }
        Ok(q)
    }

    /// The command verb, as it appears on the wire. Probers key their
    /// per-verb latency accounting on this.
    pub fn verb(&self) -> &'static str {
        match self {
            Query::Stats(_) => "STATS",
            Query::Pctl(_, _) => "PCTL",
            Query::Snapshot => "SNAPSHOT",
            Query::Health => "HEALTH",
            Query::Shutdown => "SHUTDOWN",
            Query::Quit => "QUIT",
        }
    }

    /// Renders the query line (without the newline); `parse` of the
    /// result round-trips, with percentiles in fraction form.
    pub fn render(&self) -> String {
        match self {
            Query::Stats(scenario) => format!("STATS {scenario}"),
            Query::Pctl(scenario, p) => format!("PCTL {scenario} {p}"),
            _ => self.verb().to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latlab_analysis::EventClass;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, &[0u8; 1000]).unwrap();
        write_end_frame(&mut wire).unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf.len(), 1000);
        assert!(!read_frame(&mut r, &mut buf).unwrap());
    }

    #[test]
    fn corrupt_frame_detected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        let n = wire.len();
        wire[n - 1] ^= 0x40;
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut &wire[..], &mut buf),
            Err(FrameError::CrcMismatch)
        ));
    }

    #[test]
    fn any_bit_flip_in_a_64k_frame_is_a_crc_mismatch() {
        // A full-size upload frame runs the carry-less-multiply CRC
        // kernel where the CPU has it. Flip each bit of the stored CRC,
        // then one bit in every 61st payload byte (about a thousand
        // flips, spread over the whole frame): each must read as a
        // mismatch, never as a frame.
        let payload: Vec<u8> = (0..64 << 10)
            .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut buf = Vec::new();
        assert!(read_frame(&mut &wire[..], &mut buf).unwrap());
        // Bits 32..64 are the CRC field. The payload stride of 61 bytes
        // plus one bit also rotates through the bit positions.
        let last = wire.len() * 8 - 1;
        let flips = (32..64).chain((64..last).step_by(61 * 8 + 1)).chain([last]);
        for bit in flips {
            wire[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    read_frame(&mut &wire[..], &mut buf),
                    Err(FrameError::CrcMismatch)
                ),
                "flip of wire bit {bit} not detected"
            );
            wire[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn read_line_is_bounded() {
        let mut r = &b"PCTL fig5 0.99\r\nQUIT"[..];
        assert_eq!(
            read_line(&mut r, MAX_LINE).unwrap().as_deref(),
            Some("PCTL fig5 0.99")
        );
        assert_eq!(
            read_line(&mut r, MAX_LINE).unwrap().as_deref(),
            Some("QUIT")
        );
        assert_eq!(read_line(&mut r, MAX_LINE).unwrap(), None);
        // A line of exactly `max` bytes (terminator included) passes;
        // one byte more is refused without buffering the rest.
        let long = [b'x'; 16];
        let mut r = &long[..];
        assert_eq!(
            read_line(&mut r, 8).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut r = &b"1234567\n"[..];
        assert_eq!(read_line(&mut r, 8).unwrap().as_deref(), Some("1234567"));
        let mut r = &b"12345678\n"[..];
        assert!(read_line(&mut r, 8).is_err());
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut &wire[..], &mut buf),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn put_header_parses() {
        let h = PutHeader::parse("PUT host-1 fig5 keystroke").unwrap();
        assert_eq!(h.client, "host-1");
        assert_eq!(h.scenario, "fig5");
        assert_eq!(h.class, Some(EventClass::Keystroke));
        assert!(!h.resume);
        let h2 = PutHeader::parse(&h.render()).unwrap();
        assert_eq!(h, h2);
        assert!(PutHeader::parse("PUT host-1").is_err());
        assert!(PutHeader::parse("PUT h s nosuchclass").is_err());
        assert!(PutHeader::parse("GET h s").is_err());
    }

    #[test]
    fn resume_token_parses_in_both_positions() {
        let h = PutHeader::parse("PUT h s RESUME").unwrap();
        assert!(h.resume);
        assert_eq!(h.class, None);
        assert_eq!(h.resume_base, None);
        let h = PutHeader::parse("PUT h s keystroke RESUME").unwrap();
        assert!(h.resume);
        assert_eq!(h.class, Some(EventClass::Keystroke));
        assert_eq!(PutHeader::parse(&h.render()).unwrap(), h);
        assert!(PutHeader::parse("PUT h s RESUME keystroke").is_err());
        assert!(PutHeader::parse("PUT h s keystroke RESUME 5 extra").is_err());
    }

    #[test]
    fn resume_base_parses_and_renders() {
        let h = PutHeader::parse("PUT h s RESUME 42").unwrap();
        assert!(h.resume);
        assert_eq!(h.resume_base, Some(42));
        let h = PutHeader::parse("PUT h s keystroke RESUME 7").unwrap();
        assert_eq!(h.class, Some(EventClass::Keystroke));
        assert_eq!(h.resume_base, Some(7));
        assert_eq!(PutHeader::parse(&h.render()).unwrap(), h);
        assert!(PutHeader::parse("PUT h s RESUME notanumber").is_err());
    }

    #[test]
    fn seq_frames_round_trip() {
        let mut wire = Vec::new();
        write_seq_frame(&mut wire, 7, b"hello").unwrap();
        write_seq_frame(&mut wire, 8, &[3u8; 500]).unwrap();
        write_seq_end_frame(&mut wire, 9).unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert_eq!(read_seq_frame(&mut r, &mut buf).unwrap(), (7, true));
        assert_eq!(buf, b"hello");
        assert_eq!(read_seq_frame(&mut r, &mut buf).unwrap(), (8, true));
        assert_eq!(buf.len(), 500);
        assert_eq!(read_seq_frame(&mut r, &mut buf).unwrap(), (9, false));
    }

    #[test]
    fn queries_parse() {
        assert_eq!(
            Query::parse("STATS fig5").unwrap(),
            Query::Stats("fig5".to_owned())
        );
        assert_eq!(
            Query::parse("PCTL fig5 0.99").unwrap(),
            Query::Pctl("fig5".to_owned(), 0.99)
        );
        // Percent form normalizes.
        assert_eq!(
            Query::parse("PCTL fig5 99").unwrap(),
            Query::Pctl("fig5".to_owned(), 0.99)
        );
        assert_eq!(Query::parse("HEALTH").unwrap(), Query::Health);
        assert_eq!(Query::parse("SNAPSHOT").unwrap(), Query::Snapshot);
        assert_eq!(Query::parse("SHUTDOWN").unwrap(), Query::Shutdown);
        assert!(Query::parse("PCTL fig5").is_err());
        assert!(Query::parse("PCTL fig5 200").is_err());
        assert!(Query::parse("FLY me").is_err());
        assert!(Query::parse("HEALTH now").is_err());
    }

    #[test]
    fn query_render_round_trips_and_verbs_match_the_wire() {
        let queries = [
            Query::Stats("fig5".to_owned()),
            Query::Pctl("fig5".to_owned(), 0.99),
            Query::Snapshot,
            Query::Health,
            Query::Shutdown,
            Query::Quit,
        ];
        for q in queries {
            let line = q.render();
            assert_eq!(Query::parse(&line).unwrap(), q, "{line}");
            assert!(line.starts_with(q.verb()), "{line} vs {}", q.verb());
        }
    }
}
