#![warn(missing_docs)]

//! # latlab-serve: sharded latency-telemetry ingest and query over TCP
//!
//! The paper measures one machine; a fleet of them produces streams of
//! `.ltrc` traces that have to be folded into latency distributions
//! *somewhere*. This crate is that somewhere: a std-only threaded TCP
//! service that
//!
//! * accepts streaming trace uploads from many concurrent clients,
//!   framed and CRC-checked ([`protocol`]), reassembled by
//!   [`latlab_trace::StreamDecoder`] regardless of how the network
//!   fragments them;
//! * shards ingestion across worker threads by `(client, scenario)`
//!   ([`shard`]), folding idle-stamp streams into O(1)-memory mergeable
//!   sketches ([`latlab_analysis::LatencySketch`]) — fixed-bucket
//!   log-scaled histograms plus deadline-miss counters keyed off the
//!   perception thresholds;
//! * answers a line-delimited query protocol (`STATS`, `PCTL`,
//!   `SNAPSHOT`, `HEALTH`) from epoch-swapped immutable snapshots
//!   through an incremental [`query`] plane — a cached merged view
//!   that re-merges only the scenarios whose published sketch changed
//!   (`Arc::ptr_eq` dirty detection) and memoizes quantiles — so the
//!   read path never blocks ingest and stays O(dirty scenarios), not
//!   O(shards × scenarios), per refresh;
//! * sheds load explicitly — bounded per-shard queues, `BUSY` on
//!   overflow — and drains gracefully on `SHUTDOWN` or SIGTERM;
//! * survives `kill -9` when configured with a write-ahead log
//!   ([`wal`]): each shard logs accepted frames before acknowledging
//!   them, checkpoints its sketches, and replays the log tail on
//!   restart — combined with resumable uploads (`PUT … RESUME` and
//!   cumulative `OK <seq>` acks) every acknowledged sample lands in the
//!   recovered sketch exactly once.
//!
//! [`slam`] is the companion load generator: N uploader connections
//! replaying a corpus while a prober measures query-path latency under
//! that load. [`netfault`] is the matching chaos layer: a seeded
//! in-process TCP proxy that injects resets, partial writes, delays,
//! and duplicated frames between the two, deterministically.
//!
//! Everything runs on the standard library alone: threads, channels,
//! and blocking sockets — no async runtime, in keeping with the
//! workspace's no-external-dependency constraint.

pub mod client;
pub mod netfault;
pub mod pipeline;
pub mod protocol;
pub mod query;
pub mod server;
pub mod shard;
pub mod slam;
pub mod wal;

pub use client::{
    upload, upload_resumable, IngestClient, QueryClient, ResumableUpload, ResumeOpts, UploadOutcome,
};
pub use netfault::{FaultConfig, FaultProxy};
pub use pipeline::{fold_corpus, FoldOutcome};
pub use protocol::{PutHeader, Query};
pub use query::{merge_full, MergedView, PlaneStats, QueryPlane, ScenarioEntry};
pub use server::{ServeConfig, ServeStats, Server};
pub use shard::{IngestRejection, IngestTotals, ShardConfig, ShardSet, ShardSnapshot};
pub use slam::{idle_corpus, synthetic_corpus, SlamConfig, SlamReport, VerbLatency};
pub use wal::{RecoveryStats, WalConfig};

use std::sync::atomic::AtomicBool;
use std::sync::OnceLock;

/// The flag [`install_signal_handlers`] flips.
static SIGNAL_FLAG: OnceLock<&'static AtomicBool> = OnceLock::new();

/// Makes SIGINT and SIGTERM set `flag`, which the binaries poll to start
/// a graceful drain. Only the first call's flag is ever set; on non-Unix
/// targets this does nothing.
pub fn install_signal_handlers(flag: &'static AtomicBool) {
    let _ = SIGNAL_FLAG.set(flag);
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_signum: i32) {
            if let Some(flag) = SIGNAL_FLAG.get() {
                flag.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        // SAFETY: `signal` is the C library's, declared with its ABI
        // (`int` signal number, handler passed as a pointer-sized value).
        // SIGINT = 2 and SIGTERM = 15 are valid signal numbers, and the
        // handler only performs an atomic load and an atomic store, both
        // async-signal-safe.
        unsafe {
            signal(2, on_signal as *const () as usize);
            signal(15, on_signal as *const () as usize);
        }
    }
}
