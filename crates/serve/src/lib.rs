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
//! that load.
//!
//! Failure paths are tested from seeds, not from timing: the shard
//! worker's own transitions run seeded schedules of interleaved
//! uploads, resets and duplicates, and every crash state of the log
//! they write — each record boundary, and torn records — is recovered
//! and checked ([`shard`]'s tests); a loopback test cuts a resumable
//! upload's wire bytes at every offset and resumes it.
//!
//! Everything runs on the standard library alone: threads, channels,
//! and blocking sockets — no async runtime, in keeping with the
//! workspace's no-external-dependency constraint.

pub mod client;
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
pub use pipeline::{fold_corpus, FoldOutcome};
pub use protocol::{PutHeader, Query};
pub use query::{merge_full, MergedView, PlaneStats, QueryPlane, ScenarioEntry};
pub use server::{ServeConfig, ServeStats, Server};
pub use shard::{IngestRejection, IngestTotals, ShardConfig, ShardSet, ShardSnapshot};
pub use slam::{idle_corpus, synthetic_corpus, SlamConfig, SlamReport, VerbLatency};
pub use wal::{RecoveryStats, WalConfig};
