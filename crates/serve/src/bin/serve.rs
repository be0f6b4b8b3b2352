//! `latlab-serve` — the ingest/query service binary.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use latlab_core::cli;
use latlab_serve::{ServeConfig, Server, ShardConfig, WalConfig};

const BIN: &str = "latlab-serve";

const USAGE: &str = "\
usage: latlab-serve [options]
  --bind ADDR          listen address (default 127.0.0.1:4117; port 0 = ephemeral)
  --shards N           ingest worker threads (default: half the cores, min 2)
  --queue-depth N      bounded frames per shard queue (default 128)
  --publish-every N    samples folded between snapshot publishes (default 65536)
  --read-timeout-ms N  per-connection read timeout (default 30000)
  --busy-retry-ms N    full-queue retry window before BUSY (default 100)
  --wal DIR            write-ahead log directory: log accepted frames
                       before acking, checkpoint sketches, and recover
                       (replay the tail) on restart before listening
  --wal-segment-mb N   rotate log segments at N MiB (default 4)
  --wal-checkpoint-mb N  checkpoint after N MiB appended (default 32)
  --port-file PATH     write the bound address to PATH once listening
  --version            print version and exit
  --help               print this help";

/// Set by the SIGTERM/SIGINT handler; polled by the main loop.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

fn main() -> ExitCode {
    let mut config = ServeConfig {
        bind: "127.0.0.1:4117".to_owned(),
        shard: ShardConfig::default(),
        ..ServeConfig::default()
    };
    let mut port_file: Option<String> = None;
    let mut wal_dir: Option<String> = None;
    let mut wal_segment_mb = 4u64;
    let mut wal_checkpoint_mb = 32u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> Result<String, ExitCode> {
            args.next()
                .ok_or_else(|| cli::usage_error(BIN, &format!("{what} requires a value"), USAGE))
        };
        macro_rules! parse_or_usage {
            ($what:expr, $ty:ty) => {
                match take($what) {
                    Ok(v) => match v.parse::<$ty>() {
                        Ok(v) => v,
                        Err(_) => {
                            return cli::usage_error(
                                BIN,
                                &format!("invalid value for {}: {v:?}", $what),
                                USAGE,
                            )
                        }
                    },
                    Err(code) => return code,
                }
            };
        }
        match arg.as_str() {
            "--version" => return cli::print_version(BIN),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--bind" => match take("--bind") {
                Ok(v) => config.bind = v,
                Err(code) => return code,
            },
            "--port-file" => match take("--port-file") {
                Ok(v) => port_file = Some(v),
                Err(code) => return code,
            },
            "--shards" => config.shard.shards = parse_or_usage!("--shards", usize),
            "--queue-depth" => config.shard.queue_depth = parse_or_usage!("--queue-depth", usize),
            "--publish-every" => {
                config.shard.publish_every = parse_or_usage!("--publish-every", u64)
            }
            "--read-timeout-ms" => {
                config.read_timeout =
                    Duration::from_millis(parse_or_usage!("--read-timeout-ms", u64))
            }
            "--busy-retry-ms" => {
                config.busy_retry = Duration::from_millis(parse_or_usage!("--busy-retry-ms", u64))
            }
            "--wal" => match take("--wal") {
                Ok(v) => wal_dir = Some(v),
                Err(code) => return code,
            },
            "--wal-segment-mb" => wal_segment_mb = parse_or_usage!("--wal-segment-mb", u64),
            "--wal-checkpoint-mb" => {
                wal_checkpoint_mb = parse_or_usage!("--wal-checkpoint-mb", u64)
            }
            other => return cli::usage_error(BIN, &format!("unknown argument {other:?}"), USAGE),
        }
    }
    if config.shard.shards == 0 {
        return cli::usage_error(BIN, "--shards must be at least 1", USAGE);
    }
    if let Some(dir) = wal_dir {
        let mut wal = WalConfig::new(dir);
        wal.segment_bytes = wal_segment_mb.max(1) << 20;
        wal.checkpoint_bytes = wal_checkpoint_mb.max(1) << 20;
        config.wal = Some(wal);
    }

    install_signal_handlers(&SIGNALLED);
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => return cli::runtime_error(BIN, &format!("failed to start: {e}")),
    };
    let rec = server.recovery();
    if rec.checkpoints > 0 || rec.frames > 0 || rec.torn_tails > 0 {
        eprintln!(
            "{BIN}: recovered checkpoints={} segments={} frames={} records={} \
             samples={} torn_tails={} in {}ms",
            rec.checkpoints,
            rec.segments,
            rec.frames,
            rec.records,
            rec.samples,
            rec.torn_tails,
            rec.millis,
        );
    }
    println!("listening on {}", server.local_addr());
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, server.local_addr().to_string()) {
            return cli::runtime_error(BIN, &format!("cannot write port file {path}: {e}"));
        }
    }

    while !server.shutdown_requested() && !SIGNALLED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("{BIN}: draining");
    let stats_line = {
        let s = server.stats();
        format!(
            "connections={} ingested_records={} ingested_bytes={} busy_rejections={} queries={}",
            s.connections.load(Ordering::Relaxed),
            s.ingested_records.load(Ordering::Relaxed),
            s.ingested_bytes.load(Ordering::Relaxed),
            s.busy_rejections.load(Ordering::Relaxed),
            s.queries.load(Ordering::Relaxed),
        )
    };
    let (epoch, merged) = server.join();
    eprintln!(
        "{BIN}: drained epoch={epoch} scenarios={} {stats_line}",
        merged.len()
    );
    ExitCode::SUCCESS
}

/// The flag [`install_signal_handlers`] flips.
static SIGNAL_FLAG: OnceLock<&'static AtomicBool> = OnceLock::new();

/// Makes SIGINT and SIGTERM set `flag`, which the main loop polls to
/// start a graceful drain. Only the first call's flag is ever set; on
/// non-Unix targets this does nothing.
fn install_signal_handlers(flag: &'static AtomicBool) {
    let _ = SIGNAL_FLAG.set(flag);
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_signum: i32) {
            if let Some(flag) = SIGNAL_FLAG.get() {
                flag.store(true, Ordering::SeqCst);
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
