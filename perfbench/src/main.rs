//! latlab's benchmark: four closed-loop workloads, each driven from one
//! process through the library's public API.
//!
//! ```text
//! perfbench --workload <paper-suite|sweep-grid|ingest-wal|query-fanout>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats the workload's op for `--seconds`, checking every op's
//! output, and sets the workload up [`SETUPS`] times, spread over the
//! run (reporting the median as `setup_s`). Untraced runs (`--trace 0`) print the end-to-end metrics;
//! traced runs (`--trace 1`) alternate untraced and traced ops, record
//! spans around the public calls of each layer, and print the per-layer
//! figures (see `layers`) plus the tracing overhead. The last line of
//! stdout is one JSON object; the exit code is non-zero when any check
//! failed. Scratch files (write-ahead logs, span dumps, the record of
//! deterministic counts) live under `.perfbench/` in the working
//! directory. See `perfbench/README.md` for the workloads and the noise
//! analysis behind them.

mod layers;
mod place;
mod serve;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use place::Placer;
use stats::{median, quantile, Tracer};

const USAGE: &str = "usage: perfbench --workload <paper-suite|sweep-grid|ingest-wal|query-fanout> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One set-up workload.
pub trait Workload {
    /// Untimed work before each op (the uploads `query-fanout`
    /// interleaves with its queries).
    fn between(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// The timed op; its output is kept for [`check`](Self::check).
    fn op(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String>;
    /// Checks the last op's output (untimed).
    fn check(&mut self) -> Result<(), String>;
    /// Untimed sampling after a traced op; `ops` ops have completed.
    fn after_traced(&mut self, _tracer: &mut Tracer, _ops: u64) -> Result<(), String> {
        Ok(())
    }
    /// Tears the workload down, running its end-of-run checks.
    fn finish(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PaperSuite,
    SweepGrid,
    IngestWal,
    QueryFanout,
}

impl Kind {
    const ALL: [Kind; 4] = [
        Kind::PaperSuite,
        Kind::SweepGrid,
        Kind::IngestWal,
        Kind::QueryFanout,
    ];

    fn name(self) -> &'static str {
        match self {
            Kind::PaperSuite => "paper-suite",
            Kind::SweepGrid => "sweep-grid",
            Kind::IngestWal => "ingest-wal",
            Kind::QueryFanout => "query-fanout",
        }
    }

    /// Whether the workload runs on one thread, so that a [`Placer`] can
    /// keep it on a quiet CPU. The service workloads spread their client,
    /// connection and shard threads over every CPU instead.
    fn placed(self) -> bool {
        matches!(self, Kind::PaperSuite | Kind::SweepGrid)
    }

    /// The percentile reported as `latency_ms_tail`: the highest one that
    /// keeps at least ten ops beyond it in a 50 s run and repeats from run
    /// to run (see README.md).
    fn tail_q(self) -> f64 {
        match self {
            Kind::PaperSuite => 0.9,
            Kind::SweepGrid => 0.98,
            Kind::IngestWal => 0.99,
            Kind::QueryFanout => 0.95,
        }
    }

    fn setup(self, seed: u64, scratch: &Path, n: usize) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::PaperSuite => Box::new(sim::PaperSuite::setup()?),
            Kind::SweepGrid => Box::new(sim::SweepGrid::setup()?),
            Kind::IngestWal => Box::new(serve::IngestWal::setup(
                seed,
                scratch.join(format!("wal-{}-{n}", std::process::id())),
            )?),
            Kind::QueryFanout => Box::new(serve::QueryFanout::setup(seed)?),
        })
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What one run measured.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let kind = args.kind;
    if matches!(kind, Kind::PaperSuite | Kind::SweepGrid) {
        eprintln!(
            "perfbench: {} is seed-free (its scenarios fix their own seeds)",
            kind.name()
        );
    }
    let mut placer = Placer::new(kind.placed());
    let mut setup_s = Vec::with_capacity(SETUPS);
    // Times one set-up; the first one builds the workload the loop runs.
    let set_up = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let w = kind.setup(args.seed, scratch, setup_s.len())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok::<_, String>(w)
    };
    let mut w = set_up(&mut setup_s)?;

    let mut tracer = args.trace.then(Tracer::new);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut op_log = String::from("at_s\tms\ttraced\n");
    let (mut attempted, mut failed) = (0u64, 0u64);
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Time taken by the set-ups made during the loop, which is not the
    // loop's: it extends the loop and is left out of `ops_per_s`.
    let mut paused = Duration::ZERO;
    while attempted == 0 || start.elapsed() < seconds + paused {
        // The other set-ups are spread evenly over the loop, so that
        // `setup_s` samples the host phases the ops see (see README.md).
        if setup_s.len() < SETUPS
            && start.elapsed() - paused >= seconds * setup_s.len() as u32 / SETUPS as u32
        {
            let t0 = Instant::now();
            set_up(&mut setup_s)?.finish()?;
            paused += t0.elapsed();
        }
        // Traced runs alternate untraced and traced ops, so host phases
        // hit both halves alike and their difference is the overhead.
        let trace_op = tracer.is_some() && attempted % 2 == 1;
        let result = w.between().and_then(|()| {
            let t0 = Instant::now();
            w.op(tracer.as_mut().filter(|_| trace_op))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let at_s = (t0 - start).as_secs_f64();
            op_log.push_str(&format!("{at_s:.4}\t{ms:.4}\t{}\n", u8::from(trace_op)));
            w.check().map(|()| ms)
        });
        attempted += 1;
        match result {
            Ok(ms) => {
                placer.observe(ms);
                if trace_op { &mut traced } else { &mut plain }.push(ms);
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: op {attempted} failed: {e}");
            }
        }
        if let (true, Some(t)) = (trace_op, tracer.as_mut()) {
            w.after_traced(t, attempted)?;
        }
    }
    let wall = (start.elapsed() - paused).as_secs_f64();
    // Short runs may end before every set-up was due.
    while setup_s.len() < SETUPS {
        set_up(&mut setup_s)?.finish()?;
    }
    placer.release();
    eprintln!(
        "perfbench: {attempted} ops in {wall:.2} s, {} moves to a quieter CPU",
        placer.moves
    );
    // Every op's start and duration, for diagnosing host phases.
    let log_path = scratch.join(format!("ops-{}-{}.tsv", kind.name(), args.seed));
    std::fs::write(&log_path, op_log)
        .map_err(|e| format!("cannot write {}: {e}", log_path.display()))?;
    let mut correct = failed == 0;
    if let Err(e) = w.finish() {
        eprintln!("perfbench: end-of-run check failed: {e}");
        correct = false;
    }

    let mut metrics = Vec::new();
    match tracer {
        None => {
            let ok = plain.len() as f64;
            let q = |p: f64| quantile(&plain, p).unwrap_or(0.0);
            metrics.push(("setup_s", median(&setup_s), "s"));
            metrics.push(("peak_rss_mb", peak_rss_mb()?, "MB"));
            metrics.push(("ops_per_s", ok / wall, "1/s"));
            metrics.push(("latency_ms_p10", q(0.10), "ms"));
            metrics.push(("latency_ms_p50", q(0.50), "ms"));
            metrics.push(("latency_ms_tail", q(kind.tail_q()), "ms"));
            eprintln!(
                "perfbench: latency_ms_tail is p{} with {} ops beyond it",
                kind.tail_q() * 100.0,
                ((1.0 - kind.tail_q()) * ok).floor()
            );
        }
        Some(t) => {
            let mut figures = layers::figures(kind, &t);
            let overhead =
                |p: f64| quantile(&traced, p).unwrap_or(0.0) - quantile(&plain, p).unwrap_or(0.0);
            figures.insert("trace.overhead_p10_ms".to_owned(), overhead(0.10));
            figures.insert("trace.overhead_p50_ms".to_owned(), overhead(0.50));
            figures.insert(
                "trace.overhead_pct".to_owned(),
                100.0 * overhead(0.50) / quantile(&plain, 0.5).unwrap_or(1.0),
            );
            let mut dump = t.dump();
            layers::complete(kind, &mut figures, args.seed, scratch, &mut dump)?;
            let dump_path = scratch.join(format!("spans-{}-{}.tsv", kind.name(), args.seed));
            std::fs::write(&dump_path, dump)
                .map_err(|e| format!("cannot write {}: {e}", dump_path.display()))?;
            if let Err(e) = check_deterministic(&figures, scratch) {
                eprintln!("perfbench: {e}");
                correct = false;
            }
            for &(name, unit) in layers::PER_LAYER {
                let value = *figures
                    .get(name)
                    .ok_or(format!("no figure for per-layer metric {name}"))?;
                metrics.push((name, value, unit));
            }
        }
    }
    finite(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Rejects a result with a non-finite metric (JSON cannot carry it).
fn finite(outcome: Outcome) -> Result<Outcome, String> {
    match outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        Some((name, v, _)) => Err(format!("metric {name} is {v}")),
        None => Ok(outcome),
    }
}

/// Asserts the simulator's deterministic counts repeat exactly across
/// traced runs of the same build: the first run records them under
/// `scratch`, keyed by the executable's size and modification time, and
/// every later run must match.
fn check_deterministic(figures: &BTreeMap<String, f64>, scratch: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let path = scratch.join(format!("counts-{}-{mtime}.txt", meta.len()));
    let mine: String = layers::DETERMINISTIC
        .iter()
        .map(|n| format!("{n} {}\n", figures.get(*n).copied().unwrap_or(f64::NAN)))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == mine => Ok(()),
        Ok(recorded) => Err(format!(
            "deterministic counts changed between traced runs of one build:\nrecorded:\n{recorded}now:\n{mine}"
        )),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, &mine)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("cannot record counts in {}: {e}", path.display()))
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".perfbench");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    match run(&args, &scratch) {
        Ok(outcome) => {
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
