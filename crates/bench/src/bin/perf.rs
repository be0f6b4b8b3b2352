//! Self-measurement: times the experiment suite itself and emits a
//! machine-readable perf trajectory file.
//!
//! The paper's thesis is that latency is what the user feels — and the
//! experimenter is a user too. This harness measures the tool's own
//! latency so every future change has a baseline to answer to:
//!
//! ```text
//! perf [--out FILE] [--iters N] [--jobs N] [--no-fastforward]
//!      [--ingest-secs N] [--ingest-connections N] [--sweep-reps N]
//!      [--no-fork] [--baseline FILE] [--tolerance PCT] [id ...]
//! ```
//!
//! Six phases run in order:
//!
//! 1. each scenario, `--iters` times (min and mean wall clock);
//! 2. the whole set once through the job pool (`--jobs` workers, default
//!    one per core), for the pooled speedup;
//! 3. **ingest**: `--ingest-connections` uploaders slam an in-process
//!    `latlab-serve` on loopback for three windows of `--ingest-secs`
//!    (the median window counts) while a prober times queries; the
//!    decode → extract → fold pipeline in process, fused vs the
//!    `TraceReader` reference, and fused on a recorded Word trace;
//!    then the same slam with the write-ahead log on, a crash, and a
//!    timed log replay (`--ingest-secs 0` skips phases 3 and 4);
//! 4. **query**: the incremental query plane against the reference full
//!    merge, and query latency under ingest at 1, 32 and 512 scenarios;
//! 5. **sweep**: a full parameter grid (every sweepable parameter × 5
//!    values × `--sweep-reps` reps, default 5) on the warm Word and
//!    Notepad editing metrics, forked and from scratch, asserted
//!    bit-identical (`--sweep-reps 0` or `--no-fork` skips it);
//! 6. **counts**: the simulator's deterministic work counts (loop turns,
//!    events, clock ticks, context switches, messages posted, fast-forward
//!    batches and iterations) for fig7, the ablations and the Word sweep
//!    prefix.
//!
//! Before each timed phase (1 to 5), a fixed integer loop is timed and
//! its ns per iteration recorded as `host.calib_ns.<phase>`: the
//! paper's §2.3 calibration turned on the host, so a wall-clock figure
//! can be read against the host speed its phase ran at. It is reported
//! only, never gated.
//!
//! Every phase pushes its figures onto one flat list of named metrics,
//! written to `BENCH_repro.json` (override with `--out`) as schema
//! `latlab-perf-v4`. Each metric carries its direction (`better`), an
//! optional `noise_floor` and an optional `floor`, and one gate loop
//! judges the list:
//!
//! * every `floor` is checked on the fresh value: a floored metric must
//!   be positive and at least its floor;
//! * with `--baseline FILE`, a metric with a noise floor is compared with
//!   the baseline entry of the same name, and fails when it moved the
//!   wrong way by more than `--tolerance` percent (default 25) *and* by
//!   more than its noise floor. A work count is `exact`: any difference
//!   from its baseline entry fails. A name missing from either side is not
//!   compared; a metric with neither is informational.
//!
//! The baseline is read before anything is measured: a missing file, or
//! one that is not `latlab-perf-v4`, fails the run at once.
//!
//! `--no-fastforward` times the step-by-step idle path instead of the
//! batched one — the two produce byte-identical results, so the delta is
//! pure simulator overhead.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use latlab_analysis::EventClass;
use latlab_bench::query_fixture::{dirty_variant, synthetic_snapshot};
use latlab_bench::{engine, pool, scenarios};
use latlab_core::cli;
use latlab_serve::{merge_full, slam, QueryPlane, ServeConfig, Server, ShardSnapshot};
use serde::{Deserialize, Serialize};

const BIN: &str = "perf";

/// Schema tag of the trajectory file this harness writes and reads.
const SCHEMA: &str = "latlab-perf-v4";

const USAGE: &str = "\
usage: perf [--out FILE] [--iters N] [--jobs N] [--no-fastforward]
            [--ingest-secs N] [--ingest-connections N]
            [--sweep-reps N] [--no-fork]
            [--baseline FILE] [--tolerance PCT] [id ...]";

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

/// One measured figure and the rule that judges it.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Metric {
    /// Stable dotted name; the baseline is matched on it.
    name: String,
    value: f64,
    unit: String,
    better: Better,
    /// Absolute movement (in `unit`) below which a baseline regression is
    /// treated as runner noise. `None` makes the metric informational.
    noise_floor: Option<f64>,
    /// Minimum the fresh value must reach, with or without a baseline; a
    /// floored metric must also be positive.
    floor: Option<f64>,
    /// Any difference from the baseline entry fails, in either direction.
    exact: bool,
}

impl Metric {
    /// An informational figure: recorded, never gated.
    fn info(name: impl Into<String>, value: f64, unit: &str, better: Better) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_owned(),
            better,
            noise_floor: None,
            floor: None,
            exact: false,
        }
    }

    /// Gates the metric against the baseline above `noise_floor`.
    fn gated(self, noise_floor: f64) -> Metric {
        Metric {
            noise_floor: Some(noise_floor),
            ..self
        }
    }

    /// Requires the fresh value to be positive and at least `floor`.
    fn floor(self, floor: f64) -> Metric {
        Metric {
            floor: Some(floor),
            ..self
        }
    }
}

// The gated and floored metrics, one constructor per rule, so the phases
// and the tests build them the same way.

/// Scenario wall clock. Sub-millisecond scenarios can double from one
/// run to the next on a shared runner, so slowdowns under 2 ms are noise;
/// a real hot-path regression still surfaces through the longer ones.
fn scenario_wall(id: &str, ms: f64) -> Metric {
    Metric::info(format!("scenario.{id}.wall_ms_min"), ms, "ms", Lower).gated(2.0)
}

/// Loopback upload throughput. It jitters far more than scenario wall
/// clock, so only a drop of over 10 MB/s counts.
fn throughput(name: &str, mb_per_sec: f64) -> Metric {
    Metric::info(name, mb_per_sec, "MB/s", Higher)
        .gated(10.0)
        .floor(0.0)
}

/// Query p99 under full ingest load, the noisiest figure of all (one
/// scheduler hiccup at the tail): only a 50 ms stall — a query blocking
/// behind ingest — counts.
fn query_p99(name: &str, ms: f64) -> Metric {
    Metric::info(name, ms, "ms", Lower).gated(50.0).floor(0.0)
}

/// A figure that proves a phase measured something real: never compared
/// with the baseline, but it must be positive.
fn nonzero(name: &str, value: f64, unit: &str) -> Metric {
    Metric::info(name, value, unit, Higher).floor(0.0)
}

/// In-process ingest pipeline speedup: the fused fold over the
/// `TraceReader` reference fold.
fn batch_speedup(x: f64) -> Metric {
    Metric::info("ingest.batch_speedup", x, "x", Higher).floor(1.5)
}

/// Incremental query-plane refresh over the reference full merge.
fn incremental_speedup(x: f64) -> Metric {
    Metric::info("query.incremental_speedup", x, "x", Higher).floor(5.0)
}

/// Forked over scratch sweep grid: below 3× the snapshot engine stopped
/// paying for itself; any drop beyond the tolerance is a regression.
fn fork_speedup(id: &str, x: f64) -> Metric {
    Metric::info(format!("sweep.{id}.fork_speedup"), x, "x", Higher)
        .gated(0.0)
        .floor(3.0)
}

/// A deterministic work count (see `latlab_os::work`). It is a pure
/// function of the simulation, so any change from the baseline — up or
/// down — means the simulator now does different work, and fails.
fn count(name: String, n: u64) -> Metric {
    Metric {
        exact: true,
        ..Metric::info(name, n as f64, "count", Lower)
    }
}

/// Appends `new` to the metric list, echoing each figure as it lands.
fn record(metrics: &mut Vec<Metric>, new: impl IntoIterator<Item = Metric>) {
    for m in new {
        eprintln!("  {:<38} {:>12.3} {}", m.name, m.value, m.unit);
        metrics.push(m);
    }
}

/// The trajectory file: a schema tag and the flat metric list.
#[derive(Serialize, Deserialize)]
struct Report {
    schema: String,
    metrics: Vec<Metric>,
}

/// The schema tag alone, read first so a file of another schema is named
/// in the error instead of failing field by field.
#[derive(Deserialize)]
struct SchemaTag {
    schema: String,
}

/// Reads a `--baseline` file; any failure is a message naming the file.
fn read_baseline(path: &str) -> Result<Vec<Metric>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let parse_error = |e| format!("cannot parse baseline {path}: {e:?}");
    let tag: SchemaTag = serde_json::from_str(&text).map_err(parse_error)?;
    if tag.schema != SCHEMA {
        return Err(format!(
            "baseline {path} has schema {:?}, expected {SCHEMA:?}; regenerate it with \
             `perf --out {path}`",
            tag.schema
        ));
    }
    let report: Report = serde_json::from_str(&text).map_err(parse_error)?;
    Ok(report.metrics)
}

/// The gate: checks every floor on the fresh value, and compares each
/// fresh metric that has a noise floor, or is exact, with the baseline
/// entry of the same name. Returns one description per failure (empty =
/// pass).
fn gate(fresh: &[Metric], baseline: &[Metric], tolerance_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for m in fresh {
        if let Some(floor) = m.floor {
            if !(m.value > 0.0 && m.value >= floor) {
                failures.push(format!(
                    "{}: {:.3} {} is not positive and at least {floor}",
                    m.name, m.value, m.unit
                ));
            }
        }
        let Some(base) = baseline.iter().find(|b| b.name == m.name) else {
            continue;
        };
        if m.exact {
            if m.value != base.value {
                failures.push(format!(
                    "{}: {} vs baseline {} {} (an exact count changed)",
                    m.name, m.value, base.value, m.unit
                ));
            }
            continue;
        }
        let Some(noise_floor) = m.noise_floor else {
            continue;
        };
        if base.value <= 0.0 {
            continue;
        }
        // Movement in the bad direction, absolute and relative.
        let worse = match m.better {
            Lower => m.value - base.value,
            Higher => base.value - m.value,
        };
        let worse_pct = worse / base.value * 100.0;
        let regressed = worse_pct > tolerance_pct && worse > noise_floor;
        let line = format!(
            "{}: {:.2} vs baseline {:.2} {} ({worse_pct:+.1}% worse; noise floor {noise_floor})",
            m.name, m.value, base.value, m.unit
        );
        eprintln!(
            "  gate {line} {}",
            if regressed { "REGRESSED" } else { "ok" }
        );
        if regressed {
            failures.push(line);
        }
    }
    failures
}

/// Iterations of [`calibrate`]'s loop: some 10 ms on a current core.
const CALIBRATION_ITERS: u64 = 10_000_000;

/// The paper's §2.3 calibration turned on the host: times a fixed
/// integer loop and records its ns per iteration as
/// `host.calib_ns.<phase>`. Shared hosts drift through speed phases, so
/// a wall-clock figure reads against the speed its phase started at.
/// Informational: it never passes or fails a gate.
fn calibrate(phase: &str, metrics: &mut Vec<Metric>) {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..std::hint::black_box(CALIBRATION_ITERS) {
        // A xorshift step: a serial chain of integer operations.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    let ns = t0.elapsed().as_secs_f64() * 1e9 / CALIBRATION_ITERS as f64;
    let name = format!("host.calib_ns.{phase}");
    record(metrics, [Metric::info(name, ns, "ns", Lower)]);
}

/// Peak RSS of the current process in kB (`VmHWM`), Linux only.
fn peak_rss_kb() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Phase 1: per-scenario sequential timing, `iters` runs each. Returns
/// the sum of per-scenario mean wall clocks and whether any scenario
/// panicked or failed a shape check.
fn scenario_phase(ids: &[String], iters: usize, metrics: &mut Vec<Metric>) -> (f64, bool) {
    let mut seq_total_ms = 0.0f64;
    let mut any_failed = false;
    for id in ids {
        let mut total_ms = 0.0f64;
        let mut min_ms = f64::INFINITY;
        let mut failed = 0usize;
        let mut panicked = false;
        for _ in 0..iters {
            let t0 = Instant::now();
            // A panicking scenario must not abort the whole timing pass:
            // record it as failed and keep timing the rest of the set.
            let Ok(reports) = std::panic::catch_unwind(|| scenarios::run_by_id(id)) else {
                panicked = true;
                break;
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            total_ms += ms;
            min_ms = min_ms.min(ms);
            failed = reports
                .iter()
                .flat_map(|r| &r.checks)
                .filter(|c| !c.passed)
                .count();
        }
        if panicked {
            any_failed = true;
            eprintln!("  {id:<10} PANICKED — excluded from timings");
            continue;
        }
        let mean_ms = total_ms / iters as f64;
        any_failed |= failed > 0;
        seq_total_ms += mean_ms;
        let mean = Metric::info(format!("scenario.{id}.wall_ms_mean"), mean_ms, "ms", Lower);
        record(metrics, [scenario_wall(id, min_ms), mean]);
    }
    (seq_total_ms, any_failed)
}

/// Timed passes per mode in `sweep_entry`; the reported wall clock is the
/// min, like the per-scenario timings, so a scheduler hiccup in one pass
/// can't fail the absolute speedup floor.
const SWEEP_TIMING_PASSES: usize = 3;

/// One sweep-phase grid: every sweepable parameter at 5 values around
/// stock, `reps` reps each, on one warm editing metric, from scratch and
/// forked (`SWEEP_TIMING_PASSES` timed passes each, min wall clock per
/// mode). Checks the points are bit-identical and records the timings.
/// Sequential (`jobs = 1`) so the speedup measures the engine, not the
/// thread pool.
fn sweep_entry(
    id: &str,
    os: latlab_os::OsProfile,
    metric: latlab_bench::sweep::SweepMetric,
    reps: usize,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    use latlab_bench::sweep::{run_sweep_grid, SweepParam};
    let columns: Vec<(SweepParam, Vec<u64>)> = SweepParam::ALL
        .into_iter()
        .map(|p| {
            let stock = p.stock(os);
            let mut values = vec![stock / 2, stock * 3 / 4, stock, stock * 2, stock * 4];
            values.retain(|&v| v > 0);
            values.dedup();
            (p, values)
        })
        .collect();
    let points: usize = columns.iter().map(|(_, v)| v.len()).sum();

    let mut scratch_ms = f64::INFINITY;
    let mut scratch = Vec::new();
    for _ in 0..SWEEP_TIMING_PASSES {
        let t0 = Instant::now();
        let _scratch_mode = latlab_bench::forkcfg::override_default(false);
        scratch = run_sweep_grid(os, metric, &columns, reps, 1).0;
        scratch_ms = scratch_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let mut forked_ms = f64::INFINITY;
    let mut forked = Vec::new();
    let mut stats = latlab_bench::sweep::SweepStats::default();
    for _ in 0..SWEEP_TIMING_PASSES {
        let t0 = Instant::now();
        (forked, stats) = run_sweep_grid(os, metric, &columns, reps, 1);
        forked_ms = forked_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    // The byte-identity contract, asserted on the real measurement grid:
    // forking must be invisible in the results.
    for (((param, _), s_col), f_col) in columns.iter().zip(&scratch).zip(&forked) {
        for (s, f) in s_col.iter().zip(f_col) {
            if s.metric.to_bits() != f.metric.to_bits() {
                return Err(format!(
                    "{id}: forked sweep diverged from scratch at {} = {} \
                     ({} vs {})",
                    param.name(),
                    s.value,
                    f.metric,
                    s.metric
                ));
            }
        }
    }
    let name = |what: &str| format!("sweep.{id}.{what}");
    let forked_points = stats.forked_points as f64;
    record(
        metrics,
        [
            Metric::info(name("scratch_ms"), scratch_ms, "ms", Lower),
            Metric::info(name("forked_ms"), forked_ms, "ms", Lower),
            Metric::info(name("points"), points as f64, "count", Higher),
            Metric::info(name("forked_points"), forked_points, "count", Higher),
            fork_speedup(id, scratch_ms / forked_ms.max(1e-9)),
        ],
    );
    Ok(())
}

/// Phase 6: the deterministic work counts of the Figure 7 and ablation
/// scenarios and of the Word sweep prefix (the `word-keystroke` prepare on
/// NT 3.51), each gated exactly. Fast-forward and forking are pinned on,
/// so the counts describe the default simulator whatever flags the timing
/// phases ran with.
fn count_phase(metrics: &mut Vec<Metric>) {
    use latlab_bench::sweep::SweepMetric;
    let _ff = latlab_os::fastforward::override_default(true);
    let _fork = latlab_bench::forkcfg::override_default(true);
    let mut tally = |what: &str, run: &dyn Fn()| {
        latlab_os::work::take_tally();
        run();
        let counts = latlab_os::work::take_tally().named();
        record(
            metrics,
            counts.map(|(name, n)| count(format!("count.{what}.{name}"), n)),
        );
    };
    for id in ["fig7", "ablations"] {
        tally(id, &|| drop(scenarios::run_by_id(id)));
    }
    tally("word-prefix", &|| {
        let params = latlab_os::OsProfile::Nt351.params();
        drop(SweepMetric::WordKeystrokeMs.prepare(params));
    });
}

/// Starts an in-process server on an ephemeral port.
fn start_server(wal: Option<&std::path::Path>) -> std::io::Result<Server> {
    Server::start(ServeConfig {
        bind: "127.0.0.1:0".to_string(),
        read_timeout: Duration::from_secs(10),
        wal: wal.map(latlab_serve::WalConfig::new),
        ..ServeConfig::default()
    })
}

/// The slam load every loopback pass runs: `connections` uploaders for
/// `secs` seconds against `server`.
fn slam_config(server: &Server, scenario: &str, secs: u64, connections: usize) -> slam::SlamConfig {
    slam::SlamConfig {
        addr: server.local_addr(),
        connections,
        scenario: scenario.to_string(),
        duration: Duration::from_secs(secs),
        ..slam::SlamConfig::default()
    }
}

/// Slam windows per loopback pass. The gated MB/s is their median: one
/// window on a shared 2-vCPU host can read a third under its neighbours.
const SLAM_WINDOWS: usize = 3;

/// Runs `SLAM_WINDOWS` slam windows of `cfg` back to back against one
/// server and returns the report whose MB/s is the median.
fn median_slam(cfg: &slam::SlamConfig, corpus: &[Vec<u8>]) -> std::io::Result<slam::SlamReport> {
    let mut runs = (0..SLAM_WINDOWS)
        .map(|_| slam::run(cfg, corpus))
        .collect::<std::io::Result<Vec<_>>>()?;
    runs.sort_by(|a, b| a.mb_per_sec().total_cmp(&b.mb_per_sec()));
    Ok(runs.swap_remove(SLAM_WINDOWS / 2))
}

/// In-process throughput (MB/s) of the server-side ingest pipeline —
/// decode, sample extraction, sketch fold — over `corpus` in 64 KiB
/// frames, fused or through the `TraceReader` reference fold. No
/// sockets, single thread: this isolates exactly the code the two paths
/// disagree on, which loopback MB/s (client + kernel + server on shared
/// cores) cannot.
fn fold_rate(corpus: &[u8], reference: bool) -> f64 {
    let frame = 64 * 1024;
    // One warmup fold (page in the corpus, size the buffers), then
    // measure whole passes until enough wall clock has accumulated.
    let _ = latlab_serve::fold_corpus(corpus, frame, EventClass::Keystroke, reference);
    let (mut bytes, mut passes) = (0u64, 0u32);
    let t0 = Instant::now();
    while passes < 3 || t0.elapsed() < Duration::from_millis(300) {
        let run = latlab_serve::fold_corpus(corpus, frame, EventClass::Keystroke, reference);
        bytes += run.bytes;
        passes += 1;
    }
    bytes as f64 / 1e6 / t0.elapsed().as_secs_f64()
}

/// Phase 3: the ingest benchmark. A loopback slam with the WAL off (the
/// headline throughput and query latency), the in-process fused and
/// reference pipelines on the synthetic corpus and the fused one on a
/// recorded trace, then the same slam with the WAL on and uploads on the
/// resumable path, a crash (no drain, no checkpoint) and a timed restart
/// that replays the log the crash left behind. Each slam is the median
/// of `SLAM_WINDOWS` windows of `secs` seconds.
fn ingest_phase(secs: u64, connections: usize, metrics: &mut Vec<Metric>) -> std::io::Result<()> {
    let corpus = vec![latlab_serve::idle_corpus(200_000, 0xbe9c, 64)];
    let server = start_server(None)?;
    let report = median_slam(
        &slam_config(&server, "perf-ingest", secs, connections),
        &corpus,
    )?;
    server.request_shutdown();
    let _ = server.join();
    let mb_per_sec = report.mb_per_sec();
    let synthetic = latlab_serve::idle_corpus(1 << 21, 0xbe9c, 64);
    let (batch, reference) = (fold_rate(&synthetic, false), fold_rate(&synthetic, true));
    let recorded = fold_rate(&latlab_bench::record::word_session_stamps(), false);
    record(
        metrics,
        [
            throughput("ingest.mb_per_sec", mb_per_sec),
            Metric::info(
                "ingest.uploads_done",
                report.uploads_done as f64,
                "count",
                Higher,
            ),
            Metric::info(
                "ingest.uploads_busy",
                report.uploads_busy as f64,
                "count",
                Lower,
            ),
            Metric::info("ingest.query_p50_ms", report.query_p50_ms, "ms", Lower),
            query_p99("ingest.query_p99_ms", report.query_p99_ms),
            Metric::info("ingest.pipeline_batch_mb_per_sec", batch, "MB/s", Higher),
            Metric::info(
                "ingest.pipeline_reference_mb_per_sec",
                reference,
                "MB/s",
                Higher,
            ),
            batch_speedup(if reference > 0.0 {
                batch / reference
            } else {
                0.0
            }),
            Metric::info("ingest.recorded_fused_mb_per_s", recorded, "MB/s", Higher),
        ],
    );

    let wal_dir = std::env::temp_dir().join(format!("latlab-perf-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let server = start_server(Some(&wal_dir))?;
    let cfg = slam::SlamConfig {
        resume: true,
        ..slam_config(&server, "perf-wal", secs, connections)
    };
    let report = median_slam(&cfg, &corpus)?;
    server.crash();
    let t0 = Instant::now();
    let recovered = start_server(Some(&wal_dir))?;
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let rec = *recovered.recovery();
    recovered.request_shutdown();
    let _ = recovered.join();
    let _ = std::fs::remove_dir_all(&wal_dir);

    let wal_mb_per_sec = report.mb_per_sec();
    let overhead = if mb_per_sec > 0.0 {
        wal_mb_per_sec / mb_per_sec
    } else {
        0.0
    };
    let records_per_sec = rec.records as f64 / (recovery_ms / 1e3).max(1e-9);
    record(
        metrics,
        [
            throughput("ingest.wal_mb_per_sec", wal_mb_per_sec),
            Metric::info("ingest.wal_overhead_ratio", overhead, "ratio", Higher),
            nonzero("ingest.recovered_frames", rec.frames as f64, "count"),
            Metric::info("ingest.recovery_ms", recovery_ms, "ms", Lower),
            nonzero("ingest.recovery_records_per_sec", records_per_sec, "1/s"),
        ],
    );
    Ok(())
}

/// Mean per-pass wall clock (ms) of repeated calls to `f`: at least 5
/// passes, and enough of them to accumulate a measurable wall clock.
fn timed_passes(mut f: impl FnMut()) -> f64 {
    let mut passes = 0u32;
    let t0 = Instant::now();
    while passes < 5 || t0.elapsed() < Duration::from_millis(300) {
        f();
        passes += 1;
    }
    t0.elapsed().as_secs_f64() * 1e3 / f64::from(passes)
}

/// The query-plane micro-benchmark: per-query cost of the reference
/// full merge versus an incremental refresh with exactly one dirty
/// scenario (the steady-state shape — a publish dirties whatever
/// folded, everything else is carried by pointer). Returns
/// `(full_merge_ms, incremental_ms)` per pass.
fn query_plane_bench(shards: usize, scenarios: usize) -> (f64, f64) {
    let mut snaps: Vec<Arc<ShardSnapshot>> = (0..shards as u64)
        .map(|s| synthetic_snapshot(s, scenarios))
        .collect();
    let cold_ms = timed_passes(|| {
        std::hint::black_box(merge_full(&snaps));
    });
    let plane = QueryPlane::new();
    // The cold rebuild happens outside the timed region.
    plane.refresh(&snaps);
    let (alt_a, alt_b) = (dirty_variant(&snaps[0], 1), dirty_variant(&snaps[0], 2));
    let mut flip = false;
    let incremental_ms = timed_passes(|| {
        snaps[0] = if flip { alt_a.clone() } else { alt_b.clone() };
        flip = !flip;
        std::hint::black_box(plane.refresh(&snaps));
    });
    (cold_ms, incremental_ms)
}

/// Phase 4: the query-plane benchmark — the micro figure (reference full
/// merge vs incremental refresh with one dirty scenario, 4 shards × 512
/// scenarios), then query latency under slam ingest fanned out over 1,
/// 32 and 512 scenario names while the prober cycles
/// `PCTL`/`SNAPSHOT`/`HEALTH` at a tight interval.
fn query_phase(secs: u64, connections: usize, metrics: &mut Vec<Metric>) -> std::io::Result<()> {
    let (cold_ms, incremental_ms) = query_plane_bench(4, 512);
    record(
        metrics,
        [
            Metric::info("query.cold_merge_ms", cold_ms, "ms", Lower),
            Metric::info("query.incremental_refresh_ms", incremental_ms, "ms", Lower),
            incremental_speedup(cold_ms / incremental_ms.max(1e-9)),
        ],
    );
    // Smaller blobs than the throughput pass: more uploads per second
    // means more publishes, which is the dirty-scenario pressure the
    // plane has to absorb while answering.
    let corpus = vec![latlab_serve::idle_corpus(50_000, 0xbe9c, 64)];
    for n in [1usize, 32, 512] {
        let server = start_server(None)?;
        let cfg = slam::SlamConfig {
            scenarios: n,
            query_interval: Duration::from_millis(2),
            ..slam_config(&server, "perf-query", secs, connections)
        };
        let report = slam::run(&cfg, &corpus)?;
        server.request_shutdown();
        let _ = server.join();
        record(
            metrics,
            [
                nonzero(
                    &format!("query.queries@{n}"),
                    report.queries as f64,
                    "count",
                ),
                Metric::info(
                    format!("query.p50_ms@{n}"),
                    report.query_p50_ms,
                    "ms",
                    Lower,
                ),
                query_p99(&format!("query.p99_ms@{n}"), report.query_p99_ms),
            ],
        );
        let verbs = report.verbs.iter().map(|v| {
            let name = format!("query.{}_p99_ms@{n}", v.verb.to_lowercase());
            Metric::info(name, v.p99_ms, "ms", Lower)
        });
        record(metrics, verbs);
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut out = String::from("BENCH_repro.json");
    let mut iters = 3usize;
    let mut jobs = 0usize;
    let mut fastforward = true;
    let mut fork = true;
    let mut sweep_reps = 5usize;
    let mut baseline_path: Option<String> = None;
    let mut tolerance_pct = 25.0f64;
    let mut ingest_secs = 2u64;
    // Default uploader count scales with the machine: 64 connections on
    // real hardware (the reference load), fewer on starved CI runners
    // where extra threads only measure scheduler thrash.
    let mut ingest_connections = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_mul(8)
        .clamp(8, 64);
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> Result<String, ExitCode> {
            args.next()
                .ok_or_else(|| cli::usage_error(BIN, &format!("{what} requires a value"), USAGE))
        };
        // Parses the flag's value as `$ty`, accepting it only if `$ok`
        // holds; anything else is a usage error reading `$msg`.
        macro_rules! value {
            ($ty:ty, $ok:expr, $msg:expr) => {
                match take(&arg).map(|v| v.parse::<$ty>()) {
                    Ok(Ok(v)) if $ok(v) => v,
                    Err(code) => return code,
                    _ => return cli::usage_error(BIN, &format!("{arg} requires {}", $msg), USAGE),
                }
            };
        }
        match arg.as_str() {
            "--version" => return cli::print_version(BIN),
            "--out" => match take("--out") {
                Ok(v) => out = v,
                Err(code) => return code,
            },
            "--iters" => iters = value!(usize, |n| n > 0, "a positive integer"),
            "--jobs" => jobs = value!(usize, |n| n > 0, "a positive integer"),
            "--no-fastforward" => fastforward = false,
            "--no-fork" => fork = false,
            "--sweep-reps" => {
                sweep_reps = value!(
                    usize,
                    |_| true,
                    "an integer (0 disables the sweep benchmark)"
                )
            }
            "--ingest-secs" => {
                ingest_secs = value!(
                    u64,
                    |_| true,
                    "an integer (0 disables the ingest benchmark)"
                )
            }
            "--ingest-connections" => {
                ingest_connections = value!(usize, |n| n > 0, "a positive integer")
            }
            "--baseline" => match take("--baseline") {
                Ok(v) => baseline_path = Some(v),
                Err(code) => return code,
            },
            "--tolerance" => tolerance_pct = value!(f64, |n| n > 0.0, "a positive percentage"),
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("ids: {:?}", scenarios::ALL_IDS);
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                return cli::usage_error(BIN, &format!("unknown argument {flag:?}"), USAGE)
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        ids = scenarios::ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(bad) = ids
        .iter()
        .find(|id| !scenarios::ALL_IDS.contains(&(id.as_str())))
    {
        return cli::usage_error(
            BIN,
            &format!(
                "unknown experiment id {bad:?} (known ids: {:?})",
                scenarios::ALL_IDS
            ),
            USAGE,
        );
    }
    // Read the baseline before measuring anything: a bad one must not cost
    // a whole timing pass to report.
    let baseline = match baseline_path.as_deref().map(read_baseline).transpose() {
        Ok(b) => b.unwrap_or_default(),
        Err(msg) => return cli::runtime_error(BIN, &msg),
    };
    // The pooled pass defaults to one worker per detected core; `--jobs`
    // overrides. (The sequential pass is, by definition, one worker.)
    let jobs_pooled = pool::resolve_jobs(jobs);
    // Phase 1 runs scenarios on this thread, so the thread-local default
    // covers it; the pooled pass gets the same setting via EngineConfig.
    let _ff = latlab_os::fastforward::override_default(fastforward);
    let _fork = latlab_bench::forkcfg::override_default(fork);

    eprintln!(
        "perf: timing {} scenario(s), {iters} iter(s) each, pool of {jobs_pooled} worker(s), \
         fast-forward {}",
        ids.len(),
        if fastforward { "on" } else { "off" },
    );
    let mut metrics = Vec::new();
    calibrate("scenarios", &mut metrics);
    let (seq_total_ms, mut any_failed) = scenario_phase(&ids, iters, &mut metrics);

    // Phase 2: one full pass of the set through the job pool.
    calibrate("pool", &mut metrics);
    let cfg = engine::EngineConfig {
        jobs: jobs_pooled,
        fastforward,
        fork,
        ..engine::EngineConfig::default()
    };
    let t0 = Instant::now();
    let runs = engine::run_scenarios(&ids, &cfg, |_| {});
    let pool_total_ms = t0.elapsed().as_secs_f64() * 1e3;
    for run in &runs {
        if let Some(reason) = run.failure() {
            eprintln!("perf: scenario {} failed in pool pass: {reason}", run.id);
            any_failed = true;
        }
    }
    let pool_speedup = seq_total_ms / pool_total_ms.max(1e-9);
    record(
        &mut metrics,
        [
            Metric::info("suite.seq_total_ms", seq_total_ms, "ms", Lower),
            Metric::info("suite.pool_total_ms", pool_total_ms, "ms", Lower),
            Metric::info("suite.pool_jobs", jobs_pooled as f64, "count", Higher),
            Metric::info("suite.pool_speedup", pool_speedup, "x", Higher),
        ],
    );

    if ingest_secs > 0 {
        eprintln!("perf: ingest and query benchmarks — {ingest_connections} connection(s)");
        calibrate("ingest", &mut metrics);
        if let Err(e) = ingest_phase(ingest_secs, ingest_connections, &mut metrics) {
            return cli::runtime_error(BIN, &format!("ingest benchmark failed: {e}"));
        }
        calibrate("query", &mut metrics);
        if let Err(e) = query_phase(ingest_secs, ingest_connections, &mut metrics) {
            return cli::runtime_error(BIN, &format!("query benchmark failed: {e}"));
        }
    }
    // Forked-vs-scratch is meaningless with forking globally disabled.
    if sweep_reps > 0 && fork {
        use latlab_bench::sweep::SweepMetric::{NotepadKeystrokeMs, WordKeystrokeMs};
        use latlab_os::OsProfile::{Nt351, Nt40};
        eprintln!("perf: sweep benchmark — full grid, {sweep_reps} rep(s), forked vs scratch");
        calibrate("sweep", &mut metrics);
        for (id, os, metric) in [
            ("fig5-word", Nt351, WordKeystrokeMs),
            ("fig7-notepad", Nt40, NotepadKeystrokeMs),
        ] {
            if let Err(e) = sweep_entry(id, os, metric, sweep_reps, &mut metrics) {
                return cli::runtime_error(BIN, &format!("sweep benchmark failed: {e}"));
            }
        }
    }
    eprintln!("perf: deterministic work counts");
    count_phase(&mut metrics);
    if let Some(kb) = peak_rss_kb() {
        metrics.push(Metric::info("suite.peak_rss_kb", kb as f64, "kB", Lower));
    }

    let report = Report {
        schema: SCHEMA.to_string(),
        metrics,
    };
    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => return cli::runtime_error(BIN, &format!("cannot serialize perf report: {e:?}")),
    };
    if let Err(e) = std::fs::write(&out, json + "\n") {
        return cli::runtime_error(BIN, &format!("cannot write {out}: {e}"));
    }
    eprintln!(
        "perf: report in {out}; gating against {} (tolerance {tolerance_pct}%)",
        baseline_path.as_deref().unwrap_or("floors only")
    );
    let failures = gate(&report.metrics, &baseline, tolerance_pct);
    if !failures.is_empty() {
        eprintln!("perf: {} measurement(s) failed the gate:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        return ExitCode::FAILURE;
    }
    if any_failed {
        eprintln!("perf: WARNING — some shape checks failed during timing runs");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failures(fresh: &[Metric], baseline: &[Metric]) -> Vec<String> {
        gate(fresh, baseline, 25.0)
    }

    #[test]
    fn lower_is_better_regression_beyond_tolerance_and_noise_fails() {
        // +43% and +30 ms: past both the tolerance and the 2 ms floor.
        let wall = |ms| scenario_wall("fig7", ms);
        let fails = failures(&[wall(100.0)], &[wall(70.0)]);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].starts_with("scenario.fig7.wall_ms_min"),
            "{fails:?}"
        );
        // Query p99 past its 50 ms floor: +600%, +60 ms.
        let p99 = |ms| query_p99("query.p99_ms@512", ms);
        assert_eq!(failures(&[p99(70.0)], &[p99(10.0)]).len(), 1);
    }

    #[test]
    fn regression_under_the_noise_floor_passes() {
        // +100% but only +1 ms: timer noise on a sub-ms scenario.
        assert!(failures(&[scenario_wall("fig1", 2.0)], &[scenario_wall("fig1", 1.0)]).is_empty());
        // Query p99 +300% but +30 ms, under the 50 ms floor.
        let p99 = |ms| query_p99("ingest.query_p99_ms", ms);
        assert!(failures(&[p99(40.0)], &[p99(10.0)]).is_empty());
        // Throughput -36% but only -5 MB/s, under the 10 MB/s floor.
        let mb = |v| throughput("ingest.wal_mb_per_sec", v);
        assert!(failures(&[mb(9.0)], &[mb(14.0)]).is_empty());
    }

    #[test]
    fn higher_is_better_drop_fails() {
        for name in ["ingest.mb_per_sec", "ingest.wal_mb_per_sec"] {
            let base = [throughput(name, 140.0)];
            // -36% and -50 MB/s.
            assert_eq!(failures(&[throughput(name, 90.0)], &base).len(), 1);
            // An improvement never fails.
            assert!(failures(&[throughput(name, 300.0)], &base).is_empty());
        }
        // Fork speedup: noise floor 0, so any drop past the tolerance fails.
        let fork = |x| fork_speedup("fig5-word", x);
        assert_eq!(failures(&[fork(4.0)], &[fork(6.0)]).len(), 1);
        assert!(failures(&[fork(5.0)], &[fork(6.0)]).is_empty());
    }

    #[test]
    fn names_missing_from_the_baseline_are_not_compared_but_floors_apply() {
        let base = [scenario_wall("fig1", 1.0)];
        // A metric the baseline does not have: no comparison, however slow.
        assert!(failures(&[scenario_wall("fig5", 1e6)], &base).is_empty());
        // A floored one still has its floor checked.
        let fails = failures(&[fork_speedup("fig7-notepad", 2.0)], &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        // A baseline name absent from the fresh run is ignored too.
        assert!(failures(&[], &base).is_empty());
    }

    #[test]
    fn floor_violations_fail_without_a_baseline() {
        let below = [
            batch_speedup(1.49),
            incremental_speedup(4.9),
            fork_speedup("fig7-notepad", 2.9),
            nonzero("ingest.recovered_frames", 0.0, "count"),
            nonzero("ingest.recovery_records_per_sec", 0.0, "1/s"),
            nonzero("query.queries@32", 0.0, "count"),
            query_p99("query.p99_ms@32", 0.0),
            query_p99("ingest.query_p99_ms", 0.0),
            throughput("ingest.mb_per_sec", 0.0),
            throughput("ingest.wal_mb_per_sec", -1.0),
        ];
        let fails = failures(&below, &[]);
        assert_eq!(fails.len(), below.len(), "{fails:?}");
        // At the floor (and positive) every one of them passes.
        let at: Vec<Metric> = below
            .into_iter()
            .map(|m| Metric {
                value: m.floor.unwrap().max(1.0),
                ..m
            })
            .collect();
        assert!(failures(&at, &[]).is_empty());
        assert_eq!((at[0].value, at[1].value, at[2].value), (1.5, 5.0, 3.0));
    }

    #[test]
    fn exact_counts_fail_on_any_difference() {
        let turns = |n| count("count.fig7.loop_turns".to_owned(), n);
        assert!(failures(&[turns(14_866)], &[turns(14_866)]).is_empty());
        // One turn more or less fails: far under any tolerance, and a
        // decrease fails as surely as an increase.
        for moved in [14_865, 14_867] {
            let fails = failures(&[turns(moved)], &[turns(14_866)]);
            assert_eq!(fails.len(), 1, "{fails:?}");
            assert!(fails[0].starts_with("count.fig7.loop_turns"), "{fails:?}");
        }
        // Zero is a count like any other, and a missing name is not compared.
        let batches = |n| count("count.word-prefix.ff_batches".to_owned(), n);
        assert_eq!(failures(&[batches(1)], &[batches(0)]).len(), 1);
        assert!(failures(&[batches(0)], &[batches(0)]).is_empty());
        assert!(failures(&[batches(7)], &[turns(14_866)]).is_empty());
        // The flag survives the file round trip.
        let json = serde_json::to_string(&turns(3)).unwrap();
        assert!(serde_json::from_str::<Metric>(&json).unwrap().exact);
    }

    #[test]
    fn informational_metrics_never_gate() {
        let recovery = |ms| Metric::info("ingest.recovery_ms", ms, "ms", Lower);
        assert!(failures(&[recovery(1e9)], &[recovery(1.0)]).is_empty());
        // A host calibration reading is recorded, never judged, however
        // far it is from the baseline's.
        let mut calib = Vec::new();
        calibrate("ingest", &mut calib);
        assert_eq!(calib.len(), 1);
        assert_eq!(calib[0].name, "host.calib_ns.ingest");
        assert!(calib[0].value > 0.0);
        let slow = Metric {
            value: 1e-6,
            ..calib[0].clone()
        };
        assert!(failures(&calib, &[slow]).is_empty());
        // The floor-only rows are not compared with the baseline.
        assert!(failures(&[batch_speedup(1.6)], &[batch_speedup(3.0)]).is_empty());
        assert!(failures(&[incremental_speedup(6.0)], &[incremental_speedup(900.0)]).is_empty());
        let frames = |n| nonzero("ingest.recovered_frames", n, "count");
        assert!(failures(&[frames(1.0)], &[frames(1000.0)]).is_empty());
    }

    #[test]
    fn reports_round_trip_and_other_schemas_are_refused() {
        let dir = std::env::temp_dir().join(format!("latlab-perf-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v4.json");
        let report = Report {
            schema: SCHEMA.to_string(),
            metrics: vec![scenario_wall("fig1", 1.5), batch_speedup(3.0)],
        };
        std::fs::write(&path, serde_json::to_string_pretty(&report).unwrap()).unwrap();
        let back = read_baseline(path.to_str().unwrap()).expect("v4 parses");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "scenario.fig1.wall_ms_min");
        assert_eq!((back[0].noise_floor, back[1].floor), (Some(2.0), Some(1.5)));
        assert_eq!((back[0].better, back[1].better), (Lower, Higher));

        let old = dir.join("v2.json");
        std::fs::write(&old, r#"{"schema": "latlab-perf-v2", "scenarios": []}"#).unwrap();
        let err = read_baseline(old.to_str().unwrap()).unwrap_err();
        assert!(err.contains("latlab-perf-v2"), "{err}");
        assert!(read_baseline(dir.join("missing.json").to_str().unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
