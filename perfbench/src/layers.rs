//! Per-layer figures of a traced run.
//!
//! Spans are recorded from the benchmark's side, around the public calls
//! each layer answers to. Every figure belongs to one workload (README.md
//! maps each to the end-to-end metric it moves). A traced run records the
//! spans of its own workload's ops; every other figure comes from a probe
//! below — a short run of the owning workload, or a replay of the calls
//! it makes at the same sizes — so a figure means the same thing whichever
//! workload is traced. Probes record into their own [`Tracer`], so they
//! never mix with the workload's spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use latlab_analysis::{ascii, CumulativeLatency, EventClass, LatencyHistogram, LatencySketch};
use latlab_bench::runner::FREQ;
use latlab_bench::sweep::{PreparedSnapshot, SweepStats};
use latlab_core::{BoundaryPolicy, MeasurementSession};
use latlab_input::{workloads, TestDriver};
use latlab_os::{OsProfile, ProcessSpec};
use latlab_serve::wal::{ShardWal, StreamId, WalRecord};
use latlab_serve::{merge_full, QueryPlane, ShardSnapshot};
use latlab_trace::StreamDecoder;

use crate::serve::{self, Corpus, FRAME};
use crate::sim;
use crate::stats::{median, quartiles, Rng, Tracer};
use crate::{Kind, Workload};

/// Every per-layer figure, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.scenario_ms.fig1", "ms"),
    ("bench.scenario_ms.fig2", "ms"),
    ("bench.scenario_ms.fig3", "ms"),
    ("bench.scenario_ms.fig4", "ms"),
    ("bench.scenario_ms.fig5", "ms"),
    ("bench.scenario_ms.fig6", "ms"),
    ("bench.scenario_ms.fig7", "ms"),
    ("bench.scenario_ms.fig8", "ms"),
    ("bench.scenario_ms.fig9", "ms"),
    ("bench.scenario_ms.fig10", "ms"),
    ("bench.scenario_ms.fig11", "ms"),
    ("bench.scenario_ms.tab2", "ms"),
    ("bench.scenario_ms.fig12", "ms"),
    ("bench.scenario_ms.sec11", "ms"),
    ("bench.scenario_ms.sec54", "ms"),
    ("bench.scenario_ms.ablations", "ms"),
    ("bench.scenario_ms.faults", "ms"),
    ("bench.render_ms", "ms"),
    ("os.run_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("analysis.summarize_ms", "ms"),
    ("os.loop_turns", "count"),
    ("os.context_switches", "count"),
    ("os.messages_posted", "count"),
    ("os.ff_batches", "count"),
    ("os.ff_warm_iters", "count"),
    ("os.ff_cold_iters", "count"),
    ("os.ff_warm_ratio", "ratio"),
    ("core.events", "count"),
    ("sweep.prepare_ms", "ms"),
    ("os.snapshot_ms", "ms"),
    ("os.restore_ms", "ms"),
    ("sweep.measure_ms", "ms"),
    ("os.snapshot_bytes", "bytes"),
    ("os.snapshot_pending_events", "count"),
    ("sweep.forked_points", "count"),
    ("sweep.scratch_points", "count"),
    ("sweep.forked_reps", "count"),
    ("sweep.fork_ratio", "ratio"),
    ("serve.connect_ms", "ms"),
    ("serve.send_ms", "ms"),
    ("serve.done_ms", "ms"),
    ("trace.decode_mb_per_s", "MB/s"),
    ("serve.fold_mb_per_s", "MB/s"),
    ("analysis.sketch_fold_ms", "ms"),
    ("wal.append_flush_ms", "ms"),
    ("serve.wal_bytes_per_byte", "ratio"),
    ("serve.busy_rejections", "count/op"),
    ("serve.busy_rejections.iqr", "count/op"),
    ("serve.failed", "count/op"),
    ("serve.failed.iqr", "count/op"),
    ("serve.connections", "count/op"),
    ("serve.connections.iqr", "count/op"),
    ("serve.pctl_ms", "ms"),
    ("serve.snapshot_ms", "ms"),
    ("serve.health_ms", "ms"),
    ("query.refresh_ms", "ms"),
    ("query.merge_full_ms", "ms"),
    ("query.view_refreshes", "count/op"),
    ("query.view_refreshes.iqr", "count/op"),
    ("query.view_hits", "count/op"),
    ("query.view_hits.iqr", "count/op"),
    ("query.view_remerged", "count/op"),
    ("query.view_remerged.iqr", "count/op"),
    ("query.view_cold_rebuilds", "count/op"),
    ("query.view_cold_rebuilds.iqr", "count/op"),
    ("query.hit_ratio", "ratio"),
    ("query.hit_ratio.iqr", "ratio"),
    ("trace.overhead_p10_ms", "ms"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Figures that are pure functions of the simulation, so every traced
/// run must reproduce them exactly.
pub const DETERMINISTIC: &[&str] = &[
    "os.loop_turns",
    "os.context_switches",
    "os.messages_posted",
    "os.ff_batches",
    "os.ff_warm_iters",
    "os.ff_cold_iters",
    "core.events",
    "os.snapshot_bytes",
    "os.snapshot_pending_events",
    "sweep.forked_points",
    "sweep.scratch_points",
    "sweep.forked_reps",
];

/// `HEALTH` counters sampled after traced `ingest-wal` ops; their per-op
/// rates depend on timing (accept and publish interleaving), so each is
/// reported with the spread of its rate over [`WINDOWS`] parts of the run.
const INGEST_HEALTH: &[(&str, &str)] = &[
    ("busy_rejections", "serve.busy_rejections"),
    ("failed", "serve.failed"),
    ("connections", "serve.connections"),
];

/// The same for `query-fanout`'s query plane.
const FANOUT_HEALTH: &[(&str, &str)] = &[
    ("view_refreshes", "query.view_refreshes"),
    ("view_hits", "query.view_hits"),
    ("view_remerged", "query.view_remerged"),
    ("view_cold_rebuilds", "query.view_cold_rebuilds"),
];

/// Consecutive parts of a traced run whose `HEALTH` rates give the spread.
const WINDOWS: usize = 8;

/// Replays per probe; timings are their median and counts must agree.
const REPLAYS: usize = 3;

/// Records the fork accounting of one grid sweep.
pub fn record_sweep_stats(t: &mut Tracer, stats: &SweepStats) {
    let points = stats.forked_points + stats.scratch_points;
    t.set("sweep.forked_points", stats.forked_points as f64);
    t.set("sweep.scratch_points", stats.scratch_points as f64);
    t.set("sweep.forked_reps", stats.forked_reps as f64);
    t.set(
        "sweep.fork_ratio",
        stats.forked_points as f64 / points.max(1) as f64,
    );
}

/// Per-op rates of the `HEALTH` counters sampled during a traced run of
/// `kind`: the rate over the whole run, and as `<name>.iqr` the spread of
/// the rates of its [`WINDOWS`] parts.
fn health_figures(
    kind: Kind,
    samples: &[(u64, BTreeMap<String, f64>)],
    out: &mut BTreeMap<String, f64>,
) {
    let counters = match kind {
        Kind::IngestWal => INGEST_HEALTH,
        Kind::QueryFanout => FANOUT_HEALTH,
        Kind::PaperSuite | Kind::SweepGrid => return,
    };
    if samples.len() <= WINDOWS {
        return;
    }
    let field = |i: usize, k: &str| samples[i].1.get(k).copied().unwrap_or(0.0);
    let last = samples.len() - 1;
    // Sample indices that bound the windows.
    let cuts: Vec<usize> = (0..=WINDOWS).map(|w| w * last / WINDOWS).collect();
    let rates = |num: &dyn Fn(usize) -> f64, den: &dyn Fn(usize) -> f64| -> (f64, f64) {
        let whole = (num(last) - num(0)) / (den(last) - den(0));
        let parts: Vec<f64> = cuts
            .windows(2)
            .map(|c| (num(c[1]) - num(c[0])) / (den(c[1]) - den(c[0])))
            .filter(|r| r.is_finite())
            .collect();
        let (q1, q3) = quartiles(&parts);
        (whole, q3 - q1)
    };
    let ops = |i: usize| samples[i].0 as f64;
    for &(key, name) in counters {
        let (rate, iqr) = rates(&|i| field(i, key), &ops);
        out.insert(name.to_owned(), rate);
        out.insert(format!("{name}.iqr"), iqr);
    }
    match kind {
        Kind::IngestWal => {
            let (ratio, _) = rates(&|i| field(i, "wal_bytes"), &|i| field(i, "ingested_bytes"));
            out.insert("serve.wal_bytes_per_byte".to_owned(), ratio);
        }
        _ => {
            let (ratio, iqr) = rates(&|i| field(i, "view_hits"), &|i| field(i, "view_refreshes"));
            out.insert("query.hit_ratio".to_owned(), ratio);
            out.insert("query.hit_ratio.iqr".to_owned(), iqr);
        }
    }
}

/// Every per-layer figure `t` holds, for a traced run of `kind`: set
/// figures as they are, span timings as the median span, sampled `HEALTH`
/// counters as rates.
pub fn figures(kind: Kind, t: &Tracer) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    health_figures(kind, &t.health, &mut out);
    for &(name, unit) in PER_LAYER {
        if let Some(v) = t.get(name) {
            out.insert(name.to_owned(), v);
        } else if unit == "ms" {
            let d = t.durations_ms(name);
            if !d.is_empty() {
                out.insert(name.to_owned(), median(&d));
            }
        }
    }
    out
}

/// A probe: fills a fresh tracer with figures of the workload `owner`.
struct Probe {
    owner: Kind,
    /// Whether a traced run of `owner` measures these figures itself.
    own_run_covers: bool,
    run: fn(&mut Tracer, u64, &Path) -> Result<(), String>,
}

const PROBES: &[Probe] = &[
    Probe {
        owner: Kind::PaperSuite,
        own_run_covers: true,
        run: probe_suite,
    },
    Probe {
        owner: Kind::PaperSuite,
        own_run_covers: false,
        run: probe_fig7,
    },
    Probe {
        owner: Kind::SweepGrid,
        own_run_covers: false,
        run: probe_sweep,
    },
    Probe {
        owner: Kind::IngestWal,
        own_run_covers: true,
        run: probe_ingest,
    },
    Probe {
        owner: Kind::IngestWal,
        own_run_covers: false,
        run: probe_pipeline,
    },
    Probe {
        owner: Kind::QueryFanout,
        own_run_covers: false,
        run: probe_plane,
    },
    Probe {
        owner: Kind::QueryFanout,
        own_run_covers: true,
        run: probe_fanout,
    },
];

/// Completes `have` (the figures of a traced run of `kind`) with those of
/// every probe that run does not cover; figures the run measured win.
pub fn complete(
    kind: Kind,
    have: &mut BTreeMap<String, f64>,
    seed: u64,
    scratch: &Path,
    dump: &mut String,
) -> Result<(), String> {
    for probe in PROBES {
        if probe.own_run_covers && probe.owner == kind {
            continue;
        }
        let mut t = Tracer::new();
        (probe.run)(&mut t, seed, scratch)?;
        dump.push_str(&t.dump());
        for (name, value) in figures(probe.owner, &t) {
            have.entry(name).or_insert(value);
        }
    }
    Ok(())
}

/// One paper-suite pass: per-scenario wall clock and the render.
fn probe_suite(t: &mut Tracer, _seed: u64, _scratch: &Path) -> Result<(), String> {
    let runs = sim::suite_pass();
    for r in &runs {
        t.record(
            &format!("bench.scenario_ms.{}", r.id),
            r.wall.as_secs_f64() * 1e3,
        );
    }
    t.span("bench.render_ms", || sim::render(&runs));
    Ok(())
}

/// The Figure 7 Notepad session replayed on the three OS profiles:
/// simulate, extract, then summarize the way the scenario does. Each
/// replay's kernel and extraction counts must match the first's.
fn probe_fig7(t: &mut Tracer, _seed: u64, _scratch: &Path) -> Result<(), String> {
    let script = workloads::notepad_session();
    let start = latlab_des::SimTime::ZERO + FREQ.ms(100);
    let limit = start + script.duration() + FREQ.secs(4);
    let mut first: Option<[u64; 7]> = None;
    for _ in 0..REPLAYS {
        let mut sessions: Vec<MeasurementSession> = OsProfile::ALL
            .iter()
            .map(|&profile| {
                let mut s = MeasurementSession::new(profile);
                s.launch_app(
                    ProcessSpec::app("notepad"),
                    Box::new(latlab_apps::Notepad::new(
                        latlab_apps::NotepadConfig::default(),
                    )),
                );
                TestDriver::ms_test().schedule(s.machine(), start, &script);
                s
            })
            .collect();
        let quiesced = t.span("os.run_ms", || {
            sessions.iter_mut().all(|s| s.run_until_quiescent(limit))
        });
        if !quiesced {
            return Err("fig7 replay did not quiesce".to_owned());
        }
        let finished = t.span("core.extract_ms", || {
            sessions
                .into_iter()
                .map(|s| s.finish_with_machine(BoundaryPolicy::SplitAtRetrieval))
                .collect::<Vec<_>>()
        });
        t.span("analysis.summarize_ms", || {
            for (m, _) in &finished {
                let clean: Vec<f64> = m
                    .events
                    .iter()
                    .filter(|e| !e.is_test_overhead())
                    .map(|e| e.latency_ms(FREQ))
                    .collect();
                let cum = CumulativeLatency::new(&clean);
                let hist = LatencyHistogram::from_latencies(&clean);
                std::hint::black_box((cum.total_ms(), ascii::histogram_log(&hist, 40)));
            }
        });
        let mut counts = [0u64; 7];
        for (m, machine) in &finished {
            let (batches, warm, cold) = machine.fast_forward_stats();
            let stats = machine.stats();
            for (c, v) in counts.iter_mut().zip([
                machine.debug_loop_turns(),
                stats.context_switches,
                stats.messages_posted,
                batches,
                warm,
                cold,
                m.events.len() as u64,
            ]) {
                *c += v;
            }
        }
        match first {
            None => first = Some(counts),
            Some(f) if f != counts => {
                return Err(format!("fig7 replay counts {counts:?} differ from {f:?}"));
            }
            Some(_) => {}
        }
    }
    let c = first.expect("REPLAYS > 0");
    for (name, v) in [
        "os.loop_turns",
        "os.context_switches",
        "os.messages_posted",
        "os.ff_batches",
        "os.ff_warm_iters",
        "os.ff_cold_iters",
        "core.events",
    ]
    .into_iter()
    .zip(c)
    {
        t.set(name, v as f64);
    }
    t.set(
        "os.ff_warm_ratio",
        c[4] as f64 / (c[4] + c[5]).max(1) as f64,
    );
    Ok(())
}

/// The sweep grid's calls replayed: the stock prepare and its snapshot,
/// then a restore and a measure per point the planner forks. One real
/// grid sweep supplies the fork accounting.
fn probe_sweep(t: &mut Tracer, _seed: u64, _scratch: &Path) -> Result<(), String> {
    let metric = sim::SWEEP_METRIC;
    let os = sim::SWEEP_OS;
    let mut snap = None;
    for _ in 0..REPLAYS {
        let mut prepared = t.span("sweep.prepare_ms", || metric.prepare(os.params()));
        let s = t.span("os.snapshot_ms", || prepared.snapshot());
        let PreparedSnapshot::Machine(m) = &s else {
            return Err("word-keystroke prefix is not a plain machine".to_owned());
        };
        let (bytes, pending) = (m.state_footprint() as f64, m.pending_events() as f64);
        if let (Some(b), Some(p)) = (
            t.get("os.snapshot_bytes"),
            t.get("os.snapshot_pending_events"),
        ) {
            if (b, p) != (bytes, pending) {
                return Err(format!(
                    "snapshot footprint {bytes}/{pending} differs from {b}/{p}"
                ));
            }
        }
        t.set("os.snapshot_bytes", bytes);
        t.set("os.snapshot_pending_events", pending);
        snap = Some(s);
    }
    let snap = snap.expect("REPLAYS > 0");
    for (param, values) in sim::sweep_columns() {
        let stock = param.stock(os);
        for value in values {
            if value != stock && !snap.param_unread(param) {
                continue;
            }
            let mut prepared = t.span("os.restore_ms", || snap.restore());
            if value != stock {
                prepared.apply_param(param, value);
            }
            t.span("sweep.measure_ms", || metric.measure(prepared));
        }
    }
    let (_, stats) = sim::sweep_grid(&sim::sweep_columns());
    record_sweep_stats(t, &stats);
    Ok(())
}

/// The ingest pipeline's layers run in-process over the `ingest-wal`
/// corpus: columnar decode, the whole decode-extract-fold pipeline, the
/// sketch fold alone, and the WAL append+flush of every frame.
fn probe_pipeline(t: &mut Tracer, seed: u64, scratch: &Path) -> Result<(), String> {
    let corpus = Corpus::generate(serve::INGEST_RECORDS, Rng::new(seed).next_u64());
    let mb = corpus.bytes.len() as f64 / 1e6;
    let samples = extract_samples(&corpus.bytes)?;
    let mut decode = Vec::new();
    let mut fold = Vec::new();
    for _ in 0..REPLAYS {
        let mut decoder = StreamDecoder::new();
        let mut column: Vec<u64> = Vec::new();
        let t0 = Instant::now();
        for frame in corpus.bytes.chunks(FRAME) {
            decoder.feed(frame).map_err(|e| format!("decode: {e}"))?;
            decoder.poll_batch(&mut column);
            column.clear();
        }
        decode.push(mb / t0.elapsed().as_secs_f64());
        if decoder.records_decoded() != corpus.records {
            return Err("decoder lost records".to_owned());
        }

        let t0 = Instant::now();
        let folded = latlab_serve::fold_corpus(&corpus.bytes, FRAME, EventClass::Keystroke, false);
        fold.push(mb / t0.elapsed().as_secs_f64());
        if folded.samples != corpus.samples {
            return Err("pipeline fold lost samples".to_owned());
        }

        let mut sketch = LatencySketch::new();
        t.span("analysis.sketch_fold_ms", || {
            for batch in samples.chunks(4096) {
                sketch.update_batch(EventClass::Keystroke, batch);
            }
        });
        if sketch.total() != corpus.samples {
            return Err(format!(
                "sketch folded {} samples, pipeline {}",
                sketch.total(),
                corpus.samples
            ));
        }
    }
    t.set("trace.decode_mb_per_s", median(&decode));
    t.set("serve.fold_mb_per_s", median(&fold));

    let stream = StreamId::Conn {
        conn: 1,
        scenario: "probe".to_owned(),
    };
    let records: Vec<WalRecord> = corpus
        .bytes
        .chunks(FRAME)
        .enumerate()
        .map(|(i, frame)| WalRecord::Frame {
            stream: stream.clone(),
            class: Some(EventClass::Keystroke),
            seq: i as u64 + 1,
            bytes: frame.to_vec(),
        })
        .collect();
    let dir = scratch.join(format!("wal-probe-{}", std::process::id()));
    for _ in 0..REPLAYS {
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = ShardWal::open(&dir, 4 << 20, 1).map_err(|e| format!("wal open: {e}"))?;
        t.span("wal.append_flush_ms", || -> std::io::Result<()> {
            for rec in &records {
                wal.append(rec)?;
                wal.flush()?;
            }
            Ok(())
        })
        .map_err(|e| format!("wal append: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The latency samples the server's extractor derives from an idle-stamp
/// trace: each stamp gap's excess over the calibrated baseline, in ms.
fn extract_samples(trace: &[u8]) -> Result<Vec<f64>, String> {
    let mut decoder = StreamDecoder::new();
    decoder.feed(trace).map_err(|e| format!("decode: {e}"))?;
    let mut stamps = Vec::new();
    decoder.poll_batch(&mut stamps);
    let meta = decoder.meta().ok_or("trace has no header")?;
    let baseline = meta.baseline.cycles();
    Ok(stamps
        .windows(2)
        .filter_map(|w| {
            let gap = w[1].saturating_sub(w[0]);
            (gap > baseline).then(|| {
                meta.freq
                    .to_ms(latlab_des::SimDuration::from_cycles(gap - baseline))
            })
        })
        .collect())
}

/// Seeded per-scenario sketches of one shard, for the plane replay.
fn synthetic_shard(shard: u64, rng: &mut Rng) -> Arc<ShardSnapshot> {
    let sketches = (0..serve::FANOUT_SCENARIOS)
        .map(|k| {
            let mut s = LatencySketch::new();
            for _ in 0..48 {
                let class = EventClass::ALL[rng.below(EventClass::ALL.len())];
                s.push(class, 0.3 + rng.below(1500) as f64 * 0.97);
            }
            (format!("q-{k:03}"), Arc::new(s))
        })
        .collect();
    Arc::new(ShardSnapshot {
        epoch: shard + 1,
        sketches,
    })
}

/// The query plane at 256 scenarios × 2 shards: a reference full merge,
/// and a refresh after a publish that dirtied exactly one scenario.
fn probe_plane(t: &mut Tracer, seed: u64, _scratch: &Path) -> Result<(), String> {
    let mut rng = Rng::new(seed ^ 0x5eed_9a1e);
    let mut snaps: Vec<Arc<ShardSnapshot>> = (0..2).map(|s| synthetic_shard(s, &mut rng)).collect();
    for _ in 0..20 {
        t.span("query.merge_full_ms", || {
            std::hint::black_box(merge_full(&snaps))
        });
    }
    let plane = QueryPlane::new();
    plane.refresh(&snaps);
    // Two variants of shard 0 that share every sketch but one: flipping
    // between them makes each refresh see exactly one dirty scenario.
    let variant = |bump: u64| {
        let mut sketches = snaps[0].sketches.clone();
        let mut dirty = (*sketches["q-000"]).clone();
        dirty.push(EventClass::Keystroke, 1.0 + bump as f64);
        sketches.insert("q-000".to_owned(), Arc::new(dirty));
        Arc::new(ShardSnapshot {
            epoch: snaps[0].epoch + bump,
            sketches,
        })
    };
    let variants = [variant(1), variant(2)];
    for i in 0..400 {
        snaps[0] = variants[i % 2].clone();
        t.span("query.refresh_ms", || {
            std::hint::black_box(plane.refresh(&snaps))
        });
    }
    let stats = plane.stats();
    if stats.remerged == 0 {
        return Err("plane refresh re-merged nothing".to_owned());
    }
    Ok(())
}

/// Runs `ops` traced ops of `w`, with a `HEALTH` sample after each.
fn probe_ops(t: &mut Tracer, mut w: Box<dyn Workload>, ops: u64) -> Result<(), String> {
    for op in 1..=ops {
        w.between()?;
        w.op(Some(t))?;
        w.check()?;
        w.after_traced(t, op)?;
    }
    w.finish()
}

/// A short `ingest-wal`: the same server and corpus, 32 traced uploads.
fn probe_ingest(t: &mut Tracer, seed: u64, scratch: &Path) -> Result<(), String> {
    let dir = scratch.join(format!("wal-ingest-probe-{}", std::process::id()));
    probe_ops(t, Box::new(serve::IngestWal::setup(seed, dir)?), 32)
}

/// A short `query-fanout`: the same preloaded server, 256 traced
/// dashboard rounds (with their interleaved uploads).
fn probe_fanout(t: &mut Tracer, seed: u64, _scratch: &Path) -> Result<(), String> {
    probe_ops(t, Box::new(serve::QueryFanout::setup(seed)?), 256)
}
