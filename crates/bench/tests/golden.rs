//! Cross-version golden oracle: the simulator's observable output, pinned
//! as digests in `golden.txt` beside this file.
//!
//! Every other determinism oracle (`--no-fastforward`, `--no-fork`,
//! `--jobs N`) compares two modes of the *same* kernel, so a hot-path
//! change that shifts behaviour in both modes passes all of them. This
//! one compares against the output an earlier version produced:
//!
//! * `suite/…`: the rendered reports, CSV/JSON artifacts and `.ltrc`
//!   traces of the full experiment suite;
//! * `faulted/…`: the same for `fig5 faults` under the CI fault-smoke plan;
//! * `grid/…`: the bit patterns of the 35 NT 3.51 `word-keystroke` sweep
//!   points (every sweepable parameter at ½, ¾, 1, 2 and 4 × stock);
//! * `counters/…`: the counter readings of two sessions cut into short
//!   odd-length runs, read after every run. The cuts fall inside
//!   multi-packet service calls, so these pin what a counter read sees at
//!   a run boundary that splits a packet, which the end-of-run output
//!   above never shows.
//!
//! Each item is digested with FNV-1a-64. A mismatch lists every differing
//! name with both digests. A change that is *meant* to alter output
//! edits `golden.txt` by hand and says why in the commit.

use std::collections::BTreeMap;
use std::path::Path;

use latlab_apps::{PowerPoint, PowerPointConfig, Word, WordConfig, OPEN_KEY};
use latlab_bench::engine::{run_scenarios, EngineConfig};
use latlab_bench::scenarios;
use latlab_bench::sweep::{run_sweep_grid, SweepMetric, SweepParam};
use latlab_des::{CpuFreq, SimDuration, SimTime};
use latlab_faults::FaultPlan;
use latlab_hw::{CounterId, HwEvent};
use latlab_os::{InputKind, KeySym, Machine, OsProfile, ProcessSpec, ThreadId};

/// The fault plan of CI's fault-smoke step.
const FAULT_SMOKE: &str =
    "seed=7;storm:period=5000,instr=15000;jitter:rate=300;input:drop=100,dup=100";

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests every file under `dir` as `<prefix>/<relative path>`.
fn digest_dir(dir: &Path, prefix: &str, out: &mut BTreeMap<String, u64>) {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_string_lossy();
                let name = format!("{prefix}/{}", rel.replace('\\', "/"));
                out.insert(name, fnv1a64(&std::fs::read(&path).unwrap()));
            }
        }
    }
}

/// Runs `ids` with artifacts and recording on, digesting reports,
/// artifacts and traces under `prefix`.
fn digest_suite(ids: &[&str], faults: Option<FaultPlan>, prefix: &str) -> BTreeMap<String, u64> {
    let base = std::env::temp_dir().join(format!("latlab-golden-{prefix}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg = EngineConfig {
        jobs: 2,
        out_dir: Some(base.join("out")),
        record_dir: Some(base.join("rec")),
        faults,
        ..EngineConfig::default()
    };
    let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
    let mut out = BTreeMap::new();
    run_scenarios(&ids, &cfg, |run| {
        assert!(run.failure().is_none(), "{}: {:?}", run.id, run.failure());
        for (i, r) in run.reports().iter().enumerate() {
            let name = format!("{prefix}/report/{}.{i}", run.id);
            out.insert(name, fnv1a64(r.render().as_bytes()));
        }
    });
    digest_dir(&base.join("out"), &format!("{prefix}/artifact"), &mut out);
    digest_dir(&base.join("rec"), &format!("{prefix}/trace"), &mut out);
    let _ = std::fs::remove_dir_all(&base);
    out
}

/// The 35-point NT 3.51 `word-keystroke` grid, one entry per point.
fn digest_grid() -> BTreeMap<String, u64> {
    let os = OsProfile::Nt351;
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
    let (grid, _) = run_sweep_grid(os, SweepMetric::WordKeystrokeMs, &columns, 1, 2);
    let mut out = BTreeMap::new();
    for ((param, _), points) in columns.iter().zip(&grid) {
        for p in points {
            let name = format!("grid/word-keystroke/{}={}", param.name(), p.value);
            out.insert(name, p.metric.to_bits());
        }
    }
    assert_eq!(out.len(), 35, "the grid has 35 points");
    out
}

/// Runs `m` to `end` in hops of `hop` cycles and digests, after every hop,
/// both event counters, the omniscient event totals, the cycle counter and
/// every thread's CPU cycles. Halfway through, counter 1 is reconfigured
/// to `recount`, which resets it.
fn digest_counter_hops(
    m: &mut Machine,
    threads: &[ThreadId],
    hop: u64,
    end: SimTime,
    recount: HwEvent,
) -> u64 {
    let hops = end.since(m.now()).cycles() / hop;
    let mut words = Vec::new();
    for i in 1..=hops {
        m.run_for(SimDuration::from_cycles(hop));
        if i == hops / 2 {
            m.configure_counter(CounterId::Ctr1, recount).unwrap();
        }
        words.push(m.read_counter(CounterId::Ctr0).unwrap());
        words.push(m.read_counter(CounterId::Ctr1).unwrap());
        words.extend(m.counter_ground_truth().iter().map(|(_, n)| n));
        words.push(m.read_cycle_counter());
        words.extend(threads.iter().map(|&tid| m.thread_cpu_cycles(tid)));
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// Counter readings of an NT 3.51 Word typing session (three-packet
/// user-server services) and a Windows 95 PowerPoint start, open and page
/// flips (thunked services), each cut into odd-length runs.
fn digest_counters() -> BTreeMap<String, u64> {
    let freq = CpuFreq::PENTIUM_100;
    let ms = |n: u64| SimTime::ZERO + freq.ms(n);
    let mut out = BTreeMap::new();

    let mut m = Machine::new(OsProfile::Nt351.params());
    let word = m.spawn(
        ProcessSpec::app("word").with_heavy_async(),
        Box::new(Word::new(WordConfig::default())),
    );
    m.set_focus(word);
    m.configure_counter(CounterId::Ctr0, HwEvent::DtlbMisses)
        .unwrap();
    m.configure_counter(CounterId::Ctr1, HwEvent::Instructions)
        .unwrap();
    for i in 0..24u64 {
        let key = KeySym::Char(b"typing"[(i % 6) as usize] as char);
        m.schedule_input_at(ms(100 + i * 110), InputKind::Key(key));
    }
    let hash = digest_counter_hops(&mut m, &[word], 37_337, ms(2_900), HwEvent::ItlbMisses);
    out.insert("counters/nt351-word".to_owned(), hash);

    let mut m = Machine::new(OsProfile::Win95.params());
    latlab_apps::powerpoint::register_files(&mut m);
    let ppt = m.spawn(
        ProcessSpec::app("powerpoint"),
        Box::new(PowerPoint::new(PowerPointConfig::default())),
    );
    m.set_focus(ppt);
    m.configure_counter(CounterId::Ctr0, HwEvent::SegmentLoads)
        .unwrap();
    m.configure_counter(CounterId::Ctr1, HwEvent::DataRefs)
        .unwrap();
    m.schedule_input_at(ms(100), InputKind::Key(KeySym::Char('\n')));
    m.schedule_input_at(ms(15_100), InputKind::Key(OPEN_KEY));
    for i in 0..6u64 {
        m.schedule_input_at(ms(27_100 + i * 700), InputKind::Key(KeySym::PageDown));
    }
    let hash = digest_counter_hops(&mut m, &[ppt], 300_007, ms(32_000), HwEvent::DtlbMisses);
    out.insert("counters/win95-powerpoint".to_owned(), hash);
    out
}

fn read_golden() -> BTreeMap<String, u64> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden.txt");
    let text = std::fs::read_to_string(&path).unwrap();
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.rsplit_once(' ').expect("`<name> <hex digest>`");
            (name.to_owned(), u64::from_str_radix(hex, 16).unwrap())
        })
        .collect()
}

#[test]
fn output_matches_the_golden_digests() {
    let mut fresh = digest_suite(&scenarios::ALL_IDS, None, "suite");
    let plan = FaultPlan::parse(FAULT_SMOKE).expect("fault-smoke plan parses");
    fresh.extend(digest_suite(&["fig5", "faults"], Some(plan), "faulted"));
    fresh.extend(digest_grid());
    fresh.extend(digest_counters());
    assert!(
        fresh.keys().any(|k| k.ends_with(".ltrc")),
        "no traces recorded"
    );

    let golden = read_golden();
    let mut diffs = Vec::new();
    for name in golden
        .keys()
        .chain(fresh.keys().filter(|k| !golden.contains_key(*k)))
    {
        let show = |d: Option<&u64>| d.map_or("(absent)".to_owned(), |d| format!("{d:016x}"));
        let (want, got) = (golden.get(name), fresh.get(name));
        if want != got {
            diffs.push(format!(
                "  {name}: golden {} fresh {}",
                show(want),
                show(got)
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "{} of {} items differ from tests/golden.txt:\n{}",
        diffs.len(),
        golden.len().max(fresh.len()),
        diffs.join("\n")
    );
}
