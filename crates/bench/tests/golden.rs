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
//!   points (every sweepable parameter at ½, ¾, 1, 2 and 4 × stock).
//!
//! Each item is digested with FNV-1a-64. A mismatch lists every differing
//! name with both digests. A change that is *meant* to alter output
//! edits `golden.txt` by hand and says why in the commit.

use std::collections::BTreeMap;
use std::path::Path;

use latlab_bench::engine::{run_scenarios, EngineConfig};
use latlab_bench::scenarios;
use latlab_bench::sweep::{run_sweep_grid, SweepMetric, SweepParam};
use latlab_faults::FaultPlan;
use latlab_os::OsProfile;

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
