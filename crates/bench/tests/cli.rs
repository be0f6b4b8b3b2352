//! Exit-code contract tests for the workspace binaries, plus the
//! multi-input aggregation behavior of `trace summary` / `export-csv`.
//!
//! The contract (shared via `latlab_core::cli`): malformed invocations
//! exit 2, well-formed invocations that fail at runtime exit 1, and
//! every binary answers `--version` with the workspace version.

use std::path::{Path, PathBuf};
use std::process::Command;

use latlab_des::{CpuFreq, SimDuration};
use latlab_trace::{Record, StreamKind, TraceMeta, TraceWriter};

const REPRO: &str = env!("CARGO_BIN_EXE_repro");
const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");
const PERF: &str = env!("CARGO_BIN_EXE_perf");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("latlab-bench-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Writes a small idle-stamp trace with a fixed 250-cycle interval, so
/// the aggregate record count (and nothing time-dependent) is asserted.
fn write_stamp_trace(path: &Path, records: u64, start: u64) {
    let meta = TraceMeta {
        kind: StreamKind::IdleStamps,
        freq: CpuFreq::PENTIUM_100,
        baseline: SimDuration::from_cycles(250),
        seed: 0x7e57,
        personality: "cli-test".to_owned(),
    };
    let file = std::fs::File::create(path).expect("create trace");
    let mut w = TraceWriter::create(file, meta).expect("trace writer");
    let mut at = start;
    for _ in 0..records {
        at += 300;
        w.write(&Record::Stamp(at)).expect("write stamp");
    }
    w.finish().expect("finish trace");
}

#[test]
fn version_lines_share_the_workspace_version() {
    for bin in [REPRO, SWEEP, PERF, TRACE] {
        let out = Command::new(bin).arg("--version").output().expect("run");
        assert!(out.status.success(), "{bin} --version failed");
        let line = String::from_utf8(out.stdout).expect("utf8");
        assert!(
            line.contains("(latlab)") && line.contains(env!("CARGO_PKG_VERSION")),
            "{bin}: {line}"
        );
    }
}

#[test]
fn usage_errors_exit_2() {
    let cases: &[(&str, &[&str])] = &[
        (REPRO, &["--no-such-flag"]),
        (REPRO, &["--jobs"]),
        (REPRO, &["--jobs", "zero"]),
        (REPRO, &["--jobs", "0"]),
        (REPRO, &["--faults", "nonsense-spec"]),
        (REPRO, &["no-such-experiment"]),
        (SWEEP, &[]),
        (SWEEP, &["--no-such-flag"]),
        (SWEEP, &["--os", "plan9"]),
        (SWEEP, &["--param", "no-such-param"]),
        (
            SWEEP,
            &[
                "--param",
                "crossing-instr",
                "--metric",
                "pagedown",
                "--values",
                "1,frog",
            ],
        ),
        (PERF, &["--no-such-flag"]),
        (PERF, &["--iters", "0"]),
        (PERF, &["--baseline"]),
        (PERF, &["--ingest-connections", "0"]),
        (PERF, &["no-such-experiment"]),
        (TRACE, &[]),
        (TRACE, &["no-such-subcommand"]),
        (TRACE, &["inspect"]),
        (TRACE, &["summary"]),
        (TRACE, &["export-csv"]),
        (TRACE, &["diff", "only-one.ltrc"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(*args).output().expect("run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn runtime_failures_exit_1() {
    // Well-formed invocations over missing files fail at runtime, not usage.
    let cases: &[&[&str]] = &[
        &["inspect", "/no/such/file.ltrc"],
        &["summary", "/no/such/file.ltrc"],
        &["export-csv", "/no/such/file.ltrc"],
        &["diff", "/no/such/a.ltrc", "/no/such/b.ltrc"],
    ];
    for args in cases {
        let out = Command::new(TRACE).args(*args).output().expect("run");
        assert_eq!(
            out.status.code(),
            Some(1),
            "trace {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // A baseline that does not exist, or is not `latlab-perf-v4`, is a
    // runtime failure for perf, reported before anything is measured (the
    // default sweep grid alone would take tens of seconds here), so no
    // report is written.
    let dir = tmp_dir("perf-out");
    let report = dir.join("bench.json");
    let v2 = dir.join("v2.json");
    std::fs::write(&v2, r#"{"schema": "latlab-perf-v2", "scenarios": []}"#).expect("write v2");
    for (baseline, needle) in [
        ("/no/such/baseline.json", "cannot read baseline"),
        (v2.to_str().expect("utf-8 path"), "latlab-perf-v2"),
    ] {
        let _ = std::fs::remove_file(&report);
        let out = Command::new(PERF)
            .args([
                "--iters",
                "1",
                "--ingest-secs",
                "0",
                "--out",
                &report.display().to_string(),
                "--baseline",
                baseline,
                "fig1",
            ])
            .output()
            .expect("run perf");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(needle), "{stderr}");
        assert!(
            !report.exists(),
            "perf measured before rejecting {baseline}"
        );
    }
}

#[test]
fn trace_summary_aggregates_files_and_directories() {
    let dir = tmp_dir("summary");
    let a = dir.join("a.ltrc");
    let b = dir.join("b.ltrc");
    write_stamp_trace(&a, 500, 1_000);
    write_stamp_trace(&b, 700, 2_000);

    let single = Command::new(TRACE)
        .args(["summary", a.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(single.status.success());
    let text = String::from_utf8_lossy(&single.stdout).to_string();
    assert!(text.contains("records:     500"), "{text}");
    // Single input prints the full header meta.
    assert!(text.contains("personality: cli-test"), "{text}");

    // Two explicit files aggregate; so does the directory holding them.
    for inputs in [
        vec![a.to_str().expect("utf8"), b.to_str().expect("utf8")],
        vec![dir.to_str().expect("utf8")],
    ] {
        let out = Command::new(TRACE)
            .arg("summary")
            .args(&inputs)
            .output()
            .expect("run");
        assert!(out.status.success(), "{inputs:?}");
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains("files:       2"), "{inputs:?}: {text}");
        assert!(text.contains("records:     1200"), "{inputs:?}: {text}");
    }

    // An empty directory is a runtime failure, not a silent zero.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).expect("mkdir");
    let out = Command::new(TRACE)
        .args(["summary", empty.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_export_csv_multi_file_is_byte_identical_to_stitched_singles() {
    // Regression guard for the multi-file export path: its bytes must be
    // exactly the multi-file header plus each file's single-file rows
    // with that file's path prefixed — same numbers, same formatting,
    // independent of how the exporter derives per-file metadata.
    let dir = tmp_dir("csv-bytes");
    let paths: Vec<PathBuf> = [(50u64, 1_000u64), (75, 2_000), (60, 3_000)]
        .iter()
        .enumerate()
        .map(|(i, &(records, start))| {
            let p = dir.join(format!("t{i}.ltrc"));
            write_stamp_trace(&p, records, start);
            p
        })
        .collect();

    let mut expected = String::from("file,stamp_cycles,interval_ms,excess_ms\n");
    for path in &paths {
        let single = Command::new(TRACE)
            .args(["export-csv", path.to_str().expect("utf8")])
            .output()
            .expect("run single export");
        assert!(single.status.success());
        let text = String::from_utf8(single.stdout).expect("utf8 csv");
        for line in text.lines().skip(1) {
            expected.push_str(&format!("{},{line}\n", path.display()));
        }
    }

    let multi = Command::new(TRACE)
        .arg("export-csv")
        .args(paths.iter().map(|p| p.to_str().expect("utf8")))
        .output()
        .expect("run multi export");
    assert!(multi.status.success());
    assert_eq!(
        String::from_utf8(multi.stdout).expect("utf8 csv"),
        expected,
        "multi-file export diverged from stitched single-file exports"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_export_csv_multi_input_gains_a_file_column() {
    let dir = tmp_dir("csv");
    let a = dir.join("a.ltrc");
    let b = dir.join("b.ltrc");
    write_stamp_trace(&a, 10, 1_000);
    write_stamp_trace(&b, 20, 2_000);

    let single = Command::new(TRACE)
        .args(["export-csv", a.to_str().expect("utf8")])
        .output()
        .expect("run");
    assert!(single.status.success());
    let text = String::from_utf8_lossy(&single.stdout).to_string();
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("stamp_cycles,interval_ms,excess_ms"),
        "{text}"
    );
    assert_eq!(text.lines().count(), 1 + 10, "{text}");

    let multi = Command::new(TRACE)
        .args([
            "export-csv",
            a.to_str().expect("utf8"),
            b.to_str().expect("utf8"),
        ])
        .output()
        .expect("run");
    assert!(multi.status.success());
    let text = String::from_utf8_lossy(&multi.stdout).to_string();
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("file,stamp_cycles,interval_ms,excess_ms"),
        "{text}"
    );
    let a_col = format!("{},", a.display());
    let b_col = format!("{},", b.display());
    assert_eq!(
        text.lines().filter(|l| l.starts_with(&a_col)).count(),
        10,
        "{text}"
    );
    assert_eq!(
        text.lines().filter(|l| l.starts_with(&b_col)).count(),
        20,
        "{text}"
    );

    // Mixed stream kinds refuse to concatenate.
    let counters = dir.join("c.ltrc");
    let meta = TraceMeta {
        kind: StreamKind::Counters,
        freq: CpuFreq::PENTIUM_100,
        baseline: SimDuration::from_cycles(250),
        seed: 1,
        personality: "cli-test".to_owned(),
    };
    let file = std::fs::File::create(&counters).expect("create trace");
    let mut w = TraceWriter::create(file, meta).expect("trace writer");
    w.write(&Record::Counter(latlab_trace::CounterRecord {
        at_cycles: 10,
        counter: 0,
        value: 1,
    }))
    .expect("write counter");
    w.finish().expect("finish");
    let out = Command::new(TRACE)
        .args([
            "export-csv",
            a.to_str().expect("utf8"),
            counters.to_str().expect("utf8"),
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1), "mixed kinds must fail");

    let _ = std::fs::remove_dir_all(&dir);
}
