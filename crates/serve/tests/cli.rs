//! Exit-code and end-to-end tests for the `serve` and `slam` binaries.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_serve");
const SLAM: &str = env!("CARGO_BIN_EXE_slam");

#[test]
fn version_lines_share_the_workspace_version() {
    for bin in [SERVE, SLAM] {
        let out = Command::new(bin).arg("--version").output().expect("run");
        assert!(out.status.success());
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
        (SERVE, &["--no-such-flag"]),
        (SERVE, &["--shards"]),
        (SERVE, &["--shards", "zebra"]),
        (SERVE, &["--shards", "0"]),
        // The server has one ingest path; the old scalar switch is gone.
        (SERVE, &["--scalar-ingest"]),
        (SLAM, &[]),
        (SLAM, &["--no-such-flag"]),
        (SLAM, &["not-an-address:-1"]),
        (SLAM, &["127.0.0.1:4117", "--class", "nosuchclass"]),
        (SLAM, &["127.0.0.1:4117", "--connections", "0"]),
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
fn slam_runtime_failure_exits_1() {
    // A dead port is a well-formed invocation that fails at runtime.
    let out = Command::new(SLAM)
        .args([
            "127.0.0.1:9",
            "--duration-s",
            "1",
            "--connections",
            "1",
            "--synthetic-records",
            "1000",
        ])
        .output()
        .expect("run");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_and_slam_end_to_end() {
    let dir = std::env::temp_dir().join(format!("latlab-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let port_file = dir.join("addr");

    let mut server = Command::new(SERVE)
        .args([
            "--bind",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().expect("utf8 path"),
            "--shards",
            "2",
            "--read-timeout-ms",
            "2000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // Wait for the port file to appear.
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            if !s.is_empty() {
                break s;
            }
        }
        assert!(Instant::now() < deadline, "server never published its port");
        std::thread::sleep(Duration::from_millis(20));
    };

    let slam = Command::new(SLAM)
        .args([
            addr.as_str(),
            "--duration-s",
            "2",
            "--connections",
            "4",
            "--scenario",
            "e2e",
            "--synthetic-records",
            "20000",
        ])
        .output()
        .expect("run slam");
    let report = String::from_utf8_lossy(&slam.stdout);
    assert!(
        slam.status.success(),
        "slam failed: {report}\n{}",
        String::from_utf8_lossy(&slam.stderr)
    );
    assert!(report.contains("uploads_done="), "{report}");
    let done: u64 = report
        .lines()
        .find_map(|l| l.strip_prefix("uploads_done="))
        .and_then(|v| v.parse().ok())
        .expect("uploads_done line");
    assert!(done > 0, "{report}");

    // Query the live server directly, then drain it over the wire.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = String::new();
    writeln!(writer, "PCTL e2e 99").expect("send pctl");
    reader.read_line(&mut line).expect("read pctl");
    assert!(line.starts_with("pctl scenario=e2e "), "{line}");
    line.clear();
    writeln!(writer, "SHUTDOWN").expect("send shutdown");
    reader.read_line(&mut line).expect("read shutdown");
    assert_eq!(line.trim(), "draining");

    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
