//! `latlab-netfault` — seeded chaos proxy for `latlab-serve`.

use std::net::ToSocketAddrs;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use latlab_core::cli;
use latlab_serve::{FaultConfig, FaultProxy};

const BIN: &str = "latlab-netfault";

const USAGE: &str = "\
usage: latlab-netfault TARGET [options]
  TARGET                upstream latlab-serve address, e.g. 127.0.0.1:4117
  --bind ADDR           proxy listen address (default 127.0.0.1:0)
  --seed N              fault-stream seed (default 0xfa175eed)
  --reset-one-in N      per-frame odds of an injected connection reset,
                        half of them tearing the frame first (default 40;
                        0 disables)
  --duplicate-one-in N  per-frame odds of duplicating a resumable frame
                        (default 16; 0 disables)
  --delay-one-in N      per-frame odds of a stall (default 8; 0 disables)
  --delay-ms N          stall length (default 2)
  --port-file PATH      write the proxy's bound address to PATH
  --version             print version and exit
  --help                print this help
Proxies every connection to TARGET, injecting deterministic, seeded
faults frame-by-frame; prints injection counters on SIGINT/SIGTERM.";

static SIGNALLED: AtomicBool = AtomicBool::new(false);

fn main() -> ExitCode {
    let mut target_arg: Option<String> = None;
    let mut bind = "127.0.0.1:0".to_owned();
    let mut port_file: Option<String> = None;
    let mut config = FaultConfig::default();

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
                Ok(v) => bind = v,
                Err(code) => return code,
            },
            "--port-file" => match take("--port-file") {
                Ok(v) => port_file = Some(v),
                Err(code) => return code,
            },
            "--seed" => config.seed = parse_or_usage!("--seed", u64),
            "--reset-one-in" => config.reset_one_in = parse_or_usage!("--reset-one-in", u64),
            "--duplicate-one-in" => {
                config.duplicate_one_in = parse_or_usage!("--duplicate-one-in", u64)
            }
            "--delay-one-in" => config.delay_one_in = parse_or_usage!("--delay-one-in", u64),
            "--delay-ms" => {
                config.delay = Duration::from_millis(parse_or_usage!("--delay-ms", u64))
            }
            flag if flag.starts_with("--") => {
                return cli::usage_error(BIN, &format!("unknown argument {flag:?}"), USAGE)
            }
            positional if target_arg.is_none() => target_arg = Some(positional.to_owned()),
            positional => {
                return cli::usage_error(BIN, &format!("unexpected argument {positional:?}"), USAGE)
            }
        }
    }
    let Some(target_arg) = target_arg else {
        return cli::usage_error(BIN, "missing TARGET address", USAGE);
    };
    let target = match target_arg.to_socket_addrs().map(|mut it| it.next()) {
        Ok(Some(a)) => a,
        _ => return cli::usage_error(BIN, &format!("unresolvable address {target_arg:?}"), USAGE),
    };

    latlab_serve::install_signal_handlers(&SIGNALLED);
    let proxy = match FaultProxy::start(&bind, target, config) {
        Ok(p) => p,
        Err(e) => return cli::runtime_error(BIN, &format!("failed to start: {e}")),
    };
    println!("proxying {} -> {}", proxy.local_addr(), target);
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, proxy.local_addr().to_string()) {
            return cli::runtime_error(BIN, &format!("cannot write port file {path}: {e}"));
        }
    }

    while !SIGNALLED.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    let s = proxy.stats();
    eprintln!(
        "{BIN}: connections={} frames={} resets={} torn_frames={} duplicated={} delayed={}",
        s.connections.load(Ordering::Relaxed),
        s.frames.load(Ordering::Relaxed),
        s.resets.load(Ordering::Relaxed),
        s.torn_frames.load(Ordering::Relaxed),
        s.duplicated.load(Ordering::Relaxed),
        s.delayed.load(Ordering::Relaxed),
    );
    proxy.stop();
    ExitCode::SUCCESS
}
