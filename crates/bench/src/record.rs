//! Optional trace recording for standard runs (`repro --record DIR`).
//!
//! When enabled, every [`run_session`](crate::runner::run_session) streams
//! its idle-loop stamps and message-API log to disk as binary trace files
//! while the simulation runs — bounded memory, no post-hoc dump.
//!
//! Recording state is **thread-local and scenario-scoped**: the parallel
//! experiment engine enables recording on whichever worker thread picks up
//! a scenario, with that scenario's id as the scope. File names are derived
//! from the scope plus a per-scope run counter —
//! `<scope>-NN-<label>.stamps.ltrc` / `<scope>-NN-<label>.apilog.ltrc` —
//! never from a global counter, so the set of files and their bytes are
//! identical no matter how runs interleave across workers (`--jobs N` and
//! `--jobs 1` produce byte-identical trace directories).

use std::cell::RefCell;
use std::path::{Path, PathBuf};

use latlab_des::{CpuFreq, SimDuration};
use latlab_trace::{FileSink, StreamKind, TraceError, TraceMeta, TraceSink};

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

struct State {
    dir: PathBuf,
    scope: String,
    seq: u32,
}

/// Enables recording on this thread: subsequent standard runs write their
/// traces under `dir` (created if missing), named `<scope>-NN-<label>`.
///
/// The scope is part of every file name and the per-scope counter starts
/// at 1, so recordings made under different scopes never collide — the
/// property the parallel engine relies on when scenarios record
/// concurrently from several worker threads.
///
/// # Errors
///
/// Any error creating `dir`.
pub fn enable_scoped(dir: &Path, scope: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            dir: dir.to_path_buf(),
            scope: scope.to_owned(),
            seq: 0,
        });
    });
    Ok(())
}

/// Disables recording on this thread.
pub fn disable() {
    STATE.with(|s| *s.borrow_mut() = None);
}

/// True if recording is enabled on this thread.
pub fn is_enabled() -> bool {
    STATE.with(|s| s.borrow().is_some())
}

/// A deterministic 64-bit fingerprint (FNV-1a) of a workload's serialized
/// form, recorded in the trace header's seed field so that traces of the
/// same workload are identifiable without out-of-band context.
pub fn script_fingerprint(serialized: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in serialized.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Opens the sink pair for the next run, if recording is enabled.
/// `label` names the run (personality + workload); `baseline` and `freq`
/// go into the stamp header's calibration fields.
///
/// # Panics
///
/// Panics if the trace files cannot be created — recording was explicitly
/// requested, so failing quietly would silently drop data.
pub(crate) fn open_run_sinks(
    label: &str,
    baseline: SimDuration,
    freq: CpuFreq,
    seed: u64,
) -> Option<(Box<dyn TraceSink>, Box<dyn TraceSink>)> {
    let (dir, scope, seq) = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let state = s.as_mut()?;
        state.seq += 1;
        Some((state.dir.clone(), state.scope.clone(), state.seq))
    })?;
    let make = |kind: StreamKind| -> Result<Box<dyn TraceSink>, TraceError> {
        let path = dir.join(format!("{scope}-{seq:02}-{label}.{}.ltrc", kind.name()));
        let meta = TraceMeta {
            kind,
            freq,
            baseline,
            seed,
            personality: label.to_owned(),
        };
        // FileSink writes to `<path>.tmp` and renames on finish: a crash
        // mid-run leaves only the salvageable temp file, never a truncated
        // file under the final name.
        Ok(Box::new(FileSink::create(path, meta)?))
    };
    let stamps = make(StreamKind::IdleStamps).expect("failed to create stamp trace file");
    let api = make(StreamKind::ApiLog).expect("failed to create apilog trace file");
    Some((stamps, api))
}

/// The idle-stamp trace of Figure 11's NT 3.51 Word session, recorded
/// in process: the run `repro --record DIR fig11` writes to
/// `fig11-01-nt351-word.stamps.ltrc`, as bytes. About 115,000 stamps at
/// the recorded 1 ms baseline (100,000 cycles), so its deltas are the
/// three- and four-byte varints real uploads carry; the benchmarks
/// measure ingest decode on it beside the synthetic corpora.
pub fn word_session_stamps() -> Vec<u8> {
    use crate::runner::{run_session, App};
    let script = latlab_input::workloads::word_session();
    let out = run_session(
        latlab_os::OsProfile::Nt351,
        App::Word,
        latlab_input::TestDriver::ms_test(),
        &script,
        latlab_core::BoundaryPolicy::MergeUntilEmpty,
        5,
    );
    let mut bytes = Vec::new();
    let seed = script_fingerprint(&script.to_json());
    out.measurement
        .trace
        .write_to(&mut bytes, "nt351-word", seed)
        .expect("in-memory trace write");
    bytes
}
