//! Whole-machine snapshot/restore: a restored continuation must be
//! bit-identical to the straight run — observables, trace suffixes and
//! fault statistics — and a fork that edits an unread parameter must be
//! bit-identical to a scratch boot with that parameter changed.

use std::sync::{Arc, Mutex};

use std::mem::{size_of, size_of_val};

use latlab_des::{SimDuration, SimTime};
use latlab_faults::{FaultKind, FaultPlan};
use latlab_hw::{CounterId, HwEvent};
use latlab_os::program::{
    Action, ApiCall, ApiReply, ComputeSpec, ProcessSpec, Program, StepCtx, ThreadId,
};
use latlab_os::{FileId, InputKind, KeySym, Machine, Message, OsParams, OsProfile, SweptParam};
use latlab_trace::{Record, TraceSink};
use proptest::prelude::*;

/// A message-loop app exercising every swept-parameter path: GetMessage
/// (crossing/GUI costs), GDI batching, write-through file I/O, and idle
/// stamp emission.
#[derive(Clone)]
struct Worker {
    file: Option<FileId>,
    phase: u8,
    writes: u64,
}

impl Worker {
    fn new() -> Self {
        Worker {
            file: None,
            phase: 0,
            writes: 0,
        }
    }
}

impl Program for Worker {
    fn step(&mut self, ctx: &mut StepCtx) -> Action {
        match self.phase {
            0 => {
                self.phase = 1;
                Action::Call(ApiCall::OpenFile { name: "data" })
            }
            1 => {
                if let ApiReply::File(f) = ctx.reply {
                    self.file = Some(f);
                }
                self.phase = 2;
                Action::Call(ApiCall::GetMessage)
            }
            2 => {
                if let ApiReply::Message(Some(Message::Input { .. })) = ctx.reply {
                    self.phase = 3;
                    Action::Compute(ComputeSpec::app(200_000))
                } else {
                    Action::Call(ApiCall::GetMessage)
                }
            }
            3 => {
                self.phase = 4;
                Action::Call(ApiCall::Gdi { ops: 3 })
            }
            4 => {
                self.phase = 5;
                let offset = (self.writes * 4096) % (48 * 4096);
                self.writes += 1;
                Action::Call(ApiCall::WriteFile {
                    file: self.file.expect("file opened"),
                    offset,
                    len: 4096,
                })
            }
            _ => {
                self.phase = 2;
                Action::Call(ApiCall::Emit(self.writes))
            }
        }
    }
}

/// Builds the standard scenario: one focused `Worker`, a registered file,
/// an optional fault plan, and keys at the given absolute millisecond
/// offsets (must be sorted).
fn build(params: OsParams, plan: Option<&FaultPlan>, input_ms: &[u64]) -> Machine {
    let mut m = Machine::new(params);
    m.register_file("data", 64 * 4096, 4);
    let tid = m.spawn(ProcessSpec::app("worker"), Box::new(Worker::new()));
    m.set_focus(tid);
    if let Some(p) = plan {
        m.install_faults(p);
    }
    let freq = m.params().freq;
    for &ms in input_ms {
        m.schedule_input_at(
            SimTime::ZERO + freq.ms(ms),
            InputKind::Key(KeySym::Char('x')),
        );
    }
    m
}

/// Everything a run exposes, flattened for equality checks.
#[allow(clippy::type_complexity)]
fn observe(
    m: &Machine,
) -> (
    u64,
    Vec<u64>,
    String,
    String,
    String,
    (u64, u64),
    (u64, u64),
) {
    let lats: Vec<u64> = m
        .ground_truth()
        .events()
        .iter()
        .map(|e| e.true_latency().map(|d| d.cycles()).unwrap_or(u64::MAX))
        .collect();
    (
        m.now().cycles(),
        lats,
        format!("{:?}", m.counter_ground_truth()),
        format!("{:?}", m.fault_stats()),
        format!("{:?}", m.stats()),
        m.cache_stats(),
        m.sink_records(),
    )
}

#[test]
fn restored_continuation_matches_straight_run() {
    let inputs = [60, 130, 200, 260];
    let freq = OsProfile::Nt40.params().freq;
    let end = SimTime::ZERO + freq.ms(600);

    let mut straight = build(OsProfile::Nt40.params(), None, &inputs);
    straight.run_until(end);
    let want = observe(&straight);

    let mut m = build(OsProfile::Nt40.params(), None, &inputs);
    m.run_until(SimTime::ZERO + freq.ms(150));
    let snap = m.snapshot();
    assert_eq!(snap.now(), SimTime::ZERO + freq.ms(150));
    assert!(snap.pending_events() > 0);
    assert_eq!(snap.process_count(), 1);
    // The footprint counts the logs and the ground-truth vectors.
    let gt = m.ground_truth();
    let logged = size_of::<Machine>()
        + size_of_val(m.apilog().entries())
        + size_of_val(m.state_log().records())
        + size_of_val(gt.events())
        + size_of_val(gt.labels())
        + size_of_val(gt.busy_intervals());
    assert!(!gt.events().is_empty() && !gt.busy_intervals().is_empty());
    assert!(
        snap.state_footprint() >= logged,
        "footprint {} < {logged}",
        snap.state_footprint()
    );

    // The restored machine finishes identically...
    let mut restored = Machine::restore(&snap);
    restored.run_until(end);
    assert_eq!(observe(&restored), want);

    // ...and so does the original the snapshot was taken from.
    m.run_until(end);
    assert_eq!(observe(&m), want);
}

#[test]
fn footprint_grows_by_the_logs_and_ground_truth() {
    // Past the last input the pending events and thread slots stay put,
    // so the footprint grows by exactly what the logs and the ground
    // truth (events, labels, busy intervals) grew.
    let logged = |m: &Machine| {
        let gt = m.ground_truth();
        size_of_val(m.apilog().entries())
            + size_of_val(m.state_log().records())
            + size_of_val(gt.events())
            + size_of_val(gt.labels())
            + size_of_val(gt.busy_intervals())
    };
    let freq = OsProfile::Nt40.params().freq;
    let mut m = build(OsProfile::Nt40.params(), None, &[60, 130]);
    m.run_until(SimTime::ZERO + freq.ms(300));
    let (early, early_logged) = (m.snapshot(), logged(&m));
    let busy_before = m.ground_truth().busy_intervals().len();
    m.run_until(SimTime::ZERO + freq.ms(900));
    let (late, late_logged) = (m.snapshot(), logged(&m));
    assert!(m.ground_truth().busy_intervals().len() > busy_before);
    assert_eq!(early.pending_events(), late.pending_events());
    assert_eq!(
        late.state_footprint() - early.state_footprint(),
        late_logged - early_logged
    );
}

#[test]
fn snapshot_restores_repeatedly() {
    let inputs = [40, 90];
    let freq = OsProfile::Win95.params().freq;
    let end = SimTime::ZERO + freq.ms(400);
    let mut m = build(OsProfile::Win95.params(), None, &inputs);
    m.run_until(SimTime::ZERO + freq.ms(65));
    let snap = m.snapshot();
    let mut a = Machine::restore(&snap);
    let mut b = Machine::restore(&snap);
    a.run_until(end);
    b.run_until(end);
    assert_eq!(observe(&a), observe(&b));
}

/// Back-to-back USER calls of `instr` GUI instructions: on NT 3.51 each is
/// three packets (send, service, return), and the service packet is long,
/// so a run that stops at an arbitrary instant stops inside one.
#[derive(Clone)]
struct Caller {
    instr: u64,
}

impl Program for Caller {
    fn step(&mut self, _ctx: &mut StepCtx) -> Action {
        Action::Call(ApiCall::UserCall { instr: self.instr })
    }
}

#[test]
fn snapshot_inside_a_multi_packet_exec_resumes_identically() {
    let params = OsProfile::Nt351.params();
    let freq = params.freq;
    let cut = SimTime::ZERO + freq.ms(150) + SimDuration::from_cycles(12_345);
    let end = SimTime::ZERO + freq.ms(600);
    let boot = || {
        let mut m = build(params.clone(), None, &[60, 130, 200, 260]);
        let caller = m.spawn(
            ProcessSpec::app("caller"),
            Box::new(Caller { instr: 900_000 }),
        );
        m.configure_counter(CounterId::Ctr0, HwEvent::Instructions)
            .unwrap();
        m.configure_counter(CounterId::Ctr1, HwEvent::DtlbMisses)
            .unwrap();
        (m, [ThreadId(0), caller])
    };
    #[allow(clippy::type_complexity)]
    let readings = |m: &Machine, threads: &[ThreadId]| {
        (
            m.read_counter(CounterId::Ctr0).unwrap(),
            m.read_counter(CounterId::Ctr1).unwrap(),
            *m.counter_ground_truth(),
            m.read_cycle_counter(),
            threads
                .iter()
                .map(|&t| m.thread_cpu_cycles(t))
                .collect::<Vec<_>>(),
            format!("{:?}", m.apilog().entries()),
            format!(
                "{:?} {:?}",
                m.ground_truth().events(),
                m.ground_truth().busy_intervals()
            ),
        )
    };

    let (mut straight, threads) = boot();
    straight.run_until(end);
    let want = readings(&straight, &threads);

    let (mut m, _) = boot();
    m.run_until(cut);
    // The caller's service packet spans the cut: one more cycle moves the
    // instruction count by a prorated share, not by a whole packet.
    let at_cut = *m.counter_ground_truth();
    let snap = m.snapshot();
    let mut restored = Machine::restore(&snap);
    let mut probe = Machine::restore(&snap);
    probe.run_for(SimDuration::from_cycles(1));
    assert_eq!(
        probe.counter_ground_truth().get(HwEvent::Instructions) - at_cut.get(HwEvent::Instructions),
        1,
        "the cut falls inside a running packet"
    );

    restored.run_until(end);
    assert_eq!(readings(&restored, &threads), want, "restored");
    m.run_until(end);
    assert_eq!(readings(&m, &threads), want, "original");
}

/// A stamp/API tee recording into a shared vector, so the test keeps a
/// handle after the machine takes ownership of the box.
#[derive(Debug, Clone)]
struct SharedSink(Arc<Mutex<Vec<Record>>>);

impl TraceSink for SharedSink {
    fn record(&mut self, rec: &Record) {
        self.0.lock().unwrap().push(*rec);
    }
}

#[test]
fn restored_sinks_receive_the_exact_suffix() {
    let inputs = [50, 120, 190];
    let freq = OsProfile::Nt351.params().freq;
    let end = SimTime::ZERO + freq.ms(500);

    // Straight run with tees from boot: the reference streams.
    let full_stamps = Arc::new(Mutex::new(Vec::new()));
    let full_api = Arc::new(Mutex::new(Vec::new()));
    let mut straight = build(OsProfile::Nt351.params(), None, &inputs);
    straight.set_stamp_sink(Box::new(SharedSink(full_stamps.clone())));
    straight.set_api_sink(Box::new(SharedSink(full_api.clone())));
    straight.run_until(end);

    // Same build, snapshot mid-run, restore with fresh tees.
    let mut m = build(OsProfile::Nt351.params(), None, &inputs);
    m.set_stamp_sink(Box::new(SharedSink(Arc::new(Mutex::new(Vec::new())))));
    m.set_api_sink(Box::new(SharedSink(Arc::new(Mutex::new(Vec::new())))));
    m.run_until(SimTime::ZERO + freq.ms(140));
    let snap = m.snapshot();
    let (stamp_pos, api_pos) = snap.sink_records();

    let tail_stamps = Arc::new(Mutex::new(Vec::new()));
    let tail_api = Arc::new(Mutex::new(Vec::new()));
    let mut restored = Machine::restore(&snap);
    restored.set_stamp_sink(Box::new(SharedSink(tail_stamps.clone())));
    restored.set_api_sink(Box::new(SharedSink(tail_api.clone())));
    restored.run_until(end);

    let full_stamps = full_stamps.lock().unwrap();
    let full_api = full_api.lock().unwrap();
    assert_eq!(
        full_stamps[stamp_pos as usize..],
        tail_stamps.lock().unwrap()[..],
        "stamp stream suffix"
    );
    assert_eq!(
        full_api[api_pos as usize..],
        tail_api.lock().unwrap()[..],
        "api stream suffix"
    );
}

#[test]
fn watermarks_track_first_reads() {
    let mut m = build(OsProfile::Nt40.params(), None, &[80]);
    // Boot: only the cache size has been consulted.
    assert_eq!(
        m.param_watermarks().get(SweptParam::CacheBlocks),
        Some(SimTime::ZERO)
    );
    assert!(m
        .param_watermarks()
        .get(SweptParam::InputDispatchInstr)
        .is_none());
    let freq = m.params().freq;
    // Before the input lands, the dispatch path is still unread; the
    // GetMessage the worker blocked in has read the crossing/GUI costs.
    m.run_until(SimTime::ZERO + freq.ms(40));
    let early = m.snapshot();
    assert!(early.param_unread(SweptParam::InputDispatchInstr));
    assert!(early.param_unread(SweptParam::GdiBatchSize));
    assert!(early.param_unread(SweptParam::WriteOverheadMilli));
    assert!(!early.param_unread(SweptParam::CrossingInstr));
    assert!(!early.param_unread(SweptParam::GuiPathMilli));
    assert!(!early.param_unread(SweptParam::CacheBlocks));
    // After the input is handled end-to-end every parameter has been read.
    m.run_until(SimTime::ZERO + freq.ms(400));
    let late = m.snapshot();
    for p in SweptParam::ALL {
        assert!(
            !late.param_unread(p),
            "{} read by the full scenario",
            p.name()
        );
    }
    // Watermarks are conservative-early: each recorded stamp is at or
    // before the time of the snapshot that first observed the read.
    for p in SweptParam::ALL {
        let w = m.param_watermarks().get(p).unwrap();
        assert!(w <= m.now());
    }
}

#[test]
fn forked_param_edit_matches_scratch_boot() {
    let inputs = [150, 220];
    let stock = OsProfile::Nt40.params();
    let freq = stock.freq;
    let end = SimTime::ZERO + freq.ms(600);
    let swept = SweptParam::InputDispatchInstr;
    let value = swept.stock(OsProfile::Nt40) * 5;

    // Scratch reference: the parameter changed from boot.
    let mut params = stock.clone();
    swept.apply(&mut params, value);
    let mut scratch = build(params, None, &inputs);
    scratch.run_until(end);

    // Fork: shared prefix to 100 ms (before the first input, so the
    // dispatch cost is provably unread), then edit and continue.
    let mut m = build(stock, None, &inputs);
    m.run_until(SimTime::ZERO + freq.ms(100));
    let snap = m.snapshot();
    assert!(snap.param_unread(swept), "fork must be provably sound");
    let mut forked = Machine::restore(&snap);
    forked.apply_param(swept, value);
    forked.run_until(end);

    assert_eq!(observe(&forked), observe(&scratch));
}

/// Fault plans for the property test, selected by index (0 = none).
fn fault_plan(sel: u8, seed: u64) -> Option<FaultPlan> {
    match sel % 4 {
        1 => Some(FaultPlan::single(
            seed,
            FaultKind::InputChaos {
                drop_permille: 200,
                dup_permille: 250,
            },
        )),
        2 => Some(FaultPlan::single(
            seed,
            FaultKind::DiskFault {
                delay_ms: 2,
                error_permille: 300,
            },
        )),
        3 => Some(FaultPlan::single(
            seed,
            FaultKind::SchedJitter {
                rate_permille: 300,
                max_instr: 40_000,
            },
        )),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Snapshot at an arbitrary instant of an arbitrary scenario
    /// (including ambient fault plans), restore, run to completion: every
    /// observable — ground-truth latencies, counters, fault statistics,
    /// machine stats, cache state, trace record counts — matches the
    /// straight run bit for bit.
    #[test]
    fn snapshot_restore_is_transparent(
        gaps in prop::collection::vec(20u64..120, 1..6),
        split_ms in 1u64..500,
        fault_sel in 0u8..4,
        seed in any::<u64>(),
    ) {
        let mut input_ms = Vec::new();
        let mut t = 0;
        for g in gaps {
            t += g;
            input_ms.push(t);
        }
        let end_ms = t + 400;
        let plan = fault_plan(fault_sel, seed);
        let params = OsProfile::Nt40.params();
        let freq = params.freq;
        let end = SimTime::ZERO + freq.ms(end_ms);

        let mut straight = build(params.clone(), plan.as_ref(), &input_ms);
        straight.run_until(end);
        let want = observe(&straight);

        let mut m = build(params, plan.as_ref(), &input_ms);
        m.run_until(SimTime::ZERO + freq.ms(split_ms.min(end_ms)));
        let snap = m.snapshot();
        let mut restored = Machine::restore(&snap);
        restored.run_until(end);
        prop_assert_eq!(observe(&restored), want);
    }
}
