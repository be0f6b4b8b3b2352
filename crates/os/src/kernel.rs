//! The simulated machine: CPU, kernel, scheduler, devices and threads.
//!
//! [`Machine`] is a deterministic discrete-event simulation of one personal
//! computer running one OS personality. Threads execute [`Program`] state
//! machines; their work is costed by the [`CostEngine`] and charged against
//! simulated time and the hardware [`CounterBank`]. User input arrives as
//! scheduled hardware events, flows through the interrupt/dispatch path into
//! per-thread message queues, and is retrieved via
//! `GetMessage`/`PeekMessage` — producing the [`ApiLog`] the measurement
//! layer consumes.
//!
//! The machine records ground truth (true event spans, true busy intervals)
//! for methodology validation only; see [`crate::ground_truth`].

use latlab_des::{EventQueue, SimDuration, SimRng, SimTime};
use latlab_faults::{FaultKind, FaultPlan, FaultStats};
use latlab_hw::disk::BLOCK_SIZE;
use latlab_hw::{
    CounterBank, CounterError, CounterId, Disk, EventCounts, HwEvent, IntervalTimer, Ring,
    WorkCharge,
};
use latlab_trace::{Record as TraceRecord, TraceSink, VecSink};

use crate::apilog::{ApiEntry, ApiLog, ApiLogEntry, ApiOutcome};
use crate::bufcache::{BlockKey, BufferCache};
use crate::fs::{FileId, Fs};
use crate::ground_truth::GroundTruth;
use crate::msgq::{InputKind, Message, MessageQueue};
use crate::profile::OsParams;
use crate::program::{
    Action, ApiCall, ApiReply, AppTraits, ComputeSpec, GtMark, Priority, ProcessSpec, Program,
    StepCtx, ThreadId,
};
use crate::sched::Scheduler;
use crate::statelog::{IoKind, StateLog, Transition};
use crate::sweep::{ParamWatermarks, SweptParam};
use crate::win32::{CostEngine, Packets, WorkKind, WorkPacket};
use crate::work::WorkCounts;

/// Maximum zero-cost program steps before the kernel declares a runaway.
const RUNAWAY_STEP_LIMIT: u32 = 10_000;

/// Cost of `ApiCall::ReadCycleCounter`: RDTSC plus a little glue — ~10
/// instructions of app code. Shared by the call path and the idle
/// fast-forward, which must replay the exact same cost.
const READ_CYCLES_SPEC: ComputeSpec = ComputeSpec {
    instructions: 10,
    class: crate::program::MixClass::App,
    code_pages: 1,
    data_pages: 1,
};

/// Cost of `ApiCall::Emit`: a buffered store of one trace record (§2.3's
/// `generate_trace_record`) — ~50 instructions. Shared with fast-forward.
const EMIT_SPEC: ComputeSpec = ComputeSpec {
    instructions: 50,
    class: crate::program::MixClass::App,
    code_pages: 1,
    data_pages: 2,
};

/// `total × done / cycles`, rounded down: the share of a packet's `total`
/// events a counter read sees once `done` of its `cycles` have run (see
/// [`Exec::events_at_done`]). The product takes 128 bits only when it would
/// overflow 64 (packets past ~4·10⁹ cycles with a large event total), so
/// the common path stays one 64-bit divide.
fn prorate(total: u64, done: u64, cycles: u64) -> u64 {
    match total.checked_mul(done) {
        Some(product) => product / cycles,
        None => (u128::from(total) * u128::from(done) / u128::from(cycles)) as u64,
    }
}

/// Counters for the idle fast-forward engine (diagnostic only; exposed via
/// [`Machine::fast_forward_stats`]).
#[derive(Clone, Default)]
struct FastForwardStats {
    /// Batches committed (calls that fast-forwarded at least one iteration).
    batches: u64,
    /// Iterations costed on the warm path ([`CostEngine::compute_warm`],
    /// TLB verified resident).
    warm_iters: u64,
    /// Iterations costed through the generic [`CostEngine::compute`] path
    /// (cold TLB at batch entry).
    cold_iters: u64,
}

/// `Message::User` payload delivered to a window losing input focus.
pub const FOCUS_LOST: u32 = 0xF0C0_0000;
/// `Message::User` payload delivered to a window gaining input focus.
pub const FOCUS_GAINED: u32 = 0xF0C0_0001;

/// Hardware/OS events the machine processes through its event queue. The
/// periodic clock interrupt is not among them: the kernel keeps it on its
/// own [`IntervalTimer`] (see [`Machine::next_event_time`]).
#[derive(Clone, Debug)]
enum MachineEvent {
    /// User input arriving at the hardware.
    Input { id: u64, kind: InputKind },
    /// A synchronous disk request completed.
    DiskDone { thread: ThreadId, bytes: u64 },
    /// An asynchronous disk request completed.
    AsyncIoDone {
        thread: ThreadId,
        token: u32,
        kind: IoKind,
    },
    /// OS-internal background activity burst.
    Background,
    /// An externally scheduled message post to the focused thread.
    PostToFocus { msg: Message },
    /// A scheduled input-focus change (the user alt-tabs between windows).
    FocusChange { target: ThreadId },
    /// One interrupt of an injected interrupt storm (fault plan).
    FaultStorm { idx: usize },
    /// One injected page-fault burst (fault plan).
    FaultPage { idx: usize },
}

/// Why a thread is not running.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    /// Runnable (queued in the scheduler).
    Ready,
    /// Blocked in `GetMessage` on an empty queue.
    BlockedMsg,
    /// Blocked on synchronous disk I/O.
    BlockedIo,
    /// Sleeping until a clock tick at or after the stored time.
    Sleeping(SimTime),
    /// Terminated.
    Exited,
}

/// What happens when a thread's current work packets drain.
#[derive(Clone, Debug)]
enum Outcome {
    /// Deliver a reply and keep running.
    Reply(ApiReply),
    /// Resolve a `GetMessage` against the queue.
    GetMessage,
    /// Resolve a `PeekMessage` against the queue.
    PeekMessage,
    /// Begin blocking disk I/O (zero duration means fully cached).
    Io {
        disk_time: SimDuration,
        bytes: u64,
        kind: IoKind,
    },
    /// Launch non-blocking disk I/O; completion posts `Message::IoComplete`.
    AsyncIo {
        disk_time: SimDuration,
        token: u32,
        kind: IoKind,
    },
    /// Block until a clock tick at or after now + the duration.
    Sleep(SimDuration),
    /// Post a message.
    Post { target: ThreadId, msg: Message },
    /// Arm the periodic timer.
    SetTimer(SimDuration),
    /// Disarm the periodic timer.
    KillTimer,
    /// Reply with the cycle counter at resolution time.
    ReadCycles,
    /// Append to the emission buffer.
    Emit(u64),
}

/// How a program's requested call was handled by the kernel.
enum CallDisposition {
    /// Costed work was installed as the thread's exec.
    Work,
    /// Handled inline at zero cost; step the program again.
    Inline,
    /// The thread gave up the CPU (yield).
    Deschedule,
}

/// In-flight costed work: up to [`crate::win32::MAX_PACKETS`] packets run
/// back to back as one span of `cycles`, then the outcome. It lives in its
/// thread's slot and is written there in place, so installing one neither
/// allocates nor moves a whole `Exec`.
///
/// Slices advance `done` and the cycle counter only. The events are charged
/// once, when the span completes, less whatever [`Machine::settle`]
/// already charged at run exits that fell inside it.
#[derive(Clone, Debug)]
struct Exec {
    /// The thread has work installed that has not yet resolved.
    active: bool,
    /// The packets, zero-cycle ones dropped.
    packets: Packets,
    /// The packets' summed cycles and events.
    cycles: u64,
    events: EventCounts,
    /// Cycles run so far.
    done: u64,
    /// Events charged by run-exit settles, if any run exit fell inside.
    settled: Option<EventCounts>,
    outcome: Outcome,
}

impl Exec {
    const IDLE: Exec = Exec {
        active: false,
        packets: Packets::EMPTY,
        cycles: 0,
        events: EventCounts::ZERO,
        done: 0,
        settled: None,
        outcome: Outcome::Reply(ApiReply::None),
    };

    /// Writes new work into this (resolved) slot.
    fn install(&mut self, packets: &[WorkPacket], outcome: Outcome) {
        debug_assert!(!self.active, "installing over an unresolved exec");
        self.active = true;
        self.packets.clear();
        self.cycles = 0;
        self.events = EventCounts::ZERO;
        for &p in packets.iter().filter(|p| p.cycles > 0) {
            self.packets.push(p);
            self.cycles += p.cycles;
            self.events.accumulate(&p.events);
        }
        self.done = 0;
        self.settled = None;
        self.outcome = outcome;
    }

    /// The events per-slice charging would have charged by now: every
    /// finished packet in full, and the running packet's events prorated
    /// over its cycles. Prorating telescopes, so this does not depend on
    /// how the `done` cycles were sliced.
    fn events_at_done(&self) -> EventCounts {
        let mut left = self.done;
        let mut out = EventCounts::ZERO;
        for p in self.packets.iter() {
            if left < p.cycles {
                for (event, total) in p.events.iter() {
                    out.add(event, prorate(total, left, p.cycles));
                }
                break;
            }
            out.accumulate(&p.events);
            left -= p.cycles;
        }
        out
    }
}

/// Periodic application timer state.
#[derive(Clone, Copy, Debug)]
struct AppTimer {
    period: SimDuration,
    next_due: SimTime,
}

/// One simulated thread.
#[derive(Clone)]
struct ThreadSlot {
    id: ThreadId,
    name: &'static str,
    priority: Priority,
    traits: AppTraits,
    program: Box<dyn Program>,
    state: ThreadState,
    exec: Exec,
    pending_reply: ApiReply,
    msgq: MessageQueue,
    gdi_pending: u32,
    quantum_left: u64,
    cpu_cycles: u64,
    emitted: VecSink,
    retrieved_open: Vec<u64>,
    timer: Option<AppTimer>,
    zero_exec_streak: u32,
    /// A message was retrieved since the last block (gates the Windows 95
    /// post-event lag so it fires after real work, not at boot).
    handled_since_block: bool,
    /// The kind of the synchronous I/O the thread is blocked on, if any.
    pending_sync_io: Option<IoKind>,
}

/// First synthetic input id used for fault-injected duplicate deliveries.
/// Real input ids count up from zero; ids at or above this base never have
/// a ground-truth arrival, so the oracle ignores them by construction.
pub const DUP_INPUT_ID_BASE: u64 = 1 << 63;

/// A fault from the installed plan with its window resolved to cycles.
#[derive(Clone, Copy, Debug)]
struct ArmedFault {
    kind: FaultKind,
    start: SimTime,
    end: Option<SimTime>,
}

impl ArmedFault {
    fn active(&self, now: SimTime) -> bool {
        self.start <= now && self.end.is_none_or(|e| now < e)
    }
}

/// Kernel-side state for an installed [`FaultPlan`]: the armed faults,
/// one forked RNG stream per stochastic class (so classes perturb
/// independently of each other), and the injection counters.
#[derive(Clone, Debug)]
struct FaultEngine {
    faults: Vec<ArmedFault>,
    input_rng: SimRng,
    disk_rng: SimRng,
    sched_rng: SimRng,
    dup_next: u64,
    dup_pending: bool,
    stats: FaultStats,
}

/// Summary statistics a run exposes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MachineStats {
    /// Context switches performed.
    pub context_switches: u64,
    /// Clock ticks handled.
    pub clock_ticks: u64,
    /// User inputs delivered.
    pub inputs_delivered: u64,
    /// Messages posted (all kinds).
    pub messages_posted: u64,
}

/// The simulated machine.
///
/// # Examples
///
/// ```
/// use latlab_os::{
///     Action, ApiCall, ApiReply, ComputeSpec, InputKind, KeySym, Machine, OsProfile,
///     ProcessSpec, Program, StepCtx,
/// };
/// use latlab_des::{CpuFreq, SimTime};
///
/// // A minimal message-loop application.
/// #[derive(Clone)]
/// struct Echo(bool);
/// impl Program for Echo {
///     fn step(&mut self, ctx: &mut StepCtx) -> Action {
///         if std::mem::take(&mut self.0) {
///             if let ApiReply::Message(Some(_)) = ctx.reply {
///                 return Action::Compute(ComputeSpec::app(100_000));
///             }
///         }
///         self.0 = true;
///         Action::Call(ApiCall::GetMessage)
///     }
/// }
///
/// let freq = CpuFreq::PENTIUM_100;
/// let mut machine = Machine::new(OsProfile::Nt40.params());
/// let app = machine.spawn(ProcessSpec::app("echo"), Box::new(Echo(false)));
/// machine.set_focus(app);
/// let id = machine.schedule_input_at(
///     SimTime::ZERO + freq.ms(50),
///     InputKind::Key(KeySym::Char('a')),
/// );
/// machine.run_until(SimTime::ZERO + freq.ms(500));
/// let event = machine.ground_truth().event(id).unwrap();
/// assert!(event.true_latency().is_some());
/// ```
pub struct Machine {
    params: OsParams,
    now: SimTime,
    pending: EventQueue<MachineEvent>,
    threads: Vec<ThreadSlot>,
    sched: Scheduler,
    cost: CostEngine,
    counters: CounterBank,
    disk: Disk,
    fs: Fs,
    cache: BufferCache,
    apilog: ApiLog,
    statelog: StateLog,
    gt: GroundTruth,
    focus: Option<ThreadId>,
    network_sink: Option<ThreadId>,
    next_input_id: u64,
    last_input_at: SimTime,
    /// The periodic clock interrupt, kept out of `pending`: nearly every
    /// event a keystroke-driven run fires is a tick (6,209 of 6,609 in the
    /// Word sweep prefix), and a heap round trip per tick walks the heap's
    /// full depth past the pre-scheduled input.
    clock: IntervalTimer,
    /// The queue sequence number the armed tick holds: reserved from
    /// `pending` at the moment the tick is armed, so a tick and a queued
    /// event due at the same instant fire in arming order, exactly as if
    /// the tick were queued.
    tick_seq: u64,
    tick_index: u64,
    mouse_spin: bool,
    deferred_mouse: Vec<(u64, InputKind)>,
    lag_until: Option<SimTime>,
    sync_io_inflight: u32,
    async_io_inflight: u32,
    inputs_outstanding: u64,
    last_ran: Option<ThreadId>,
    stats: MachineStats,
    faults: Option<FaultEngine>,
    /// Idle fast-forward enabled (captured from the thread-local default at
    /// boot; see [`crate::fastforward`]).
    fastforward: bool,
    /// Fast-forward diagnostic counters.
    ff_stats: FastForwardStats,
    /// Scratch buffer for batched idle stamps (reused across batches to
    /// keep the fast-forward commit allocation-free).
    ff_stamps: Vec<u64>,
    /// Main-loop turns taken, for O(events) regression tests only — not
    /// part of the machine's observable state.
    loop_turns: u64,
    /// Kernel events fired (diagnostic, like `loop_turns`).
    events_fired: u64,
    /// First-read watermarks of the sweepable cost parameters (see
    /// [`crate::sweep`]): the evidence the prefix-sharing sweep planner
    /// uses to prove a fork sound.
    watermarks: ParamWatermarks,
    /// Stamp records produced so far (every `Emit`, whether or not a tee
    /// is installed). Snapshots capture this so a resumed run knows where
    /// the original trace left off.
    stamp_records: u64,
    /// API-log records produced so far (same bookkeeping for the API tee).
    api_records: u64,
    /// Optional tee for idle-loop stamps: every `Emit` also lands here.
    stamp_sink: Option<Box<dyn TraceSink>>,
    /// Optional tee for the API log: every entry also lands here as a
    /// wire-level [`latlab_trace::ApiRecord`].
    api_sink: Option<Box<dyn TraceSink>>,
}

impl Machine {
    /// Boots a machine with the given OS personality. The first clock tick
    /// fires one tick period after power-on.
    pub fn new(params: OsParams) -> Self {
        let tick = params.clock_tick;
        let cache_blocks = params.cache_blocks;
        // The buffer cache is sized at boot: `cache_blocks` is consulted
        // before the simulation ever runs, so its watermark is time zero
        // and no fork may change it (the planner falls back to scratch).
        let mut watermarks = ParamWatermarks::new();
        watermarks.note(SweptParam::CacheBlocks, SimTime::ZERO);
        let mut pending = EventQueue::new();
        let tick_seq = pending.reserve_seq();
        if let Some(period) = params.background_period {
            pending.schedule(SimTime::ZERO + period, MachineEvent::Background);
        }
        Machine {
            cost: CostEngine::new(params.clone()),
            params,
            now: SimTime::ZERO,
            pending,
            threads: Vec::new(),
            sched: Scheduler::new(),
            counters: CounterBank::new(),
            disk: Disk::fujitsu_m1606(),
            fs: Fs::new(),
            cache: BufferCache::new(cache_blocks),
            apilog: ApiLog::new(),
            statelog: StateLog::new(),
            gt: GroundTruth::new(),
            focus: None,
            network_sink: None,
            next_input_id: 0,
            last_input_at: SimTime::ZERO,
            clock: IntervalTimer::new(tick, SimTime::ZERO),
            tick_seq,
            tick_index: 0,
            mouse_spin: false,
            deferred_mouse: Vec::new(),
            lag_until: None,
            sync_io_inflight: 0,
            async_io_inflight: 0,
            inputs_outstanding: 0,
            last_ran: None,
            stats: MachineStats::default(),
            faults: None,
            fastforward: crate::fastforward::default_enabled(),
            ff_stats: FastForwardStats::default(),
            ff_stamps: Vec::new(),
            loop_turns: 0,
            events_fired: 0,
            watermarks,
            stamp_records: 0,
            api_records: 0,
            stamp_sink: None,
            api_sink: None,
        }
    }

    // --- Configuration ----------------------------------------------------

    /// Registers a file with the simulated file system.
    pub fn register_file(&mut self, name: &'static str, size: u64, frag_blocks: u64) -> FileId {
        self.fs.create(name, size, frag_blocks)
    }

    /// Spawns a thread running `program`; it starts ready.
    pub fn spawn(&mut self, spec: ProcessSpec, program: Box<dyn Program>) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        let quantum = self.params.quantum().cycles();
        self.threads.push(ThreadSlot {
            id,
            name: spec.name,
            priority: spec.priority,
            traits: spec.traits,
            program,
            state: ThreadState::Ready,
            exec: Exec::IDLE,
            pending_reply: ApiReply::None,
            msgq: spec
                .queue_capacity
                .map(MessageQueue::with_capacity)
                .unwrap_or_default(),
            gdi_pending: 0,
            quantum_left: quantum,
            cpu_cycles: 0,
            emitted: VecSink::new(),
            retrieved_open: Vec::new(),
            timer: None,
            zero_exec_streak: 0,
            handled_since_block: false,
            pending_sync_io: None,
        });
        self.sched.enqueue(id, spec.priority);
        id
    }

    /// Directs user input to a thread.
    pub fn set_focus(&mut self, tid: ThreadId) {
        self.focus = Some(tid);
    }

    /// Directs network packets to a thread (the socket owner).
    pub fn bind_network(&mut self, tid: ThreadId) {
        self.network_sink = Some(tid);
    }

    /// Schedules a network packet arrival; same time-ordering rules as
    /// [`Machine::schedule_input_at`]. Returns the event id used for
    /// ground-truth correlation.
    pub fn schedule_packet_at(&mut self, at: SimTime, bytes: u32) -> u64 {
        self.schedule_input_at(at, InputKind::Packet(bytes))
    }

    /// Schedules a user input for hardware arrival at `at`, returning its
    /// input id. Inputs must be scheduled in non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than a previously scheduled input or than
    /// the current simulation time.
    pub fn schedule_input_at(&mut self, at: SimTime, kind: InputKind) -> u64 {
        assert!(
            at >= self.last_input_at && at >= self.now,
            "inputs must be scheduled in time order"
        );
        self.last_input_at = at;
        let id = self.next_input_id;
        self.next_input_id += 1;
        self.inputs_outstanding += 1;
        self.pending.schedule(at, MachineEvent::Input { id, kind });
        id
    }

    /// Schedules a message post to the focused thread at `at` (the test
    /// driver's `WM_QUEUESYNC` injection path).
    pub fn schedule_post_to_focus(&mut self, at: SimTime, msg: Message) {
        assert!(at >= self.now, "posts must be scheduled in the future");
        self.pending.schedule(at, MachineEvent::PostToFocus { msg });
    }

    /// Schedules an input-focus change at `at` (the user switching windows);
    /// both windows receive `Message::User` focus notifications
    /// ([`FOCUS_LOST`]/[`FOCUS_GAINED`]).
    pub fn schedule_focus_change(&mut self, at: SimTime, target: ThreadId) {
        assert!(
            at >= self.now,
            "focus changes must be scheduled in the future"
        );
        self.pending
            .schedule(at, MachineEvent::FocusChange { target });
    }

    /// The thread currently holding input focus.
    pub fn focused(&self) -> Option<ThreadId> {
        self.focus
    }

    /// Looks up a registered file by name.
    pub fn find_file(&self, name: &str) -> Option<FileId> {
        self.fs.lookup(name)
    }

    /// Pre-loads a whole file into the buffer cache (warm-cache scenarios).
    pub fn prime_cache(&mut self, file: FileId) {
        let blocks = self.fs.size(file).div_ceil(BLOCK_SIZE);
        for b in 0..blocks {
            self.cache.insert(BlockKey {
                file: file.0,
                block: b,
            });
        }
    }

    /// Empties the buffer cache (cold-start scenarios).
    pub fn drop_caches(&mut self) {
        self.cache.clear();
    }

    /// Installs a fault plan. Faults become pure simulation events — the
    /// periodic classes (interrupt storms, page-fault bursts) schedule
    /// themselves on the event queue; the reactive classes (scheduler
    /// jitter, disk faults, input chaos) hook the corresponding kernel
    /// paths. All randomness comes from [`SimRng`] streams forked off the
    /// plan seed in deterministic simulation order, so a given plan on a
    /// given machine replays bit-identically.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        let freq = self.params.freq;
        let mut base = SimRng::new(plan.seed);
        let input_rng = base.fork();
        let disk_rng = base.fork();
        let sched_rng = base.fork();
        let faults: Vec<ArmedFault> = plan
            .faults
            .iter()
            .map(|f| ArmedFault {
                kind: f.kind,
                start: SimTime::ZERO + freq.ms(f.window.start_ms),
                end: f.window.end_ms.map(|e| SimTime::ZERO + freq.ms(e)),
            })
            .collect();
        for (idx, f) in faults.iter().enumerate() {
            let at = if f.start > self.now {
                f.start
            } else {
                self.now
            };
            match f.kind {
                FaultKind::InterruptStorm { period_us, .. } => {
                    self.pending
                        .schedule(at + freq.us(period_us), MachineEvent::FaultStorm { idx });
                }
                FaultKind::PageFaultBurst { period_ms, .. } => {
                    self.pending
                        .schedule(at + freq.ms(period_ms), MachineEvent::FaultPage { idx });
                }
                _ => {}
            }
        }
        self.faults = Some(FaultEngine {
            faults,
            input_rng,
            disk_rng,
            sched_rng,
            dup_next: DUP_INPUT_ID_BASE,
            dup_pending: false,
            stats: FaultStats::default(),
        });
    }

    /// Injection counters of the installed fault plan, if any.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| &f.stats)
    }

    // --- Observables ------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The OS parameters in force.
    pub fn params(&self) -> &OsParams {
        &self.params
    }

    /// The message-API interception log (§2.4).
    pub fn apilog(&self) -> &ApiLog {
        &self.apilog
    }

    /// The kernel state-transition log — the §6 system support for
    /// message-queue and I/O-queue monitoring.
    pub fn state_log(&self) -> &StateLog {
        &self.statelog
    }

    /// Whether asynchronous I/O is in flight (background activity per the
    /// paper's FSM assumptions).
    pub fn async_io_pending(&self) -> bool {
        self.async_io_inflight > 0
    }

    /// Simulator ground truth — validation only.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.gt
    }

    /// Configures a hardware event counter through the system-mode hook
    /// (the paper's measurement driver, §2.2).
    ///
    /// # Errors
    ///
    /// Propagates counter errors.
    pub fn configure_counter(&mut self, id: CounterId, event: HwEvent) -> Result<(), CounterError> {
        // Events charged later must not be counted from before the reset.
        self.settle();
        self.counters.configure(id, event, Ring::System)
    }

    /// Reads a hardware event counter through the system-mode hook.
    ///
    /// # Errors
    ///
    /// Propagates counter errors.
    pub fn read_counter(&self, id: CounterId) -> Result<u64, CounterError> {
        self.counters.read_event(id, Ring::System)
    }

    /// Reads the cycle counter (readable from anywhere).
    pub fn read_cycle_counter(&self) -> u64 {
        self.now.cycles()
    }

    /// Omniscient event totals; tests and validation only.
    pub fn counter_ground_truth(&self) -> &EventCounts {
        self.counters.ground_truth_totals()
    }

    /// Takes (drains) a thread's emission buffer.
    pub fn take_emitted(&mut self, tid: ThreadId) -> Vec<u64> {
        self.thread_mut(tid).emitted.take_stamps()
    }

    /// Pre-sizes a thread's emission buffer for at least `additional`
    /// further records. Callers that know how long the machine is about to
    /// run (the measurement session does) reserve the expected stamp volume
    /// once instead of growing the buffer repeatedly on the emit hot path.
    pub fn reserve_emitted(&mut self, tid: ThreadId, additional: usize) {
        self.thread_mut(tid).emitted.reserve(additional);
    }

    /// Installs a tee for idle-loop stamps: every `Emit` by any thread is
    /// also forwarded to `sink` (in addition to the per-thread buffer
    /// drained by [`Machine::take_emitted`]). Used to stream traces to
    /// disk while a measurement runs.
    pub fn set_stamp_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.stamp_sink = Some(sink);
    }

    /// Removes and returns the stamp tee, if one was installed.
    pub fn take_stamp_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.stamp_sink.take()
    }

    /// Installs a tee for the message-API log: every entry is also
    /// forwarded to `sink` as a wire-level [`latlab_trace::ApiRecord`].
    pub fn set_api_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.api_sink = Some(sink);
    }

    /// Removes and returns the API-log tee, if one was installed.
    pub fn take_api_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.api_sink.take()
    }

    /// Enables or disables idle fast-forward, overriding the thread-local
    /// default captured at boot. Fast-forward is observationally
    /// transparent (see [`Machine::try_fast_forward`]); disabling it keeps
    /// the step-by-step path alive as the equivalence oracle.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fastforward = enabled;
    }

    /// Whether idle fast-forward is enabled.
    pub fn fast_forward_enabled(&self) -> bool {
        self.fastforward
    }

    /// Idle fast-forward statistics: `(batches, warm_iters, cold_iters)` —
    /// committed batches, iterations costed on the warm accumulator-only
    /// path, and iterations that went through the generic TLB-touching
    /// path. Diagnostic only — exposed for tests and benches.
    pub fn fast_forward_stats(&self) -> (u64, u64, u64) {
        (
            self.ff_stats.batches,
            self.ff_stats.warm_iters,
            self.ff_stats.cold_iters,
        )
    }

    /// Main-loop turns taken so far. Diagnostic only (regression tests
    /// assert quiescence is reached in O(events) turns); not part of the
    /// machine's observable state.
    pub fn debug_loop_turns(&self) -> u64 {
        self.loop_turns
    }

    /// The deterministic work this machine has done so far (diagnostic,
    /// like [`Machine::debug_loop_turns`]; see [`crate::work`]).
    pub fn work_counts(&self) -> WorkCounts {
        WorkCounts {
            loop_turns: self.loop_turns,
            events: self.events_fired,
            clock_ticks: self.stats.clock_ticks,
            context_switches: self.stats.context_switches,
            messages_posted: self.stats.messages_posted,
            ff_batches: self.ff_stats.batches,
            ff_warm_iters: self.ff_stats.warm_iters,
            ff_cold_iters: self.ff_stats.cold_iters,
        }
    }

    /// Appends to the API log and forwards to the API tee, if any.
    fn log_api(&mut self, entry: ApiLogEntry) {
        self.api_records += 1;
        if let Some(sink) = self.api_sink.as_deref_mut() {
            sink.record(&TraceRecord::Api(crate::tracebridge::to_record(&entry)));
        }
        self.apilog.record(entry);
    }

    /// Message-queue length of a thread — the §6 "message queue length" API
    /// the paper wished for.
    pub fn queue_len(&self, tid: ThreadId) -> usize {
        self.thread(tid).msgq.len()
    }

    /// Whether synchronous I/O is in flight — the §6 "I/O queue" API.
    pub fn sync_io_pending(&self) -> bool {
        self.sync_io_inflight > 0
    }

    /// CPU cycles consumed by a thread so far.
    pub fn thread_cpu_cycles(&self, tid: ThreadId) -> u64 {
        self.thread(tid).cpu_cycles
    }

    /// Buffer-cache hit/miss counters.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// Run statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// True when no application work is runnable or in flight: every thread
    /// above measurement priority is blocked with an empty queue, no inputs
    /// or I/O are outstanding, and no quirk spin is active.
    pub fn is_quiescent(&self) -> bool {
        self.inputs_outstanding == 0
            && self.sync_io_inflight == 0
            && self.async_io_inflight == 0
            && !self.mouse_spin
            && self.lag_until.is_none()
            && self.threads.iter().all(|t| {
                t.priority <= Priority::MEASUREMENT
                    || matches!(t.state, ThreadState::Exited)
                    || (matches!(t.state, ThreadState::BlockedMsg) && t.msgq.is_empty())
            })
    }

    // --- Snapshots --------------------------------------------------------

    /// Clones the entire simulation state. The trace tees are external
    /// resources and are *not* cloned: the fork starts with no sinks
    /// installed but keeps the record counters, so a fresh sink attached
    /// to it receives exactly the suffix the original would have written
    /// past the counted positions.
    fn fork(&self) -> Machine {
        Machine {
            params: self.params.clone(),
            now: self.now,
            pending: self.pending.clone(),
            threads: self.threads.clone(),
            sched: self.sched.clone(),
            cost: self.cost.clone(),
            counters: self.counters.clone(),
            disk: self.disk.clone(),
            fs: self.fs.clone(),
            cache: self.cache.clone(),
            apilog: self.apilog.clone(),
            statelog: self.statelog.clone(),
            gt: self.gt.clone(),
            focus: self.focus,
            network_sink: self.network_sink,
            next_input_id: self.next_input_id,
            last_input_at: self.last_input_at,
            clock: self.clock,
            tick_seq: self.tick_seq,
            tick_index: self.tick_index,
            mouse_spin: self.mouse_spin,
            deferred_mouse: self.deferred_mouse.clone(),
            lag_until: self.lag_until,
            sync_io_inflight: self.sync_io_inflight,
            async_io_inflight: self.async_io_inflight,
            inputs_outstanding: self.inputs_outstanding,
            last_ran: self.last_ran,
            stats: self.stats,
            faults: self.faults.clone(),
            fastforward: self.fastforward,
            ff_stats: self.ff_stats.clone(),
            ff_stamps: self.ff_stamps.clone(),
            loop_turns: self.loop_turns,
            events_fired: self.events_fired,
            watermarks: self.watermarks,
            stamp_records: self.stamp_records,
            api_records: self.api_records,
            stamp_sink: None,
            api_sink: None,
        }
    }

    /// Freezes the complete simulation state into a [`MachineSnapshot`].
    ///
    /// Any cost-engine parameter reads not yet drained into the watermark
    /// table are folded in first (the run loop drains per turn, so between
    /// runs there are normally none). What
    /// [`MachineSnapshot::param_unread`] consults is whether a parameter
    /// has *ever* been read — not when — so the fold can only make forks
    /// more conservative, never unsound.
    pub fn snapshot(&mut self) -> MachineSnapshot {
        let mask = self.cost.take_param_reads();
        self.watermarks.note_mask(mask, self.now);
        MachineSnapshot {
            machine: Box::new(self.fork()),
        }
    }

    /// Reconstructs a runnable machine from a snapshot. The restored
    /// machine has no trace tees installed (attach fresh sinks with
    /// [`Machine::set_stamp_sink`]/[`Machine::set_api_sink`]); its record
    /// counters continue from the snapshot's, so the new sinks receive
    /// exactly the byte suffix a straight run would have produced past
    /// [`MachineSnapshot::sink_records`].
    pub fn restore(snap: &MachineSnapshot) -> Machine {
        snap.machine.fork()
    }

    /// Re-points a sweepable parameter at `value` mid-run — the
    /// prefix-sharing sweep's fork edit. Both the kernel's parameter set
    /// and the cost engine's copy are updated.
    ///
    /// Soundness is the *caller's* obligation: the edit is only
    /// equivalent to a scratch boot with `value` if the parameter was
    /// never consulted before this instant (check
    /// [`MachineSnapshot::param_unread`] on the snapshot the machine was
    /// restored from). `CacheBlocks` in particular is consulted at boot
    /// and therefore never passes that check.
    pub fn apply_param(&mut self, param: SweptParam, value: u64) {
        param.apply(&mut self.params, value);
        self.cost.set_params(self.params.clone());
    }

    /// The first-read watermark table (drained per run-loop turn; exact
    /// whenever the machine is between runs).
    pub fn param_watermarks(&self) -> &ParamWatermarks {
        &self.watermarks
    }

    /// Folds parameter reads that happened on *other* machines feeding
    /// this one — e.g. the idle-loop calibration runs whose result is
    /// baked into this machine's programs — into the table at time zero,
    /// as if they happened before this machine's timeline began.
    pub fn note_external_param_reads(&mut self, reads: &ParamWatermarks) {
        self.watermarks.absorb(reads, SimTime::ZERO);
    }

    /// `(stamp, api)` trace records produced so far, with or without tees
    /// installed (snapshot/resume bookkeeping).
    pub fn sink_records(&self) -> (u64, u64) {
        (self.stamp_records, self.api_records)
    }

    // --- Execution --------------------------------------------------------

    /// Runs the machine until `t_end`.
    pub fn run_until(&mut self, t_end: SimTime) {
        self.run_loop(t_end, false);
    }

    /// The main loop. With `until_quiescent`, additionally returns as soon
    /// as [`Machine::is_quiescent`] holds — checked once per loop turn, i.e.
    /// at every event boundary and dispatch return, rather than on a fixed
    /// polling grid: quiescence is observed at the exact instant the last
    /// piece of work retires. The run's work lands in this thread's
    /// [`crate::work`] tally.
    fn run_loop(&mut self, t_end: SimTime, until_quiescent: bool) -> bool {
        let before = self.work_counts();
        while self.now < t_end {
            if until_quiescent && self.is_quiescent() {
                break;
            }
            self.loop_turns += 1;
            let turn_start = self.now;
            self.turn(t_end);
            // Watermark any swept-parameter reads the cost engine saw this
            // turn. The stamp is the turn's *start* time — at-or-before
            // every read the turn performed — so a recorded watermark is
            // conservative-early (see [`crate::sweep`]).
            let mask = self.cost.take_param_reads();
            self.watermarks.note_mask(mask, turn_start);
        }
        self.settle();
        crate::work::add(&self.work_counts().since(&before));
        until_quiescent && self.is_quiescent()
    }

    /// Brings the event counters up to date with every part-run exec, so
    /// that they read between runs exactly what charging each slice's
    /// prorated share would have left: each exec's
    /// [`Exec::events_at_done`], less what earlier settles charged. Every
    /// counter read happens between runs, so this runs at each run exit.
    fn settle(&mut self) {
        for t in &mut self.threads {
            let exec = &mut t.exec;
            if !exec.active || exec.done == 0 {
                continue;
            }
            let due = exec.events_at_done();
            match &exec.settled {
                Some(charged) => self.counters.on_events(&due.since(charged)),
                None => self.counters.on_events(&due),
            }
            exec.settled = Some(due);
        }
    }

    /// One main-loop turn: fire a due event, service a quirk busy-wait, or
    /// dispatch a thread.
    fn turn(&mut self, t_end: SimTime) {
        // 1. Fire due events: the clock interrupt when it is due and ahead
        // of the queue's head, else the head if it is due.
        let tick_at = self.clock.next_fire();
        if tick_at <= self.now && self.pending.precedes_head(tick_at, self.tick_seq) {
            self.events_fired += 1;
            self.on_clock_tick();
            return;
        }
        if let Some((_, ev)) = self.pending.pop_due(self.now) {
            self.events_fired += 1;
            self.handle_event(ev);
            return;
        }
        // 2. Busy-wait quirk states occupy the CPU ahead of all threads.
        if self.mouse_spin || self.lag_until.is_some() {
            let mut target = self.next_event_time().min(t_end);
            if let Some(lag_end) = self.lag_until {
                target = target.min(lag_end);
            }
            if target > self.now {
                let packet = self.cost.spin(target.since(self.now).cycles());
                self.charge_system(packet);
            }
            if let Some(lag_end) = self.lag_until {
                if self.now >= lag_end {
                    self.lag_until = None;
                }
            }
            return;
        }
        // 3. Dispatch a thread.
        let Some((tid, _prio)) = self.sched.pop_highest() else {
            // True idle: jump to the next event (or the horizon).
            let target = self.next_event_time().min(t_end);
            self.now = if target > self.now { target } else { t_end };
            return;
        };
        self.run_thread(tid, t_end);
    }

    /// When the next event fires: the armed clock tick or the queue's head,
    /// whichever is earlier. The clock is always armed, so there always is
    /// one.
    fn next_event_time(&self) -> SimTime {
        let tick_at = self.clock.next_fire();
        match self.pending.peek_time() {
            Some(at) if at < tick_at => at,
            _ => tick_at,
        }
    }

    /// Notes a kernel-direct read of a swept parameter at the current
    /// instant (the cost engine reports its own reads via a mask drained
    /// per turn).
    fn note_param_read(&mut self, param: SweptParam) {
        self.watermarks.note(param, self.now);
    }

    /// Runs for a duration.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// Runs until the machine is quiescent (see [`Machine::is_quiescent`]),
    /// up to `limit`. Returns true if quiescence was reached. Quiescence is
    /// re-checked at every loop turn (event boundaries and dispatch
    /// returns) — not on a polling grid — so a long-idle machine reaches it
    /// in O(events) loop iterations.
    pub fn run_until_quiescent(&mut self, limit: SimTime) -> bool {
        self.run_loop(limit, true)
    }

    // --- Event handling ---------------------------------------------------

    fn handle_event(&mut self, ev: MachineEvent) {
        match ev {
            MachineEvent::Input { id, kind } => self.on_input(id, kind),
            MachineEvent::DiskDone { thread, bytes } => self.on_disk_done(thread, bytes),
            MachineEvent::AsyncIoDone {
                thread,
                token,
                kind,
            } => self.on_async_io_done(thread, token, kind),
            MachineEvent::Background => self.on_background(),
            MachineEvent::PostToFocus { msg } => self.on_post_to_focus(msg),
            MachineEvent::FocusChange { target } => {
                // Focus changes run through the window manager: activation
                // and deactivation paint work on both sides.
                self.note_param_read(SweptParam::InputDispatchInstr);
                let packet = self
                    .cost
                    .kernel_work(self.params.input_dispatch_instr / 2, WorkKind::Api);
                self.charge_system(packet);
                if let Some(old) = self.focus {
                    if old != target {
                        self.enqueue_message(old, Message::User(FOCUS_LOST));
                    }
                }
                self.focus = Some(target);
                self.enqueue_message(target, Message::User(FOCUS_GAINED));
            }
            MachineEvent::FaultStorm { idx } => self.on_fault_storm(idx),
            MachineEvent::FaultPage { idx } => self.on_fault_page(idx),
        }
    }

    // --- Fault injection ----------------------------------------------------

    /// One interrupt of an injected storm: a real hardware interrupt is
    /// charged (kernel mix, TLB touches, counter events), then the storm
    /// reschedules itself while its window lasts.
    fn on_fault_storm(&mut self, idx: usize) {
        let Some(fx) = self.faults.as_ref() else {
            return;
        };
        let f = fx.faults[idx];
        let FaultKind::InterruptStorm { period_us, instr } = f.kind else {
            return;
        };
        if f.active(self.now) {
            self.faults.as_mut().unwrap().stats.storm_interrupts += 1;
            let packet = self.cost.interrupt(instr);
            self.charge_system(packet);
        }
        let next = self.now
            + self
                .params
                .freq
                .us(period_us)
                .max(SimDuration::from_cycles(1));
        if f.end.is_none_or(|e| next < e) {
            self.pending
                .schedule(next, MachineEvent::FaultStorm { idx });
        }
    }

    /// One injected page-fault burst: flush the TLBs (every later memory
    /// touch re-walks), evict the oldest cached blocks (later reads go
    /// back to disk), and charge the page-in kernel work.
    fn on_fault_page(&mut self, idx: usize) {
        let Some(fx) = self.faults.as_ref() else {
            return;
        };
        let f = fx.faults[idx];
        let FaultKind::PageFaultBurst {
            period_ms,
            evict_blocks,
            instr,
        } = f.kind
        else {
            return;
        };
        if f.active(self.now) {
            self.faults.as_mut().unwrap().stats.page_bursts += 1;
            self.cost.tlb_mut().flush();
            self.cache.evict_oldest(evict_blocks as usize);
            let packet = self.cost.kernel_work(instr, WorkKind::Io);
            self.charge_system(packet);
        }
        let next = self.now + self.params.freq.ms(period_ms);
        if f.end.is_none_or(|e| next < e) {
            self.pending.schedule(next, MachineEvent::FaultPage { idx });
        }
    }

    /// Rolls input chaos for one arriving user input. Returns `true` when
    /// the input must be dropped; duplication is latched in the engine and
    /// consumed at the enqueue point by [`Machine::fault_maybe_duplicate`].
    fn fault_input_roll(&mut self) -> bool {
        let now = self.now;
        let Some(fx) = self.faults.as_mut() else {
            return false;
        };
        let mut drop = false;
        for f in &fx.faults {
            if !f.active(now) {
                continue;
            }
            if let FaultKind::InputChaos {
                drop_permille,
                dup_permille,
            } = f.kind
            {
                if fx.input_rng.gen_range(1000) < u64::from(drop_permille) {
                    drop = true;
                } else if fx.input_rng.gen_range(1000) < u64::from(dup_permille) {
                    fx.dup_pending = true;
                }
            }
        }
        if drop {
            fx.stats.inputs_dropped += 1;
            fx.dup_pending = false;
        }
        drop
    }

    /// Delivers the latched duplicate: the same payload again under a
    /// synthetic id (≥ [`DUP_INPUT_ID_BASE`]) that ground truth ignores,
    /// plus one more dispatch charge for the repeated delivery.
    fn fault_maybe_duplicate(&mut self, focus: ThreadId, kind: InputKind) {
        let Some(fx) = self.faults.as_mut() else {
            return;
        };
        if !std::mem::take(&mut fx.dup_pending) {
            return;
        }
        fx.stats.inputs_duplicated += 1;
        let dup_id = fx.dup_next;
        fx.dup_next += 1;
        self.note_param_read(SweptParam::InputDispatchInstr);
        let packet = self
            .cost
            .kernel_work(self.params.input_dispatch_instr, WorkKind::Api);
        self.charge_system(packet);
        self.enqueue_message(focus, Message::Input { id: dup_id, kind });
    }

    /// Extra dispatcher instructions to charge at this context switch, if
    /// an active jitter window rolls a hit.
    fn fault_jitter_instr(&mut self) -> Option<u64> {
        let now = self.now;
        let fx = self.faults.as_mut()?;
        let mut extra: Option<u64> = None;
        for f in &fx.faults {
            if !f.active(now) {
                continue;
            }
            if let FaultKind::SchedJitter {
                rate_permille,
                max_instr,
            } = f.kind
            {
                if fx.sched_rng.gen_range(1000) < u64::from(rate_permille) {
                    let draw = fx.sched_rng.gen_range(max_instr) + 1;
                    extra = Some(extra.unwrap_or(0) + draw);
                }
            }
        }
        if extra.is_some() {
            fx.stats.sched_delays += 1;
        }
        extra
    }

    /// Applies active disk faults to a transfer's service time: a fixed
    /// extra controller delay, plus (on an error roll) a transparent
    /// retry costing the base service time and another delay. Fully
    /// cached accesses (`base == 0`) never touch the device and are
    /// unaffected.
    fn fault_disk_time(&mut self, base: SimDuration) -> SimDuration {
        if base.cycles() == 0 {
            return base;
        }
        let now = self.now;
        let freq = self.params.freq;
        let Some(fx) = self.faults.as_mut() else {
            return base;
        };
        let mut total = base;
        for f in &fx.faults {
            if !f.active(now) {
                continue;
            }
            if let FaultKind::DiskFault {
                delay_ms,
                error_permille,
            } = f.kind
            {
                fx.stats.disk_delays += 1;
                total += freq.ms(delay_ms);
                if fx.disk_rng.gen_range(1000) < u64::from(error_permille) {
                    fx.stats.disk_errors += 1;
                    total += base + freq.ms(delay_ms);
                }
            }
        }
        total
    }

    fn on_clock_tick(&mut self) {
        self.tick_index += 1;
        self.stats.clock_ticks += 1;
        let mut instr = self.params.clock_tick_instr;
        if self.params.housekeeping_every > 0
            && self
                .tick_index
                .is_multiple_of(self.params.housekeeping_every as u64)
        {
            instr += self.params.housekeeping_instr;
        }
        let packet = self.cost.interrupt(instr);
        self.charge_system(packet);
        // Wake sleepers due at this tick, then fire application timers,
        // each in one pass in thread order. Neither waking a thread nor
        // posting to it changes whether another thread is due.
        let now = self.now;
        for t in &mut self.threads {
            if matches!(t.state, ThreadState::Sleeping(wake) if wake <= now) {
                t.state = ThreadState::Ready;
                t.pending_reply = ApiReply::None;
                self.sched.enqueue(t.id, t.priority);
            }
        }
        let tick = self.params.clock_tick;
        for i in 0..self.threads.len() {
            let t = &mut self.threads[i];
            let Some(timer) = &mut t.timer else {
                continue;
            };
            if t.state == ThreadState::Exited || timer.next_due > now {
                continue;
            }
            while timer.next_due <= now {
                timer.next_due += timer.period.max(tick);
            }
            let tid = t.id;
            self.enqueue_message(tid, Message::Timer);
        }
        // Re-arm: the next tick takes its place in the queue's order now.
        self.clock.acknowledge();
        self.tick_seq = self.pending.reserve_seq();
    }

    fn on_input(&mut self, id: u64, kind: InputKind) {
        self.gt.on_arrival(id, kind, self.now);
        self.inputs_outstanding -= 1;
        let packet = self.cost.interrupt(self.params.input_interrupt_instr);
        self.charge_system(packet);
        // Input chaos (fault plan): the interrupt already happened — a
        // dropped input dies between driver and queue, so its ground-truth
        // event simply never completes. Packets take the protocol stack
        // and are exempt.
        if !matches!(kind, InputKind::Packet(_)) && self.fault_input_roll() {
            return;
        }
        // Windows 95 busy-waits between mouse-down and mouse-up (§4):
        // delivery of the whole click is deferred to the release.
        if self.params.mouse_busy_wait {
            match kind {
                InputKind::MouseDown(_) => {
                    self.mouse_spin = true;
                    self.deferred_mouse.push((id, kind));
                    return;
                }
                InputKind::MouseUp(_) if self.mouse_spin => {
                    self.mouse_spin = false;
                    let deferred = std::mem::take(&mut self.deferred_mouse);
                    for (d_id, d_kind) in deferred {
                        self.dispatch_input(d_id, d_kind);
                    }
                    self.dispatch_input(id, kind);
                    return;
                }
                _ => {}
            }
        }
        self.dispatch_input(id, kind);
    }

    fn dispatch_input(&mut self, id: u64, kind: InputKind) {
        // Network packets take the protocol stack, not the input driver:
        // per-packet processing plus a per-byte copy/checksum cost.
        if let InputKind::Packet(bytes) = kind {
            let instr =
                self.params.net_dispatch_instr + bytes as u64 * self.params.net_instr_per_byte;
            let packet = self.cost.kernel_work(instr, WorkKind::Api);
            self.charge_system(packet);
            if let Some(sink) = self.network_sink {
                self.stats.inputs_delivered += 1;
                self.enqueue_message(sink, Message::Input { id, kind });
            }
            return;
        }
        self.note_param_read(SweptParam::InputDispatchInstr);
        let packet = self
            .cost
            .kernel_work(self.params.input_dispatch_instr, WorkKind::Api);
        self.charge_system(packet);
        let Some(focus) = self.focus else {
            return; // Input with no focused window is dropped.
        };
        // Console applications receive input through the console server —
        // an extra hop the in-application `getchar()` timestamp never sees
        // (§2.3, Figure 1).
        if self.thread(focus).traits.console {
            let extra = self
                .cost
                .kernel_work(self.params.console_dispatch_instr, WorkKind::Api);
            self.charge_system(extra);
        }
        self.stats.inputs_delivered += 1;
        self.enqueue_message(focus, Message::Input { id, kind });
        self.fault_maybe_duplicate(focus, kind);
    }

    fn on_disk_done(&mut self, tid: ThreadId, bytes: u64) {
        self.sync_io_inflight -= 1;
        let completion = self
            .cost
            .kernel_work(self.params.syscall_instr, WorkKind::Io);
        self.charge_system(completion);
        if let Some(kind) = self.thread_mut(tid).pending_sync_io.take() {
            self.statelog
                .record(self.now, Transition::IoCompleted { thread: tid, kind });
        }
        let prio = self.thread(tid).priority;
        let t = self.thread_mut(tid);
        debug_assert_eq!(t.state, ThreadState::BlockedIo);
        t.state = ThreadState::Ready;
        t.exec.install(&[], Outcome::Reply(ApiReply::Io(bytes)));
        self.sched.enqueue(tid, prio);
    }

    fn on_async_io_done(&mut self, tid: ThreadId, token: u32, kind: IoKind) {
        self.async_io_inflight -= 1;
        let completion = self
            .cost
            .kernel_work(self.params.syscall_instr, WorkKind::Io);
        self.charge_system(completion);
        self.statelog
            .record(self.now, Transition::IoCompleted { thread: tid, kind });
        self.enqueue_message(tid, Message::IoComplete(token));
    }

    fn on_background(&mut self) {
        let packet = self
            .cost
            .kernel_work(self.params.background_instr, WorkKind::Background);
        self.charge_system(packet);
        if let Some(period) = self.params.background_period {
            let at = self.now + period;
            self.pending.schedule(at, MachineEvent::Background);
        }
    }

    fn on_post_to_focus(&mut self, msg: Message) {
        if let Some(focus) = self.focus {
            let packet = self
                .cost
                .kernel_work(self.params.syscall_instr, WorkKind::Api);
            self.charge_system(packet);
            self.enqueue_message(focus, msg);
        }
    }

    /// Charges kernel-context work at the current instant (interrupts,
    /// dispatch, spins). Always counts as CPU-busy ground truth.
    fn charge_system(&mut self, packet: WorkPacket) {
        if packet.cycles == 0 {
            return;
        }
        let start = self.now;
        self.counters.on_work(packet.cycles, &packet.events);
        self.now += SimDuration::from_cycles(packet.cycles);
        self.gt.on_busy(start, self.now);
    }

    // --- Message plumbing ---------------------------------------------------

    fn enqueue_message(&mut self, tid: ThreadId, msg: Message) {
        let now = self.now;
        let t = self.thread_mut(tid);
        if t.state == ThreadState::Exited {
            return;
        }
        if !t.msgq.post(msg) {
            return; // Overflow: dropped, counted by the queue.
        }
        self.stats.messages_posted += 1;
        let queue_len = self.thread(tid).msgq.len();
        self.statelog.record(
            now,
            Transition::MessageEnqueued {
                thread: tid,
                queue_len,
            },
        );
        if let Some(id) = msg.input_id() {
            self.gt.on_enqueue(id, now);
        }
        // Wake a blocked GetMessage.
        let t = self.thread_mut(tid);
        if t.state == ThreadState::BlockedMsg {
            t.state = ThreadState::Ready;
            let prio = t.priority;
            let wake = self
                .cost
                .kernel_work(self.params.syscall_instr, WorkKind::Api);
            self.install_exec(tid, &[wake], Outcome::GetMessage);
            self.sched.enqueue(tid, prio);
        }
    }

    // --- Thread execution ---------------------------------------------------

    fn run_thread(&mut self, tid: ThreadId, t_end: SimTime) {
        // Context switch if the CPU last ran someone else.
        if self.last_ran != Some(tid) {
            self.stats.context_switches += 1;
            let packet = self.cost.context_switch();
            self.charge_system(packet);
            // Scheduler jitter (fault plan): some switches take a long
            // path through the dispatcher.
            if let Some(extra) = self.fault_jitter_instr() {
                let packet = self.cost.kernel_work(extra, WorkKind::ContextSwitch);
                self.charge_system(packet);
            }
            self.last_ran = Some(tid);
            // The switch may have carried us past an event boundary.
            if self.next_event_time() <= self.now || self.now >= t_end {
                self.requeue_front(tid);
                return;
            }
        }
        loop {
            match self.thread(tid).state {
                ThreadState::Ready => {}
                _ => return, // Blocked or exited inside this dispatch.
            }
            if !self.thread(tid).exec.active {
                if self.try_fast_forward(tid, t_end) {
                    continue; // Batch committed; re-evaluate the horizon.
                }
                if !self.step_program(tid) {
                    return; // Yielded or exited.
                }
            }
            if !self.thread(tid).exec.active {
                continue; // Inline action consumed; step again.
            }
            let next_event = self.next_event_time();
            let quantum_end = self.now + SimDuration::from_cycles(self.thread(tid).quantum_left);
            let slice_end = t_end.min(next_event).min(quantum_end);
            if slice_end <= self.now {
                if quantum_end <= self.now {
                    self.rotate_quantum(tid);
                } else {
                    self.requeue_front(tid);
                }
                return;
            }
            let budget = slice_end.since(self.now).cycles();
            let (consumed, finished) = self.charge_thread(tid, budget);
            {
                let t = self.thread_mut(tid);
                t.quantum_left = t.quantum_left.saturating_sub(consumed);
            }
            if finished {
                self.resolve_outcome(tid);
                // Loop: thread may be ready to continue, blocked, or exited.
                continue;
            }
            // Out of budget: why?
            if self.thread(tid).quantum_left == 0 {
                self.rotate_quantum(tid);
                return;
            }
            // An event is due or the horizon was reached.
            self.requeue_front(tid);
            return;
        }
    }

    /// Idle fast-forward: batch-executes whole idle-loop iterations.
    ///
    /// When the dispatched thread is the measurement idle loop
    /// ([`Priority::MEASUREMENT`]), it is the only runnable thread, no
    /// quirk busy-wait is active, and the program sits at an iteration
    /// boundary of a declared [`crate::program::IdleCycle`], every
    /// iteration that completes strictly before the next pending event (or
    /// `t_end`) is executed here in one batch instead of through
    /// `step_program`/`charge_thread`/`resolve_outcome`.
    ///
    /// The contract is **bit-identical observables** with the step path:
    /// the per-iteration cost packets are produced by the same
    /// [`CostEngine`] calls in the same order (the mix accumulators carry
    /// fractional-event remainders, so packet costs vary iteration to
    /// iteration and cannot be extrapolated), counters advance by exactly
    /// the per-packet totals (the step path charges each exec's events
    /// whole at completion, and every batched iteration completes), stamps
    /// carry the same read-packet-end instants, and the straddling
    /// iteration — which the step path begins eagerly, costing its spin
    /// packet before discovering an event is due — is left for the step
    /// path to cost identically. A trial iteration that does not fit is
    /// rolled back via [`CostEngine::snapshot`]. Quantum expiries inside
    /// the batch only rotate a solo thread back to itself, so the final
    /// `quantum_left` is computed in closed form. Returns true if at least
    /// one iteration was committed.
    fn try_fast_forward(&mut self, tid: ThreadId, t_end: SimTime) -> bool {
        if !self.fastforward {
            return false;
        }
        {
            let t = self.thread(tid);
            if t.priority != Priority::MEASUREMENT || t.exec.active {
                return false;
            }
        }
        // The dispatched thread is already popped, so any ready thread is a
        // preemptor (equal priority would round-robin mid-batch; higher
        // would preempt outright).
        if !self.sched.is_empty() {
            return false;
        }
        // Quirk busy-waits own the CPU ahead of all threads. The main loop
        // services them before dispatching, so this is defensive.
        if self.mouse_spin || self.lag_until.is_some() {
            return false;
        }
        let horizon = self.next_event_time().min(t_end);
        if horizon <= self.now {
            return false;
        }
        let q0 = self.thread(tid).quantum_left;
        let quantum = self.params.quantum().cycles();
        let mut committed = 0u64;
        let mut batch_cycles = 0u64;
        let mut batch_events = EventCounts::ZERO;
        self.ff_stamps.clear();
        // Re-query the cycle shape each segment: it changes when the
        // trace buffer fills (`emits` flips off).
        'segments: while let Some(cycle) = self.thread(tid).program.idle_cycle() {
            if cycle.spin.instructions == 0 || cycle.max_iterations == 0 {
                break;
            }
            // Segment-constant warm-path inputs: the working set the
            // iteration's packets touch, and whether the spin's mix
            // generates events at all. A zero-rate mix leaves the
            // accumulator remainders untouched, so the spin charge is
            // state-independent — computed once and reused.
            let (need_code, need_data) = if cycle.emits {
                (
                    cycle
                        .spin
                        .code_pages
                        .max(READ_CYCLES_SPEC.code_pages)
                        .max(EMIT_SPEC.code_pages),
                    cycle
                        .spin
                        .data_pages
                        .max(READ_CYCLES_SPEC.data_pages)
                        .max(EMIT_SPEC.data_pages),
                )
            } else {
                (cycle.spin.code_pages, cycle.spin.data_pages)
            };
            let spin_mix = self.cost.mix_for(cycle.spin.class);
            let spin_is_flat = spin_mix.data_refs_per_k == 0
                && spin_mix.itlb_miss_per_k == 0
                && spin_mix.dtlb_miss_per_k == 0
                && spin_mix.seg_loads_per_k == 0
                && spin_mix.unaligned_per_k == 0;
            let mut spin_const: Option<WorkCharge> = None;
            let mut seg = 0u64;
            let mut hit_horizon = false;
            while seg < cycle.max_iterations {
                let snap = self.cost.snapshot();
                let warm = self.cost.tlb_covers(need_code, need_data);
                let (iter_cycles, stamp_offset, iter_events) = if warm {
                    // Steady state: every TLB touch is a no-op, so the
                    // iteration's packets are pure accumulator charges
                    // ([`CostEngine::compute_warm`] ≡ `compute` here).
                    let spin = match spin_const {
                        Some(c) => c,
                        None => {
                            let c = self.cost.compute_warm(&cycle.spin);
                            if spin_is_flat {
                                spin_const = Some(c);
                            }
                            c
                        }
                    };
                    let mut cyc = spin.cycles;
                    let mut ev = spin.events;
                    let mut off = 0u64;
                    if cycle.emits {
                        let read = self.cost.compute_warm(&READ_CYCLES_SPEC);
                        let emit = self.cost.compute_warm(&EMIT_SPEC);
                        // The stamp is the cycle counter at the end of the
                        // read packet (`Outcome::ReadCycles` replies `now`).
                        off = spin.cycles + read.cycles;
                        cyc += read.cycles + emit.cycles;
                        ev.accumulate(&read.events);
                        ev.accumulate(&emit.events);
                    }
                    (cyc, off, ev)
                } else {
                    // Cold TLB (batch entry right after non-idle work):
                    // the generic path warms it for the rest of the batch.
                    let spin = self.cost.compute(&cycle.spin);
                    let mut cyc = spin.cycles;
                    let mut ev = spin.events;
                    let mut off = 0u64;
                    if cycle.emits {
                        let read = self.cost.compute(&READ_CYCLES_SPEC);
                        let emit = self.cost.compute(&EMIT_SPEC);
                        off = spin.cycles + read.cycles;
                        cyc += read.cycles + emit.cycles;
                        ev.accumulate(&read.events);
                        ev.accumulate(&emit.events);
                    }
                    (cyc, off, ev)
                };
                if iter_cycles == 0 {
                    // Degenerate zero-cost cycle: leave it to the step
                    // path's runaway detection.
                    self.cost.restore(snap);
                    break 'segments;
                }
                let iter_end = self.now + SimDuration::from_cycles(batch_cycles + iter_cycles);
                if iter_end > horizon {
                    // Straddling iteration: roll back the trial costs and
                    // let the step path begin it, exactly as it would have.
                    self.cost.restore(snap);
                    hit_horizon = true;
                    break;
                }
                if warm {
                    self.ff_stats.warm_iters += 1;
                } else {
                    self.ff_stats.cold_iters += 1;
                }
                if cycle.emits {
                    self.ff_stamps
                        .push(self.now.cycles() + batch_cycles + stamp_offset);
                }
                batch_cycles += iter_cycles;
                batch_events.accumulate(&iter_events);
                seg += 1;
            }
            if seg > 0 {
                committed += seg;
                self.thread_mut(tid).program.idle_cycle_advance(seg);
            }
            if hit_horizon || seg == 0 {
                break;
            }
            // seg == cycle.max_iterations: the shape changed; next segment.
        }
        if committed == 0 {
            return false;
        }
        self.ff_stats.batches += 1;
        // Apply the batch wholesale. `CounterBank::on_work` composes
        // (cycles wrap-add; event counters are modular), and the step path
        // charges each completed exec's events whole, so one bulk charge
        // is bit-identical to the step path's piecewise charges. Ground
        // truth sees nothing: measurement priority is never "busy".
        self.counters.on_work(batch_cycles, &batch_events);
        self.now += SimDuration::from_cycles(batch_cycles);
        {
            let t = self.thread_mut(tid);
            t.cpu_cycles += batch_cycles;
            // The step path resets the streak at every spin compute.
            t.zero_exec_streak = 0;
            // The step path takes (and discards) any lingering reply at the
            // first spin step of the batch.
            t.pending_reply = ApiReply::None;
            // Quantum expiries mid-batch rotate the solo thread back to
            // itself and reset to a full quantum; only the remainder of the
            // last reset is observable.
            t.quantum_left = if batch_cycles < q0 {
                q0 - batch_cycles
            } else {
                quantum - ((batch_cycles - q0) % quantum)
            };
        }
        if !self.ff_stamps.is_empty() {
            // Move the scratch buffer out for the duration of the emit (it
            // is put back, capacity intact, so batches stay allocation-free).
            let stamps = std::mem::take(&mut self.ff_stamps);
            self.stamp_records += stamps.len() as u64;
            if let Some(sink) = self.stamp_sink.as_deref_mut() {
                sink.emit_stamps(&stamps);
            }
            self.thread_mut(tid).emitted.emit_stamps(&stamps);
            self.ff_stamps = stamps;
        }
        true
    }

    fn requeue_front(&mut self, tid: ThreadId) {
        let prio = self.thread(tid).priority;
        self.sched.enqueue_front(tid, prio);
    }

    fn rotate_quantum(&mut self, tid: ThreadId) {
        let quantum = self.params.quantum().cycles();
        let prio = {
            let t = self.thread_mut(tid);
            t.quantum_left = quantum;
            t.priority
        };
        self.sched.enqueue(tid, prio);
    }

    /// Runs up to `budget` cycles of the thread's current exec, charging
    /// its events when it completes. Returns `(consumed, finished)`.
    fn charge_thread(&mut self, tid: ThreadId, budget: u64) -> (u64, bool) {
        let start = self.now;
        let t = &mut self.threads[tid.0 as usize];
        let exec = &mut t.exec;
        debug_assert!(exec.active, "charge_thread without exec");
        let take = (exec.cycles - exec.done).min(budget);
        exec.done += take;
        let finished = exec.done == exec.cycles;
        if finished {
            match &exec.settled {
                Some(charged) => self.counters.on_events(&exec.events.since(charged)),
                None => self.counters.on_events(&exec.events),
            }
        }
        t.cpu_cycles += take;
        self.counters.on_cycles(take);
        self.now += SimDuration::from_cycles(take);
        if t.priority > Priority::MEASUREMENT {
            self.gt.on_busy(start, self.now);
        }
        (take, finished)
    }

    /// Steps the thread's program until it produces costed work or changes
    /// state. Returns false if the thread yielded or exited.
    fn step_program(&mut self, tid: ThreadId) -> bool {
        for _ in 0..RUNAWAY_STEP_LIMIT {
            let action = {
                let t = &mut self.threads[tid.0 as usize];
                let mut ctx = StepCtx {
                    reply: std::mem::take(&mut t.pending_reply),
                };
                t.program.step(&mut ctx)
            };
            match action {
                Action::Compute(spec) => {
                    if spec.instructions == 0 {
                        self.note_zero_exec(tid);
                        self.thread_mut(tid).pending_reply = ApiReply::None;
                        continue;
                    }
                    self.thread_mut(tid).zero_exec_streak = 0;
                    let packet = self.cost.compute(&spec);
                    self.install_exec(tid, &[packet], Outcome::Reply(ApiReply::None));
                    return true;
                }
                Action::Call(call) => match self.build_call(tid, call) {
                    CallDisposition::Work => return true,
                    CallDisposition::Inline => continue,
                    CallDisposition::Deschedule => return false,
                },
                Action::Exit => {
                    self.thread_mut(tid).state = ThreadState::Exited;
                    self.sched.remove(tid);
                    return false;
                }
            }
        }
        panic!(
            "thread {} ({:?}) made no progress in {} steps — runaway program",
            self.thread(tid).name,
            tid,
            RUNAWAY_STEP_LIMIT
        );
    }

    fn note_zero_exec(&mut self, tid: ThreadId) {
        let t = self.thread_mut(tid);
        t.zero_exec_streak += 1;
        assert!(
            t.zero_exec_streak < RUNAWAY_STEP_LIMIT,
            "thread {} issued {} consecutive zero-cost actions",
            t.name,
            t.zero_exec_streak
        );
    }

    /// Requeues a voluntarily yielding thread at the back of its class.
    fn yielded(&mut self, tid: ThreadId) {
        let prio = self.thread(tid).priority;
        self.thread_mut(tid).pending_reply = ApiReply::None;
        self.sched.enqueue(tid, prio);
    }

    /// Builds the exec for an API call, or handles it inline.
    fn build_call(&mut self, tid: ThreadId, call: ApiCall) -> CallDisposition {
        match call {
            ApiCall::GetMessage => {
                let packets = self.cost.api_service(self.params.getmessage_instr, (6, 8));
                self.install_exec(tid, &packets, Outcome::GetMessage);
                CallDisposition::Work
            }
            ApiCall::PeekMessage => {
                let packets = self
                    .cost
                    .api_service(self.params.getmessage_instr / 2, (4, 6));
                self.install_exec(tid, &packets, Outcome::PeekMessage);
                CallDisposition::Work
            }
            ApiCall::Gdi { ops } => {
                self.note_param_read(SweptParam::GdiBatchSize);
                let t = self.thread_mut(tid);
                t.gdi_pending += ops;
                let pending = t.gdi_pending;
                if pending >= self.params.gdi_batch_size {
                    self.thread_mut(tid).gdi_pending = 0;
                    let packets = self.cost.gdi_flush(pending);
                    self.install_exec(tid, &packets, Outcome::Reply(ApiReply::None));
                } else {
                    let packet = self.cost.gdi_buffer(ops);
                    self.install_exec(tid, &[packet], Outcome::Reply(ApiReply::None));
                }
                CallDisposition::Work
            }
            ApiCall::UserCall { instr } => {
                let packets = self.cost.api_service(instr, (8, 10));
                self.install_exec(tid, &packets, Outcome::Reply(ApiReply::None));
                CallDisposition::Work
            }
            ApiCall::OpenFile { name } => {
                let file = self
                    .fs
                    .lookup(name)
                    .unwrap_or_else(|| panic!("OpenFile: no such file {name:?}"));
                let packet = self
                    .cost
                    .kernel_work(self.params.syscall_instr * 2, WorkKind::Api);
                self.install_exec(tid, &[packet], Outcome::Reply(ApiReply::File(file)));
                CallDisposition::Work
            }
            ApiCall::ReadFile { file, offset, len } => {
                let (cpu, disk_time) = self.cost_read(file, offset, len);
                self.install_exec(
                    tid,
                    &[cpu],
                    Outcome::Io {
                        disk_time,
                        bytes: len,
                        kind: IoKind::SyncRead,
                    },
                );
                CallDisposition::Work
            }
            ApiCall::WriteFile { file, offset, len } => {
                let (cpu, disk_time) = self.cost_write(file, offset, len);
                self.install_exec(
                    tid,
                    &[cpu],
                    Outcome::Io {
                        disk_time,
                        bytes: len,
                        kind: IoKind::SyncWrite,
                    },
                );
                CallDisposition::Work
            }
            ApiCall::ReadFileAsync {
                file,
                offset,
                len,
                token,
            } => {
                let (cpu, disk_time) = self.cost_read(file, offset, len);
                self.install_exec(
                    tid,
                    &[cpu],
                    Outcome::AsyncIo {
                        disk_time,
                        token,
                        kind: IoKind::AsyncRead,
                    },
                );
                CallDisposition::Work
            }
            ApiCall::WriteFileAsync {
                file,
                offset,
                len,
                token,
            } => {
                let (cpu, disk_time) = self.cost_write(file, offset, len);
                self.install_exec(
                    tid,
                    &[cpu],
                    Outcome::AsyncIo {
                        disk_time,
                        token,
                        kind: IoKind::AsyncWrite,
                    },
                );
                CallDisposition::Work
            }
            ApiCall::Sleep { duration } => {
                let packet = self
                    .cost
                    .kernel_work(self.params.syscall_instr, WorkKind::Api);
                self.install_exec(tid, &[packet], Outcome::Sleep(duration));
                CallDisposition::Work
            }
            ApiCall::PostMessage { target, msg } => {
                let packet = self
                    .cost
                    .kernel_work(self.params.syscall_instr, WorkKind::Api);
                self.install_exec(tid, &[packet], Outcome::Post { target, msg });
                CallDisposition::Work
            }
            ApiCall::SetTimer { period } => {
                let packet = self
                    .cost
                    .kernel_work(self.params.syscall_instr, WorkKind::Api);
                self.install_exec(tid, &[packet], Outcome::SetTimer(period));
                CallDisposition::Work
            }
            ApiCall::KillTimer => {
                let packet = self
                    .cost
                    .kernel_work(self.params.syscall_instr, WorkKind::Api);
                self.install_exec(tid, &[packet], Outcome::KillTimer);
                CallDisposition::Work
            }
            ApiCall::ReadCycleCounter => {
                let packet = self.cost.compute(&READ_CYCLES_SPEC);
                self.install_exec(tid, &[packet], Outcome::ReadCycles);
                CallDisposition::Work
            }
            ApiCall::Emit(v) => {
                let packet = self.cost.compute(&EMIT_SPEC);
                self.install_exec(tid, &[packet], Outcome::Emit(v));
                CallDisposition::Work
            }
            ApiCall::GtMark(mark) => {
                match mark {
                    GtMark::EventComplete => self.complete_open_events(tid),
                    GtMark::Label(l) => self.gt.on_label(l, self.now),
                }
                self.thread_mut(tid).pending_reply = ApiReply::None;
                self.note_zero_exec(tid);
                CallDisposition::Inline
            }
            ApiCall::Yield => {
                self.yielded(tid);
                CallDisposition::Deschedule
            }
        }
    }

    /// Marks all retrieved-but-open input events as truly complete now.
    fn complete_open_events(&mut self, tid: ThreadId) {
        let mut ids = std::mem::take(&mut self.thread_mut(tid).retrieved_open);
        for &id in &ids {
            self.gt.on_complete(id, self.now);
        }
        // Hand the buffer back, capacity intact: one retrieval per
        // keystroke must not allocate.
        ids.clear();
        self.thread_mut(tid).retrieved_open = ids;
    }

    /// Resolves the outcome of a drained exec.
    fn resolve_outcome(&mut self, tid: ThreadId) {
        let exec = &mut self.thread_mut(tid).exec;
        debug_assert!(exec.active, "resolve_outcome without exec");
        exec.active = false;
        let outcome = std::mem::replace(&mut exec.outcome, Outcome::Reply(ApiReply::None));
        match outcome {
            Outcome::Reply(reply) => {
                self.thread_mut(tid).pending_reply = reply;
            }
            Outcome::GetMessage => self.resolve_get_message(tid),
            Outcome::PeekMessage => self.resolve_peek_message(tid),
            Outcome::Io {
                disk_time,
                bytes,
                kind,
            } => {
                if disk_time.is_zero() {
                    self.thread_mut(tid).pending_reply = ApiReply::Io(bytes);
                } else {
                    self.statelog
                        .record(self.now, Transition::IoIssued { thread: tid, kind });
                    self.thread_mut(tid).state = ThreadState::BlockedIo;
                    self.thread_mut(tid).pending_sync_io = Some(kind);
                    self.sync_io_inflight += 1;
                    let at = self.now + disk_time;
                    self.pending
                        .schedule(at, MachineEvent::DiskDone { thread: tid, bytes });
                }
            }
            Outcome::AsyncIo {
                disk_time,
                token,
                kind,
            } => {
                self.statelog
                    .record(self.now, Transition::IoIssued { thread: tid, kind });
                self.async_io_inflight += 1;
                // Even a fully cached async request completes via a posted
                // message, never inline.
                let at = self.now + disk_time.max(SimDuration::from_cycles(1));
                self.pending.schedule(
                    at,
                    MachineEvent::AsyncIoDone {
                        thread: tid,
                        token,
                        kind,
                    },
                );
                self.thread_mut(tid).pending_reply = ApiReply::None;
            }
            Outcome::Sleep(min) => {
                let wake = (self.now + min).align_up(self.params.clock_tick);
                self.thread_mut(tid).state = ThreadState::Sleeping(wake);
            }
            Outcome::Post { target, msg } => {
                self.enqueue_message(target, msg);
                self.thread_mut(tid).pending_reply = ApiReply::None;
            }
            Outcome::SetTimer(period) => {
                let tick = self.params.clock_tick;
                let period = if period < tick { tick } else { period };
                let next_due = (self.now + period).align_up(tick);
                self.thread_mut(tid).timer = Some(AppTimer { period, next_due });
                self.thread_mut(tid).pending_reply = ApiReply::None;
            }
            Outcome::KillTimer => {
                self.thread_mut(tid).timer = None;
                self.thread_mut(tid).pending_reply = ApiReply::None;
            }
            Outcome::ReadCycles => {
                let cycles = self.now.cycles();
                self.thread_mut(tid).pending_reply = ApiReply::Cycles(cycles);
            }
            Outcome::Emit(v) => {
                let rec = TraceRecord::Stamp(v);
                self.stamp_records += 1;
                if let Some(sink) = self.stamp_sink.as_deref_mut() {
                    sink.record(&rec);
                }
                let t = self.thread_mut(tid);
                t.emitted.record(&rec);
                t.pending_reply = ApiReply::None;
            }
        }
    }

    fn resolve_get_message(&mut self, tid: ThreadId) {
        if let Some(msg) = self.thread_mut(tid).msgq.take() {
            self.record_retrieval(tid, ApiEntry::GetMessage, msg);
            return;
        }
        // Queue empty: the client is about to block, so flush any buffered
        // GDI batch first (§1.1's batching model), then re-check — a message
        // may arrive while flushing.
        if self.thread(tid).gdi_pending > 0 {
            let ops = std::mem::take(&mut self.thread_mut(tid).gdi_pending);
            let packets = self.cost.gdi_flush(ops);
            self.install_exec(tid, &packets, Outcome::GetMessage);
            return;
        }
        // Still empty: the previous events are truly complete (their output
        // has been flushed), and the thread blocks.
        self.complete_open_events(tid);
        self.log_api(ApiLogEntry {
            at: self.now,
            thread: tid,
            entry: ApiEntry::GetMessage,
            outcome: ApiOutcome::Blocked,
            queue_len_after: 0,
        });
        self.thread_mut(tid).state = ThreadState::BlockedMsg;
        // Windows 95 post-event lag for heavyweight-async applications
        // (§5.4): the system stays busy after the application goes idle.
        let lag_due = self.thread(tid).traits.heavy_async
            && self.thread(tid).handled_since_block
            && !self.params.post_event_busy.is_zero();
        self.thread_mut(tid).handled_since_block = false;
        if lag_due {
            self.lag_until = Some(self.now + self.params.post_event_busy);
        }
    }

    fn resolve_peek_message(&mut self, tid: ThreadId) {
        if let Some(msg) = self.thread_mut(tid).msgq.take() {
            self.record_retrieval(tid, ApiEntry::PeekMessage, msg);
            return;
        }
        if self.thread(tid).gdi_pending > 0 {
            let ops = std::mem::take(&mut self.thread_mut(tid).gdi_pending);
            let packets = self.cost.gdi_flush(ops);
            self.install_exec(tid, &packets, Outcome::PeekMessage);
            return;
        }
        self.complete_open_events(tid);
        self.log_api(ApiLogEntry {
            at: self.now,
            thread: tid,
            entry: ApiEntry::PeekMessage,
            outcome: ApiOutcome::Empty,
            queue_len_after: 0,
        });
        self.thread_mut(tid).pending_reply = ApiReply::Message(None);
    }

    fn record_retrieval(&mut self, tid: ThreadId, entry: ApiEntry, msg: Message) {
        // Retrieving the next message closes the previous events (the
        // application has moved on; anything further belongs to `msg`).
        self.complete_open_events(tid);
        let qlen = self.thread(tid).msgq.len();
        self.statelog.record(
            self.now,
            Transition::MessageDequeued {
                thread: tid,
                queue_len: qlen,
            },
        );
        self.log_api(ApiLogEntry {
            at: self.now,
            thread: tid,
            entry,
            outcome: ApiOutcome::Retrieved(msg),
            queue_len_after: qlen,
        });
        if let Some(id) = msg.input_id() {
            self.gt.on_retrieve(id, tid, self.now);
            self.thread_mut(tid).retrieved_open.push(id);
        }
        self.thread_mut(tid).handled_since_block = true;
        self.thread_mut(tid).pending_reply = ApiReply::Message(Some(msg));
    }

    // --- I/O costing --------------------------------------------------------

    /// Computes the CPU packet and disk time for a read, updating the cache.
    fn cost_read(&mut self, file: FileId, offset: u64, len: u64) -> (WorkPacket, SimDuration) {
        let runs = self.fs.map_range(file, offset, len);
        let mut hit_blocks = 0u64;
        let mut miss_blocks = 0u64;
        let mut disk_time = SimDuration::ZERO;
        for (first_file_block, run) in runs {
            // Check each block against the cache; coalesce missing
            // disk-contiguous stretches into single requests.
            let mut pending_start: Option<(u64, u64)> = None; // (disk_block, count)
            for i in 0..run.count {
                let fb = first_file_block + i;
                let key = BlockKey {
                    file: file.0,
                    block: fb,
                };
                if self.cache.access(key) {
                    hit_blocks += 1;
                    if let Some((s, c)) = pending_start.take() {
                        disk_time += self.disk.service(latlab_hw::DiskRequest {
                            start_block: s,
                            block_count: c,
                        });
                    }
                } else {
                    miss_blocks += 1;
                    self.cache.insert(key);
                    match &mut pending_start {
                        Some((_, c)) => *c += 1,
                        None => pending_start = Some((run.start + i, 1)),
                    }
                }
            }
            if let Some((s, c)) = pending_start {
                disk_time += self.disk.service(latlab_hw::DiskRequest {
                    start_block: s,
                    block_count: c,
                });
            }
        }
        let disk_time = self.fault_disk_time(disk_time);
        (self.cost.read_cpu(hit_blocks, miss_blocks), disk_time)
    }

    /// Computes the CPU packet and disk time for a write-through write.
    fn cost_write(&mut self, file: FileId, offset: u64, len: u64) -> (WorkPacket, SimDuration) {
        let runs = self.fs.map_range(file, offset, len);
        let mut blocks = 0u64;
        let mut disk_time = SimDuration::ZERO;
        for (first_file_block, run) in &runs {
            blocks += run.count;
            disk_time += self.disk.service(latlab_hw::DiskRequest {
                start_block: run.start,
                block_count: run.count,
            });
            // Written blocks become cached.
            for i in 0..run.count {
                self.cache.insert(BlockKey {
                    file: file.0,
                    block: first_file_block + i,
                });
            }
        }
        // The write-overhead factor models metadata/journaling I/O.
        self.note_param_read(SweptParam::WriteOverheadMilli);
        let adjusted =
            SimDuration::from_cycles(disk_time.cycles() * self.params.write_overhead_milli / 1_000);
        let adjusted = self.fault_disk_time(adjusted);
        (self.cost.write_cpu(blocks), adjusted)
    }

    // --- Plumbing -----------------------------------------------------------

    fn install_exec(&mut self, tid: ThreadId, packets: &[WorkPacket], outcome: Outcome) {
        self.thread_mut(tid).exec.install(packets, outcome);
    }

    fn thread(&self, tid: ThreadId) -> &ThreadSlot {
        &self.threads[tid.0 as usize]
    }

    fn thread_mut(&mut self, tid: ThreadId) -> &mut ThreadSlot {
        &mut self.threads[tid.0 as usize]
    }
}

/// A frozen, restorable copy of a [`Machine`]'s complete state.
///
/// Taken with [`Machine::snapshot`]; any number of machines can be
/// [`Machine::restore`]d from it, each resuming the simulation from the
/// exact captured instant — same event queue (times *and* sequence
/// numbers), same RNG streams, same scheduler/process/cache/counter
/// state — so a restored run's observables are bit-identical to the
/// original continuing.
///
/// The snapshot also carries the evidence the prefix-sharing sweep
/// planner needs: [`MachineSnapshot::param_unread`] answers whether a
/// fork that changes a given swept parameter is provably equivalent to a
/// scratch run (see [`crate::sweep`] for the invariant).
pub struct MachineSnapshot {
    machine: Box<Machine>,
}

impl MachineSnapshot {
    /// The simulated instant the snapshot was taken.
    pub fn now(&self) -> SimTime {
        self.machine.now
    }

    /// True when `param` had never been consulted at snapshot time — the
    /// soundness condition for restoring this snapshot with `param`
    /// changed (via [`Machine::apply_param`]) in place of a scratch run.
    pub fn param_unread(&self, param: SweptParam) -> bool {
        self.machine.watermarks.get(param).is_none()
    }

    /// `(stamp, api)` trace-record counts at snapshot time: where in the
    /// original's trace streams a restored run's fresh sinks pick up.
    pub fn sink_records(&self) -> (u64, u64) {
        (self.machine.stamp_records, self.machine.api_records)
    }

    /// Pending simulation events captured in the snapshot, the armed clock
    /// tick included.
    pub fn pending_events(&self) -> usize {
        self.machine.pending.len() + 1
    }

    /// Threads (live or exited) captured in the snapshot.
    pub fn process_count(&self) -> usize {
        self.machine.threads.len()
    }

    /// Approximate resident size of the frozen state in bytes (the
    /// dominant heap blocks: event queue, thread slots, API and state logs,
    /// ground truth; per-thread message queues and emission buffers are
    /// counted by slot, not content).
    pub fn state_footprint(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let m = &*self.machine;
        size_of::<Machine>()
            + m.pending.len() * size_of::<(u128, MachineEvent)>()
            + size_of_val(m.threads.as_slice())
            + size_of_val(m.apilog.entries())
            + size_of_val(m.statelog.records())
            + size_of_val(m.gt.events())
            + size_of_val(m.gt.labels())
            + size_of_val(m.gt.busy_intervals())
    }
}
