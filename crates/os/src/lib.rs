#![warn(missing_docs)]

//! A simulated message-driven operating system with Windows NT 3.51,
//! Windows NT 4.0 and Windows 95 personalities.
//!
//! This crate is the substrate for reproducing *"Using Latency to Evaluate
//! Interactive System Performance"* (Endo, Wang, Chen, Seltzer — OSDI '96):
//! a deterministic, cycle-granularity simulation of the paper's testbed — a
//! 100 MHz Pentium PC running one of three Windows variants — detailed
//! enough that every mechanism the paper invokes to explain its measurements
//! (user-level vs kernel-mode Win32 servers, TLB flushes on protection
//! crossings, 16-bit code penalties, message-queue batching, buffer-cache
//! warming, clock-tick-aligned sleeps) exists as an actual mechanism.
//!
//! The top-level object is [`kernel::Machine`]. Applications implement
//! [`program::Program`] and are driven by scheduled user input; measurement
//! tools (in `latlab-core`) observe the machine strictly through the
//! interfaces the paper had — the cycle counter, event counters behind a
//! system-mode hook, a replaced idle loop, and the message-API log.

pub mod apilog;
pub mod bufcache;
pub mod fastforward;
pub mod fs;
pub mod ground_truth;
pub mod kernel;
pub mod msgq;
pub mod profile;
pub mod program;
pub mod sched;
pub mod statelog;
pub mod sweep;
pub mod tracebridge;
pub mod win32;
pub mod work;

pub use apilog::{ApiEntry, ApiLog, ApiLogEntry, ApiOutcome};
pub use fastforward::FastForwardOverride;
pub use fs::FileId;
pub use ground_truth::{GroundTruth, GtEvent};
pub use kernel::{
    Machine, MachineSnapshot, MachineStats, DUP_INPUT_ID_BASE, FOCUS_GAINED, FOCUS_LOST,
};
pub use latlab_faults::{FaultKind, FaultPlan, FaultSpec, FaultStats, FaultWindow};
pub use msgq::{InputKind, KeySym, Message, MessageQueue, MouseButton};
pub use profile::{OsParams, OsProfile, Win32Arch};
pub use program::{
    Action, ApiCall, ApiReply, AppTraits, CloneProgram, ComputeSpec, GtMark, IdleCycle, MixClass,
    Priority, ProcessSpec, Program, StepCtx, ThreadId,
};
pub use statelog::{IoKind, StateLog, StateRecord, Transition};
pub use sweep::{ParamWatermarks, SweptParam};
pub use work::WorkCounts;
