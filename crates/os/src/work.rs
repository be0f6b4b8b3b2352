//! Deterministic work counts: what the simulator did, as opposed to how
//! long it took.
//!
//! Every [`crate::Machine`] keeps cumulative counts
//! ([`crate::Machine::work_counts`]). Each run also adds the work it did to
//! a per-thread tally, so a harness can read the work of a whole scenario
//! — however many machines, forks and restores it used — with
//! [`take_tally`]. The counts are pure functions of the simulation, which
//! is why the perf harness gates them exactly: a change that alters one
//! has changed what the simulator does, not just how fast it does it.

use std::cell::Cell;

/// Counts of the simulator's unit operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkCounts {
    /// Main-loop turns taken.
    pub loop_turns: u64,
    /// Kernel events fired, clock interrupts included.
    pub events: u64,
    /// Clock interrupts handled.
    pub clock_ticks: u64,
    /// Context switches performed.
    pub context_switches: u64,
    /// Messages posted to thread queues.
    pub messages_posted: u64,
    /// Idle fast-forward batches committed.
    pub ff_batches: u64,
    /// Fast-forwarded idle iterations costed on the warm path.
    pub ff_warm_iters: u64,
    /// Fast-forwarded idle iterations costed on the cold path.
    pub ff_cold_iters: u64,
}

impl WorkCounts {
    /// No work at all.
    pub const ZERO: WorkCounts = WorkCounts {
        loop_turns: 0,
        events: 0,
        clock_ticks: 0,
        context_switches: 0,
        messages_posted: 0,
        ff_batches: 0,
        ff_warm_iters: 0,
        ff_cold_iters: 0,
    };

    /// `(name, count)` pairs in a stable order.
    pub fn named(&self) -> [(&'static str, u64); 8] {
        [
            ("loop_turns", self.loop_turns),
            ("events", self.events),
            ("clock_ticks", self.clock_ticks),
            ("context_switches", self.context_switches),
            ("messages_posted", self.messages_posted),
            ("ff_batches", self.ff_batches),
            ("ff_warm_iters", self.ff_warm_iters),
            ("ff_cold_iters", self.ff_cold_iters),
        ]
    }

    fn zip(&self, other: &WorkCounts, f: impl Fn(u64, u64) -> u64) -> WorkCounts {
        WorkCounts {
            loop_turns: f(self.loop_turns, other.loop_turns),
            events: f(self.events, other.events),
            clock_ticks: f(self.clock_ticks, other.clock_ticks),
            context_switches: f(self.context_switches, other.context_switches),
            messages_posted: f(self.messages_posted, other.messages_posted),
            ff_batches: f(self.ff_batches, other.ff_batches),
            ff_warm_iters: f(self.ff_warm_iters, other.ff_warm_iters),
            ff_cold_iters: f(self.ff_cold_iters, other.ff_cold_iters),
        }
    }

    /// `self - earlier`, component-wise (counts only grow).
    pub fn since(&self, earlier: &WorkCounts) -> WorkCounts {
        self.zip(earlier, |a, b| a - b)
    }
}

thread_local! {
    static TALLY: Cell<WorkCounts> = const { Cell::new(WorkCounts::ZERO) };
}

/// Adds one run's work to this thread's tally.
pub(crate) fn add(delta: &WorkCounts) {
    TALLY.with(|t| t.set(t.get().zip(delta, |a, b| a + b)));
}

/// Returns the work every machine run on this thread did since the last
/// call, and resets the tally.
pub fn take_tally() -> WorkCounts {
    TALLY.with(|t| t.take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_adds_runs_and_resets_on_take() {
        take_tally();
        let one = WorkCounts {
            loop_turns: 3,
            events: 2,
            ..WorkCounts::default()
        };
        add(&one);
        add(&one);
        let got = take_tally();
        assert_eq!((got.loop_turns, got.events, got.clock_ticks), (6, 4, 0));
        assert_eq!(take_tally(), WorkCounts::ZERO);
        assert_eq!(got.since(&one), one);
    }
}
