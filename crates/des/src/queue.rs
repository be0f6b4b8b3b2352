//! A stable, time-ordered event queue.
//!
//! The queue orders entries by [`SimTime`]; entries scheduled for the same
//! instant are delivered in insertion order. Stability matters for
//! determinism: the simulated machine frequently schedules several events at
//! the same cycle (e.g. a clock interrupt and a message arrival), and the
//! resulting behaviour must not depend on heap internals. An event kept
//! outside the heap (the kernel's clock interrupt) joins that order by
//! holding a sequence number from [`EventQueue::reserve_seq`].
//!
//! # Implementation
//!
//! Internally this is a 4-ary min-heap over *packed keys*: each entry's
//! ordering key is a single `u128` with the timestamp in the high 64 bits
//! and a monotonically increasing sequence number in the low 64 bits, so
//! the (time, seq) lexicographic comparison the queue needs is one integer
//! compare. Compared to the previous `BinaryHeap<Entry>` design this
//! halves the tree depth (4 children per node), keeps sift-down
//! candidates in at most one cache line of keys, and removes the
//! reversed two-field `Ord` chain from the hot compare. See
//! `crates/bench/benches/event_queue.rs` for the head-to-head
//! microbenchmark against the old binary heap.

use crate::time::SimTime;

const ARITY: usize = 4;

/// Packs `(at, seq)` into a single lexicographically ordered key.
#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.cycles()) << 64) | u128::from(seq)
}

/// Recovers the timestamp from a packed key.
#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_cycles((key >> 64) as u64)
}

/// A deterministic min-priority queue of timestamped events.
///
/// # Examples
///
/// ```
/// use latlab_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_cycles(20), "late");
/// q.schedule(SimTime::from_cycles(10), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_cycles(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_cycles(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
/// Cloning preserves the full heap layout *and* the sequence counter, so a
/// cloned queue replays the exact same (time, seq) delivery order — the
/// property whole-machine snapshots rely on.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Heap entries: packed `(time, seq)` key plus payload. Index 0 is the
    /// minimum; children of `i` live at `ARITY*i + 1 ..= ARITY*i + ARITY`.
    entries: Vec<(u128, E)>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            entries: Vec::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.reserve_seq();
        self.entries.push((pack(at, seq), payload));
        self.sift_up(self.entries.len() - 1);
    }

    /// Takes the sequence number the next [`EventQueue::schedule`] would
    /// have used, for an event the caller keeps outside the heap (the
    /// kernel's clock interrupt). Comparing that event's `(at, seq)` with
    /// [`EventQueue::precedes_head`] then orders it exactly as if it had
    /// been scheduled here at this moment.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// True when an event at `at` holding sequence number `seq` would be
    /// delivered before every pending entry (always, when none is pending).
    pub fn precedes_head(&self, at: SimTime, seq: u64) -> bool {
        self.entries
            .first()
            .is_none_or(|&(key, _)| pack(at, seq) < key)
    }

    /// Returns the timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.first().map(|&(key, _)| key_time(key))
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.entries.is_empty() {
            return None;
        }
        let (key, payload) = self.entries.swap_remove(0);
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        Some((key_time(key), payload))
    }

    /// Removes and returns the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time().is_some_and(|t| t <= now) {
            self.pop()
        } else {
            None
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.entries[i].0 < self.entries[parent].0 {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.entries.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            // Smallest of the (up to four) children.
            let mut min = first;
            let last = (first + ARITY).min(len);
            for c in first + 1..last {
                if self.entries[c].0 < self.entries[min].0 {
                    min = c;
                }
            }
            if self.entries[min].0 < self.entries[i].0 {
                self.entries.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_cycles(30), 3);
        q.schedule(SimTime::from_cycles(10), 1);
        q.schedule(SimTime::from_cycles(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn stable_for_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_cycles(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// An event held outside the heap under a reserved sequence number
    /// interleaves with scheduled ones exactly as if it had been scheduled
    /// at the moment of reservation: equal times keep insertion order.
    #[test]
    fn reserved_seq_keeps_insertion_order_at_equal_times() {
        let t = SimTime::from_cycles(7);
        let mut q = EventQueue::new();
        q.schedule(t, "a");
        let held = q.reserve_seq();
        q.schedule(t, "c");
        q.schedule(SimTime::from_cycles(9), "later");
        // The held event (seq 1) goes after "a" (seq 0), before "c" (seq 2).
        assert!(!q.precedes_head(t, held));
        assert_eq!(q.pop(), Some((t, "a")));
        assert!(q.precedes_head(t, held));
        // An earlier time wins regardless of sequence; a later one loses.
        assert!(q.precedes_head(SimTime::from_cycles(6), u64::MAX));
        assert!(!q.precedes_head(SimTime::from_cycles(8), 0));
        assert_eq!(q.pop(), Some((t, "c")));
        // Re-reserving after more schedules lands behind them.
        q.schedule(SimTime::from_cycles(9), "also later");
        let again = q.reserve_seq();
        assert!(!q.precedes_head(SimTime::from_cycles(9), again));
        q.pop();
        q.pop();
        assert!(
            q.precedes_head(SimTime::from_cycles(9), again),
            "empty queue"
        );
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_cycles(100), "future");
        assert!(q.pop_due(SimTime::from_cycles(99)).is_none());
        assert_eq!(
            q.pop_due(SimTime::from_cycles(100)),
            Some((SimTime::from_cycles(100), "future"))
        );
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.peek_time().is_none());
    }

    /// Adversarial interleaving of pushes and pops: the heap must agree
    /// with a sorted reference on (time, insertion-order) at every drain.
    #[test]
    fn matches_reference_under_interleaving() {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time, seq)
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for seq in 0..2_000u64 {
            let t = rand() % 64;
            q.schedule(SimTime::from_cycles(t), seq);
            reference.push((t, seq));
            if seq % 3 == 0 {
                reference.sort();
                let expect = reference.remove(0);
                let (at, payload) = q.pop().unwrap();
                assert_eq!((at.cycles(), payload), expect);
            }
        }
        reference.sort();
        for expect in reference {
            let (at, payload) = q.pop().unwrap();
            assert_eq!((at.cycles(), payload), expect);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn with_capacity_starts_empty() {
        let q: EventQueue<u8> = EventQueue::with_capacity(128);
        assert!(q.is_empty());
    }
}
