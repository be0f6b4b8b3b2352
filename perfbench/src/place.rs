//! Keeping the single-threaded simulator workloads on a quiet CPU.
//!
//! On a shared host each vCPU is a hardware thread whose sibling may run
//! another tenant's work. While the sibling is busy — in phases of one to
//! tens of seconds — cache- and branch-heavy code on that vCPU runs up to
//! 1.7× slower, and the phases of two vCPUs are independent of each other
//! (see README.md). A [`Placer`] pins the calling thread to one allowed
//! CPU and moves it to the next after an op that ran [`SLOW`] times slower
//! than the fastest seen, the way a scheduler moves work off a contended
//! core. It also moves after [`EXPLORE`] ops in one place, so that a run
//! which starts contended learns how fast a quiet CPU is. Ops are never
//! retried or discarded: placement only chooses where the next one runs.

/// An op this many times slower than the fastest one moves the thread.
const SLOW: f64 = 1.3;
/// Ops after which the thread moves even when none was slow.
const EXPLORE: u64 = 16;

pub struct Placer {
    /// CPUs the process may run on; placement is off with fewer than two.
    cpus: Vec<usize>,
    at: usize,
    best_ms: f64,
    /// Ops observed since the last move.
    stayed: u64,
    /// Moves made so far.
    pub moves: u64,
}

impl Placer {
    /// Pins the calling thread to the first allowed CPU, when `enabled`
    /// and the process may run on more than one.
    pub fn new(enabled: bool) -> Placer {
        let cpus = if enabled {
            affinity::allowed()
        } else {
            Vec::new()
        };
        let mut placer = Placer {
            cpus,
            at: 0,
            best_ms: f64::INFINITY,
            stayed: 0,
            moves: 0,
        };
        if placer.cpus.len() > 1 && !affinity::pin(&placer.cpus[..1]) {
            placer.cpus.clear();
        }
        placer
    }

    /// Notes an op's duration; moves to the next CPU if it was slow or
    /// the thread has stayed [`EXPLORE`] ops.
    pub fn observe(&mut self, ms: f64) {
        if self.cpus.len() < 2 {
            return;
        }
        self.best_ms = self.best_ms.min(ms);
        self.stayed += 1;
        if ms > self.best_ms * SLOW || self.stayed >= EXPLORE {
            self.stayed = 0;
            self.at = (self.at + 1) % self.cpus.len();
            affinity::pin(&self.cpus[self.at..=self.at]);
            self.moves += 1;
        }
    }

    /// Lets the thread run on every allowed CPU again, so that threads it
    /// spawns afterwards (servers of the layer probes) are not pinned.
    pub fn release(&mut self) {
        if self.cpus.len() > 1 {
            affinity::pin(&self.cpus);
        }
        self.cpus.clear();
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: a 1024-bit mask.
    type CpuSet = [u64; 16];
    const BITS: usize = 64 * 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..BITS)
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpus`; false if the kernel refused.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut set: CpuSet = [0; 16];
        for &c in cpus.iter().filter(|&&c| c < BITS) {
            set[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `set` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) -> bool {
        false
    }
}
