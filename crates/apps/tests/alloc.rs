//! The keystroke dispatch path allocates nothing per exec: a warmed Word
//! session handles a window of keystrokes with fewer heap allocations than
//! keystrokes. Costing a service call returns its packets inline and an
//! exec holds them inline, so what remains is amortized growth of the
//! logs and the document.

use latlab_apps::{Word, WordConfig};
use latlab_des::{CpuFreq, SimTime};
use latlab_os::{InputKind, KeySym, Machine, OsProfile, ProcessSpec};

mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    struct Counting;

    // SAFETY: every call forwards to `System` with the caller's own
    // arguments; the counter is a const-initialized thread-local `Cell`,
    // which never allocates.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: forwarded unchanged; the caller upholds
            // `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` via `alloc` or `realloc`
            // above, with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: as for `dealloc`; the caller upholds
            // `GlobalAlloc::realloc`'s contract for `new_size`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Allocations (and reallocations) this thread has made so far.
    pub fn on_this_thread() -> u64 {
        ALLOCS.with(Cell::get)
    }
}

#[test]
fn warmed_word_keystrokes_allocate_less_than_once_each() {
    const PACE_MS: u64 = 150;
    const WARM: u64 = 40;
    const WINDOW: u64 = 40;
    let freq = CpuFreq::PENTIUM_100;
    let at = |i: u64| SimTime::ZERO + freq.ms(100 + i * PACE_MS);
    let mut m = Machine::new(OsProfile::Nt351.params());
    let tid = m.spawn(
        ProcessSpec::app("word").with_heavy_async(),
        Box::new(Word::new(WordConfig::default())),
    );
    m.set_focus(tid);
    for i in 0..WARM + WINDOW {
        let key = if i % 6 == 5 {
            KeySym::Char(' ')
        } else {
            KeySym::Char(b"typing"[(i % 6) as usize] as char)
        };
        m.schedule_input_at(at(i), InputKind::Key(key));
    }
    m.run_until(at(WARM));
    let before = alloc_count::on_this_thread();
    m.run_until(at(WARM + WINDOW));
    let allocs = alloc_count::on_this_thread() - before;
    let handled = m.stats().inputs_delivered;
    assert_eq!(handled, WARM + WINDOW, "every keystroke arrived");
    assert!(
        allocs < WINDOW,
        "{WINDOW} warmed keystrokes made {allocs} allocations"
    );
}
