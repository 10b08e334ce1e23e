//! The allocation half of the fast-path budget: once a thread's pooled
//! buffer block exists, a committed elided section — and a retried one —
//! never reaches the allocator.
//!
//! A counting `#[global_allocator]` tallies per thread (the libtest harness
//! runs each test on its own thread, and the buffer pool is thread-local
//! too), so the tests in this binary cannot see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tle_repro::htm::{HtmConfig, HtmGlobal};
use tle_repro::prelude::*;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the tally is a
// const-initialised `Cell` without a destructor, so touching it neither
// allocates nor outlives thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn steady_state_sections_do_not_allocate() {
    const SECTIONS: u64 = 10_000;
    for mode in [
        AlgoMode::StmCondvar,
        AlgoMode::HtmCondvar,
        AlgoMode::AdaptiveHtm,
    ] {
        // Default HTM config on purpose: its event aborts put retried
        // attempts inside the measured window.
        let sys = Arc::new(TmSystem::new(mode));
        let lock = ElidableMutex::new("budget");
        let cell = TCell::new(0u64);
        let th = sys.register();
        let increment = || {
            th.tx(&lock).run(|ctx| {
                let v = ctx.read(&cell)?;
                ctx.write(&cell, v + 1)
            })
        };
        for _ in 0..1_000 {
            increment();
        }
        let allocs = allocs_during(|| {
            for _ in 0..SECTIONS {
                increment();
            }
        });
        assert_eq!(
            allocs, 0,
            "{mode:?}: {allocs} allocations in {SECTIONS} sections"
        );
        assert_eq!(cell.load_direct(), 1_000 + SECTIONS);
    }
}

#[test]
fn a_retried_htm_attempt_leases_the_same_block_back() {
    let g = HtmGlobal::new(HtmConfig {
        event_prob: 0.0,
        ..HtmConfig::default()
    });
    let slot = g.slots.register_raw().unwrap();
    // Enough distinct lines to spill the read-line set past its inline tier.
    let cells: Vec<Box<TCell<u64>>> = (0..200).map(|i| Box::new(TCell::new(i))).collect();
    let attempt = |commit: bool| {
        let mut tx = g.begin(slot);
        for c in &cells {
            tx.read(c).unwrap();
        }
        if commit {
            tx.commit().unwrap();
        } else {
            tx.abort(AbortCause::Explicit);
        }
    };
    let first = allocs_during(|| attempt(false));
    assert!(
        first > 0,
        "the first attempt builds the block and its spill tier"
    );
    let retry = allocs_during(|| attempt(true));
    assert_eq!(
        retry, 0,
        "the retry must get the block back, capacity intact"
    );
    g.slots.unregister_raw(slot);
}
