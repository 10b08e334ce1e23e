//! Where a stalled wait edge may leave the CPU.
//!
//! The TM kernels have a fixed set of edges where a thread stops making
//! progress until another thread acts: condvar parks, serial-gate drains,
//! baseline mutex acquisition, quiescence stragglers. On a plain thread
//! every such edge parks the *OS thread* (the [`crate::sched::block_enter`]
//! / [`crate::sched::block_exit`] brackets mark exactly these sites). On an
//! in-tree async executor ([`crate::exec`]) worker the same edges must
//! instead return `Poll::Pending` and re-arm a task [`std::task::Waker`] —
//! an OS park there would freeze every task multiplexed onto the worker.
//!
//! Each thread carries one flag, "this is an executor worker", set by the
//! executor for a worker's whole life. Reaching a real OS park with it set
//! is a bug in the runtime — the async runner must have routed the wait
//! through a pollable primitive instead — so [`enter_os_park`] fails a
//! debug assertion (pinned by a test). The assertion piggybacks on the
//! existing `block_enter` sites: every OS park in the kernels is already
//! bracketed, so auditing the workers reduces to auditing one function.

use std::cell::Cell;

thread_local! {
    static WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Mark the current thread as an executor worker until the returned guard
/// drops, which restores the previous flag.
pub(crate) fn enter_worker() -> WorkerGuard {
    WorkerGuard {
        prev: WORKER.with(|w| w.replace(true)),
    }
}

/// Whether the current thread is an executor worker.
pub(crate) fn is_worker() -> bool {
    WORKER.with(Cell::get)
}

/// Restores the previous worker flag on drop.
#[must_use = "dropping the guard restores the previous worker flag"]
pub(crate) struct WorkerGuard {
    prev: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        WORKER.with(|w| w.set(self.prev));
    }
}

/// Audit hook fired by [`crate::sched::block_enter`] — i.e. at every real OS
/// park in the kernels. Debug builds verify no executor worker reaches one;
/// release builds compile this to nothing (the sync hot path pays no
/// thread-local read).
#[inline(always)]
pub fn enter_os_park() {
    if cfg!(debug_assertions) && is_worker() {
        panic!(
            "OS park reached under the waker backend: an async executor \
             worker attempted a blocking OS wait; route the wait through a \
             pollable primitive (Waiter::poll_signaled, Gate::poll_*, \
             quiesce drain_pass) instead"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_threads_may_park() {
        assert!(!is_worker());
        enter_os_park(); // must not panic
    }

    #[test]
    fn guards_nest_and_restore() {
        {
            let _g = enter_worker();
            assert!(is_worker());
            {
                let _g2 = enter_worker();
                assert!(is_worker());
            }
            assert!(is_worker());
        }
        assert!(!is_worker());
    }

    /// The blocking-wait audit: an executor worker must never reach an OS
    /// park. This is the pin for the debug assertion wired into
    /// `sched::block_enter`.
    #[test]
    #[should_panic(expected = "OS park reached")]
    fn workers_reject_os_park() {
        let _g = enter_worker();
        enter_os_park();
        // Release builds compile the check out; stand in for it there.
        #[cfg(not(debug_assertions))]
        panic!("OS park reached (release-mode stand-in)");
    }
}
