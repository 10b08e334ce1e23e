//! Deterministic-scheduler instrumentation points (feature `check`).
//!
//! The TM kernels are lock-free state machines whose bugs live in specific
//! interleavings of a handful of atomics: orec acquire/release, version-clock
//! reads, the NOrec sequence lock, the serial gate, the quiescence scan, and
//! condvar park/notify. Stress tests only sample whatever schedules the OS
//! produces; a model checker needs to *drive* those interleavings. This
//! module is the contract between the kernels and such a driver: the kernels
//! announce every scheduling-relevant step through the hooks below, and a
//! per-thread [`Scheduler`] (installed by `tle-check`'s explorer) decides who
//! runs next.
//!
//! Like [`crate::trace`] and [`crate::fault`], this is a *plane*: without the
//! `check` feature every hook is an empty `#[inline(always)]` function
//! and the kernels compile exactly as before. With the feature on but no
//! scheduler registered on the current thread, a hook is one thread-local
//! read.
//!
//! Hook vocabulary:
//!
//! - [`yield_point`] — a preemption *candidate*: the scheduler may switch to
//!   another virtual thread here. Placed before TM-relevant atomics.
//! - [`spin_hint`] — a voluntary yield inside a spin/retry loop that cannot
//!   make progress until *another* thread acts (orec held, sequence lock odd,
//!   quiescence scan, gate drain). Under a cooperative scheduler the spinning
//!   thread must hand over the token or the loop livelocks; drivers rotate
//!   deterministically here without charging the preemption budget.
//! - [`block_enter`] / [`block_exit`] — bracket a real OS block (condvar
//!   park). The blocked thread stops being runnable until the matching exit.

use std::sync::Arc;

/// Where in the TM runtime a scheduling hook fired. Drivers may use this for
/// diagnostics or to focus exploration; the kernels just report honestly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YieldPoint {
    /// Sampling an ownership record before/after a data read.
    OrecLoad,
    /// Claiming an ownership record (eager write lock).
    OrecAcquire,
    /// Releasing ownership records at commit/rollback.
    OrecRelease,
    /// Reading the global version clock.
    ClockRead,
    /// Advancing the global version clock.
    ClockAdvance,
    /// NOrec global sequence lock (read, wait, or CAS).
    SeqLock,
    /// Read-set validation pass.
    Validate,
    /// A transactional store becoming visible (STM in-place / HTM publish).
    MemStore,
    /// HTM line-table reader/writer marking and the doom protocol.
    LineMark,
    /// HTM per-transaction state word (begin / commit CAS).
    TxState,
    /// The serial-irrevocability gate.
    SerialGate,
    /// The post-commit quiescence scan over publication slots.
    QuiesceScan,
    /// Elided lock word claim/subscribe on the adaptive path.
    LockWord,
    /// Condvar park (waiting side).
    Park,
    /// Condvar notify (signalling side).
    Notify,
}

/// A cooperative scheduling driver, installed per (OS) thread.
///
/// `tle-check` implements this with a token-passing core: exactly one of the
/// registered threads runs at a time, and every hook call is a chance to move
/// the token.
pub trait Scheduler: Send + Sync {
    /// A preemption candidate was reached (may switch threads).
    fn yield_point(&self, p: YieldPoint);
    /// A spin loop is waiting on another thread (must rotate).
    fn spin_hint(&self, p: YieldPoint);
    /// The current thread is about to block in the OS.
    fn block_enter(&self);
    /// The current thread returned from an OS block.
    fn block_exit(&self);
}

/// Whether the scheduling hooks are compiled in.
pub const fn compiled() -> bool {
    cfg!(feature = "check")
}

#[cfg(feature = "check")]
mod imp {
    use super::{Scheduler, YieldPoint};
    use std::cell::RefCell;
    use std::sync::Arc;

    thread_local! {
        static DRIVER: RefCell<Option<Arc<dyn Scheduler>>> = const { RefCell::new(None) };
    }

    pub fn register(s: Arc<dyn Scheduler>) {
        DRIVER.with(|d| *d.borrow_mut() = Some(s));
    }

    pub fn unregister() {
        DRIVER.with(|d| *d.borrow_mut() = None);
    }

    pub fn registered() -> bool {
        DRIVER.with(|d| d.borrow().is_some())
    }

    // Clone the Arc out of the thread-local before invoking the driver so a
    // hook fired from inside driver-adjacent code never holds the RefCell
    // borrow across the call.
    fn with_driver(f: impl FnOnce(&dyn Scheduler)) {
        let driver = DRIVER.with(|d| d.borrow().clone());
        if let Some(s) = driver {
            f(&*s);
        }
    }

    #[inline]
    pub fn yield_point(p: YieldPoint) {
        with_driver(|s| s.yield_point(p));
    }

    #[inline]
    pub fn spin_hint(p: YieldPoint) {
        with_driver(|s| s.spin_hint(p));
    }

    #[inline]
    pub fn block_enter() {
        with_driver(|s| s.block_enter());
    }

    #[inline]
    pub fn block_exit() {
        with_driver(|s| s.block_exit());
    }
}

#[cfg(not(feature = "check"))]
mod imp {
    use super::{Scheduler, YieldPoint};
    use std::sync::Arc;

    pub fn register(_s: Arc<dyn Scheduler>) {}
    pub fn unregister() {}
    pub fn registered() -> bool {
        false
    }
    #[inline(always)]
    pub fn yield_point(_p: YieldPoint) {}
    #[inline(always)]
    pub fn spin_hint(_p: YieldPoint) {}
    #[inline(always)]
    pub fn block_enter() {}
    #[inline(always)]
    pub fn block_exit() {}
}

/// Install a scheduling driver for the current thread. Hooks fired on this
/// thread are routed to it until [`unregister`]. No-op without the feature.
pub fn register(s: Arc<dyn Scheduler>) {
    imp::register(s);
}

/// Remove the current thread's driver (idempotent).
pub fn unregister() {
    imp::unregister();
}

/// Whether the current thread has a driver installed.
pub fn registered() -> bool {
    imp::registered()
}

/// Preemption candidate: the driver may switch virtual threads here.
#[inline(always)]
pub fn yield_point(p: YieldPoint) {
    imp::yield_point(p);
}

/// Spin-loop yield: the driver must let some other thread run.
#[inline(always)]
pub fn spin_hint(p: YieldPoint) {
    imp::spin_hint(p);
}

/// The current thread is about to park in the OS.
///
/// Also the blocking-wait audit point: every real OS park in the kernels is
/// bracketed by this call, so routing it through
/// [`crate::park::enter_os_park`] verifies (in debug builds) that an async
/// executor worker never reaches one.
#[inline(always)]
pub fn block_enter() {
    crate::park::enter_os_park();
    imp::block_enter();
}

/// The current thread woke from an OS park.
#[inline(always)]
pub fn block_exit() {
    imp::block_exit();
}

#[cfg(all(test, not(feature = "check")))]
mod tests_disabled {
    use super::*;

    /// Mirror of `trace::hooks_compile_to_noops_without_feature`: with the
    /// feature off the hooks must be callable, free, and driverless.
    #[test]
    fn sched_hooks_compile_to_noops_without_feature() {
        assert!(!compiled());
        yield_point(YieldPoint::OrecAcquire);
        spin_hint(YieldPoint::SeqLock);
        block_enter();
        block_exit();
        assert!(!registered());
    }
}

#[cfg(all(test, feature = "check"))]
mod tests_enabled {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[derive(Default)]
    struct Counting {
        yields: AtomicUsize,
        spins: AtomicUsize,
        blocks: AtomicUsize,
        points: Mutex<Vec<YieldPoint>>,
    }

    impl Scheduler for Counting {
        fn yield_point(&self, p: YieldPoint) {
            self.yields.fetch_add(1, Ordering::Relaxed);
            self.points.lock().unwrap().push(p);
        }
        fn spin_hint(&self, _p: YieldPoint) {
            self.spins.fetch_add(1, Ordering::Relaxed);
        }
        fn block_enter(&self) {
            self.blocks.fetch_add(1, Ordering::Relaxed);
        }
        fn block_exit(&self) {}
    }

    #[test]
    fn hooks_route_to_registered_driver() {
        assert!(compiled());
        let drv = Arc::new(Counting::default());
        register(drv.clone());
        assert!(registered());
        yield_point(YieldPoint::OrecLoad);
        yield_point(YieldPoint::ClockAdvance);
        spin_hint(YieldPoint::QuiesceScan);
        block_enter();
        block_exit();
        unregister();
        assert!(!registered());
        // After unregister the hooks go quiet again.
        yield_point(YieldPoint::Park);
        assert_eq!(drv.yields.load(Ordering::Relaxed), 2);
        assert_eq!(drv.spins.load(Ordering::Relaxed), 1);
        assert_eq!(drv.blocks.load(Ordering::Relaxed), 1);
        assert_eq!(
            *drv.points.lock().unwrap(),
            vec![YieldPoint::OrecLoad, YieldPoint::ClockAdvance]
        );
    }

    #[test]
    fn driver_is_per_thread() {
        let drv = Arc::new(Counting::default());
        register(drv.clone());
        let t = std::thread::spawn(|| {
            // Fresh thread: no driver inherited.
            assert!(!registered());
            yield_point(YieldPoint::OrecLoad);
        });
        t.join().unwrap();
        assert_eq!(drv.yields.load(Ordering::Relaxed), 0);
        unregister();
    }
}
