//! Transactional history recorder (feature `check`).
//!
//! Opacity is a statement about *histories*: every transaction — committed,
//! aborted, even a doomed zombie — must have read from some single consistent
//! snapshot, and committed writers must serialize in their commit order
//! (paper §IV, "transactional sequential consistency"). To check that
//! offline, the kernels record every transactional `begin` / `read` /
//! `write` / `commit` / `abort` into one globally ordered log; the checker in
//! `tle-check` then replays the log against a sequential oracle.
//!
//! This is a plane like [`crate::trace`]: without the `check` feature
//! every hook below is an empty `#[inline(always)]` function. With the
//! feature compiled but recording not armed (the default even in test
//! builds), a hook is a single relaxed atomic load — stress tests that share
//! the binary pay nothing noticeable. Recording is armed per *session*
//! ([`record`]), which serializes concurrent recording tests on a global
//! mutex.
//!
//! Event-placement contract (what makes the log checkable):
//!
//! - a writer's `Commit` event is pushed **before** its writes become visible
//!   to other threads' recorded reads (ml_wt: before orec release; NOrec:
//!   before the sequence lock goes even; HTM: at the `ACTIVE→COMMITTED` CAS,
//!   before redo publish — mid-publish readers are doomed and abort before
//!   recording), so the log order of `Commit` events is a valid serialization
//!   order of the writers;
//! - `Read` events record the value actually returned to the closure, after
//!   all consistency checks on that read;
//! - every transaction body ends in exactly one `Commit` or `Abort`; a
//!   missing terminator means the thread died mid-transaction and the checker
//!   treats the tail as an in-flight zombie.

use crate::trace::TxMode;

/// What a [`HistEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// A transaction (or serial/locked section) started.
    Begin,
    /// A transactional read returned `val` from `addr`.
    Read,
    /// A transactional write of `val` to `addr` (visibility per mode).
    Write,
    /// The transaction committed; its writes are (about to be) visible.
    Commit,
    /// The transaction aborted; its writes were (or will be) undone.
    Abort,
}

/// One recorded event. `seq` is the event's position in the global total
/// order; `thread` is a dense per-process recorder id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistEvent {
    /// Global total-order position (0-based).
    pub seq: u64,
    /// Dense recorder thread id.
    pub thread: u32,
    /// Event kind.
    pub kind: HistKind,
    /// Execution mode of the enclosing section.
    pub mode: TxMode,
    /// Cell address for `Read`/`Write`, 0 otherwise.
    pub addr: usize,
    /// Value read or written, 0 otherwise.
    pub val: u64,
}

/// Whether the recorder hooks are compiled in.
pub const fn compiled() -> bool {
    cfg!(feature = "check")
}

#[cfg(feature = "check")]
mod imp {
    use super::{HistEvent, HistKind};
    use crate::trace::TxMode;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::{Mutex, MutexGuard};

    static ARMED: AtomicBool = AtomicBool::new(false);
    static LOG: Mutex<Vec<HistEvent>> = Mutex::new(Vec::new());
    /// Serializes recording sessions: two tests in one binary cannot
    /// interleave their histories.
    static SESSION: Mutex<()> = Mutex::new(());
    static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

    thread_local! {
        static THREAD_ID: Cell<Option<u32>> = const { Cell::new(None) };
        /// Mode of the innermost recorded section on this thread, so
        /// read/write hooks don't need the mode threaded through.
        static CUR_MODE: Cell<TxMode> = const { Cell::new(TxMode::Serial) };
    }

    fn thread_id() -> u32 {
        THREAD_ID.with(|id| match id.get() {
            Some(t) => t,
            None => {
                let t = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
                id.set(Some(t));
                t
            }
        })
    }

    fn lock_log() -> MutexGuard<'static, Vec<HistEvent>> {
        LOG.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[inline]
    fn push(kind: HistKind, mode: TxMode, addr: usize, val: u64) {
        if !ARMED.load(Ordering::Relaxed) {
            return;
        }
        let thread = thread_id();
        let mut log = lock_log();
        let seq = log.len() as u64;
        log.push(HistEvent {
            seq,
            thread,
            kind,
            mode,
            addr,
            val,
        });
    }

    #[inline]
    pub fn begin(mode: TxMode) {
        CUR_MODE.with(|m| m.set(mode));
        push(HistKind::Begin, mode, 0, 0);
    }

    #[inline]
    pub fn read(addr: usize, val: u64) {
        push(HistKind::Read, CUR_MODE.with(|m| m.get()), addr, val);
    }

    #[inline]
    pub fn write(addr: usize, val: u64) {
        push(HistKind::Write, CUR_MODE.with(|m| m.get()), addr, val);
    }

    #[inline]
    pub fn commit() {
        push(HistKind::Commit, CUR_MODE.with(|m| m.get()), 0, 0);
    }

    #[inline]
    pub fn abort() {
        push(HistKind::Abort, CUR_MODE.with(|m| m.get()), 0, 0);
    }

    pub fn enabled() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    pub struct Recording {
        _session: MutexGuard<'static, ()>,
    }

    pub fn record() -> Recording {
        let session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        lock_log().clear();
        ARMED.store(true, Ordering::SeqCst);
        Recording { _session: session }
    }

    impl Recording {
        pub fn finish(self) -> Vec<HistEvent> {
            ARMED.store(false, Ordering::SeqCst);
            std::mem::take(&mut *lock_log())
            // `self._session` drops here, releasing the session lock.
        }

        pub fn snapshot(&self) -> Vec<HistEvent> {
            lock_log().clone()
        }
    }

    impl Drop for Recording {
        fn drop(&mut self) {
            ARMED.store(false, Ordering::SeqCst);
            lock_log().clear();
        }
    }
}

#[cfg(not(feature = "check"))]
mod imp {
    use super::HistEvent;
    use crate::trace::TxMode;

    #[inline(always)]
    pub fn begin(_mode: TxMode) {}
    #[inline(always)]
    pub fn read(_addr: usize, _val: u64) {}
    #[inline(always)]
    pub fn write(_addr: usize, _val: u64) {}
    #[inline(always)]
    pub fn commit() {}
    #[inline(always)]
    pub fn abort() {}
    pub fn enabled() -> bool {
        false
    }

    pub struct Recording;

    pub fn record() -> Recording {
        Recording
    }

    impl Recording {
        pub fn finish(self) -> Vec<HistEvent> {
            Vec::new()
        }
        pub fn snapshot(&self) -> Vec<HistEvent> {
            Vec::new()
        }
    }
}

pub use imp::Recording;

/// Start a recording session: clears the log, arms the hooks, and holds a
/// global session lock until the guard is dropped or [`Recording::finish`]ed.
/// Without the feature this returns an inert guard and records nothing.
pub fn record() -> Recording {
    imp::record()
}

/// Whether recording is currently armed.
pub fn enabled() -> bool {
    imp::enabled()
}

/// A section began in `mode`. Also latches `mode` for subsequent
/// read/write/commit/abort hooks on this thread.
#[inline(always)]
pub fn begin(mode: TxMode) {
    imp::begin(mode);
}

/// A transactional read of `addr` returned `val` to the closure.
#[inline(always)]
pub fn read(addr: usize, val: u64) {
    imp::read(addr, val);
}

/// The section wrote `val` to `addr`.
#[inline(always)]
pub fn write(addr: usize, val: u64) {
    imp::write(addr, val);
}

/// The section committed (see module docs for placement rules).
#[inline(always)]
pub fn commit() {
    imp::commit();
}

/// The section aborted; its writes are rolled back or discarded.
#[inline(always)]
pub fn abort() {
    imp::abort();
}

#[cfg(all(test, not(feature = "check")))]
mod tests_disabled {
    use super::*;
    use crate::trace::TxMode;

    /// Mirror of `trace::hooks_compile_to_noops_without_feature`.
    #[test]
    fn history_hooks_compile_to_noops_without_feature() {
        assert!(!compiled());
        assert!(!enabled());
        let rec = record();
        begin(TxMode::Stm);
        read(0x40, 7);
        write(0x40, 8);
        commit();
        abort();
        assert!(rec.snapshot().is_empty());
        assert!(rec.finish().is_empty());
    }
}

#[cfg(all(test, feature = "check"))]
mod tests_enabled {
    use super::*;
    use crate::trace::TxMode;

    #[test]
    fn records_events_in_global_order() {
        let rec = record();
        assert!(enabled());
        begin(TxMode::Stm);
        read(0x100, 1);
        write(0x100, 2);
        commit();
        let events = rec.finish();
        assert!(!enabled());
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![
                HistKind::Begin,
                HistKind::Read,
                HistKind::Write,
                HistKind::Commit
            ]
        );
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.mode, TxMode::Stm);
        }
        assert_eq!(events[1].addr, 0x100);
        assert_eq!(events[1].val, 1);
        assert_eq!(events[2].val, 2);
    }

    #[test]
    fn nothing_recorded_when_not_armed() {
        begin(TxMode::Htm);
        read(0x8, 3);
        commit();
        let rec = record();
        assert!(rec.finish().is_empty());
    }

    #[test]
    fn drop_disarms_and_clears() {
        {
            let _rec = record();
            begin(TxMode::Norec);
            abort();
        }
        assert!(!enabled());
        let rec = record();
        assert!(rec.snapshot().is_empty());
        drop(rec);
    }
}
