//! Opacity-log sessions: the `check` sink of [`crate::trace::emit`].
//!
//! Opacity is a statement about *histories*: every transaction — committed,
//! aborted, even a doomed zombie — must have read from some single consistent
//! snapshot, and committed writers must serialize in their commit order
//! (paper §IV, "transactional sequential consistency"). To check that
//! offline, the kernels' `Begin` / `Read` / `Write` / `Commit` / `Abort`
//! events (the [history kinds](crate::trace::TraceKind::is_history)) go to
//! one global log in stamp order; the checker in `tle-check` replays it
//! against a sequential oracle. What makes the log checkable is the
//! placement contract in [`crate::trace`]'s module docs.
//!
//! The log is written only while a session is armed ([`record`]); with the
//! feature compiled in but no session armed (the default even in test
//! builds), a history hook costs one relaxed atomic load and takes no
//! stamp. Sessions serialize on a global mutex, so two recording tests in
//! one binary cannot interleave their histories. Without the `check`
//! feature nothing here records anything.

/// Whether the opacity log is compiled in.
pub const fn compiled() -> bool {
    cfg!(feature = "check")
}

#[cfg(feature = "check")]
mod imp {
    use crate::trace::{self, TraceKind, TxEvent, TxMode};
    use crate::AbortCause;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard};

    static ARMED: AtomicBool = AtomicBool::new(false);
    /// One `Vec` behind one mutex: the explorer's heap layout, and with it
    /// its schedule tokens, depends on how this log grows.
    static LOG: Mutex<Vec<TxEvent>> = Mutex::new(Vec::new());
    /// Serializes recording sessions.
    static SESSION: Mutex<()> = Mutex::new(());

    fn lock_log() -> MutexGuard<'static, Vec<TxEvent>> {
        LOG.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[inline(always)]
    pub fn enabled() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    /// Stamp an event under the log's lock and append it, so the log is in
    /// stamp order; the ring stores the same event.
    pub fn log(
        kind: TraceKind,
        mode: TxMode,
        cause: Option<AbortCause>,
        detail: u64,
        val: u64,
    ) -> TxEvent {
        let thread = trace::thread_id();
        let mut log = lock_log();
        let e = TxEvent {
            ts: trace::stamp(),
            thread,
            kind,
            mode,
            cause,
            detail,
            val,
        };
        log.push(e);
        e
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
        pub fn finish(self) -> Vec<TxEvent> {
            ARMED.store(false, Ordering::SeqCst);
            std::mem::take(&mut *lock_log())
            // `self._session` drops here, releasing the session lock.
        }

        pub fn snapshot(&self) -> Vec<TxEvent> {
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
    use crate::trace::TxEvent;

    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    pub struct Recording;

    pub fn record() -> Recording {
        Recording
    }

    impl Recording {
        pub fn finish(self) -> Vec<TxEvent> {
            Vec::new()
        }
        pub fn snapshot(&self) -> Vec<TxEvent> {
            Vec::new()
        }
    }
}

#[cfg(feature = "check")]
pub(crate) use imp::log;
pub use imp::Recording;

/// Start a recording session: clears the log, arms the history hooks, and
/// holds a global session lock until the guard is dropped or
/// [`Recording::finish`]ed. Without the feature this returns an inert guard
/// and records nothing.
pub fn record() -> Recording {
    imp::record()
}

/// Whether recording is currently armed.
#[inline(always)]
pub fn enabled() -> bool {
    imp::enabled()
}

#[cfg(all(test, not(feature = "check")))]
mod tests_disabled {
    use super::*;
    use crate::trace::{emit, emit_access, TraceKind, TxMode};

    /// Mirror of `trace::hooks_compile_to_noops_without_feature`.
    #[test]
    fn history_hooks_compile_to_noops_without_feature() {
        #[cfg(feature = "trace")]
        let _emitters = crate::trace::emitters();
        assert!(!compiled());
        assert!(!enabled());
        let rec = record();
        emit(TraceKind::Begin, TxMode::Stm, None, 0);
        emit_access(TraceKind::Read, TxMode::Stm, 0x40, 7);
        emit(TraceKind::Commit, TxMode::Stm, None, 0);
        assert!(rec.snapshot().is_empty());
        assert!(rec.finish().is_empty());
    }
}

#[cfg(all(test, feature = "check"))]
mod tests_enabled {
    use super::*;
    use crate::trace::{emit, emit_access, TraceKind, TxMode};

    #[test]
    fn records_history_kinds_in_stamp_order() {
        let _emitters = crate::trace::emitters();
        let rec = record();
        assert!(enabled());
        emit(TraceKind::Begin, TxMode::Locked, None, 9);
        emit_access(TraceKind::Read, TxMode::Locked, 0x100, 1);
        emit(TraceKind::Extend, TxMode::Locked, None, 10);
        emit_access(TraceKind::Write, TxMode::Locked, 0x100, 2);
        emit(TraceKind::Commit, TxMode::Locked, None, 11);
        let events = rec.finish();
        assert!(!enabled());
        assert_eq!(events.len(), 4, "only the history kinds reach the log");
        assert_eq!(
            events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![
                TraceKind::Begin,
                TraceKind::Read,
                TraceKind::Write,
                TraceKind::Commit
            ]
        );
        for e in &events {
            assert_eq!(e.mode, TxMode::Locked);
            assert_eq!(e.thread, events[0].thread);
        }
        assert!(events.windows(2).all(|w| w[0].ts < w[1].ts));
        assert_eq!((events[0].detail, events[3].detail), (9, 11));
        assert_eq!((events[1].detail, events[1].val), (0x100, 1));
        assert_eq!((events[2].detail, events[2].val), (0x100, 2));
    }

    #[test]
    fn nothing_recorded_when_not_armed() {
        let _emitters = crate::trace::emitters();
        emit(TraceKind::Begin, TxMode::Htm, None, 0);
        emit_access(TraceKind::Read, TxMode::Htm, 0x8, 3);
        emit(TraceKind::Commit, TxMode::Htm, None, 0);
        let rec = record();
        assert!(rec.finish().is_empty());
    }

    #[test]
    fn drop_disarms_and_clears() {
        let _emitters = crate::trace::emitters();
        {
            let _rec = record();
            emit(TraceKind::Begin, TxMode::Norec, None, 0xD0);
            emit(TraceKind::Abort, TxMode::Norec, None, 0xD0);
        }
        assert!(!enabled());
        let rec = record();
        assert!(rec.snapshot().is_empty());
        drop(rec);
    }

    /// The log keeps the size of its element: the explorer's heap layout
    /// (and so its schedule tokens) depends on how the log grows.
    #[test]
    fn a_logged_event_is_four_words() {
        assert_eq!(std::mem::size_of::<crate::trace::TxEvent>(), 32);
    }
}
