//! Transaction event tracing: lock-free per-thread ring buffers.
//!
//! The statistics counters ([`crate::stats`]) tell us *how many* aborts of
//! each cause occurred; this module records *what happened*, in order: every
//! begin/read/write/commit/abort, quiescence-drain span, retry and serial
//! fallback, stamped with a process-wide logical timestamp. A whole elision
//! episode — attempt, conflict on orec 17, backoff, retry in serial mode —
//! is reconstructable from the merged event stream ([`snapshot`]).
//!
//! # Design
//!
//! - **Per-thread rings, single writer.** Each thread owns a fixed-size ring
//!   ([`RING_CAP`] events). [`emit`] appends to the calling thread's ring
//!   with plain relaxed stores; no CAS, no sharing on the write path.
//! - **Logical time.** A global `AtomicU64` orders events across threads;
//!   merging sorts by it. (The raw counter bump is the only cross-thread
//!   traffic per event.)
//! - **Packed events.** An event is three `u64` words (timestamp, detail,
//!   packed kind/mode/cause), stored as atomics so concurrent readers are
//!   race-free by construction. A [`snapshot`] taken while writers are
//!   running may see a *torn* oldest event as the ring wraps; tolerated, the
//!   tool is diagnostic.
//! - **Feature-gated.** Without the `trace` cargo feature every function
//!   here is an empty `#[inline]` stub and `TxEvent` construction is dead
//!   code — the hooks in `tle-stm`/`tle-htm`/`tle-core` compile to nothing
//!   (asserted by a `#[cfg]` test below), so tier-1 performance is
//!   untouched.

use crate::AbortCause;

/// Which execution mode an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TxMode {
    /// `ml_wt` software transaction.
    Stm = 0,
    /// NOrec software transaction.
    Norec = 1,
    /// Simulated hardware transaction.
    Htm = 2,
    /// Serial-irrevocable section (fallback or unsafe op).
    Serial = 3,
    /// Baseline / adaptive lock path (real mutex held).
    Locked = 4,
}

impl TxMode {
    /// Every mode, in discriminant order.
    pub const ALL: [TxMode; 5] = [
        TxMode::Stm,
        TxMode::Norec,
        TxMode::Htm,
        TxMode::Serial,
        TxMode::Locked,
    ];

    /// Decode from the packed representation.
    pub fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.get(v as usize).copied()
    }

    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            TxMode::Stm => "stm",
            TxMode::Norec => "norec",
            TxMode::Htm => "htm",
            TxMode::Serial => "serial",
            TxMode::Locked => "locked",
        }
    }
}

/// What happened. `detail` in [`TxEvent`] is kind-specific (orec index,
/// cache-line index, wait nanoseconds, attempt number, ...); see each
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A transaction attempt started. detail: start timestamp / snapshot.
    Begin = 0,
    /// A transactional read was recorded. detail: orec index (STM),
    /// cache-line table index (HTM), or cell address (NOrec).
    Read = 1,
    /// A transactional write was recorded. detail: as for `Read`.
    Write = 2,
    /// The attempt committed. detail: commit timestamp (STM/NOrec) or
    /// redo-log length (HTM).
    Commit = 3,
    /// The attempt aborted (cause attached). detail: kind-specific.
    Abort = 4,
    /// A conflict/doom/validation failure was *detected* (cause attached;
    /// the abort itself follows as a separate event). detail: orec or line
    /// index where detected.
    Conflict = 5,
    /// A successful timestamp extension. detail: new start time.
    Extend = 6,
    /// A quiescence drain started waiting. detail: drain-upto timestamp.
    QuiesceStart = 7,
    /// A quiescence drain finished. detail: nanoseconds waited.
    QuiesceEnd = 8,
    /// The runner is about to retry after a failed attempt (cause
    /// attached). detail: attempt number (backoff is `~16 << attempt` spins,
    /// bounded by the policy ceiling).
    Retry = 9,
    /// The runner gave up on concurrent attempts and entered the serial
    /// fallback. detail: attempts consumed before serializing.
    Fallback = 10,
    /// A committed wait registration parked the thread. detail: 1 if the
    /// wait timed out (and the cancel path ran), 0 if signaled.
    WaitPark = 11,
    /// The fault-injection oracle delivered a fault at a hazard point
    /// (cause attached for abort-class faults). detail:
    /// [`crate::fault::Hazard`] index.
    FaultInject = 12,
    /// The starvation ladder escalated a thread to serial-irrevocable
    /// mode after too many consecutive aborts. detail: the consecutive
    /// abort count that triggered the escalation.
    Escalate = 13,
    /// The quiescence watchdog observed a drain exceeding its deadline
    /// (the drain keeps waiting; this is the trip, not a failure).
    /// detail: nanoseconds waited so far.
    QuiesceStall = 14,
    /// The adaptive policy controller switched a lock's algorithm (cause
    /// attached when an abort class triggered the switch). detail: the old
    /// mode's discriminant in bits 8.. and the new mode's in bits ..8.
    ModeSwitch = 15,
    /// A transaction's retry-time budget expired before it could commit;
    /// the runner gave up instead of retrying or serializing. detail:
    /// attempts consumed before the deadline fired.
    DeadlineExceeded = 16,
    /// The admission controller shed a request at dispatch: the lock's
    /// degradation ladder is in its shed step, so the section failed fast
    /// instead of joining the storm. detail: queue depth observed at the
    /// shed decision.
    Shed = 17,
}

impl TraceKind {
    /// Every kind, in discriminant order.
    pub const ALL: [TraceKind; 18] = [
        TraceKind::Begin,
        TraceKind::Read,
        TraceKind::Write,
        TraceKind::Commit,
        TraceKind::Abort,
        TraceKind::Conflict,
        TraceKind::Extend,
        TraceKind::QuiesceStart,
        TraceKind::QuiesceEnd,
        TraceKind::Retry,
        TraceKind::Fallback,
        TraceKind::WaitPark,
        TraceKind::FaultInject,
        TraceKind::Escalate,
        TraceKind::QuiesceStall,
        TraceKind::ModeSwitch,
        TraceKind::DeadlineExceeded,
        TraceKind::Shed,
    ];

    /// Decode from the packed representation.
    pub fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.get(v as usize).copied()
    }

    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::Begin => "begin",
            TraceKind::Read => "read",
            TraceKind::Write => "write",
            TraceKind::Commit => "commit",
            TraceKind::Abort => "abort",
            TraceKind::Conflict => "conflict",
            TraceKind::Extend => "extend",
            TraceKind::QuiesceStart => "quiesce-start",
            TraceKind::QuiesceEnd => "quiesce-end",
            TraceKind::Retry => "retry",
            TraceKind::Fallback => "fallback",
            TraceKind::WaitPark => "wait-park",
            TraceKind::FaultInject => "fault-inject",
            TraceKind::Escalate => "escalate",
            TraceKind::QuiesceStall => "quiesce-stall",
            TraceKind::ModeSwitch => "mode-switch",
            TraceKind::DeadlineExceeded => "deadline-exceeded",
            TraceKind::Shed => "shed",
        }
    }
}

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxEvent {
    /// Process-wide logical timestamp (total order across threads).
    pub ts: u64,
    /// Tracing thread id (dense, assigned at first emit per thread).
    pub thread: u32,
    pub kind: TraceKind,
    pub mode: TxMode,
    /// Abort cause, for `Abort`/`Conflict`/`Retry` events.
    pub cause: Option<AbortCause>,
    /// Kind-specific payload; see [`TraceKind`].
    pub detail: u64,
}

impl std::fmt::Display for TxEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>8}] t{:02} {:>6} {:<13} detail={}",
            self.ts,
            self.thread,
            self.mode.label(),
            self.kind.label(),
            self.detail
        )?;
        if let Some(c) = self.cause {
            write!(f, " cause={c}")?;
        }
        Ok(())
    }
}

/// Events retained per thread. Power of two; older events are overwritten.
pub const RING_CAP: usize = 4096;

/// Whether event tracing is compiled in (`trace` cargo feature).
pub const fn compiled() -> bool {
    cfg!(feature = "trace")
}

#[cfg(feature = "trace")]
mod imp {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    /// Global logical clock: one bump per event.
    static LOGICAL_CLOCK: AtomicU64 = AtomicU64::new(0);
    /// Dense tracing-thread ids.
    static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

    fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
        static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static MY_RING: Arc<Ring> = {
            let ring = Arc::new(Ring::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)));
            registry().lock().unwrap().push(Arc::clone(&ring));
            ring
        };
    }

    /// Three packed words per event: ts, detail, meta.
    struct Slot {
        ts: AtomicU64,
        detail: AtomicU64,
        meta: AtomicU64,
    }

    pub(super) struct Ring {
        thread: u32,
        /// Monotonic write cursor; the slot index is `head % RING_CAP`.
        head: AtomicU64,
        slots: Box<[Slot]>,
    }

    impl Ring {
        fn new(thread: u32) -> Self {
            Ring {
                thread,
                head: AtomicU64::new(0),
                slots: (0..RING_CAP)
                    .map(|_| Slot {
                        ts: AtomicU64::new(0),
                        detail: AtomicU64::new(0),
                        meta: AtomicU64::new(0),
                    })
                    .collect(),
            }
        }

        #[inline]
        fn push(&self, kind: TraceKind, mode: TxMode, cause: Option<AbortCause>, detail: u64) {
            let ts = LOGICAL_CLOCK.fetch_add(1, Ordering::Relaxed);
            // tle-lint: allow(R8, "single-writer ring: this load reads the owning thread's own prior store; the Release below is what orders the payload for snapshot readers")
            let h = self.head.load(Ordering::Relaxed);
            let slot = &self.slots[(h as usize) & (RING_CAP - 1)];
            let cause_code = cause.map(|c| c.index() as u64 + 1).unwrap_or(0);
            let meta = kind as u64 | (mode as u64) << 8 | cause_code << 16;
            slot.ts.store(ts, Ordering::Relaxed);
            slot.detail.store(detail, Ordering::Relaxed);
            slot.meta.store(meta, Ordering::Relaxed);
            // Publish after the payload so a reader that observes the new
            // head sees initialized (if possibly torn-on-wrap) words.
            self.head.store(h + 1, Ordering::Release);
        }

        fn snapshot_into(&self, out: &mut Vec<TxEvent>) {
            let h = self.head.load(Ordering::Acquire);
            let n = h.min(RING_CAP as u64);
            for i in (h - n)..h {
                let slot = &self.slots[(i as usize) & (RING_CAP - 1)];
                let meta = slot.meta.load(Ordering::Relaxed);
                let kind = match TraceKind::from_u8((meta & 0xFF) as u8) {
                    Some(k) => k,
                    None => continue,
                };
                let mode = match TxMode::from_u8(((meta >> 8) & 0xFF) as u8) {
                    Some(m) => m,
                    None => continue,
                };
                let cause_code = ((meta >> 16) & 0xFF) as u8;
                let cause = if cause_code == 0 {
                    None
                } else {
                    AbortCause::from_u8(cause_code - 1)
                };
                out.push(TxEvent {
                    ts: slot.ts.load(Ordering::Relaxed),
                    thread: self.thread,
                    kind,
                    mode,
                    cause,
                    detail: slot.detail.load(Ordering::Relaxed),
                });
            }
        }
    }

    #[inline]
    pub fn emit(kind: TraceKind, mode: TxMode, cause: Option<AbortCause>, detail: u64) {
        MY_RING.with(|r| r.push(kind, mode, cause, detail));
    }

    pub fn snapshot() -> Vec<TxEvent> {
        let mut out = Vec::new();
        for ring in registry().lock().unwrap().iter() {
            ring.snapshot_into(&mut out);
        }
        out.sort_by_key(|e| e.ts);
        out
    }

    pub fn clear() {
        // Rings belong to their writer threads; "clearing" just forgets
        // everything published so far by resetting each ring's cursor. A
        // concurrent writer may lose a handful of in-flight events, which is
        // fine between benchmark trials (the only time this is called).
        for ring in registry().lock().unwrap().iter() {
            ring.head.store(0, Ordering::Release);
        }
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::*;

    /// No-op: the `trace` feature is disabled.
    #[inline(always)]
    pub fn emit(_kind: TraceKind, _mode: TxMode, _cause: Option<AbortCause>, _detail: u64) {}

    /// Always empty: the `trace` feature is disabled.
    pub fn snapshot() -> Vec<TxEvent> {
        Vec::new()
    }

    /// No-op: the `trace` feature is disabled.
    pub fn clear() {}
}

/// Record one event in the calling thread's ring (no-op unless the `trace`
/// feature is enabled).
#[inline(always)]
pub fn emit(kind: TraceKind, mode: TxMode, cause: Option<AbortCause>, detail: u64) {
    imp::emit(kind, mode, cause, detail);
}

/// Merge every thread's ring into one timestamp-ordered event list. Events
/// older than [`RING_CAP`]-per-thread have been overwritten. Empty when the
/// `trace` feature is disabled.
pub fn snapshot() -> Vec<TxEvent> {
    imp::snapshot()
}

/// Forget all recorded events (between benchmark trials).
pub fn clear() {
    imp::clear()
}

/// Per-kind/per-cause tally of an event list — the summarize half of the
/// `tle trace` command, also handy in tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Event counts indexed by [`TraceKind`] discriminant.
    pub by_kind: [u64; TraceKind::ALL.len()],
    /// Abort counts indexed by [`AbortCause::index`] (from `Abort` events).
    pub aborts_by_cause: [u64; AbortCause::COUNT],
    /// Distinct tracing threads seen.
    pub threads: u64,
}

impl TraceSummary {
    /// Tally `events`.
    pub fn of(events: &[TxEvent]) -> Self {
        let mut s = TraceSummary::default();
        let mut seen = std::collections::HashSet::new();
        for e in events {
            s.by_kind[e.kind as usize] += 1;
            if e.kind == TraceKind::Abort {
                if let Some(c) = e.cause {
                    s.aborts_by_cause[c.index()] += 1;
                }
            }
            seen.insert(e.thread);
        }
        s.threads = seen.len() as u64;
        s
    }

    /// Count of one event kind.
    pub fn kind(&self, k: TraceKind) -> u64 {
        self.by_kind[k as usize]
    }

    /// Count of `Abort` events with one cause.
    pub fn aborts(&self, c: AbortCause) -> u64 {
        self.aborts_by_cause[c.index()]
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests_enabled {
    use super::*;

    // The trace state is process-global and tests run concurrently, so
    // these tests only assert on events they can attribute to themselves
    // (via unique detail values), never on global totals.

    #[test]
    fn emit_and_snapshot_roundtrip() {
        let marker = 0xDEAD_0001u64;
        emit(TraceKind::Begin, TxMode::Stm, None, marker);
        emit(
            TraceKind::Abort,
            TxMode::Stm,
            Some(AbortCause::ReadConflict),
            marker,
        );
        let events: Vec<_> = snapshot()
            .into_iter()
            .filter(|e| e.detail == marker)
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceKind::Begin);
        assert_eq!(events[0].cause, None);
        assert_eq!(events[1].kind, TraceKind::Abort);
        assert_eq!(events[1].cause, Some(AbortCause::ReadConflict));
        assert!(
            events[0].ts < events[1].ts,
            "logical time must order events"
        );
        assert_eq!(events[0].thread, events[1].thread);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let marker = 0xDEAD_0002u64;
        for i in 0..(RING_CAP as u64 + 10) {
            emit(TraceKind::Read, TxMode::Htm, None, marker + (i << 32));
        }
        let mine: Vec<_> = snapshot()
            .into_iter()
            .filter(|e| e.detail & 0xFFFF_FFFF == marker)
            .collect();
        assert!(mine.len() <= RING_CAP);
        // The newest event must survive the wrap.
        assert!(mine.iter().any(|e| e.detail >> 32 == RING_CAP as u64 + 9));
    }

    #[test]
    fn events_merge_across_threads() {
        let marker = 0xDEAD_0003u64;
        let h = std::thread::spawn(move || {
            emit(TraceKind::Commit, TxMode::Norec, None, marker);
        });
        h.join().unwrap();
        emit(TraceKind::Commit, TxMode::Stm, None, marker);
        let mine: Vec<_> = snapshot()
            .into_iter()
            .filter(|e| e.detail == marker)
            .collect();
        assert_eq!(mine.len(), 2);
        assert_ne!(mine[0].thread, mine[1].thread);
    }

    #[test]
    fn summary_tallies_kinds_and_causes() {
        let events = vec![
            TxEvent {
                ts: 0,
                thread: 0,
                kind: TraceKind::Begin,
                mode: TxMode::Stm,
                cause: None,
                detail: 0,
            },
            TxEvent {
                ts: 1,
                thread: 1,
                kind: TraceKind::Abort,
                mode: TxMode::Htm,
                cause: Some(AbortCause::Capacity),
                detail: 0,
            },
        ];
        let s = TraceSummary::of(&events);
        assert_eq!(s.kind(TraceKind::Begin), 1);
        assert_eq!(s.kind(TraceKind::Abort), 1);
        assert_eq!(s.aborts(AbortCause::Capacity), 1);
        assert_eq!(s.threads, 2);
        assert!(compiled());
    }
}

#[cfg(all(test, not(feature = "trace")))]
mod tests_disabled {
    use super::*;

    /// Acceptance check: with the feature off the hooks are no-ops — emit
    /// records nothing and snapshot is always empty.
    #[test]
    fn hooks_compile_to_noops_without_feature() {
        assert!(!compiled());
        emit(TraceKind::Begin, TxMode::Stm, None, 1);
        emit(TraceKind::Abort, TxMode::Htm, Some(AbortCause::Conflict), 2);
        assert!(snapshot().is_empty());
        clear();
        assert!(snapshot().is_empty());
    }
}

#[cfg(test)]
mod tests_common {
    use super::*;

    #[test]
    fn kind_and_mode_roundtrip() {
        for (i, k) in TraceKind::ALL.iter().enumerate() {
            assert_eq!(TraceKind::from_u8(i as u8), Some(*k));
        }
        for (i, m) in TxMode::ALL.iter().enumerate() {
            assert_eq!(TxMode::from_u8(i as u8), Some(*m));
        }
        assert_eq!(TraceKind::from_u8(200), None);
        assert_eq!(TxMode::from_u8(200), None);
    }

    #[test]
    fn labels_are_distinct() {
        let kinds: std::collections::HashSet<_> =
            TraceKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(kinds.len(), TraceKind::ALL.len());
        let modes: std::collections::HashSet<_> = TxMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(modes.len(), TxMode::ALL.len());
    }

    #[test]
    fn event_display_is_readable() {
        let e = TxEvent {
            ts: 42,
            thread: 3,
            kind: TraceKind::Abort,
            mode: TxMode::Htm,
            cause: Some(AbortCause::Capacity),
            detail: 7,
        };
        let s = format!("{e}");
        assert!(s.contains("abort"));
        assert!(s.contains("htm"));
        assert!(s.contains("capacity"));
    }
}
