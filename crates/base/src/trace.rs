//! Transaction events: one hook per kernel point, two sinks.
//!
//! The statistics counters ([`crate::stats`]) tell us *how many* aborts of
//! each cause occurred; this module records *what happened*, in order: every
//! begin/read/write/commit/abort, quiescence-drain span, retry and serial
//! fallback. Each kernel point calls one hook once — [`emit`], or
//! [`emit_access`] for a read or write — and the one stream feeds two
//! sinks, each behind its cargo feature:
//!
//! - **the event ring** (`trace`): per-thread rings of the last
//!   [`RING_CAP`] events, merged by [`snapshot`]. A whole elision episode —
//!   attempt, conflict on line 17, backoff, retry in serial mode — is
//!   reconstructable from it; `tle trace` prints it.
//! - **the opacity log** (`check`): while a [`crate::history::record`]
//!   session is armed, the [history kinds](TraceKind::is_history) (`Begin`,
//!   `Read`, `Write`, `Commit`, `Abort`) also go to one global log, which
//!   `tle-check`'s oracle replays.
//!
//! # One record, one clock
//!
//! Both sinks store a [`TxEvent`]: kind, mode, optional abort cause, a
//! `detail` word and a `val` word — for `Read`/`Write` the cell address and
//! the value, otherwise a kind-specific payload (see [`TraceKind`]). Its
//! stamp comes from one process-wide logical clock, the order of both
//! sinks: an armed history event is stamped under the log's lock (so the
//! log is in stamp order) and the ring stores the same stamp. The ring
//! stamps every event; the log stamps only what it records, so a `check`
//! build with no session armed pays one relaxed load per history hook and
//! never bumps the clock.
//!
//! # Placement contract
//!
//! What makes the stream checkable against the paper's §IV contract
//! ("transactional sequential consistency"):
//!
//! - a writer's `Commit` is emitted **before** its writes become visible to
//!   other threads' reads (ml_wt: before orec release; NOrec: while the
//!   sequence lock is odd; HTM: at the `ACTIVE→COMMITTED` CAS, before the
//!   redo publish, whose mid-publish readers are doomed and abort before
//!   emitting; lock and serial sections: before the exclusion is released),
//!   so the stamp order of `Commit` events is a valid serialization order of
//!   the writers. A read-only commit is emitted at its linearization point
//!   (ml_wt and NOrec: before the slot goes `INACTIVE`; HTM: at its state
//!   load);
//! - `Read` carries the value actually returned to the closure (read-own-write
//!   included) and is emitted after every consistency check on that read;
//! - every section ends in exactly one `Commit` or `Abort`; a missing
//!   terminator means the thread died mid-transaction, and the oracle treats
//!   the tail as an in-flight zombie.
//!
//! # Ring design
//!
//! - **Per-thread rings, single writer.** [`emit`] appends to the calling
//!   thread's ring with plain relaxed stores; no CAS, no sharing on the
//!   write path beyond the clock bump. When a thread exits its ring goes to
//!   a free list and the next new thread reuses it (fresh thread id, head
//!   reset), so memory follows the live threads, not every thread ever
//!   spawned; [`snapshot`] still sees an exited thread's events until then.
//! - **Packed events.** Four `u64` words (timestamp, detail, value, packed
//!   kind/mode/cause), stored as atomics so concurrent readers are race-free
//!   by construction. A [`snapshot`] taken while writers are running may see
//!   a *torn* oldest event as the ring wraps; tolerated, the tool is
//!   diagnostic.
//! - **Feature-gated.** With neither feature [`emit`] is an empty
//!   `#[inline(always)]` function and its arguments are dead code — the
//!   hooks in `tle-stm`/`tle-htm`/`tle-core` compile to nothing (asserted by
//!   a `#[cfg]` test below, and for whole binaries by `ci/codegen_diff.sh`),
//!   so release kernels are untouched.

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

/// What happened. `detail` in [`TxEvent`] is kind-specific (cell address,
/// cache-line index, wait nanoseconds, attempt number, ...); see each
/// variant. The first five kinds are the [history
/// kinds](TraceKind::is_history).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// A transaction attempt or a lock/serial section started. detail:
    /// start timestamp (ml_wt), snapshot (NOrec), slot (HTM), 0 (lock and
    /// serial sections).
    Begin = 0,
    /// A read returned a value to the section (read-own-write included).
    /// detail: cell address; val: the value.
    Read = 1,
    /// The section wrote a cell (buffered or in place). detail: cell
    /// address; val: the value.
    Write = 2,
    /// The attempt committed. detail: commit timestamp (ml_wt writer, NOrec),
    /// 0 (ml_wt read-only, lock and serial sections) or redo-log length
    /// (HTM).
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
    /// attached). detail: attempt number (the backoff before the retry is
    /// decorrelated jitter under the policy ceiling).
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

    /// Whether the kind is one of the five the opacity log records
    /// (`Begin`, `Read`, `Write`, `Commit`, `Abort`).
    #[inline(always)]
    pub fn is_history(self) -> bool {
        self as u8 <= TraceKind::Abort as u8
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

/// One event of the stream, as both sinks store it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxEvent {
    /// Logical timestamp: the one total order across threads and sinks.
    pub ts: u64,
    /// Event-thread id (dense, assigned at a thread's first event).
    pub thread: u32,
    pub kind: TraceKind,
    pub mode: TxMode,
    /// Abort cause, for `Abort`/`Conflict`/`Retry` events.
    pub cause: Option<AbortCause>,
    /// Kind-specific payload; see [`TraceKind`]. The cell address for
    /// `Read`/`Write`.
    pub detail: u64,
    /// The value read or written (`Read`/`Write`); 0 for every other kind.
    pub val: u64,
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

/// Whether the event ring is compiled in (`trace` cargo feature).
pub const fn compiled() -> bool {
    cfg!(feature = "trace")
}

/// The clock and the thread ids both sinks share.
#[cfg(any(feature = "trace", feature = "check"))]
mod stamp {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    /// Global logical clock: one bump per stamped event.
    static LOGICAL_CLOCK: AtomicU64 = AtomicU64::new(0);
    static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

    thread_local! {
        static THREAD_ID: Cell<Option<u32>> = const { Cell::new(None) };
    }

    #[inline]
    pub fn next() -> u64 {
        LOGICAL_CLOCK.fetch_add(1, Ordering::Relaxed)
    }

    pub fn thread_id() -> u32 {
        THREAD_ID.with(|id| match id.get() {
            Some(t) => t,
            None => {
                let t = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
                id.set(Some(t));
                t
            }
        })
    }
}

#[cfg(any(feature = "trace", feature = "check"))]
pub(crate) use stamp::{next as stamp, thread_id};

#[cfg(feature = "trace")]
mod ring {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard};

    /// Every ring ever allocated: what [`snapshot`] merges.
    static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
    /// Rings of exited threads, oldest exit first, handed to new threads.
    static FREE: Mutex<VecDeque<Arc<Ring>>> = Mutex::new(VecDeque::new());

    fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A thread's hold on its ring; dropped at thread exit, it returns the
    /// ring to [`FREE`], so memory follows the live threads, not every
    /// thread ever spawned.
    struct Held(Arc<Ring>);

    impl Drop for Held {
        fn drop(&mut self) {
            lock(&FREE).push_back(Arc::clone(&self.0));
        }
    }

    thread_local! {
        static MY_RING: Held = Held(take());
    }

    /// A ring for a new thread: the longest-freed one (fresh thread id, head
    /// reset) if any, else a newly registered one. A freed ring stays
    /// visible to [`snapshot`] until this reuse, so the threads that exited
    /// last keep their events longest.
    fn take() -> Arc<Ring> {
        let thread = super::thread_id();
        let reused = lock(&FREE).pop_front();
        if let Some(ring) = reused {
            ring.thread.store(thread, Ordering::Relaxed);
            ring.head.store(0, Ordering::Release);
            return ring;
        }
        let ring = Arc::new(Ring::new(thread));
        lock(&RINGS).push(Arc::clone(&ring));
        ring
    }

    /// Four packed words per event: ts, detail, val, meta.
    #[derive(Default)]
    struct Slot {
        ts: AtomicU64,
        detail: AtomicU64,
        val: AtomicU64,
        meta: AtomicU64,
    }

    struct Ring {
        thread: AtomicU32,
        /// Monotonic write cursor; the slot index is `head % RING_CAP`.
        head: AtomicU64,
        slots: Box<[Slot]>,
    }

    impl Ring {
        fn new(thread: u32) -> Self {
            Ring {
                thread: AtomicU32::new(thread),
                head: AtomicU64::new(0),
                slots: (0..RING_CAP).map(|_| Slot::default()).collect(),
            }
        }

        #[inline]
        fn push(&self, e: &TxEvent) {
            // tle-lint: allow(R8, "single-writer ring: this load reads the owning thread's own prior store; the Release below is what orders the payload for snapshot readers")
            let h = self.head.load(Ordering::Relaxed);
            let slot = &self.slots[(h as usize) & (RING_CAP - 1)];
            let cause_code = e.cause.map(|c| c.index() as u64 + 1).unwrap_or(0);
            let meta = e.kind as u64 | (e.mode as u64) << 8 | cause_code << 16;
            slot.ts.store(e.ts, Ordering::Relaxed);
            slot.detail.store(e.detail, Ordering::Relaxed);
            slot.val.store(e.val, Ordering::Relaxed);
            slot.meta.store(meta, Ordering::Relaxed);
            // Publish after the payload so a reader that observes the new
            // head sees initialized (if possibly torn-on-wrap) words.
            self.head.store(h + 1, Ordering::Release);
        }

        fn snapshot_into(&self, out: &mut Vec<TxEvent>) {
            let h = self.head.load(Ordering::Acquire);
            let n = h.min(RING_CAP as u64);
            let thread = self.thread.load(Ordering::Relaxed);
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
                    thread,
                    kind,
                    mode,
                    cause,
                    detail: slot.detail.load(Ordering::Relaxed),
                    val: slot.val.load(Ordering::Relaxed),
                });
            }
        }
    }

    /// Append to the calling thread's ring. A hook that runs during thread
    /// teardown, after the ring went back to [`FREE`], is dropped.
    #[inline]
    pub fn push(e: TxEvent) {
        let _ = MY_RING.try_with(|held| held.0.push(&e));
    }

    pub fn snapshot() -> Vec<TxEvent> {
        let mut out = Vec::new();
        for ring in lock(&RINGS).iter() {
            ring.snapshot_into(&mut out);
        }
        out.sort_by_key(|e| e.ts);
        out
    }

    pub fn clear() {
        // Rings belong to their writer threads; "clearing" just forgets
        // everything published so far by resetting each ring's cursor. A
        // concurrent writer may lose a handful of in-flight events, which is
        // fine between benchmark trials and test phases, where it is called.
        for ring in lock(&RINGS).iter() {
            ring.head.store(0, Ordering::Release);
        }
    }

    #[cfg(test)]
    pub fn rings() -> usize {
        lock(&RINGS).len()
    }
}

/// Record one event: append it to the calling thread's ring (`trace`
/// feature) and, while a [`crate::history::record`] session is armed, a
/// [history kind](TraceKind::is_history) to the opacity log too (`check`
/// feature), both under one stamp. With neither feature this is an empty
/// function and the arguments are dead code. `detail` is kind-specific (see
/// [`TraceKind`]); reads and writes go through [`emit_access`].
#[inline(always)]
pub fn emit(kind: TraceKind, mode: TxMode, cause: Option<AbortCause>, detail: u64) {
    fan_out(kind, mode, cause, detail, 0);
}

/// [`emit`] a `Read` or `Write` of the cell at `addr`, with the value read
/// or written.
#[inline(always)]
pub fn emit_access(kind: TraceKind, mode: TxMode, addr: u64, val: u64) {
    fan_out(kind, mode, None, addr, val);
}

#[inline(always)]
fn fan_out(kind: TraceKind, mode: TxMode, cause: Option<AbortCause>, detail: u64, val: u64) {
    #[cfg(feature = "check")]
    if kind.is_history() && crate::history::enabled() {
        let _e = crate::history::log(kind, mode, cause, detail, val);
        #[cfg(feature = "trace")]
        ring::push(_e);
        return;
    }
    #[cfg(feature = "trace")]
    ring::push(TxEvent {
        ts: stamp(),
        thread: 0, // the ring keeps its own
        kind,
        mode,
        cause,
        detail,
        val,
    });
    #[cfg(not(feature = "trace"))]
    let _ = (kind, mode, cause, detail, val);
}

thread_local! {
    /// The mode of the lock or serial section running on this thread. Its
    /// accesses go through `TxCtx`'s direct arm, which does not carry the
    /// mode: threading it there changes the lock path's machine code even
    /// with every hook compiled out.
    static DIRECT_MODE: std::cell::Cell<TxMode> = const { std::cell::Cell::new(TxMode::Serial) };
}

/// Emit the `Begin` of a lock or serial section and latch its `mode` for
/// the section's [`emit_direct`] accesses on this thread.
#[inline(always)]
pub fn begin_direct(mode: TxMode) {
    if compiled() || crate::history::compiled() {
        DIRECT_MODE.with(|m| m.set(mode));
    }
    emit(TraceKind::Begin, mode, None, 0);
}

/// [`emit_access`] for a lock or serial section, in the mode its
/// [`begin_direct`] latched. An unarmed `check`-only build still pays only
/// the one relaxed load.
#[inline(always)]
pub fn emit_direct(kind: TraceKind, addr: u64, val: u64) {
    if compiled() || crate::history::enabled() {
        emit_access(kind, DIRECT_MODE.with(|m| m.get()), addr, val);
    }
}

/// Merge every thread's ring into one timestamp-ordered event list. Events
/// older than [`RING_CAP`]-per-thread have been overwritten. Empty when the
/// `trace` feature is disabled.
pub fn snapshot() -> Vec<TxEvent> {
    #[cfg(feature = "trace")]
    return ring::snapshot();
    #[cfg(not(feature = "trace"))]
    Vec::new()
}

/// Forget all recorded ring events (between benchmark trials or test
/// phases; the opacity log has its own sessions).
pub fn clear() {
    #[cfg(feature = "trace")]
    ring::clear()
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

/// Held by every test in this crate that emits. Each test runs on a new
/// thread, and a thread's first event takes a freed ring if there is one:
/// unserialized, one test's thread could wipe the ring another test just
/// freed before that test read it back. Held, it also keeps other tests'
/// events out of a recording session, so `history`'s tests assert on the
/// whole log.
#[cfg(all(test, any(feature = "trace", feature = "check")))]
pub(crate) fn emitters() -> std::sync::MutexGuard<'static, ()> {
    static EMITTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    EMITTERS.lock().unwrap_or_else(|e| e.into_inner())
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
        let _emitters = emitters();
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
        let _emitters = emitters();
        for i in 0..(RING_CAP as u64 + 10) {
            emit_access(TraceKind::Read, TxMode::Htm, marker + (i << 32), i);
        }
        let mine: Vec<_> = snapshot()
            .into_iter()
            .filter(|e| e.detail & 0xFFFF_FFFF == marker)
            .collect();
        assert!(mine.len() <= RING_CAP);
        // The newest event must survive the wrap, value and all.
        assert!(mine
            .iter()
            .any(|e| e.detail >> 32 == RING_CAP as u64 + 9 && e.val == RING_CAP as u64 + 9));
    }

    #[test]
    fn events_merge_across_threads() {
        let marker = 0xDEAD_0003u64;
        let _emitters = emitters();
        // This thread emits first: its first event takes the oldest freed
        // ring, which is the spawned thread's own if no other is free.
        emit(TraceKind::Commit, TxMode::Stm, None, marker);
        let h = std::thread::spawn(move || {
            emit(TraceKind::Commit, TxMode::Norec, None, marker);
        });
        h.join().unwrap();
        let mine: Vec<_> = snapshot()
            .into_iter()
            .filter(|e| e.detail == marker)
            .collect();
        assert_eq!(mine.len(), 2);
        assert_ne!(mine[0].thread, mine[1].thread);
    }

    /// An exited thread's ring goes back to the free list and the next
    /// new thread takes it, so spawning thread after thread does not grow
    /// the registry with each one.
    #[test]
    fn exited_threads_hand_their_rings_on() {
        let marker = 0xDEAD_0004u64;
        let _emitters = emitters();
        let before = ring::rings();
        let mut ids = std::collections::HashSet::new();
        for i in 0..64u64 {
            std::thread::spawn(move || emit_access(TraceKind::Write, TxMode::Stm, marker, i))
                .join()
                .unwrap();
            // The last thread's event survives its exit until the next
            // thread reuses the ring.
            let mine: Vec<_> = snapshot()
                .into_iter()
                .filter(|e| e.detail == marker && e.val == i)
                .collect();
            assert_eq!(mine.len(), 1, "thread {i}'s event is visible after join");
            ids.insert(mine[0].thread);
        }
        assert_eq!(ids.len(), 64, "a reused ring carries a fresh thread id");
        let grown = ring::rings() - before;
        assert!(
            grown < 16,
            "64 sequential threads grew the registry by {grown} rings"
        );
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
                val: 0,
            },
            TxEvent {
                ts: 1,
                thread: 1,
                kind: TraceKind::Abort,
                mode: TxMode::Htm,
                cause: Some(AbortCause::Capacity),
                detail: 0,
                val: 0,
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
        #[cfg(feature = "check")]
        let _emitters = emitters();
        assert!(!compiled());
        emit(TraceKind::Begin, TxMode::Stm, None, 1);
        emit_access(TraceKind::Read, TxMode::Stm, 0x40, 7);
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
            val: 0,
        };
        let s = format!("{e}");
        assert!(s.contains("abort"));
        assert!(s.contains("htm"));
        assert!(s.contains("capacity"));
    }
}
